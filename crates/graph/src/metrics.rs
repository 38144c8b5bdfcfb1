//! Structural graph metrics reported alongside the network
//! experiments (so "regret vs. topology" tables can be read against
//! degree, clustering, and path-length columns).

use crate::csr::Graph;
use rand::Rng;

/// Degree summary of a graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Smallest degree.
    pub min: usize,
    /// Largest degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
}

/// Computes the degree summary.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    let n = g.num_nodes();
    let mut min = usize::MAX;
    let mut max = 0;
    let mut total = 0usize;
    for v in 0..n {
        let d = g.degree(v);
        min = min.min(d);
        max = max.max(d);
        total += d;
    }
    DegreeStats {
        min,
        max,
        mean: total as f64 / n as f64,
    }
}

/// Global clustering coefficient: the average, over nodes of degree
/// ≥ 2, of the fraction of neighbor pairs that are themselves joined.
/// Returns 0 if no node has degree ≥ 2.
pub fn clustering_coefficient(g: &Graph) -> f64 {
    // `mark[u] == v` while u is a neighbor of the current v; each
    // closed pair {a, b} (a < b) is counted once, from a's sorted list.
    let mut mark = vec![usize::MAX; g.num_nodes()];
    let mut total = 0.0;
    let mut counted = 0usize;
    for v in 0..g.num_nodes() {
        let nbrs = g.neighbors(v);
        if nbrs.len() < 2 {
            continue;
        }
        for &a in nbrs {
            mark[a as usize] = v;
        }
        let mut closed = 0usize;
        for &a in nbrs {
            let after = g.neighbors(a as usize);
            let after = &after[after.partition_point(|&b| b <= a)..];
            closed += after.iter().filter(|&&b| mark[b as usize] == v).count();
        }
        let pairs = nbrs.len() * (nbrs.len() - 1) / 2;
        total += closed as f64 / pairs as f64;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Estimated average shortest-path length over reachable pairs, by BFS
/// from `samples` random sources (all sources if `samples >= n`).
/// Returns `f64::INFINITY` if no pairs are reachable.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn average_path_length<R: Rng + ?Sized>(g: &Graph, samples: usize, rng: &mut R) -> f64 {
    assert!(samples > 0, "need at least one sample source");
    let n = g.num_nodes();
    let sources: Vec<usize> = if samples >= n {
        (0..n).collect()
    } else {
        (0..samples).map(|_| rng.gen_range(0..n)).collect()
    };
    let mut total = 0usize;
    let mut pairs = 0usize;
    for &s in &sources {
        for (v, &d) in g.bfs_distances(s).iter().enumerate() {
            if v != s && d != usize::MAX {
                total += d;
                pairs += 1;
            }
        }
    }
    if pairs == 0 {
        f64::INFINITY
    } else {
        total as f64 / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn degree_stats_on_star() {
        let g = topology::star(5);
        let s = degree_stats(&g);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_complete_is_one() {
        let g = topology::complete(6);
        assert!((clustering_coefficient(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_star_is_zero() {
        let g = topology::star(6);
        assert_eq!(clustering_coefficient(&g), 0.0);
    }

    /// The coefficient by testing every neighbor pair for an edge.
    fn clustering_by_pairs(g: &Graph) -> f64 {
        let mut total = 0.0;
        let mut counted = 0usize;
        for v in 0..g.num_nodes() {
            let nbrs = g.neighbors(v);
            if nbrs.len() < 2 {
                continue;
            }
            let mut closed = 0usize;
            for (i, &a) in nbrs.iter().enumerate() {
                for &b in &nbrs[i + 1..] {
                    if g.neighbors(a as usize).binary_search(&b).is_ok() {
                        closed += 1;
                    }
                }
            }
            let pairs = nbrs.len() * (nbrs.len() - 1) / 2;
            total += closed as f64 / pairs as f64;
            counted += 1;
        }
        if counted == 0 {
            0.0
        } else {
            total / counted as f64
        }
    }

    #[test]
    fn clustering_matches_pairwise_count_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut graphs = vec![
            topology::complete(30),
            topology::star(12),
            topology::two_cliques(40, 3),
            topology::ring(25, 3),
            Graph::from_edges(9, &[]).unwrap(),
        ];
        for (n, p) in [(40, 0.05), (60, 0.2), (50, 0.6), (2, 1.0)] {
            graphs.push(topology::erdos_renyi(n, p, &mut rng));
        }
        graphs.push(topology::watts_strogatz(80, 3, 0.3, &mut rng));
        graphs.push(topology::barabasi_albert(80, 3, &mut rng));
        for g in &graphs {
            assert_eq!(
                clustering_coefficient(g).to_bits(),
                clustering_by_pairs(g).to_bits()
            );
        }
    }

    #[test]
    fn clustering_ring_k2_known() {
        // Ring with k=2: each node's 4 neighbors have 3 closed pairs of
        // 6 -> coefficient 0.5 for n large enough.
        let g = topology::ring(20, 2);
        assert!((clustering_coefficient(&g) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn path_length_complete_is_one() {
        let g = topology::complete(8);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!((average_path_length(&g, 100, &mut rng) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_length_ring_exceeds_complete() {
        let mut rng = SmallRng::seed_from_u64(2);
        let ring = topology::ring(30, 1);
        let complete = topology::complete(30);
        let lr = average_path_length(&ring, 30, &mut rng);
        let lc = average_path_length(&complete, 30, &mut rng);
        assert!(lr > 3.0 * lc, "ring {lr} vs complete {lc}");
    }

    #[test]
    fn path_length_disconnected_counts_reachable_only() {
        let g = crate::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let apl = average_path_length(&g, 10, &mut rng);
        assert_eq!(apl, 1.0);
    }
}
