//! Generators for the standard topology families used by the network
//! experiments.

use crate::csr::Graph;
use rand::Rng;

/// Complete graph on `n` nodes. With neighbor-restricted sampling this
/// reproduces the paper's base (well-mixed) dynamics exactly, which is
/// the control condition in experiment E11.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: usize) -> Graph {
    assert!(n > 0, "need at least one node");
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for a in 0..n {
        for b in (a + 1)..n {
            edges.push((a, b));
        }
    }
    Graph::from_edges(n, &edges).expect("validated inputs")
}

/// Ring lattice: each node connects to its `k` nearest neighbors on
/// each side (so degree `2k`, clamped for tiny `n`).
///
/// # Panics
///
/// Panics if `n == 0` or `k == 0`.
pub fn ring(n: usize, k: usize) -> Graph {
    assert!(n > 0, "need at least one node");
    assert!(k > 0, "need at least one neighbor per side");
    let mut edges = Vec::new();
    for a in 0..n {
        for d in 1..=k.min(n / 2) {
            edges.push((a, (a + d) % n));
        }
    }
    Graph::from_edges(n, &edges).expect("validated inputs")
}

/// 2-D torus grid: `rows × cols` nodes, each joined to its four
/// wrap-around neighbors.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(rows > 0 && cols > 0, "dimensions must be positive");
    let idx = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            edges.push((idx(r, c), idx(r, (c + 1) % cols)));
            edges.push((idx(r, c), idx((r + 1) % rows, c)));
        }
    }
    Graph::from_edges(rows * cols, &edges).expect("validated inputs")
}

/// Erdős–Rényi `G(n, p)`: each pair joined independently with
/// probability `p`.
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not a probability.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!(n > 0, "need at least one node");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen_bool(p) {
                edges.push((a, b));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("validated inputs")
}

/// Watts–Strogatz small world: ring lattice with degree `2k`, each
/// edge rewired (one endpoint replaced by a uniform non-self node)
/// with probability `p_rewire`.
///
/// # Panics
///
/// Panics if `n < 3`, `k == 0`, or `p_rewire` is not a probability.
pub fn watts_strogatz<R: Rng + ?Sized>(n: usize, k: usize, p_rewire: f64, rng: &mut R) -> Graph {
    assert!(n >= 3, "need at least three nodes");
    assert!(k > 0, "need at least one neighbor per side");
    assert!(
        (0.0..=1.0).contains(&p_rewire),
        "p_rewire must be a probability"
    );
    let mut edges = Vec::new();
    for a in 0..n {
        for d in 1..=k.min(n / 2) {
            let b = (a + d) % n;
            if rng.gen_bool(p_rewire) {
                // Rewire: replace b by a random node != a.
                let mut nb = rng.gen_range(0..n);
                while nb == a {
                    nb = rng.gen_range(0..n);
                }
                edges.push((a, nb));
            } else {
                edges.push((a, b));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("validated inputs")
}

/// Barabási–Albert preferential attachment: start from a `seed`-clique,
/// then each new node attaches to `k` existing nodes chosen with
/// probability proportional to their degree.
///
/// # Panics
///
/// Panics if `n == 0`, `k == 0`, or `k > n`.
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Graph {
    assert!(n > 0, "need at least one node");
    assert!(k > 0 && k <= n, "attachment count must be in 1..=n");
    let seed = (k + 1).min(n);
    let mut edges = Vec::new();
    // Degree-proportional sampling via the "repeated endpoints" urn.
    let mut urn: Vec<usize> = Vec::new();
    for a in 0..seed {
        for b in (a + 1)..seed {
            edges.push((a, b));
            urn.push(a);
            urn.push(b);
        }
    }
    for v in seed..n {
        let mut targets = Vec::with_capacity(k);
        let mut guard = 0;
        while targets.len() < k && guard < 100 * k {
            let candidate = urn[rng.gen_range(0..urn.len())];
            if candidate != v && !targets.contains(&candidate) {
                targets.push(candidate);
            }
            guard += 1;
        }
        // Fallback for pathological urns: attach to lowest ids.
        let mut fill = 0;
        while targets.len() < k {
            if fill != v && !targets.contains(&fill) {
                targets.push(fill);
            }
            fill += 1;
        }
        for &t in &targets {
            edges.push((v, t));
            urn.push(v);
            urn.push(t);
        }
    }
    Graph::from_edges(n, &edges).expect("validated inputs")
}

/// Star: node 0 joined to every other node.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "star needs at least two nodes");
    let edges: Vec<(usize, usize)> = (1..n).map(|b| (0, b)).collect();
    Graph::from_edges(n, &edges).expect("validated inputs")
}

/// Two cliques of `n/2` nodes joined by `bridges` edges — the classic
/// slow-mixing topology for studying information bottlenecks.
///
/// # Panics
///
/// Panics if `n < 4` or `bridges == 0`.
pub fn two_cliques(n: usize, bridges: usize) -> Graph {
    assert!(n >= 4, "need at least four nodes");
    assert!(bridges > 0, "need at least one bridge");
    let half = n / 2;
    let mut edges = Vec::new();
    for a in 0..half {
        for b in (a + 1)..half {
            edges.push((a, b));
        }
    }
    for a in half..n {
        for b in (a + 1)..n {
            edges.push((a, b));
        }
    }
    for i in 0..bridges.min(half) {
        edges.push((i, half + i));
    }
    Graph::from_edges(n, &edges).expect("validated inputs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn complete_degrees() {
        let g = complete(6);
        assert_eq!(g.edges().count(), 15);
        for v in 0..6 {
            assert_eq!(g.degree(v), 5);
        }
        assert!(g.is_connected());
    }

    #[test]
    fn ring_degrees_and_connectivity() {
        let g = ring(10, 2);
        for v in 0..10 {
            assert_eq!(g.degree(v), 4);
        }
        assert!(g.is_connected());
        // k >= n/2 collapses to (near-)complete without panicking.
        let g = ring(5, 10);
        assert!(g.is_connected());
    }

    #[test]
    fn torus_degrees() {
        let g = torus(4, 5);
        assert_eq!(g.num_nodes(), 20);
        for v in 0..20 {
            assert_eq!(g.degree(v), 4);
        }
        assert!(g.is_connected());
    }

    #[test]
    fn torus_degenerate_dimensions() {
        // 1×n torus collapses duplicate wrap edges; still connected.
        let g = torus(1, 5);
        assert!(g.is_connected());
        let g = torus(2, 2);
        assert!(g.is_connected());
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let empty = erdos_renyi(10, 0.0, &mut rng);
        assert_eq!(empty.edges().count(), 0);
        let full = erdos_renyi(10, 1.0, &mut rng);
        assert_eq!(full.edges().count(), 45);
    }

    #[test]
    fn erdos_renyi_edge_count_near_expectation() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = erdos_renyi(100, 0.1, &mut rng);
        let expected = 4950.0 * 0.1;
        assert!(
            (g.edges().count() as f64 - expected).abs() < expected * 0.25,
            "edges {} vs expected {expected}",
            g.edges().count()
        );
    }

    #[test]
    fn watts_strogatz_zero_rewire_is_ring() {
        let mut rng = SmallRng::seed_from_u64(3);
        let ws = watts_strogatz(12, 2, 0.0, &mut rng);
        let r = ring(12, 2);
        assert_eq!(ws, r);
    }

    #[test]
    fn watts_strogatz_rewired_still_reasonable() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = watts_strogatz(50, 3, 0.3, &mut rng);
        assert_eq!(g.num_nodes(), 50);
        // Edge count can only shrink via dedup collisions.
        assert!(g.edges().count() <= 150);
        assert!(g.edges().count() > 100);
    }

    #[test]
    fn barabasi_albert_hub_structure() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = barabasi_albert(200, 2, &mut rng);
        assert!(g.is_connected());
        let max_deg = (0..200).map(|v| g.degree(v)).max().unwrap();
        let min_deg = (0..200).map(|v| g.degree(v)).min().unwrap();
        assert!(max_deg >= 10, "expected a hub, max degree {max_deg}");
        assert!(min_deg >= 2);
    }

    #[test]
    fn star_structure() {
        let g = star(7);
        assert_eq!(g.degree(0), 6);
        for v in 1..7 {
            assert_eq!(g.degree(v), 1);
        }
        assert!(g.is_connected());
    }

    #[test]
    fn two_cliques_bridge() {
        let g = two_cliques(10, 1);
        assert!(g.is_connected());
        // Within-clique distance 1, across 3 via the single bridge
        // (non-bridge nodes must route through it).
        let d = g.bfs_distances(1);
        assert_eq!(d[2], 1);
        assert!(d[6] >= 2);
    }
}
