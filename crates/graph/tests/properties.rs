//! Property-based tests of the graph substrate.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sociolearn_graph::{metrics, topology, Graph};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn from_edges_degree_sum_is_twice_edges(
        n in 1usize..40,
        raw_edges in proptest::collection::vec((0usize..40, 0usize..40), 0..120),
    ) {
        let edges: Vec<(usize, usize)> =
            raw_edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let g = Graph::from_edges(n, &edges).expect("endpoints are in range");
        let degree_sum: usize = (0..n).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edges().count());
        // Adjacency is symmetric.
        for (a, b) in g.edges() {
            prop_assert!(g.neighbors(a).contains(&(b as u32)));
            prop_assert!(g.neighbors(b).contains(&(a as u32)));
            prop_assert_ne!(a, b, "self-loop survived construction");
        }
    }

    #[test]
    fn bfs_distances_satisfy_triangle_step(
        n in 2usize..30,
        raw_edges in proptest::collection::vec((0usize..30, 0usize..30), 1..80),
        source in 0usize..30,
    ) {
        let edges: Vec<(usize, usize)> =
            raw_edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let g = Graph::from_edges(n, &edges).expect("valid");
        let source = source % n;
        let dist = g.bfs_distances(source);
        prop_assert_eq!(dist[source], 0);
        // Adjacent nodes differ by at most 1 in BFS distance.
        for (a, b) in g.edges() {
            match (dist[a], dist[b]) {
                (usize::MAX, usize::MAX) => {}
                (da, db) => {
                    prop_assert!(da != usize::MAX && db != usize::MAX,
                        "edge between reached and unreached node");
                    prop_assert!(da.abs_diff(db) <= 1);
                }
            }
        }
    }

    #[test]
    fn ring_is_vertex_transitive(n in 3usize..60, k in 1usize..5) {
        let g = topology::ring(n, k);
        let d0 = g.degree(0);
        for v in 1..n {
            prop_assert_eq!(g.degree(v), d0);
        }
        prop_assert!(g.is_connected());
    }

    #[test]
    fn torus_always_4_regular_when_big_enough(r in 3usize..12, c in 3usize..12) {
        let g = topology::torus(r, c);
        for v in 0..r * c {
            prop_assert_eq!(g.degree(v), 4);
        }
        prop_assert!(g.is_connected());
        // Width-3 wrap-around rows/columns are triangles; from 4 up the
        // torus is triangle-free.
        if r >= 4 && c >= 4 {
            prop_assert_eq!(metrics::clustering_coefficient(&g), 0.0);
        }
    }

    #[test]
    fn watts_strogatz_connected_enough(n in 10usize..80, p in 0.0f64..0.5, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = topology::watts_strogatz(n, 2, p, &mut rng);
        prop_assert_eq!(g.num_nodes(), n);
        // Rewiring can only remove parallel duplicates.
        prop_assert!(g.edges().count() <= 2 * n);
        let stats = metrics::degree_stats(&g);
        prop_assert!(stats.mean <= 4.0 + 1e-9);
    }

    #[test]
    fn barabasi_albert_connected(n in 5usize..120, k in 1usize..4, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = topology::barabasi_albert(n, k, &mut rng);
        prop_assert!(g.is_connected());
        let stats = metrics::degree_stats(&g);
        prop_assert!(stats.min >= k.min(n - 1));
    }

    #[test]
    fn average_path_length_at_least_one(n in 2usize..40, p in 0.2f64..1.0, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = topology::erdos_renyi(n, p, &mut rng);
        let apl = metrics::average_path_length(&g, n, &mut rng);
        if apl.is_finite() {
            prop_assert!(apl >= 1.0);
        }
    }
}
