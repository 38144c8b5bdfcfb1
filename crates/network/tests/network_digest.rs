//! Pins the exact trajectories of the network-restricted dynamics.
//!
//! E11, the `ant_colony` example and the root equivalence and
//! failure-injection tests read `NetworkPopulation` only through
//! statistics, which accept any run that learns. Each row here runs one
//! population through `run_one` and hashes its per-step counts (step 0
//! included). A change that must keep every trajectory byte-identical
//! has to leave this table untouched.

use rand::rngs::SmallRng;
use sociolearn_core::{BernoulliRewards, GroupDynamics, Params};
use sociolearn_graph::{topology, Graph};
use sociolearn_network::NetworkPopulation;
use sociolearn_sim::{run_one, RunConfig};

const NODES: usize = 60;
const HORIZON: u64 = 150;
const SEED: u64 = 20170508;

/// The recorded digests, one per graph.
const EXPECTED: [(&str, u64); 5] = [
    ("ring", 0x0e4cc61ae283544b),
    ("star", 0x2137253ec6d55414),
    ("complete", 0x991e229accf2ba48),
    ("two-cliques", 0x123da5da2c5d98ab),
    ("isolated-node", 0xadd150a3ca0634a3),
];

/// FNV-1a over little-endian `u64` words: stable across platforms and
/// toolchains, unlike `std`'s hashers.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A population that hashes its committed counts after every step.
struct Digesting {
    pop: NetworkPopulation,
    hash: Fnv,
}

impl Digesting {
    fn new(pop: NetworkPopulation) -> Self {
        let mut d = Digesting {
            pop,
            hash: Fnv::new(),
        };
        d.record();
        d
    }

    fn record(&mut self) {
        let mut counts = vec![0u64; self.pop.num_options()];
        for c in self.pop.choices().iter().flatten() {
            counts[*c as usize] += 1;
        }
        for c in counts {
            self.hash.word(c);
        }
    }
}

impl GroupDynamics for Digesting {
    fn num_options(&self) -> usize {
        self.pop.num_options()
    }

    fn write_distribution(&self, out: &mut [f64]) {
        self.pop.write_distribution(out)
    }

    fn step(&mut self, rewards: &[bool], rng: &mut SmallRng) {
        self.pop.step(rewards, rng);
        self.record();
    }

    fn label(&self) -> &str {
        self.pop.label()
    }
}

/// Runs the dynamics on `graph` against three options and returns the
/// digest of its per-step counts.
fn digest(graph: Graph) -> u64 {
    let params = Params::new(3, 0.65).expect("valid params");
    let env = BernoulliRewards::new(vec![0.9, 0.5, 0.3]).expect("valid qualities");
    let mut run = Digesting::new(NetworkPopulation::new(params, graph));
    run_one(&mut run, env, &RunConfig::new(HORIZON), SEED);
    assert_eq!(run.pop.steps(), HORIZON, "every step taken");
    run.hash.0
}

/// A ring on all nodes but the last, which has no edge.
fn ring_with_isolated_node() -> Graph {
    let edges: Vec<(usize, usize)> = (0..NODES - 1).map(|v| (v, (v + 1) % (NODES - 1))).collect();
    Graph::from_edges(NODES, &edges).expect("valid edges")
}

#[test]
fn network_populations_match_the_recorded_digests() {
    let got = [
        ("ring", digest(topology::ring(NODES, 2))),
        ("star", digest(topology::star(NODES))),
        ("complete", digest(topology::complete(NODES))),
        ("two-cliques", digest(topology::two_cliques(NODES, 1))),
        ("isolated-node", digest(ring_with_isolated_node())),
    ];
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    ({name:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        got, EXPECTED,
        "network trajectories moved; the new table:\n{table}"
    );
}
