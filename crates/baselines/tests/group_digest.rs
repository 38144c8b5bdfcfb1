//! Pins the exact trajectories of the independent-bandit groups.
//!
//! The convergence tests accept any run that learns; they do not
//! notice a change that keeps the law but moves a single draw, which
//! would shift every seeded trajectory E9 reports. Each row runs one
//! `IndependentBanditGroup` through `run_one` at N = 50, m = 10 and
//! T = 200, hashes the per-step arm counts (step 0 included), and
//! compares the digest to a recorded constant. A change that must keep
//! every trajectory byte-identical has to leave this table untouched.

use sociolearn_baselines::{
    BanditPolicy, EpsilonGreedy, Exp3, IndependentBanditGroup, ThompsonSampling, Ucb1,
};
use sociolearn_core::BernoulliRewards;
use sociolearn_sim::{run_one, RunConfig};

const AGENTS: usize = 50;
const ARMS: usize = 10;
const HORIZON: u64 = 200;
const SEED: u64 = 20170508;

/// The recorded digests, one per policy.
const EXPECTED: [(&str, u64); 4] = [
    ("Thompson", 0xb3c90b1aaf207b87),
    ("UCB1", 0x993073a152eafac5),
    ("EXP3", 0x8e34fbab586b6511),
    ("eps-greedy", 0x1778b6fb441e6381),
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

/// Runs [`AGENTS`] copies of `policy` against one good arm among
/// [`ARMS`] and digests the arm counts after every step.
fn digest<P: BanditPolicy>(policy: impl FnMut() -> P) -> u64 {
    let group = IndependentBanditGroup::new(AGENTS, policy);
    let env = BernoulliRewards::one_good(ARMS, 0.9).expect("valid qualities");
    let cfg = RunConfig::new(HORIZON).with_stride(1);
    let rep = run_one(group, env, &cfg, SEED);
    assert_eq!(rep.history.len() as u64, HORIZON + 1, "every step recorded");
    let mut h = Fnv::new();
    for dist in rep.history.snapshots() {
        for &share in dist {
            // Shares are counts over N; this recovers the count exactly.
            h.word((share * AGENTS as f64).round() as u64);
        }
    }
    h.0
}

#[test]
fn bandit_groups_match_the_recorded_digests() {
    let got = [
        ("Thompson", digest(|| ThompsonSampling::new(ARMS).unwrap())),
        ("UCB1", digest(|| Ucb1::new(ARMS).unwrap())),
        ("EXP3", digest(|| Exp3::new(ARMS, 0.1).unwrap())),
        (
            "eps-greedy",
            digest(|| EpsilonGreedy::new(ARMS, 0.05).unwrap()),
        ),
    ];
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    ({name:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        got, EXPECTED,
        "bandit-group trajectories moved; the new table:\n{table}"
    );
}
