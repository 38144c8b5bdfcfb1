//! What both message-passing runtimes share: stage 1 of the protocol
//! and the bookkeeping around a round.
//!
//! [`stage_one`] is the only code that draws a node's µ-exploration
//! coin, its peer, or its uniform fallback option. The
//! round-synchronous [`Runtime`](crate::Runtime) calls it attempt by
//! attempt within the round; the event engine calls it once per
//! wake-up or retry timeout. [`RoundShell`] holds the configuration,
//! the membership schedule, the committed counts, the round counter and
//! the cumulative metrics, and opens and closes every round. So the
//! two runtimes differ only in their execution schedule: the
//! round-sync loop, or the calendar engine.

use rand::rngs::SmallRng;
use rand::Rng;
use sociolearn_core::Params;

use crate::cast::index_u32;
use crate::{
    DistConfig, MembershipTracker, Metrics, NodeState, RoundMetrics, Transition, MAX_QUERY_RETRIES,
    NO_CHOICE,
};

/// What stage 1 tells a node to do next.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Sample {
    /// Consider this option: a µ-exploration or the uniform fallback.
    Consider(u32),
    /// Ask this peer what it committed last round.
    Ask(usize),
}

/// Stage 1 of the protocol for `node` at query `attempt` (1-based), in
/// an `n`-node fleet, drawing from the node's own `rng`.
///
/// At attempt 1 the node first flips its µ coin and, on heads,
/// explores a uniform option. Past [`MAX_QUERY_RETRIES`] attempts, or
/// with no other node to ask (`n == 1`), it falls back to a uniform
/// option. Otherwise it asks a uniformly random *other* node. The
/// exploration, fallback or query is counted in `rm`.
///
/// Conditioned on getting a reply, retrying uniform peers until one is
/// committed is a uniform draw over last round's committed nodes: a
/// draw from the popularity distribution.
#[inline]
pub(crate) fn stage_one(
    rng: &mut SmallRng,
    params: &Params,
    n: usize,
    node: usize,
    attempt: u32,
    rm: &mut RoundMetrics,
) -> Sample {
    if attempt == 1 && rng.gen_bool(params.mu()) {
        rm.explorations += 1;
        return Sample::Consider(index_u32(rng.gen_range(0..params.num_options())));
    }
    if attempt > MAX_QUERY_RETRIES || n == 1 {
        rm.fallbacks += 1;
        return Sample::Consider(index_u32(rng.gen_range(0..params.num_options())));
    }
    rm.queries_sent += 1;
    let mut peer = rng.gen_range(0..n - 1);
    if peer >= node {
        peer += 1;
    }
    Sample::Ask(peer)
}

/// The round bookkeeping both runtimes share: configuration,
/// membership, committed counts, the round counter and the cumulative
/// metrics.
#[derive(Debug, Clone)]
pub(crate) struct RoundShell {
    pub(crate) cfg: DistConfig,
    /// Crash + membership schedule with O(1) presence checks and an
    /// O(1) alive counter.
    pub(crate) members: MembershipTracker,
    /// Committed counts per option over present nodes, as the runtime
    /// last wrote them.
    pub(crate) counts: Vec<u64>,
    /// Rounds completed.
    pub(crate) round: u64,
    pub(crate) metrics: Metrics,
}

impl RoundShell {
    /// The shell of a fleet whose nodes hold their
    /// [`start_choice`](Self::start_choice), with `cfg`'s fault plan
    /// resolved.
    pub(crate) fn new(cfg: DistConfig) -> Self {
        let n = cfg.num_nodes();
        let mut shell = RoundShell {
            members: MembershipTracker::new(cfg.faults(), n),
            counts: vec![0; cfg.params().num_options()],
            round: 0,
            metrics: Metrics::default(),
            cfg,
        };
        for node in 0..n {
            let c = shell.start_choice(node);
            if c != NO_CHOICE {
                shell.counts[c as usize] += 1;
            }
        }
        shell
    }

    /// `node`'s commitment before round 1: option `node mod m`,
    /// matching the in-memory dynamics, or [`NO_CHOICE`] for a node
    /// that joins later.
    pub(crate) fn start_choice(&self, node: usize) -> NodeState {
        if self.members.in_initial_fleet(node) {
            index_u32(node % self.cfg.params().num_options())
        } else {
            NO_CHOICE
        }
    }

    /// Opens the next round: checks the reward width, counts the round,
    /// and returns its metrics with the present nodes, the membership
    /// transitions that took effect, and the bootstrapping gauge of a
    /// barriered round, where every (re)join resolves within its round.
    ///
    /// # Panics
    ///
    /// Panics if `rewards.len()` differs from the number of options.
    pub(crate) fn begin(&mut self, rewards: &[bool]) -> RoundMetrics {
        assert_eq!(
            rewards.len(),
            self.cfg.params().num_options(),
            "rewards length must equal the number of options"
        );
        self.round += 1;
        let mut rm = RoundMetrics {
            round: self.round,
            alive: self.members.alive(),
            ..RoundMetrics::default()
        };
        for &(_, kind) in self.members.recent() {
            match kind {
                Transition::Join => rm.joins += 1,
                Transition::Leave => rm.leaves += 1,
                Transition::Rejoin => rm.rejoins += 1,
                Transition::Crash => {}
            }
        }
        rm.bootstrapping = rm.joins + rm.rejoins;
        rm
    }

    /// Closes the round `rm` reports: lands the next round's membership
    /// transitions and adds `rm` to the cumulative metrics.
    pub(crate) fn finish(&mut self, rm: RoundMetrics) -> RoundMetrics {
        debug_assert_eq!(
            rm.alive,
            self.members.present().iter().filter(|&&p| p).count(),
            "alive counter drifted"
        );
        self.members.advance_to(self.round + 1);
        self.metrics.absorb(&rm);
        rm
    }

    /// The popularity distribution of [`counts`](Self::counts).
    pub(crate) fn write_distribution(&self, out: &mut [f64]) {
        sociolearn_core::write_shares(&self.counts, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn params(mu: f64) -> Params {
        Params::new(4, 0.65).unwrap().with_mu(mu).unwrap()
    }

    #[test]
    fn stage_one_follows_its_table() {
        // (mu, n, attempt, what stage 1 may do)
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Want {
            Explore,
            Fallback,
            Ask,
        }
        let cases = [
            // µ = 1 explores at attempt 1, and only there.
            (1.0, 10, 1, Want::Explore),
            (1.0, 10, 2, Want::Ask),
            (1.0, 10, MAX_QUERY_RETRIES, Want::Ask),
            (1.0, 10, MAX_QUERY_RETRIES + 1, Want::Fallback),
            // µ = 0 never explores.
            (0.0, 10, 1, Want::Ask),
            (0.0, 10, MAX_QUERY_RETRIES, Want::Ask),
            (0.0, 10, MAX_QUERY_RETRIES + 1, Want::Fallback),
            // A lone node has no one to ask.
            (0.0, 1, 1, Want::Fallback),
            (1.0, 1, 1, Want::Explore),
            (1.0, 1, 2, Want::Fallback),
        ];
        let mut rng = SmallRng::seed_from_u64(5);
        for (mu, n, attempt, want) in cases {
            for node in 0..n {
                let mut rm = RoundMetrics::default();
                let got = stage_one(&mut rng, &params(mu), n, node, attempt, &mut rm);
                let case = format!("mu={mu} n={n} node={node} attempt={attempt}");
                let counted = (rm.explorations, rm.fallbacks, rm.queries_sent);
                match (want, got) {
                    (Want::Explore, Sample::Consider(c)) => {
                        assert!(c < 4, "{case}");
                        assert_eq!(counted, (1, 0, 0), "{case}");
                    }
                    (Want::Fallback, Sample::Consider(c)) => {
                        assert!(c < 4, "{case}");
                        assert_eq!(counted, (0, 1, 0), "{case}");
                    }
                    (Want::Ask, Sample::Ask(peer)) => {
                        assert!(peer < n && peer != node, "{case}: peer {peer}");
                        assert_eq!(counted, (0, 0, 1), "{case}");
                    }
                    _ => panic!("{case}: wanted {want:?}, got {got:?}"),
                }
            }
        }
    }

    #[test]
    fn stage_one_asks_every_other_node_uniformly() {
        let (n, node, draws) = (6usize, 2usize, 60_000u32);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut hits = vec![0u32; n];
        let mut rm = RoundMetrics::default();
        for _ in 0..draws {
            match stage_one(&mut rng, &params(0.0), n, node, 2, &mut rm) {
                Sample::Ask(peer) => hits[peer] += 1,
                other => panic!("attempt 2 with µ = 0 must ask, got {other:?}"),
            }
        }
        assert_eq!(rm.queries_sent, u64::from(draws));
        assert_eq!(hits[node], 0, "a node never asks itself");
        // Each other node expects 12,000 hits, with a standard
        // deviation of about 98: allow five of them.
        let expected = f64::from(draws) / (n - 1) as f64;
        for (peer, &h) in hits.iter().enumerate().filter(|&(p, _)| p != node) {
            assert!(
                (f64::from(h) - expected).abs() < 5.0 * expected.sqrt(),
                "peer {peer} asked {h} times, expected about {expected}"
            );
        }
    }
}
