//! The conclusion's engineering suggestion, run end to end: a fleet of
//! low-power sensor nodes picks the best of several radio channels
//! using the social-learning protocol as a distributed, O(1)-memory
//! MWU — under message loss, node crashes, and membership churn
//! (rolling restarts, flash crowds), on **all three**
//! execution models: round-synchronous gossip, the epoch-quiesced
//! event scheduler (latency jitter, messages handled on arrival,
//! timeout retries), and fully-async overlapping epochs where each sensor
//! runs on its own local timer with no barrier at all.
//!
//! ```text
//! cargo run --release --example sensor_network
//! ```

#![forbid(unsafe_code)]

use sociolearn::core::{BernoulliRewards, Params};
use sociolearn::dist::{
    DistConfig, EventRuntime, FaultPlan, ProtocolRuntime, Runtime, StalenessBound, NODE_STATE_BYTES,
};
use sociolearn::plot::MarkdownTable;
use sociolearn::sim::{run_observed, RunConfig};

/// Drives any [`ProtocolRuntime`] through one fleet scenario and
/// returns (mean clean-channel share over the back half, msgs/round,
/// fallbacks/round). The same code path runs every execution model —
/// that is the point of the shared trait.
fn run_fleet<Rt: ProtocolRuntime>(
    mut net: Rt,
    env: &BernoulliRewards,
    rounds: u64,
) -> (f64, f64, f64) {
    let cfg = RunConfig::new(rounds);
    let mut share = 0.0;
    run_observed(&mut net, env.clone(), &cfg, 7, |t, dist| {
        if t > rounds / 2 {
            share += dist[0];
        }
    });
    share /= (rounds / 2) as f64;
    let metrics = net.metrics();
    (
        share,
        metrics.messages_per_round(),
        metrics.fallbacks as f64 / metrics.rounds as f64,
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 512 sensors, 4 radio channels. Channel 0 is clean 85% of rounds;
    // the others suffer interference (quality 0.5, 0.4, 0.3).
    let params = Params::new(4, 0.65)?;
    let env = BernoulliRewards::new(vec![0.85, 0.5, 0.4, 0.3])?;
    let n = 512;
    let rounds = 400u64;

    println!(
        "protocol state per node: {NODE_STATE_BYTES} bytes (current channel only — no weight \
         vector, no history)\n"
    );

    let mut table = MarkdownTable::new(&[
        "runtime",
        "network condition",
        "share on clean channel",
        "msgs/round",
        "fallbacks/round",
    ]);

    let conditions: Vec<(&str, FaultPlan)> = vec![
        ("reliable links", FaultPlan::none()),
        ("20% message loss", FaultPlan::with_drop_prob(0.2)?),
        ("45% message loss", FaultPlan::with_drop_prob(0.45)?),
        ("1/4 nodes crash at round 100", {
            let mut f = FaultPlan::none();
            for node in 0..n / 4 {
                f = f.crash(node, 100);
            }
            f
        }),
        // Churn scenarios: nodes leave and come back (or arrive cold),
        // bootstrapping through the ordinary query/reply protocol.
        (
            "rolling restart (batches of 64, every 8 rounds)",
            FaultPlan::none().rolling_restart(64, 8),
        ),
        (
            "flash crowd: 128 cold sensors join at round 100",
            FaultPlan::none().flash_crowd(128, 100),
        ),
    ];

    for (label, fault) in conditions {
        let cfg = DistConfig::new(params, n).with_faults(fault);
        // The execution-model labels come from the shared trait, so
        // the table stays honest if a runtime is swapped out.
        let sync = Runtime::new(cfg.clone(), 42);
        let quiesced = EventRuntime::new(cfg.clone(), 42);
        // Sensors answer with what they used up to two local epochs
        // ago; anything older is withheld as stale.
        let asynch = EventRuntime::new(cfg, 42).with_async_epochs(StalenessBound::Epochs(2));
        for (name, (share, msgs, fallbacks)) in [
            (
                sync.execution_model().label().to_string(),
                run_fleet(sync, &env, rounds),
            ),
            (
                quiesced.execution_model().label().to_string(),
                run_fleet(quiesced, &env, rounds),
            ),
            (
                asynch.execution_model().label().to_string(),
                run_fleet(asynch, &env, rounds),
            ),
        ] {
            table.add_row(&[
                name,
                label.to_string(),
                format!("{share:.3}"),
                format!("{msgs:.0}"),
                format!("{fallbacks:.1}"),
            ]);
        }
    }

    println!("{table}");
    println!(
        "Every node runs the same two-line protocol — ask a random peer what it used last \
         round, keep it if this round's channel probe looks good — and the fleet as a whole \
         performs multiplicative-weights channel selection. Whether rounds are enforced by a \
         global barrier (round-sync), emerge from a jittered event scheduler run to \
         quiescence (epoch-quiesced), or never line up at all because each sensor acts on \
         its own timer (fully-async, staleness bound 2), faults slow the gossip but the \
         uniform-exploration fallback keeps the fleet learning."
    );
    Ok(())
}
