//! Unit tests of the [`FaultPlan`] builders: drop-probability
//! validation, per-round crash scheduling, and the inertness of
//! `FaultPlan::none()` — beyond what the workspace-level integration
//! tests exercise.

use sociolearn_core::{GroupDynamics, Params};
use sociolearn_dist::{
    ConfigError, DistConfig, EventRuntime, FaultPlan, FaultPlanError, Runtime, StalenessBound,
};

#[test]
fn drop_prob_validation_rejects_out_of_range() {
    for bad in [
        -0.1,
        -1e-9,
        1.0 + 1e-9,
        2.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        let err = FaultPlan::with_drop_prob(bad).expect_err("p outside [0,1] must be rejected");
        assert!(matches!(err, FaultPlanError::DropProbOutOfRange(_)));
        // The error is a real std error with a useful message.
        assert!(err.to_string().contains("[0, 1]"), "message: {err}");
    }
}

#[test]
fn drop_prob_validation_accepts_boundaries() {
    for good in [0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0] {
        let plan = FaultPlan::with_drop_prob(good).expect("p in [0,1] is valid");
        assert_eq!(plan.drop_prob(), good);
        assert!(plan.num_crashes() == 0);
    }
}

#[test]
fn none_is_inert() {
    let plan = FaultPlan::none();
    assert!(plan.is_inert());
    assert_eq!(plan.drop_prob(), 0.0);
    assert_eq!(plan.num_crashes(), 0);
    assert_eq!(plan.crash_round(0), None);

    // Inert also operationally: a runtime with `none()` follows the
    // exact trajectory of a runtime with no fault plan attached.
    let params = Params::new(3, 0.6).unwrap();
    let mut with_none = Runtime::new(DistConfig::new(params, 60).with_faults(plan), 9);
    let mut without = Runtime::new(DistConfig::new(params, 60), 9);
    for t in 0..40u64 {
        let rewards = [t % 2 == 0, t % 3 == 0, t % 5 == 0];
        with_none.round(&rewards);
        without.round(&rewards);
        assert_eq!(with_none.distribution(), without.distribution());
    }
    assert_eq!(with_none.metrics(), without.metrics());
}

#[test]
fn crash_scheduling_is_per_round() {
    let plan = FaultPlan::none().crash(2, 5);
    assert_eq!(plan.crash_round(2), Some(5));

    let params = Params::new(2, 0.65).unwrap();
    let mut net = Runtime::new(DistConfig::new(params, 3).with_faults(plan), 1);
    for t in 1..=10u64 {
        let rm = net.round(&[true, true]);
        // Node 2 is alive through round 4 and dead from round 5 on.
        let expected_alive = if t < 5 { 3 } else { 2 };
        assert_eq!(rm.alive, expected_alive, "round {t}");
        assert_eq!(rm.round, t);
    }
}

#[test]
fn crash_builder_accumulates_nodes() {
    let mut plan = FaultPlan::none();
    for node in 0..7 {
        plan = plan.crash(node, 3 + node as u64);
    }
    assert_eq!(plan.num_crashes(), 7);
    for node in 0..7 {
        assert_eq!(plan.crash_round(node), Some(3 + node as u64));
    }
    assert!(!plan.is_inert());
}

#[test]
fn duplicate_crash_keeps_earliest_round() {
    let plan = FaultPlan::none().crash(4, 10).crash(4, 6).crash(4, 20);
    assert_eq!(plan.crash_round(4), Some(6));
    assert_eq!(plan.num_crashes(), 1, "one node, one schedule entry");
}

#[test]
fn crash_composes_with_drop_prob() {
    let plan = FaultPlan::with_drop_prob(0.3)
        .unwrap()
        .crash(0, 2)
        .crash(1, 4);
    assert_eq!(plan.drop_prob(), 0.3);
    assert_eq!(plan.crash_round(0), Some(2));
    assert_eq!(plan.crash_round(1), Some(4));
    assert!(!plan.is_inert());
}

#[test]
fn crash_at_round_one_is_dead_from_the_start() {
    let params = Params::new(2, 0.65).unwrap();
    let plan = FaultPlan::none().crash(0, 1);
    let mut net = Runtime::new(DistConfig::new(params, 2).with_faults(plan), 3);
    let rm = net.round(&[true, true]);
    assert_eq!(rm.alive, 1);
    // The survivor never gets a reply (its only peer is dead), so it
    // can only explore or fall back — never copy.
    assert_eq!(net.metrics().replies_received, 0);
}

#[test]
fn same_plan_applies_across_all_three_execution_models() {
    // One fault schedule, three execution models: the crash lands at
    // the same round everywhere, and message loss degrades copying
    // without stopping learning under any of them.
    let params = Params::new(2, 0.65).unwrap();
    let plan = FaultPlan::with_drop_prob(0.25)
        .unwrap()
        .crash(0, 8)
        .crash(1, 8);
    let cfg = DistConfig::new(params, 40).with_faults(plan);

    let mut sync = Runtime::new(cfg.clone(), 11);
    let mut quiesced = EventRuntime::new(cfg.clone(), 11);
    let mut asynch = EventRuntime::new(cfg, 11).with_async_epochs(StalenessBound::Epochs(2));
    for t in 1..=30u64 {
        let rewards = [true, t % 4 == 0];
        let a = sync.round(&rewards).alive;
        let b = quiesced.tick(&rewards).alive;
        let c = asynch.tick(&rewards).alive;
        let expected = if t < 8 { 40 } else { 38 };
        assert_eq!((a, b, c), (expected, expected, expected), "round {t}");
    }
    for share in [
        sync.distribution()[0],
        quiesced.distribution()[0],
        asynch.distribution()[0],
    ] {
        assert!(share > 0.6, "learning collapsed under faults: {share}");
    }
}

#[test]
fn async_crash_of_whole_fleet_halts_progress_but_not_the_clock() {
    let params = Params::new(2, 0.65).unwrap();
    let mut plan = FaultPlan::none();
    for node in 0..5 {
        plan = plan.crash(node, 4);
    }
    let mut net = EventRuntime::new(DistConfig::new(params, 5).with_faults(plan), 2)
        .with_async_epochs(StalenessBound::Unbounded);
    for _ in 0..12 {
        net.tick(&[true, false]);
    }
    assert_eq!(net.alive_count(), 0);
    assert_eq!(net.rounds_completed(), 12);
    // Every local epoch froze at or before the crash round.
    for i in 0..5 {
        assert!(net.local_epoch(i) <= 4);
    }
    // Nobody committed anywhere: the distribution falls back to
    // uniform rather than dividing by zero.
    assert_eq!(net.counts().iter().sum::<u64>(), 0);
    assert!((net.distribution()[0] - 0.5).abs() < 1e-12);
}

#[test]
fn validate_names_each_bad_membership_script() {
    let params = Params::new(2, 0.65).unwrap();
    let check = |plan: FaultPlan| DistConfig::new(params, 6).with_faults(plan).validate();
    let cases = [
        (
            FaultPlan::none().leave(2, 5).rejoin(2, 5),
            ConfigError::ConflictingTransitions { node: 2, round: 5 },
            "conflicting membership transitions for node 2 at round 5",
        ),
        (
            FaultPlan::none().leave(1, 3).join(1, 6),
            ConfigError::JoinNotFirst { node: 1, round: 6 },
            "join must be node 1's first transition (round 6: use rejoin to re-enter)",
        ),
        (
            FaultPlan::none().rejoin(0, 4),
            ConfigError::RejoinWhilePresent { node: 0, round: 4 },
            "node 0 cannot rejoin at round 4: already present",
        ),
        (
            FaultPlan::none().region_loss(0..3, 2, 4).leave(1, 3),
            ConfigError::LeaveWhileAbsent { node: 1, round: 3 },
            "node 1 cannot leave at round 3: already absent",
        ),
        (
            FaultPlan::none().crash(5, 4).region_loss(4..6, 2, 7),
            ConfigError::CrashWhileAbsent { node: 5, round: 4 },
            "node 5 cannot crash at round 4: it is absent",
        ),
        (
            FaultPlan::none().crash(3, 2).rolling_restart(2, 4),
            ConfigError::TransitionAfterCrash { node: 3, round: 2 },
            "node 3 has transitions scheduled after its crash at round 2",
        ),
        (
            FaultPlan::none().flash_crowd(7, 2),
            ConfigError::FlashCrowdTooLarge { count: 7, n: 6 },
            "flash crowd of 7 exceeds the fleet size 6",
        ),
    ];
    for (plan, err, text) in cases {
        assert_eq!(check(plan), Err(err));
        assert_eq!(err.to_string(), text);
    }
    let churn = FaultPlan::none()
        .rolling_restart(2, 4)
        .flash_crowd(1, 1)
        .crash(0, 30)
        .leave(99, 1);
    assert_eq!(check(churn), Ok(()));
}

#[test]
#[should_panic(expected = "node 3 has transitions scheduled after its crash at round 2")]
fn event_runtime_panics_with_the_config_error() {
    let params = Params::new(2, 0.65).unwrap();
    let plan = FaultPlan::none().crash(3, 2).rolling_restart(2, 4);
    EventRuntime::new(DistConfig::new(params, 6).with_faults(plan), 1);
}
