//! Watermark-ordering tests of the epoch/actor runtime: for any seed,
//! shard count, and epoch horizon, the deterministic merge at the
//! watermark must produce exactly the lockstep (horizon = 1) result —
//! the per-slot interleaving of shard progress events and batched
//! cross-shard messages is allowed to vary, the folded outcome is not.

use mec_serve::{
    serve, ChaosSpec, DegradedPolicy, FaultConfig, FaultStats, LoadGen, ServeConfig, Snapshot,
};
use mec_sim::SlotConfig;
use mec_topology::TopologyBuilder;
use mec_workload::WorkloadBuilder;
use proptest::prelude::*;

/// Admission knobs a run may vary: the per-shard queue cap and what
/// happens to arrivals whose shard is down.
#[derive(Clone, Copy)]
struct AdmissionKnobs {
    queue_capacity: usize,
    degraded: DegradedPolicy,
}

impl Default for AdmissionKnobs {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            degraded: DegradedPolicy::Buffer,
        }
    }
}

/// [`run_admitting`] with the default admission knobs.
fn run_once(
    seed: u64,
    shards: usize,
    horizon: u64,
    chaos: &str,
    requests: usize,
    rps: f64,
) -> (Vec<String>, Snapshot) {
    run_admitting(
        seed,
        shards,
        horizon,
        chaos,
        (requests, rps),
        AdmissionKnobs::default(),
    )
}

/// Runs the serving loop over `requests` arrivals at `rps` and returns
/// every periodic snapshot (serialized) plus the final snapshot — the
/// byte-level oracle for merge equality.
fn run_admitting(
    seed: u64,
    shards: usize,
    horizon: u64,
    chaos: &str,
    (requests, rps): (usize, f64),
    admission: AdmissionKnobs,
) -> (Vec<String>, Snapshot) {
    let topo = TopologyBuilder::new(12).seed(seed).build();
    let population = WorkloadBuilder::new(&topo)
        .seed(seed)
        .count(requests)
        .build();
    let load = LoadGen::poisson(population, rps, 50.0, seed);
    let cfg = ServeConfig {
        shards,
        queue_capacity: admission.queue_capacity,
        snapshot_every: 16,
        epoch_horizon: horizon,
        policy: "Greedy".to_string(),
        chaos: ChaosSpec::parse(chaos).expect("valid chaos spec"),
        faults: FaultConfig {
            degraded: admission.degraded,
            ..FaultConfig::default()
        },
        sim: SlotConfig {
            seed,
            ..SlotConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut periodic = Vec::new();
    let outcome = serve(&topo, load, &cfg, |snap| {
        let mut s = snap.clone();
        s.slots_per_sec = None; // wall-clock, legitimately varies
        periodic.push(s.to_json());
    })
    .expect("serving run completes");
    (periodic, outcome.final_snapshot)
}

/// A snapshot with the fault counters zeroed, for comparing a chaos run
/// against its fault-free twin (everything else must match exactly).
fn defaulted_faults(snapshot: &Snapshot) -> String {
    Snapshot {
        faults: FaultStats::default(),
        ..snapshot.clone()
    }
    .to_json()
}

/// A degraded-routing policy for arrivals whose shard is down.
fn degraded_policy() -> impl Strategy<Value = DegradedPolicy> {
    prop_oneof![
        Just(DegradedPolicy::Buffer),
        Just(DegradedPolicy::Shed),
        Just(DegradedPolicy::Spill),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any epoch horizon folds to the lockstep merge: periodic and
    /// final snapshots are byte-identical to the horizon-1 run for the
    /// same seed and shard count, for any interleaving the run-ahead
    /// leases produce. The offered rate spans the 12-station knee (about
    /// 30 rps) and the queue cap is small enough that, within one run,
    /// the admission bound both holds and binds — so arrivals are
    /// dispatched ahead of the watermark and also wait for it.
    #[test]
    fn any_horizon_matches_the_lockstep_merge(
        seed in 0u64..1000,
        shards in 1usize..4,
        horizon in 2u64..12,
        rps in 10.0f64..400.0,
        queue_capacity in 16usize..256,
    ) {
        let admission = AdmissionKnobs { queue_capacity, ..AdmissionKnobs::default() };
        let (lock_periodic, lock_final) =
            run_admitting(seed, shards, 1, "", (400, rps), admission);
        let (run_periodic, run_final) =
            run_admitting(seed, shards, horizon, "", (400, rps), admission);
        prop_assert_eq!(lock_periodic, run_periodic);
        prop_assert_eq!(lock_final.to_json(), run_final.to_json());
    }

    /// Same property with scripted chaos in the run-ahead window: the
    /// fault fires at its exact slot and recovery replays to the same
    /// merge, horizon notwithstanding, whatever happens to the arrivals
    /// of the down shard.
    #[test]
    fn chaos_under_any_horizon_matches_lockstep(
        seed in 0u64..500,
        horizon in 2u64..10,
        crash_slot in 3u64..12,
        rps in 10.0f64..400.0,
        queue_capacity in 16usize..256,
        degraded in degraded_policy(),
    ) {
        let chaos = format!(
            "crash:shard=1@slot={crash_slot},recover@slot={}",
            crash_slot + 4
        );
        let admission = AdmissionKnobs { queue_capacity, degraded };
        let (lock_periodic, lock_final) =
            run_admitting(seed, 2, 1, &chaos, (400, rps), admission);
        let (run_periodic, run_final) =
            run_admitting(seed, 2, horizon, &chaos, (400, rps), admission);
        prop_assert_eq!(lock_periodic, run_periodic);
        prop_assert_eq!(lock_final.to_json(), run_final.to_json());
    }
}

#[test]
fn crash_during_run_ahead_replays_to_byte_identical_snapshots() {
    // The crash lands mid-lease (slot 10, horizon 8 spans past it), so
    // the worker dies while holding a multi-slot grant; the death
    // notice must fold at exactly slot 10 and journal replay must
    // reproduce the fault-free bytes.
    let chaos = "crash:shard=1@slot=10,recover@slot=18";
    let (_, clean) = run_once(91, 4, 8, "", 1_500, 3_000.0);
    let (_, lockstep) = run_once(91, 4, 1, chaos, 1_500, 3_000.0);
    let (_, run_ahead) = run_once(91, 4, 8, chaos, 1_500, 3_000.0);
    assert!(run_ahead.faults.restarts >= 1, "{:?}", run_ahead.faults);
    assert_eq!(
        lockstep.to_json(),
        run_ahead.to_json(),
        "horizon must not change the merge"
    );
    assert_eq!(
        defaulted_faults(&run_ahead),
        defaulted_faults(&clean),
        "recovery must replay to the fault-free bytes"
    );
}

#[test]
fn stall_during_run_ahead_is_detected_at_its_exact_slot() {
    // A stalled worker parks without exiting; detection rides the fold
    // deadline. The degraded-slot accounting (detection slot through
    // recovery) must match the lockstep run exactly.
    let run = |horizon: u64| {
        let topo = TopologyBuilder::new(12).seed(7).build();
        let population = WorkloadBuilder::new(&topo).seed(7).count(600).build();
        let load = LoadGen::poisson(population, 2_000.0, 50.0, 7);
        let cfg = ServeConfig {
            shards: 2,
            queue_capacity: 1_024,
            snapshot_every: 0,
            epoch_horizon: horizon,
            policy: "Greedy".to_string(),
            faults: FaultConfig {
                tick_timeout_ms: 200,
                ..FaultConfig::default()
            },
            chaos: ChaosSpec::parse("stall:shard=0@slot=6,recover@slot=12").unwrap(),
            sim: SlotConfig {
                seed: 7,
                ..SlotConfig::default()
            },
            ..ServeConfig::default()
        };
        serve(&topo, load, &cfg, |_| {}).unwrap().final_snapshot
    };
    let lockstep = run(1);
    let run_ahead = run(8);
    assert!(run_ahead.faults.restarts >= 1, "{:?}", run_ahead.faults);
    assert!(
        run_ahead.faults.degraded_slots >= 1,
        "{:?}",
        run_ahead.faults
    );
    assert_eq!(lockstep.to_json(), run_ahead.to_json());
}

#[test]
fn reconfig_ops_quiesce_the_run_ahead_and_merge_identically() {
    // Cross-shard traffic (a station drain's extract/absorb handoff) is
    // slot-stamped and rides the mailboxes; while ops are pending the
    // coordinator refuses to lease ahead, so the handoff executes at
    // its exact slot under every horizon.
    let run = |horizon: u64| {
        run_once(
            13,
            3,
            horizon,
            "drain:station=2@slot=9@window=3",
            800,
            2_500.0,
        )
        .1
    };
    let lockstep = run(1);
    let run_ahead = run(8);
    assert!(lockstep.placement.handoffs > 0, "{:?}", lockstep.placement);
    assert_eq!(lockstep.to_json(), run_ahead.to_json());
}
