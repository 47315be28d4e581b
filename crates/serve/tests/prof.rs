//! Serve-level acceptance tests for the `prof` feature: a profiled run
//! must surface both driver phases (dispatch, grant, fold wait, fold)
//! and worker phases (shard tick, engine step) after the shard threads
//! join, and profiling must not perturb the deterministic snapshot
//! stream.
//!
//! Gated by `required-features = ["prof"]` — run with
//! `cargo test -p mec-serve --features prof --test prof`.

use mec_obs::prof;
use mec_serve::{serve, LoadGen, ServeConfig};
use mec_sim::SlotConfig;
use mec_topology::TopologyBuilder;
use mec_workload::WorkloadBuilder;
use std::sync::{Mutex, PoisonError};

/// Profiler state is process-global; serialize the tests that use it.
static LOCK: Mutex<()> = Mutex::new(());

fn run_once() -> (String, Vec<String>) {
    let topo = TopologyBuilder::new(12).seed(41).build();
    let population = WorkloadBuilder::new(&topo).seed(41).count(600).build();
    let load = LoadGen::poisson(population, 2_000.0, 50.0, 41);
    let cfg = ServeConfig {
        shards: 3,
        queue_capacity: 64,
        snapshot_every: 50,
        sim: SlotConfig {
            seed: 41,
            ..SlotConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut periodic = Vec::new();
    let outcome = serve(&topo, load, &cfg, |snap| {
        // Strip the wall-clock throughput field; everything else must
        // be identical between profiled and unprofiled runs.
        let mut s = snap.clone();
        s.slots_per_sec = None;
        periodic.push(s.to_json());
    })
    .expect("serve run");
    let mut fin = outcome.final_snapshot.clone();
    fin.slots_per_sec = None;
    (fin.to_json(), periodic)
}

#[test]
fn profiled_serve_reports_driver_and_worker_phases() {
    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    prof::reset();
    prof::set_enabled(true);
    let _ = run_once();
    prof::set_enabled(false);
    let report = prof::take_report();
    assert!(!report.is_empty(), "profiled serve must record phases");
    // Worker threads joined before serve() returned, so their
    // thread-local trees must already be merged into the report.
    for phase in [
        "serve.dispatch",
        "serve.grant",
        "serve.fold_wait",
        "serve.fold",
        "serve.shard_tick",
        "engine.step",
    ] {
        assert!(
            report.phases.iter().any(|p| p.name == phase),
            "missing phase {phase}; got {:?}",
            report.phases.iter().map(|p| &p.name).collect::<Vec<_>>()
        );
    }
    let tick = report
        .phases
        .iter()
        .find(|p| p.name == "serve.shard_tick")
        .unwrap();
    assert!(tick.calls > 0);
    // engine.step nests under the shard tick in the folded stacks.
    let folded = report.render_folded();
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("serve.shard_tick;engine.step")),
        "expected worker stacks nesting engine.step under serve.shard_tick:\n{folded}"
    );
}

#[test]
fn profiling_does_not_change_snapshots() {
    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    prof::reset();
    prof::set_enabled(true);
    let (final_profiled, periodic_profiled) = run_once();
    prof::set_enabled(false);
    prof::reset();
    let (final_plain, periodic_plain) = run_once();
    assert_eq!(final_profiled, final_plain);
    assert_eq!(periodic_profiled, periodic_plain);
    assert!(!periodic_plain.is_empty(), "expected periodic snapshots");
}
