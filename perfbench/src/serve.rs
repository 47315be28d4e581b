//! The serving workloads: open-loop Poisson load through `mec_serve::serve`.

use crate::replay::{self, Outcome, Replay};
use crate::report::{Tally, Values};
use crate::stats::{mean, median, quantile};
use crate::sys;
use mec_core::{DynamicRr, DynamicRrConfig, OnlineGreedy};
use mec_placement::{EvictionPolicy, PlacementConfig};
use mec_serve::{serve, LoadGen, ServeConfig, ServeOutcome, Snapshot};
use mec_sim::{SlotConfig, SlotPolicy};
use mec_topology::{Topology, TopologyBuilder};
use mec_workload::WorkloadBuilder;
use std::time::Instant;

/// Slot length, as in the paper and the `mec-serve` default.
const SLOT_MS: f64 = 50.0;
/// Rebuilds of the inputs whose stage medians a traced run reports.
const SETUP_REBUILDS: usize = 15;
/// Fewest timed calls a run makes, however long they take.
const MIN_CALLS: usize = 5;

/// One serving operating point.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Scheduling policy (see `mec_serve::POLICY_NAMES`).
    pub policy: &'static str,
    /// Base stations in the topology.
    pub stations: usize,
    /// Shard workers.
    pub shards: usize,
    /// Requests offered per `serve()` call.
    pub requests: usize,
    /// Offered rate, requests per second of virtual time.
    pub rps: f64,
    /// The configuration's knee: the highest swept rate that sheds at
    /// most 1% (see `KNEE.md`).
    pub knee_rps: f64,
    /// Service catalog size; 0 turns placement off.
    pub services: usize,
}

/// DynamicRR at about 0.8x its knee: the paper's online loop where every
/// slot carries arrivals and nothing is shed.
pub const STEADY: ServeSpec = ServeSpec {
    name: "serve_steady",
    policy: "DynamicRR",
    stations: 64,
    shards: 2,
    requests: 10_000,
    rps: 110.0,
    knee_rps: 140.0,
    services: 0,
};

/// Greedy with placement on at about 2x its knee: admission shedding and
/// placement routing dominate, on one shard.
pub const OVERLOAD: ServeSpec = ServeSpec {
    name: "serve_overload",
    policy: "Greedy",
    stations: 64,
    shards: 1,
    requests: 10_000,
    rps: 200.0,
    knee_rps: 100.0,
    services: 32,
};

impl ServeSpec {
    /// The same configuration at another offered rate (knee sweeps).
    pub fn at_rate(self, rps: f64) -> Self {
        Self { rps, ..self }
    }

    /// The runtime configuration: CLI defaults apart from the workload's
    /// policy, shards and placement.
    pub fn config(&self, seed: u64) -> ServeConfig {
        let defaults = PlacementConfig::default();
        ServeConfig {
            shards: self.shards,
            policy: self.policy.to_string(),
            sim: SlotConfig {
                slot_ms: SLOT_MS,
                seed,
                ..SlotConfig::default()
            },
            placement: PlacementConfig {
                services: self.services,
                cache_capacity: defaults.cache_capacity,
                eviction: EvictionPolicy::Lru,
                seed,
            },
            ..ServeConfig::default()
        }
    }

    /// The operating point, printed beside every result.
    pub fn describe(&self) -> String {
        let cfg = self.config(0);
        format!(
            "policy={} shards={} epoch_horizon={} stations={} requests={} rps={} \
             knee_rps={} load_vs_knee={:.2} services={} queue_capacity={} \
             available_parallelism={}",
            self.policy,
            self.shards,
            cfg.epoch_horizon,
            self.stations,
            self.requests,
            self.rps,
            self.knee_rps,
            self.rps / self.knee_rps,
            self.services,
            cfg.queue_capacity,
            sys::parallelism()
        )
    }
}

/// Inputs built from a seed, with the time each stage took.
struct Inputs {
    topo: Topology,
    load: LoadGen,
    topology_ms: f64,
    workload_ms: f64,
    loadgen_ms: f64,
}

fn build_inputs(spec: &ServeSpec, seed: u64) -> Inputs {
    let t0 = Instant::now();
    let topo = TopologyBuilder::new(spec.stations).seed(seed).build();
    let t1 = Instant::now();
    let population = WorkloadBuilder::new(&topo)
        .seed(seed)
        .count(spec.requests)
        .build();
    let t2 = Instant::now();
    let load = LoadGen::poisson(population, spec.rps, SLOT_MS, seed);
    let t3 = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    Inputs {
        topo,
        load,
        topology_ms: ms(t0, t1),
        workload_ms: ms(t1, t2),
        loadgen_ms: ms(t2, t3),
    }
}

/// Builds the inputs `SETUP_REBUILDS` times; returns the last build and
/// the per-stage medians in milliseconds.
fn setup(spec: &ServeSpec, seed: u64) -> (Inputs, [f64; 3]) {
    let mut stages = [Vec::new(), Vec::new(), Vec::new()];
    let mut last = None;
    for _ in 0..SETUP_REBUILDS {
        let inputs = build_inputs(spec, seed);
        stages[0].push(inputs.topology_ms);
        stages[1].push(inputs.workload_ms);
        stages[2].push(inputs.loadgen_ms);
        last = Some(inputs);
    }
    let inputs = last.expect("at least one rebuild");
    (inputs, stages.map(|s| median(&s)))
}

/// Rebuilds the inputs, returning the build's span and an error if the
/// same seed did not give the same inputs.
fn rebuild(spec: &ServeSpec, seed: u64, first: &Inputs) -> (sys::Span, Vec<String>) {
    let (again, span) = sys::measure(|| build_inputs(spec, seed));
    let errors = if again.topo == first.topo && again.load.requests() == first.load.requests() {
        Vec::new()
    } else {
        vec![format!("seed {seed} built different inputs on a rebuild")]
    };
    (span, errors)
}

/// A `serve()` call whose periodic snapshots are only counted.
fn serve_counted(
    topo: &Topology,
    load: LoadGen,
    cfg: &ServeConfig,
) -> Result<(ServeOutcome, usize), String> {
    let mut seen = 0usize;
    let out = serve(topo, load, cfg, |_| seen += 1).map_err(|e| e.to_string())?;
    Ok((out, seen))
}

/// The conservation checks every final snapshot must pass.
fn conservation(s: &Snapshot, offered: u64) -> Vec<String> {
    let mut errors = Vec::new();
    if s.admitted + s.shed != offered {
        errors.push(format!(
            "admitted {} + shed {} != offered {offered}",
            s.admitted, s.shed
        ));
    }
    let terminal = (s.completed + s.expired + s.aborted + s.unserved) as u64;
    if terminal != s.admitted {
        errors.push(format!(
            "completed {} + expired {} + aborted {} + unserved {} != admitted {}",
            s.completed, s.expired, s.aborted, s.unserved, s.admitted
        ));
    }
    errors
}

/// Checks one repeat against the warm-up call's final snapshot.
fn check_repeat(out: &ServeOutcome, seen: usize, reference: &str, offered: u64) -> Vec<String> {
    let mut errors = conservation(&out.final_snapshot, offered);
    if out.final_snapshot.to_json() != reference {
        errors.push("final snapshot differs from the warm-up call's".to_string());
    }
    if seen != out.snapshots_emitted {
        errors.push(format!(
            "callback saw {seen} snapshots, runtime reports {}",
            out.snapshots_emitted
        ));
    }
    errors
}

/// Miss fraction: everything offered that did not complete in time.
fn miss_frac(s: &Snapshot, offered: u64) -> f64 {
    (s.shed as f64 + (s.expired + s.aborted + s.unserved) as f64) / offered as f64
}

/// The end-to-end run: a warm-up call, then timed `serve()` calls for
/// `seconds`.
pub fn end_to_end(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Values, String> {
    let (inputs, first_build) = sys::measure(|| build_inputs(spec, seed));
    let mut builds = vec![first_build];
    let cfg = spec.config(seed);
    let offered = inputs.load.len() as u64;

    let (warm, seen) = serve_counted(&inputs.topo, inputs.load.clone(), &cfg)?;
    let reference = warm.final_snapshot.to_json();
    tally.record(check_repeat(&warm, seen, &reference, offered));

    // Set-up is timed again before every call, so its median samples the
    // machine over the whole run rather than its first moments.
    let mut calls = Vec::new();
    let started = Instant::now();
    while calls.len() < MIN_CALLS || started.elapsed().as_secs_f64() < seconds {
        let (build, mut errors) = rebuild(spec, seed, &inputs);
        builds.push(build);
        let load = inputs.load.clone();
        let (result, span) = sys::measure(|| serve_counted(&inputs.topo, load, &cfg));
        let (out, seen) = result?;
        errors.extend(check_repeat(&out, seen, &reference, offered));
        tally.record(errors);
        calls.push(span);
    }

    let used = sys::undisturbed(&calls, MIN_CALLS);
    let walls: Vec<f64> = used.iter().map(|s| s.wall_ms).collect();
    let cpu_ms: f64 = used.iter().map(|s| s.cpu_ms).sum();
    let setup_ms: Vec<f64> = sys::undisturbed(&builds, MIN_CALLS)
        .iter()
        .map(|s| s.wall_ms)
        .collect();
    let snap = &warm.final_snapshot;
    println!(
        "# timed_calls={} undisturbed={} wall_ms min/p10/p50/p90/max={:.1}/{:.1}/{:.1}/{:.1}/{:.1} \
         latency_samples={} slots={} admitted={} shed={} miss_frac={:.6}",
        calls.len(),
        used.len(),
        quantile(&walls, 0.0),
        quantile(&walls, 0.1),
        median(&walls),
        quantile(&walls, 0.9),
        quantile(&walls, 1.0),
        snap.latency.count,
        snap.slot,
        snap.admitted,
        snap.shed,
        miss_frac(snap, offered)
    );
    let kreq = (walls.len() as f64) * offered as f64 / 1e3;
    Ok(vec![
        ("setup_s", median(&setup_ms) / 1e3),
        ("req_per_s", offered as f64 / (median(&walls) / 1e3)),
        ("cpu_ms_per_kreq", cpu_ms / kreq),
        ("reward_per_req", snap.total_reward / offered as f64),
        ("served_frac", snap.completed as f64 / offered as f64),
        ("latency_ms_p99", snap.latency.p99_ms),
        ("peak_rss_mb", sys::peak_rss_mb()),
    ])
}

/// Per-layer numbers one replay yields, plus the bandit's final state.
fn layer_values<P: SlotPolicy>(r: &Replay<P, true>, bandit: impl Fn(&P) -> (f64, f64)) -> Values {
    let l = &r.layers;
    let schedule_us: Vec<f64> = r
        .policies
        .iter()
        .flat_map(|p| p.schedule_us.iter().copied())
        .collect();
    let schedule_ms = schedule_us.iter().sum::<f64>() / 1e3;
    let observe_ms = r.policies.iter().map(|p| p.observe_ns).sum::<f64>() / 1e6;
    let step_ms = l.step_us.iter().sum::<f64>() / 1e3;
    let (arms, thresholds): (Vec<f64>, Vec<f64>) =
        r.policies.iter().map(|p| bandit(&p.inner)).unzip();
    let p = &r.outcome.placement;
    let lookups = p.hits + p.misses;
    let per_call_us = |ns: f64, calls: u64| {
        if calls == 0 {
            0.0
        } else {
            ns / 1e3 / calls as f64
        }
    };
    vec![
        ("serve.slots", l.slots as f64),
        ("serve.arrival_slots", l.arrival_slots as f64),
        ("serve.partition_ms", l.partition_ms),
        ("serve.critical_path_ms", l.critical_path_ms),
        ("router.admit_calls", l.admit_calls as f64),
        (
            "router.admit_us_mean",
            per_call_us(l.admit_ns, l.admit_calls),
        ),
        ("router.admitted", r.outcome.admitted as f64),
        ("router.shed", r.outcome.shed as f64),
        ("placement.route_calls", l.route_calls as f64),
        (
            "placement.route_us_mean",
            per_call_us(l.route_ns, l.route_calls),
        ),
        (
            "placement.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                p.hits as f64 / lookups as f64
            },
        ),
        ("placement.redirects", p.redirects as f64),
        (
            "placement.installs",
            (p.installs_warm + p.installs_cold) as f64,
        ),
        ("placement.evictions", p.evictions as f64),
        ("placement.held", l.held as f64),
        (
            "engine.inject_us_mean",
            per_call_us(l.inject_ns, l.inject_calls),
        ),
        ("engine.step_self_ms", step_ms - schedule_ms - observe_ms),
        ("engine.steps", l.step_us.len() as f64),
        ("engine.step_us_p50", median(&l.step_us)),
        ("engine.step_us_p99", quantile(&l.step_us, 0.99)),
        (
            "engine.backlog_mean",
            l.backlog_sum as f64 / (l.step_us.len().max(1)) as f64,
        ),
        ("engine.expired", r.outcome.expired as f64),
        ("engine.aborted", r.outcome.aborted as f64),
        ("policy.schedule_ms", schedule_ms),
        ("policy.schedule_us_p50", median(&schedule_us)),
        ("policy.schedule_us_p99", quantile(&schedule_us, 0.99)),
        ("policy.observe_ms", observe_ms),
        (
            "policy.allocations",
            r.policies.iter().map(|p| p.allocations).sum::<u64>() as f64,
        ),
        ("bandit.active_arms_final", mean(&arms)),
        ("bandit.threshold_final", mean(&thresholds)),
    ]
}

/// The traced run: set-up stages timed apart, `serve()` calls for the
/// runtime's own wall and CPU time, then timed lockstep replays (checked
/// against `serve()`) alternating with untimed ones until `seconds` pass.
pub fn traced(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Values, String> {
    // Built exactly as `mec_serve::policy_from_name` builds them, but
    // typed, so the bandit's own accessors stay reachable.
    let solver = spec.config(seed).solver;
    match spec.policy {
        "DynamicRR" => traced_with(
            spec,
            seed,
            seconds,
            tally,
            |horizon_hint| {
                DynamicRr::new(DynamicRrConfig {
                    horizon_hint,
                    solver,
                    ..DynamicRrConfig::default()
                })
            },
            |p: &DynamicRr| (p.active_arms() as f64, p.learned_threshold()),
        ),
        "Greedy" => traced_with(
            spec,
            seed,
            seconds,
            tally,
            |_| OnlineGreedy::new(),
            |_| (0.0, 0.0),
        ),
        other => Err(format!("no traced replay for policy {other}")),
    }
}

fn traced_with<P: SlotPolicy>(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    make_policy: impl Fn(u64) -> P + Copy,
    bandit: impl Fn(&P) -> (f64, f64) + Copy,
) -> Result<Values, String> {
    let started = Instant::now();
    let (inputs, [topology_ms, workload_ms, loadgen_ms]) = setup(spec, seed);
    let cfg = spec.config(seed);
    let offered = inputs.load.len() as u64;

    // The runtime itself, for its wall and CPU time and the outcome the
    // replay must reproduce.
    let (warm, seen) = serve_counted(&inputs.topo, inputs.load.clone(), &cfg)?;
    let reference = warm.final_snapshot.to_json();
    tally.record(check_repeat(&warm, seen, &reference, offered));
    let expected = Outcome::of_snapshot(&warm.final_snapshot);
    let mut serve_wall = Vec::new();
    let mut serve_cpu = Vec::new();
    for _ in 0..3 {
        let load = inputs.load.clone();
        let (result, span) = sys::measure(|| serve_counted(&inputs.topo, load, &cfg));
        let (out, seen) = result?;
        tally.record(check_repeat(&out, seen, &reference, offered));
        serve_wall.push(span.wall_ms);
        serve_cpu.push(span.cpu_ms);
    }

    let mut fidelity = |outcome: &Outcome, what: &str| {
        let errors = if *outcome == expected {
            Vec::new()
        } else {
            vec![format!(
                "{what} replay diverged from serve(): {outcome:?} vs {expected:?}"
            )]
        };
        tally.record(errors);
    };
    let mut timed_runs: Vec<Replay<P, true>> = Vec::new();
    let mut plain_ms = Vec::new();
    let budget = seconds - started.elapsed().as_secs_f64();
    let replays_started = Instant::now();
    while timed_runs.len() < 3 || replays_started.elapsed().as_secs_f64() < budget {
        let r = replay::replay::<P, true>(&inputs.topo, inputs.load.clone(), &cfg, make_policy)?;
        fidelity(&r.outcome, "timed");
        timed_runs.push(r);
        let r = replay::replay::<P, false>(&inputs.topo, inputs.load.clone(), &cfg, make_policy)?;
        fidelity(&r.outcome, "untimed");
        plain_ms.push(r.wall_ms);
    }
    let timed_ms: Vec<f64> = timed_runs.iter().map(|r| r.wall_ms).collect();
    // Report the replay whose critical path is the median one.
    timed_runs.sort_by(|a, b| {
        a.layers
            .critical_path_ms
            .total_cmp(&b.layers.critical_path_ms)
    });
    let mid = &timed_runs[timed_runs.len() / 2];
    println!(
        "# replays={} (timed and untimed each) replay_wall_ms_p50={:.3} serve_wall_ms_p50={:.3}",
        timed_ms.len(),
        median(&timed_ms),
        median(&serve_wall)
    );
    let wall_ms = median(&serve_wall);
    let mut values = vec![
        ("topology.build_ms", topology_ms),
        ("workload.build_ms", workload_ms),
        ("loadgen.build_ms", loadgen_ms),
        ("serve.wall_ms", wall_ms),
        ("serve.cpu_ms", median(&serve_cpu)),
        (
            "serve.coord_overhead_ms",
            wall_ms - mid.layers.critical_path_ms,
        ),
        (
            "trace.overhead_frac",
            median(&timed_ms) / median(&plain_ms) - 1.0,
        ),
    ];
    values.extend(layer_values(mid, bandit));
    Ok(values)
}

/// Knee sweep: one `serve()` call per rate, printing shed fraction, miss
/// fraction and the simulated p99 latency.
pub fn knee_sweep(spec: &ServeSpec, seed: u64, rates: &[f64]) -> Result<(), String> {
    println!("| rps | load vs knee | shed frac | miss frac | p99 ms (samples) | wall ms |");
    println!("|---:|---:|---:|---:|---:|---:|");
    let mut knee = None;
    for &rps in rates {
        let point = spec.at_rate(rps);
        let inputs = build_inputs(&point, seed);
        let offered = inputs.load.len() as u64;
        let (result, span) =
            sys::measure(|| serve_counted(&inputs.topo, inputs.load, &point.config(seed)));
        let (out, _) = result?;
        let s = &out.final_snapshot;
        let errors = conservation(s, offered);
        if !errors.is_empty() {
            return Err(errors.join("; "));
        }
        println!(
            "| {rps} | {:.2} | {:.4} | {:.4} | {:.1} ({}) | {:.0} |",
            rps / spec.knee_rps,
            s.shed as f64 / offered as f64,
            miss_frac(s, offered),
            s.latency.p99_ms,
            s.latency.count,
            span.wall_ms
        );
        if s.shed * 100 <= offered {
            knee = Some(rps);
        }
    }
    match knee {
        Some(rps) => println!("knee (highest rate shedding at most 1%): {rps} rps"),
        None => println!("knee: every swept rate sheds more than 1%"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The replay reproduces `serve()` exactly on small inputs, for both
    /// serving configurations, with and without shedding.
    #[test]
    fn replay_matches_serve_at_small_size() {
        for (spec, rps) in [
            (STEADY, 40.0),
            (STEADY, 400.0),
            (OVERLOAD, 60.0),
            (OVERLOAD, 400.0),
        ] {
            let spec = ServeSpec {
                stations: 16,
                requests: 600,
                ..spec.at_rate(rps)
            };
            let seed = 5;
            let inputs = build_inputs(&spec, seed);
            let cfg = spec.config(seed);
            let (out, _) = serve_counted(&inputs.topo, inputs.load.clone(), &cfg).unwrap();
            let expected = Outcome::of_snapshot(&out.final_snapshot);
            let replayed = match spec.policy {
                "DynamicRR" => {
                    let solver = cfg.solver;
                    let make = move |horizon_hint| {
                        DynamicRr::new(DynamicRrConfig {
                            horizon_hint,
                            solver,
                            ..DynamicRrConfig::default()
                        })
                    };
                    let timed =
                        replay::replay::<_, true>(&inputs.topo, inputs.load.clone(), &cfg, make)
                            .unwrap();
                    let plain =
                        replay::replay::<_, false>(&inputs.topo, inputs.load.clone(), &cfg, make)
                            .unwrap();
                    assert_eq!(timed.outcome, plain.outcome);
                    timed.outcome
                }
                _ => {
                    replay::replay::<_, true>(&inputs.topo, inputs.load.clone(), &cfg, |_| {
                        OnlineGreedy::new()
                    })
                    .unwrap()
                    .outcome
                }
            };
            assert_eq!(replayed, expected, "{} at {rps} rps", spec.name);
        }
    }
}
