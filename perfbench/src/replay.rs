//! A single-threaded, lockstep replay of `mec_serve::serve` through the
//! public calls of each layer, in the coordinator's order, with a timer
//! around every call when `ON` is set:
//!
//! 1. `partition`;
//! 2. `PlacementPlane::complete_installs`, `release_due` and `route`, then
//!    `holders_of`;
//! 3. `Router::admit_with`;
//! 4. `Engine::inject` and `Engine::step`, the policy wrapped in a timer;
//! 5. `Router::observe_backlog`.
//!
//! The runtime's outcome is the same under every epoch horizon, lockstep
//! included, so for a fault-free, ops-free run on a virtual clock this
//! replay must reproduce `serve()`'s final counters and reward exactly;
//! [`Outcome`] is what the two are compared on. With `ON` unset the same
//! code runs without timers, which prices the tracing itself.

use mec_serve::{partition, Admission, LatencyStats, LoadGen, PlacementPlane, PlacementStats};
use mec_serve::{RouteDecision, Router, ServeConfig, Snapshot};
use mec_sim::{Allocation, Engine, Metrics, SlotConfig, SlotContext, SlotPolicy};
use mec_topology::{PathTable, Topology};
use mec_workload::Request;
use std::time::Instant;

/// The runtime's per-shard engine seed (`runtime::shard_seed`, which is
/// private): the run seed xor the shard's splitmix64 increment multiple.
pub fn shard_seed(base: u64, shard: usize) -> u64 {
    base ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Adds the nanoseconds `f` takes to `acc` when `ON`; otherwise just runs it.
#[inline(always)]
fn timed<const ON: bool, R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    if ON {
        let t0 = Instant::now();
        let out = f();
        *acc += t0.elapsed().as_secs_f64() * 1e9;
        out
    } else {
        f()
    }
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// A slot policy with a timer around each `schedule` and `observe` call.
#[derive(Debug)]
pub struct TimedPolicy<P, const ON: bool> {
    /// The wrapped policy (read its own accessors after the replay).
    pub inner: P,
    /// Wall time of each `schedule` call, in microseconds.
    pub schedule_us: Vec<f64>,
    /// Total wall time of `observe` calls, in nanoseconds.
    pub observe_ns: f64,
    /// Allocations returned by `schedule`, summed over slots.
    pub allocations: u64,
}

impl<P: SlotPolicy, const ON: bool> SlotPolicy for TimedPolicy<P, ON> {
    fn schedule(&mut self, ctx: &SlotContext<'_>) -> Vec<Allocation> {
        let mut ns = 0.0;
        let out = timed::<ON, _>(&mut ns, || self.inner.schedule(ctx));
        if ON {
            self.schedule_us.push(ns / 1e3);
        }
        self.allocations += out.len() as u64;
        out
    }

    fn observe(&mut self, slot: u64, completed_reward: f64) {
        timed::<ON, _>(&mut self.observe_ns, || {
            self.inner.observe(slot, completed_reward);
        });
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The final counters `serve()` and the replay must agree on.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Slots executed.
    pub slots: u64,
    /// Requests admitted into a shard.
    pub admitted: u64,
    /// Requests shed (router and placement).
    pub shed: u64,
    /// Requests completed.
    pub completed: usize,
    /// Requests expired before first service.
    pub expired: usize,
    /// Streams aborted.
    pub aborted: usize,
    /// Requests unfinished at the cut-off.
    pub unserved: usize,
    /// Total reward, compared bit for bit.
    pub total_reward: f64,
    /// Simulated latency statistics.
    pub latency: LatencyStats,
    /// Placement-plane counters.
    pub placement: PlacementStats,
}

impl Outcome {
    /// The same fields read off a runtime final snapshot.
    pub fn of_snapshot(s: &Snapshot) -> Self {
        Self {
            slots: s.slot,
            admitted: s.admitted,
            shed: s.shed,
            completed: s.completed,
            expired: s.expired,
            aborted: s.aborted,
            unserved: s.unserved,
            total_reward: s.total_reward,
            latency: s.latency.clone(),
            placement: s.placement.clone(),
        }
    }
}

/// Per-layer work and time of one replay. Times are 0 unless timed.
#[derive(Debug, Default)]
pub struct Layers {
    /// `partition` wall time.
    pub partition_ms: f64,
    /// The slowest shard's start-up: its path table plus engine.
    pub startup_ms: f64,
    /// `Engine::finish` over every shard (the runtime finishes them in turn).
    pub finish_ms: f64,
    /// Slots executed.
    pub slots: u64,
    /// Slots with at least one arrival or held release.
    pub arrival_slots: u64,
    /// Σ over slots of coordinator time plus the slowest shard's
    /// inject+step time, plus partition, start-up and finish.
    pub critical_path_ms: f64,
    /// `PlacementPlane::route` calls.
    pub route_calls: u64,
    /// Time in `route` + `holders_of`, in nanoseconds.
    pub route_ns: f64,
    /// `Router::admit_with` calls.
    pub admit_calls: u64,
    /// Time in `admit_with`, in nanoseconds.
    pub admit_ns: f64,
    /// `Engine::inject` calls.
    pub inject_calls: u64,
    /// Time in `inject`, in nanoseconds.
    pub inject_ns: f64,
    /// Wall time of each shard-slot `Engine::step`, in microseconds.
    pub step_us: Vec<f64>,
    /// Engine backlog after each shard-slot step, summed.
    pub backlog_sum: u64,
    /// Route decisions that parked a request behind an install.
    pub held: u64,
}

/// What one replay produced.
#[derive(Debug)]
pub struct Replay<P, const ON: bool> {
    /// The counters to compare against `serve()`.
    pub outcome: Outcome,
    /// Per-layer work and time.
    pub layers: Layers,
    /// One policy per shard, in shard order.
    pub policies: Vec<TimedPolicy<P, ON>>,
    /// Wall time of the whole replay.
    pub wall_ms: f64,
}

/// Routes, admits and injects one request, as `runtime::dispatch_one` does.
#[allow(clippy::too_many_arguments)]
fn dispatch<const ON: bool>(
    request: Request,
    slot: u64,
    plane: &mut PlacementPlane,
    router: &mut Router,
    engines: &mut [Engine<'_>],
    layers: &mut Layers,
    shard_ns: &mut [f64],
) -> Result<(), String> {
    layers.route_calls += 1;
    let request = match timed::<ON, _>(&mut layers.route_ns, || plane.route(request, slot)) {
        RouteDecision::Proceed(r) => r,
        RouteDecision::Held { .. } => {
            layers.held += 1;
            return Ok(());
        }
        RouteDecision::Shed => {
            router.count_shed(1);
            return Ok(());
        }
    };
    let holders = timed::<ON, _>(&mut layers.route_ns, || plane.holders_of(&request));
    layers.admit_calls += 1;
    let hint = (!holders.is_empty()).then_some(holders.as_slice());
    let admission = timed::<ON, _>(&mut layers.admit_ns, || {
        router.admit_with(&request, slot, hint)
    });
    match admission {
        Admission::Inject { shard, request } | Admission::Spilled { shard, request } => {
            layers.inject_calls += 1;
            let mut ns = 0.0;
            timed::<ON, _>(&mut ns, || engines[shard].inject(request));
            layers.inject_ns += ns;
            shard_ns[shard] += ns;
            Ok(())
        }
        Admission::Buffered { shard, .. } => Err(format!(
            "slot {slot}: request buffered for shard {shard}, but no shard is ever down"
        )),
        Admission::Shed => Ok(()),
    }
}

/// Replays `load` on `topo` under `cfg` (which must carry no chaos, no
/// ops and a virtual clock), building each shard's policy with
/// `make_policy(horizon_hint)`.
///
/// # Errors
///
/// A placement set-up error, an illegal schedule, or a buffered
/// admission (which a run without faults never produces).
pub fn replay<P: SlotPolicy, const ON: bool>(
    topo: &Topology,
    load: LoadGen,
    cfg: &ServeConfig,
    make_policy: impl Fn(u64) -> P,
) -> Result<Replay<P, ON>, String> {
    let arrivals = load.clone().into_requests();
    let started = Instant::now();
    let mut layers = Layers::default();

    let t0 = Instant::now();
    let plans = partition(topo, cfg.shards);
    layers.partition_ms = ms_since(t0);
    let mut plane = PlacementPlane::new(topo, &cfg.placement, cfg.ops.clone())?;
    let mut router = Router::new(cfg.shards, cfg.queue_capacity);
    router.set_station_counts(plans.iter().map(|p| p.topo.station_count()).collect());
    router.set_degraded_policy(cfg.faults.degraded);
    router.set_journal_cap(cfg.faults.journal_cap);
    let last_arrival = load.max_arrival();
    let horizon_hint = last_arrival.saturating_add(cfg.drain_slots);
    let hard_stop = last_arrival
        .max(plane.last_op_effect_slot())
        .saturating_add(cfg.drain_slots.max(1));

    let mut startup = vec![0.0f64; plans.len()];
    let paths: Vec<PathTable> = plans
        .iter()
        .zip(&mut startup)
        .map(|(plan, ms)| {
            let t0 = Instant::now();
            let table = plan.topo.shortest_paths();
            *ms += ms_since(t0);
            table
        })
        .collect();
    let mut engines: Vec<Engine<'_>> = plans
        .iter()
        .zip(&paths)
        .zip(&mut startup)
        .map(|((plan, table), ms)| {
            let t0 = Instant::now();
            let config = SlotConfig {
                seed: shard_seed(cfg.sim.seed, plan.shard),
                horizon: horizon_hint,
                ..cfg.sim
            };
            let engine = Engine::new(&plan.topo, table, Vec::new(), config);
            *ms += ms_since(t0);
            engine
        })
        .collect();
    layers.startup_ms = startup.iter().copied().fold(0.0, f64::max);
    let mut policies: Vec<TimedPolicy<P, ON>> = (0..plans.len())
        .map(|_| TimedPolicy {
            inner: make_policy(horizon_hint),
            schedule_us: Vec::new(),
            observe_ns: 0.0,
            allocations: 0,
        })
        .collect();

    let mut arrivals = arrivals.into_iter().peekable();
    let mut shard_ns = vec![0.0f64; plans.len()];
    let mut slot = 0u64;
    loop {
        shard_ns.fill(0.0);
        let slot_start = ON.then(Instant::now);
        plane.complete_installs(slot);
        let released = plane.release_due(slot);
        let mut arrived = !released.is_empty();
        for request in released {
            dispatch::<ON>(
                request,
                slot,
                &mut plane,
                &mut router,
                &mut engines,
                &mut layers,
                &mut shard_ns,
            )?;
        }
        while let Some(request) = arrivals.next_if(|r| r.arrival_slot() <= slot) {
            arrived = true;
            dispatch::<ON>(
                request,
                slot,
                &mut plane,
                &mut router,
                &mut engines,
                &mut layers,
                &mut shard_ns,
            )?;
        }
        // Injection is shard work; the rest of the dispatch phase is the
        // coordinator's.
        let mut coord_ms =
            slot_start.map_or(0.0, |t| ms_since(t) - shard_ns.iter().sum::<f64>() / 1e6);
        for (shard, (engine, policy)) in engines.iter_mut().zip(&mut policies).enumerate() {
            let t0 = ON.then(Instant::now);
            engine
                .step(policy)
                .map_err(|e| format!("shard {shard}, slot {slot}: {e}"))?;
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_secs_f64() * 1e9;
                layers.step_us.push(ns / 1e3);
                shard_ns[shard] += ns;
            }
            let backlog = engine.backlog();
            layers.backlog_sum += backlog as u64;
            let t0 = ON.then(Instant::now);
            router.observe_backlog(shard, backlog);
            coord_ms += t0.map_or(0.0, ms_since);
        }
        layers.critical_path_ms += coord_ms + shard_ns.iter().copied().fold(0.0, f64::max) / 1e6;
        layers.arrival_slots += u64::from(arrived);

        let slots_done = slot + 1;
        let drained = arrivals.peek().is_none()
            && router.backlogs().iter().all(|&b| b == 0)
            && !plane.has_held()
            && plane.ops_exhausted()
            && !plane.has_pending_drains();
        if drained || slots_done >= hard_stop {
            layers.slots = slots_done;
            break;
        }
        slot = slots_done;
    }

    let abandoned = plane.abandon_held();
    if abandoned > 0 {
        router.count_shed(abandoned);
    }
    let t0 = Instant::now();
    let mut metrics = Metrics::new();
    for engine in &mut engines {
        metrics.merge(&engine.finish());
    }
    layers.finish_ms = ms_since(t0);
    layers.critical_path_ms += layers.partition_ms + layers.startup_ms + layers.finish_ms;
    let wall_ms = ms_since(started);

    Ok(Replay {
        outcome: Outcome {
            slots: layers.slots,
            admitted: router.admitted(),
            shed: router.shed(),
            completed: metrics.completed(),
            expired: metrics.expired(),
            aborted: metrics.aborted(),
            unserved: metrics.unserved(),
            total_reward: metrics.total_reward(),
            latency: LatencyStats::from_samples(metrics.latencies_ms()),
            placement: plane.stats().clone(),
        },
        layers,
        policies,
        wall_ms,
    })
}
