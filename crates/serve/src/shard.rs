//! Shard actors: one thread per shard, each owning a private
//! [`mec_sim::Engine`] plus a boxed policy, driven over channels.
//!
//! Each worker is an actor with a bounded command mailbox and a shared
//! progress plane. The coordinator feeds any number of
//! [`ShardCommand::Inject`]s (slot-stamped by construction: injections for
//! slot `t` always precede the grant covering `t`, and the mailbox is
//! FIFO), then extends the shard's run-ahead lease with
//! [`ShardCommand::Grant`]. The worker executes every leased slot
//! back-to-back, streaming one [`ShardEvent::Tick`] per slot onto the
//! progress channel — it never waits for the coordinator between slots of
//! the same grant, which is what removes the per-slot barrier. A policy
//! error during a live tick becomes a [`ShardEvent::Error`]; an abnormal
//! thread death (chaos crash, engine panic) becomes a
//! [`ShardEvent::Died`] sent by the spawn wrapper. Synchronous
//! request/reply traffic (station extraction, recovery, finish) stays on
//! the per-shard reply channel.
//!
//! ## Recovery and chaos
//!
//! A worker can be spawned with a [`RecoverPlan`]: it restores the engine
//! from a checkpointed [`EngineState`], replays journaled arrivals slot by
//! slot through the catch-up horizon, and answers with a single
//! [`ShardReply::Recovered`] before entering the normal command loop. It
//! can also be *armed* with scripted [`ShardFault`]s that fire when the
//! matching live tick executes — crash (panic), stall (stop replying
//! without exiting), or slow (sleep before the tick). Faults never fire
//! during catch-up replay, so a consumed fault cannot re-kill the shard it
//! already killed. The coordinator never leases slots at or beyond a
//! scripted fault until the fault's own slot is reached, so faults fire at
//! exactly the slot the lockstep protocol would have fired them.

use crate::chaos::{FaultKind, ShardFault};
use crate::obs::StallProbe;
use crate::partition::ShardPlan;
use mec_obs::{Histogram, LifecycleRing, TraceRing};
#[cfg(feature = "lifecycle")]
use mec_obs::{LifecycleRecord, LifecycleSink};
use mec_sim::{
    Engine, EngineState, Metrics, PolicyTelemetry, SlotConfig, SlotPolicy, SlotReport, StationSlice,
};
use mec_topology::{PathTable, StationId};
use mec_workload::request::Request;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvError, SendError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the driver sends a shard worker.
#[derive(Debug)]
pub enum ShardCommand {
    /// Feed one admitted (already shard-localized) request to the engine.
    Inject(Request),
    /// Clone this shard-local station's in-flight jobs into a
    /// [`StationSlice`], mark the originals migrated, and reply with
    /// [`ShardReply::Extracted`]. The drain/leave handoff path: only the
    /// drained station's state moves, never the whole engine.
    ExtractStation(StationId),
    /// Continue the jobs in a slice extracted elsewhere, re-homed onto the
    /// given shard-local station. No reply (like [`ShardCommand::Inject`]).
    /// The third field carries the global request id of each job in slice
    /// order, so lifecycle tracking survives the engine re-identifying the
    /// absorbed jobs (empty when lifecycle tracing is off).
    AbsorbStation(Box<StationSlice>, StationId, Vec<u64>),
    /// Extend the shard's run-ahead lease: execute every slot up to and
    /// including `through`, streaming one [`ShardEvent::Tick`] per slot on
    /// the progress channel. Grants are cumulative — a later grant only
    /// ever extends the lease; slots already executed are skipped.
    Grant {
        /// Last slot (inclusive) the worker may execute.
        through: u64,
    },
    /// Flush terminal accounting, reply with [`ShardReply::Final`], stop.
    Finish,
}

/// Per-tick report from one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTick {
    /// The reporting shard.
    pub shard: usize,
    /// What happened in the slot just executed.
    pub report: SlotReport,
    /// Waiting + running jobs after the slot — the queue depth admission
    /// control tracks.
    pub backlog: usize,
    /// Cumulative outcome counters after the slot.
    pub totals: ShardTotals,
    /// Latency samples recorded since the previous tick, in ms.
    pub new_latencies: Vec<f64>,
    /// Engine checkpoint taken right after this slot, when the worker was
    /// spawned with a nonzero checkpoint interval and this slot completes
    /// an interval. The supervisor adopts it as the shard's recovery base.
    pub checkpoint: Option<EngineState>,
    /// Learner-internals snapshot, attached when the worker was spawned
    /// with a nonzero telemetry interval, this slot completes an
    /// interval, and the policy exposes telemetry (only learning policies
    /// do). Boxed: it rides in every tick reply but is rarely populated.
    pub telemetry: Option<Box<PolicyTelemetry>>,
    /// Arm-lifecycle events recorded by the policy's learner probe since
    /// the previous tick. Empty unless the worker was spawned with
    /// `probe` set and the policy implements a learner.
    pub learner_events: Vec<mec_sim::LearnerEvent>,
    /// Cumulative count of probe events dropped at the policy's bounded
    /// recorder (ring saturation). Only meaningful while probing.
    pub probe_dropped: u64,
    /// Compact snapshot of the decision the policy took this slot, for
    /// the flight recorder. `None` unless probing (or the policy is not
    /// a learner).
    pub decision: Option<mec_sim::DecisionRecord>,
    /// Wall-clock LP solve times (ms) drained from the policy's solver
    /// this tick. Live-metrics only — never reaches snapshots or
    /// deterministic traces. Empty unless probing an LP-backed policy.
    pub solve_times_ms: Vec<f64>,
}

/// A shard engine's cumulative outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardTotals {
    /// Reward collected.
    pub total_reward: f64,
    /// Requests completed.
    pub completed: usize,
    /// Requests expired before first service.
    pub expired: usize,
    /// Streams aborted by the continuity requirement.
    pub aborted: usize,
}

impl ShardTotals {
    fn of(metrics: &Metrics) -> Self {
        Self {
            total_reward: metrics.total_reward(),
            completed: metrics.completed(),
            expired: metrics.expired(),
            aborted: metrics.aborted(),
        }
    }
}

/// First reply of a worker spawned with a [`RecoverPlan`]: the state it
/// reached after restoring the checkpoint and replaying the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRecovered {
    /// Queue depth after catch-up.
    pub backlog: usize,
    /// Cumulative outcome counters after catch-up.
    pub totals: ShardTotals,
    /// *All* latency samples recorded so far (the driver replaces its
    /// per-shard sample set wholesale — deltas from before the crash are
    /// unreliable).
    pub latencies: Vec<f64>,
    /// Journal entries re-injected during catch-up.
    pub replayed: u64,
}

/// What a shard worker sends back on its synchronous reply channel.
/// Per-slot progress rides the shared [`ShardProgress`] channel instead.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum ShardReply {
    /// Answer to [`ShardCommand::Finish`]: the shard engine's complete
    /// metrics. The worker exits after this.
    Final(Metrics),
    /// First reply after a spawn with a [`RecoverPlan`] — sent before any
    /// command is consumed.
    Recovered(ShardRecovered),
    /// Answer to [`ShardCommand::ExtractStation`]: the drained station's
    /// in-flight jobs, ready to ship to the takeover shard, plus the
    /// global request id of each job in slice order (empty when lifecycle
    /// tracing is off).
    Extracted(Box<StationSlice>, Vec<u64>),
    /// The policy produced an illegal schedule during catch-up replay; the
    /// worker exits after this and ignores further commands. (Live-tick
    /// errors travel as [`ShardEvent::Error`] on the progress channel.)
    Error(String),
}

/// Asynchronous per-shard progress on the shared watermark plane.
///
/// `Tick` dwarfs the other variants (its telemetry vectors' inline
/// headers add up), but exactly one event per shard per slot crosses
/// the channel — boxing it would cost an allocation per tick to save
/// nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ShardEvent {
    /// One leased slot executed; carries that slot's full report.
    Tick(ShardTick),
    /// The policy produced an illegal schedule at a live tick; the worker
    /// exits after sending this.
    Error(String),
    /// The worker thread terminated abnormally (panic). Sent by the spawn
    /// wrapper, never by the worker body, so it always follows every tick
    /// the worker managed to stream before dying.
    Died,
}

/// Envelope for [`ShardEvent`]s on the shared progress channel: the
/// coordinator folds ticks in shard order at each watermark and uses the
/// spawn generation to drop events from stale incarnations (a restarted
/// shard reuses the same channel).
#[derive(Debug)]
pub struct ShardProgress {
    /// The reporting shard.
    pub shard: usize,
    /// Spawn generation of the worker that sent this (0 for the initial
    /// spawn, +1 per restart).
    pub gen: u64,
    /// What happened.
    pub event: ShardEvent,
}

/// One handoff operation a shard participated in, recorded by the
/// supervisor so catch-up replay can re-apply it at the top of the same
/// slot it originally executed in. Without these, a restarted shard would
/// either resurrect jobs it handed away (missing extract) or lose jobs it
/// took over (missing absorb).
#[derive(Debug, Clone, PartialEq)]
pub enum HandoffEvent {
    /// Re-extract this shard-local station's in-flight jobs at the top of
    /// `slot` (the slice is discarded — the takeover shard replays its own
    /// [`HandoffEvent::Absorb`], which carries the original slice).
    Extract {
        /// Slot the extraction originally executed in.
        slot: u64,
        /// Shard-local station that was drained.
        station: StationId,
    },
    /// Re-absorb `slice` onto shard-local station `home` at the top of
    /// `slot`.
    Absorb {
        /// Slot the absorption originally executed in.
        slot: u64,
        /// The extracted jobs, verbatim as originally shipped.
        slice: Box<StationSlice>,
        /// Shard-local takeover station the jobs were re-homed onto.
        home: StationId,
        /// Global request ids in slice order, as originally shipped
        /// (empty when lifecycle tracing is off).
        ids: Vec<u64>,
    },
}

impl HandoffEvent {
    /// The slot this event executes at the top of.
    pub fn slot(&self) -> u64 {
        match self {
            Self::Extract { slot, .. } | Self::Absorb { slot, .. } => *slot,
        }
    }
}

/// How a restarted worker catches back up to the fleet.
#[derive(Debug, Clone)]
pub struct RecoverPlan {
    /// The engine state to restore before replaying. Genesis state replays
    /// the whole run (exact for every policy); a periodic checkpoint
    /// replays only the tail (exact for stateless policies).
    pub base: EngineState,
    /// Journaled `(admission slot, localized request)` pairs with slot
    /// `>= base.next_slot`, in admission order.
    pub journal: Vec<(u64, Request)>,
    /// Handoff operations to re-apply during catch-up, ordered by slot
    /// (ties in recorded order). Each is applied at the top of its slot,
    /// before that slot's journal injections — matching the live driver
    /// loop, where handoffs precede dispatch.
    pub events: Vec<HandoffEvent>,
    /// Replay ticks through this slot inclusive; the next live tick the
    /// driver sends is `through + 1`.
    pub through: u64,
    /// Lifecycle records for slots `>= life_from` are emitted during
    /// catch-up replay; earlier slots were already recorded by the dead
    /// worker before it crashed (its ring outlives it), so re-emitting
    /// them would duplicate the stream. The supervisor sets this to the
    /// first slot the dead worker missed; 0 replays everything.
    #[cfg_attr(not(feature = "lifecycle"), allow(dead_code))]
    pub life_from: u64,
    /// Global ids of the requests already inside `base`, in engine-local
    /// (dense inject) order. The engine re-identifies requests on inject,
    /// so a checkpoint alone cannot recover global ids — the supervisor
    /// mirrors the map and seeds the replacement worker's tracker with
    /// it. Empty for a genesis base (replay rebuilds the map from the
    /// journal, which still carries global ids).
    #[cfg_attr(not(feature = "lifecycle"), allow(dead_code))]
    pub life_ids: Vec<u64>,
}

/// Everything needed to spawn (or respawn) one shard worker, minus the
/// policy (boxed separately because trait objects aren't `Clone`/`Debug`).
#[derive(Debug, Clone)]
pub struct SpawnSpec {
    /// The shard's partition: owned topology, station mapping, bridges.
    pub plan: ShardPlan,
    /// Slot parameters (already carrying the shard-derived seed).
    pub config: SlotConfig,
    /// Bound on the in-flight command queue — the driver blocks
    /// (backpressure) rather than buffering unboundedly.
    pub command_bound: usize,
    /// Attach an [`EngineState`] checkpoint to every Nth tick reply
    /// (0 disables checkpointing; recovery then replays from genesis).
    pub checkpoint_every: u64,
    /// Scripted faults to fire on matching live ticks.
    pub faults: Vec<ShardFault>,
    /// Catch-up plan for a restart; `None` for a cold start.
    pub recover: Option<RecoverPlan>,
    /// Shared progress channel: one [`ShardEvent::Tick`] per executed
    /// slot, plus live-tick errors and the spawn wrapper's death notice.
    pub progress: Sender<ShardProgress>,
    /// Spawn generation stamped on every progress event (0 for the
    /// initial spawn, +1 per restart) so the coordinator can drop events
    /// from stale incarnations.
    pub gen: u64,
    /// What the worker reports into beyond its tick stream.
    pub taps: ShardTaps,
}

/// A worker's observability attachments, handed out per shard by the
/// coordinator's observability state (shared across restarts, so a
/// replacement worker writes into the same streams and gauges). The
/// default attaches nothing.
#[derive(Debug, Clone, Default)]
pub struct ShardTaps {
    /// Worker-side trace ring, drained by the coordinator at each
    /// watermark fold. `None` when tracing is off (events become no-ops).
    pub ring: Option<TraceRing>,
    /// Wall-clock engine-step timing histogram (live metrics only; never
    /// reaches snapshots or traces).
    pub step_hist: Option<Arc<Histogram>>,
    /// Worker-side lifecycle ring, drained by the coordinator at each
    /// watermark fold. `None` when lifecycle tracing is off; records also
    /// require the `lifecycle` cargo feature to be emitted at all.
    pub life_ring: Option<LifecycleRing>,
    /// Always-on work / mailbox-wait / watermark-wait stall probe behind
    /// the stall attribution (live metrics only; never reaches snapshots
    /// or deterministic traces).
    pub stall: Option<StallProbe>,
    /// Fine-grained latency histogram to attach completed-request-id
    /// exemplars to (only consulted while lifecycle tracking is active;
    /// the driver owns the observation counts).
    #[cfg_attr(not(feature = "lifecycle"), allow(dead_code))]
    pub fine_hist: Option<Arc<Histogram>>,
    /// Attach a [`PolicyTelemetry`] to every Nth tick reply (0 disables
    /// the learner-telemetry sweep).
    pub telemetry_every: u64,
    /// Attach the policy's learner probe: every tick reply then carries
    /// the arm-lifecycle events, decision record, and LP solve times
    /// recorded during that slot. Off by default — with the probe
    /// detached the policy takes the exact pre-probe code paths.
    pub probe: bool,
}

/// Driver-side handle to one shard worker thread.
#[derive(Debug)]
pub struct ShardHandle {
    cmd_tx: SyncSender<ShardCommand>,
    reply_rx: Receiver<ShardReply>,
    join: Option<JoinHandle<()>>,
    abandoned: Arc<AtomicBool>,
}

/// Engine-trace capacity for lifecycle tracking — several events per
/// request, so this covers runs of a few hundred thousand requests.
const LIFE_TRACE_CAP: usize = 1 << 20;

/// Worker-side lifecycle tracking: maps engine-local request ids back to
/// global ones (the engine re-identifies on inject and absorb) and turns
/// engine-trace events into [`LifecycleRecord`]s on the shard's ring.
#[cfg(feature = "lifecycle")]
struct LifeTracker {
    ring: LifecycleRing,
    /// Engine-local request id (dense inject order) -> global id.
    ids: Vec<u64>,
    /// Engine-trace events already consumed.
    seen: usize,
    /// Suppress records below this slot during catch-up replay: the dead
    /// worker already recorded them and its ring outlives it.
    emit_from: u64,
}

#[cfg(feature = "lifecycle")]
impl LifeTracker {
    /// Called immediately before each `engine.inject`: the engine assigns
    /// local ids densely in inject order.
    fn note_inject(&mut self, request: &Request) {
        self.ids.push(request.id().index() as u64);
    }

    /// Called immediately before each `engine.absorb_station`: absorbed
    /// jobs are re-identified in slice order. A length mismatch (ids from
    /// a lifecycle-off peer) maps to `u64::MAX` rather than misattributing.
    fn note_absorb(&mut self, jobs: usize, ids: &[u64]) {
        for i in 0..jobs {
            self.ids.push(ids.get(i).copied().unwrap_or(u64::MAX));
        }
    }

    /// The global id behind an engine-local one.
    fn global(&self, local: mec_workload::request::RequestId) -> u64 {
        self.ids.get(local.index()).copied().unwrap_or(u64::MAX)
    }

    /// Emits records for engine-trace events appended since the last
    /// call, returning the global ids of requests that completed (in
    /// completion order, for latency-exemplar pairing). `Arrived` is
    /// skipped — the driver records the `admit` stage with the routing
    /// context the worker no longer has.
    fn drain(&mut self, engine: &Engine, plan: &ShardPlan) -> Vec<u64> {
        let mut completed = Vec::new();
        let Some(trace) = engine.trace() else {
            return completed;
        };
        let events = trace.events();
        for traced in &events[self.seen..] {
            if traced.slot < self.emit_from {
                continue;
            }
            let no_bs = mec_obs::lifecycle::NO_BS;
            let (request, stage, bs) = match traced.event {
                mec_sim::Event::Arrived { .. } => continue,
                mec_sim::Event::Started {
                    request, station, ..
                } => {
                    let bs = plan
                        .stations
                        .get(station.index())
                        .map_or(no_bs, |global| global.index() as i64);
                    (request, "start", bs)
                }
                mec_sim::Event::Completed { request, .. } => {
                    completed.push(self.global(request));
                    (request, "complete", no_bs)
                }
                mec_sim::Event::Expired { request } => (request, "expire", no_bs),
                mec_sim::Event::Aborted { request } => (request, "abort", no_bs),
            };
            self.ring.life(LifecycleRecord {
                id: self.global(request),
                stage,
                slot: traced.slot,
                shard: plan.shard as i64,
                bs,
            });
        }
        self.seen = events.len();
        completed
    }
}

/// One shard worker: the engine and policy it owns, the scripted faults
/// still armed, lifecycle tracking, and the lease cursor.
struct Worker<'a> {
    spec: &'a SpawnSpec,
    engine: Engine<'a>,
    policy: Box<dyn SlotPolicy + Send>,
    faults: Vec<ShardFault>,
    #[cfg(feature = "lifecycle")]
    life: Option<LifeTracker>,
    replies: &'a SyncSender<ShardReply>,
    abandoned: &'a AtomicBool,
    /// First slot no lease has executed yet.
    next_live_slot: u64,
    /// Latency samples already reported in earlier ticks.
    seen_latencies: usize,
    /// Blocked-on-mailbox time since the previous grant finished,
    /// charged to the watermark bucket when the next grant arrives. So
    /// the wait histogram measures the per-lease watermark wait: zero for
    /// slots inside a multi-slot grant, which is the point of run-ahead.
    grant_wait_ms: f64,
}

/// The stall bucket a stretch of worker time is charged to. With the
/// watermark wait (charged per grant) the buckets partition the worker's
/// loop time exactly: work (executing leased slots and catch-up replay),
/// mailbox (handling inject/extract/absorb traffic), and watermark wait
/// (blocked on the mailbox until the coordinator extends the lease).
#[derive(Clone, Copy)]
enum Stall {
    Work,
    Mailbox,
}

/// The worker body: catch-up (if any), then the command loop.
fn worker_main(
    mut spec: SpawnSpec,
    policy: Box<dyn SlotPolicy + Send>,
    replies: &SyncSender<ShardReply>,
    commands: Receiver<ShardCommand>,
    abandoned: &AtomicBool,
) {
    let recover = spec.recover.take();
    let paths = spec.plan.topo.shortest_paths();
    let mut worker = Worker::new(&spec, &paths, policy, replies, abandoned);
    if let Some(recover) = recover {
        if !worker.catch_up(recover) {
            return;
        }
    }
    worker.run(commands);
}

impl<'a> Worker<'a> {
    fn new(
        spec: &'a SpawnSpec,
        paths: &'a PathTable,
        policy: Box<dyn SlotPolicy + Send>,
        replies: &'a SyncSender<ShardReply>,
        abandoned: &'a AtomicBool,
    ) -> Self {
        let mut engine = Engine::new(&spec.plan.topo, paths, Vec::new(), spec.config);
        // Lifecycle tracking reads the engine's event trace.
        if cfg!(feature = "lifecycle") && spec.taps.life_ring.is_some() {
            engine.enable_trace(LIFE_TRACE_CAP);
        }
        Self {
            spec,
            engine,
            policy,
            faults: spec.faults.clone(),
            #[cfg(feature = "lifecycle")]
            life: spec.taps.life_ring.clone().map(|ring| LifeTracker {
                ring,
                ids: Vec::new(),
                seen: 0,
                emit_from: 0,
            }),
            replies,
            abandoned,
            next_live_slot: 0,
            seen_latencies: 0,
            grant_wait_ms: 0.0,
        }
    }

    fn shard(&self) -> usize {
        self.spec.plan.shard
    }

    /// Restores the recovery base, replays handoff events and journaled
    /// arrivals slot by slot through the catch-up horizon, and answers
    /// with [`ShardReply::Recovered`]. Returns `false` when the worker
    /// must exit: the policy failed during replay, or nobody listens.
    fn catch_up(&mut self, recover: RecoverPlan) -> bool {
        #[cfg(feature = "lifecycle")]
        if let Some(life) = self.life.as_mut() {
            life.ids = recover.life_ids;
            life.emit_from = recover.life_from;
        }
        let start = recover.base.next_slot;
        self.engine.restore(recover.base);
        let mut replayed = 0u64;
        let mut journal = recover.journal.into_iter().peekable();
        let mut events = recover.events.into_iter().peekable();
        let replay_start = Instant::now();
        for slot in start..=recover.through {
            // Handoffs recorded at (or somehow before) this slot re-apply
            // first: live handoffs run at the top of a slot, before that
            // slot's dispatch phase.
            while let Some(event) = events.next_if(|e| e.slot() <= slot) {
                self.apply_handoff(event);
            }
            // Entries recorded at or before this slot enter the engine
            // now; `inject` clamps the arrival to the current slot exactly
            // as the original live injection did.
            while let Some((_, request)) = journal.next_if(|(s, _)| *s <= slot) {
                self.inject(request);
                replayed += 1;
            }
            if let Err(e) = self.engine.step(self.policy.as_mut()) {
                let _ = self.replies.send(ShardReply::Error(format!(
                    "shard {} failed during replay of slot {slot}: {e}",
                    self.shard()
                )));
                return false;
            }
        }
        // Leftovers past the catch-up horizon: handoff events (defensive —
        // the supervisor records them only at slots it has already
        // replayed or will deliver live, so this is normally empty), then
        // arrivals buffered while the shard was down whose admission slot
        // lies past the horizon.
        for event in events {
            self.apply_handoff(event);
        }
        for (_, request) in journal {
            self.inject(request);
            replayed += 1;
        }
        // Catch-up replay is engine work; count it so the work/wait split
        // stays honest across restarts.
        self.charge(Stall::Work, replay_start);
        // Records for slots the dead worker already emitted are skipped
        // (`life_from`); the rest — slots missed during the outage — enter
        // the ring now and drain at the next fold.
        #[cfg(feature = "lifecycle")]
        if let Some(life) = self.life.as_mut() {
            life.drain(&self.engine, &self.spec.plan);
        }
        self.next_live_slot = if recover.through >= start {
            recover.through + 1
        } else {
            start
        };
        let metrics = self.engine.metrics();
        self.seen_latencies = metrics.latencies_ms().len();
        let recovered = ShardRecovered {
            backlog: self.engine.backlog(),
            totals: ShardTotals::of(metrics),
            latencies: metrics.latencies_ms().to_vec(),
            replayed,
        };
        self.replies.send(ShardReply::Recovered(recovered)).is_ok()
    }

    /// The command loop: mailbox traffic and leases until `Finish`, a
    /// fatal error, or a closed mailbox.
    fn run(&mut self, commands: Receiver<ShardCommand>) {
        // The probe attaches only for live ticks: catch-up replay
        // re-executes slots whose learner events the dead worker already
        // delivered, so probing during replay would double-count rewards
        // downstream.
        if self.spec.taps.probe {
            self.policy.set_probe(true);
        }
        let mut idle_since = Instant::now();
        for cmd in commands {
            // Time since the last command finished was spent blocked on
            // the mailbox; it accrues to the watermark bucket when the
            // next grant arrives.
            let started = Instant::now();
            self.grant_wait_ms += (started - idle_since).as_secs_f64() * 1e3;
            let bucket = match cmd {
                ShardCommand::Inject(request) => {
                    self.inject(request);
                    Stall::Mailbox
                }
                ShardCommand::ExtractStation(station) => {
                    if !self.extract(station) {
                        return;
                    }
                    Stall::Mailbox
                }
                ShardCommand::AbsorbStation(slice, home, ids) => {
                    self.absorb(&slice, home, &ids);
                    Stall::Mailbox
                }
                ShardCommand::Grant { through } => {
                    self.lease_granted();
                    if !self.run_lease(through) {
                        return;
                    }
                    Stall::Work
                }
                ShardCommand::Finish => return self.finish(),
            };
            self.charge(bucket, started);
            idle_since = Instant::now();
        }
    }

    /// Feeds one request to the engine, recording its global id first:
    /// the engine assigns local ids densely in inject order.
    fn inject(&mut self, request: Request) {
        #[cfg(feature = "lifecycle")]
        if let Some(life) = self.life.as_mut() {
            life.note_inject(&request);
        }
        self.engine.inject(request);
    }

    /// Continues the jobs of a slice extracted elsewhere on shard-local
    /// station `home`, recording their global ids (`ids`, in slice
    /// order) first.
    fn absorb(&mut self, slice: &StationSlice, home: StationId, ids: &[u64]) {
        #[cfg(feature = "lifecycle")]
        if let Some(life) = self.life.as_mut() {
            life.note_absorb(slice.jobs.len(), ids);
        }
        #[cfg(not(feature = "lifecycle"))]
        let _ = ids;
        self.engine.absorb_station(slice, home);
    }

    /// Re-applies one recorded handoff during catch-up. A re-extracted
    /// slice is discarded: the takeover shard replays its own absorb.
    fn apply_handoff(&mut self, event: HandoffEvent) {
        match event {
            HandoffEvent::Extract { station, .. } => {
                self.engine.extract_station(station);
            }
            HandoffEvent::Absorb {
                slice, home, ids, ..
            } => self.absorb(&slice, home, &ids),
        }
    }

    /// Extracts a station's in-flight jobs and replies with the slice and
    /// the jobs' global ids, so the receiving shard can keep attributing
    /// lifecycle records to them. Returns `false` when nobody listens.
    fn extract(&mut self, station: StationId) -> bool {
        let slice = self.engine.extract_station(station);
        #[cfg(feature = "lifecycle")]
        let ids = self.life.as_ref().map_or_else(Vec::new, |l| {
            slice.jobs.iter().map(|j| l.global(j.id())).collect()
        });
        #[cfg(not(feature = "lifecycle"))]
        let ids = Vec::new();
        self.replies
            .send(ShardReply::Extracted(Box::new(slice), ids))
            .is_ok()
    }

    /// Executes every slot up to and including `through`, streaming one
    /// tick per slot on the progress plane. Returns `false` when the
    /// worker must exit: a policy error, a stall fault, or nobody
    /// listens.
    fn run_lease(&mut self, through: u64) -> bool {
        while self.next_live_slot <= through {
            mec_obs::prof_scope!("serve.shard_tick");
            if !self.fire_fault() {
                return false;
            }
            let stepped = mec_obs::span!(
                self.spec.taps.step_hist,
                self.engine.step(self.policy.as_mut())
            );
            let event = match stepped {
                Ok(report) => ShardEvent::Tick(self.tick(report)),
                Err(e) => {
                    self.progress(ShardEvent::Error(format!("shard {}: {e}", self.shard())));
                    return false;
                }
            };
            if !self.progress(event) {
                return false;
            }
        }
        true
    }

    /// Fires the scripted fault armed for the next live slot, if any.
    /// Returns `false` once a stall fault has parked the worker until the
    /// supervisor abandoned it.
    fn fire_fault(&mut self) -> bool {
        let slot = self.next_live_slot;
        let Some(pos) = self.faults.iter().position(|f| f.slot == slot) else {
            return true;
        };
        let fault = self.faults.remove(pos);
        let shard = self.shard();
        // Emitted before the fault fires so even a crash (the panic
        // below) leaves its injection in the trace.
        mec_obs::event!(
            self.spec.taps.ring,
            slot,
            "fault_injected",
            shard = shard,
            fault = match fault.kind {
                FaultKind::Crash => "crash",
                FaultKind::Stall => "stall",
                FaultKind::Slow { .. } => "slow",
            },
        );
        match fault.kind {
            FaultKind::Crash => panic!("chaos: injected crash in shard {shard} at slot {slot}"),
            FaultKind::Stall => {
                // Stop reporting without exiting: only the coordinator's
                // fold deadline can see this. Park until the supervisor
                // abandons the handle.
                while !self.abandoned.load(Ordering::Acquire) {
                    std::thread::park_timeout(Duration::from_millis(5));
                }
                false
            }
            FaultKind::Slow { ms } => {
                std::thread::sleep(Duration::from_millis(ms));
                true
            }
        }
    }

    /// Assembles the report for the slot just stepped: cumulative
    /// counters, the new latency samples, and the checkpoint, telemetry
    /// and probe payloads due this slot.
    fn tick(&mut self, report: SlotReport) -> ShardTick {
        self.next_live_slot = report.slot + 1;
        let due = |every: u64| every > 0 && self.next_live_slot.is_multiple_of(every);
        let checkpoint = due(self.spec.checkpoint_every).then(|| self.engine.checkpoint());
        let telemetry = due(self.spec.taps.telemetry_every)
            .then(|| self.policy.telemetry())
            .flatten()
            .map(Box::new);
        let metrics = self.engine.metrics();
        let latencies = metrics.latencies_ms();
        let new_latencies = latencies[self.seen_latencies..].to_vec();
        self.seen_latencies = latencies.len();
        #[cfg(feature = "lifecycle")]
        {
            let completed_ids = self
                .life
                .as_mut()
                .map_or_else(Vec::new, |l| l.drain(&self.engine, &self.spec.plan));
            // Latencies append in completion order, so this slot's tail
            // zips 1:1 with this slot's completed ids — attach them as
            // histogram exemplars.
            if let Some(hist) = &self.spec.taps.fine_hist {
                for (lat, id) in new_latencies.iter().zip(&completed_ids) {
                    hist.note_exemplar(*lat, *id);
                }
            }
        }
        let (learner_events, probe_dropped, decision, solve_times_ms) = if self.spec.taps.probe {
            (
                self.policy.drain_learner_events(),
                self.policy.probe_dropped(),
                self.policy.last_decision(),
                self.policy.drain_solve_times_ms(),
            )
        } else {
            (Vec::new(), 0, None, Vec::new())
        };
        ShardTick {
            shard: self.shard(),
            report,
            backlog: self.engine.backlog(),
            totals: ShardTotals::of(metrics),
            new_latencies,
            checkpoint,
            telemetry,
            learner_events,
            probe_dropped,
            decision,
            solve_times_ms,
        }
    }

    /// Posts one event on the progress plane; `false` when nobody listens.
    fn progress(&self, event: ShardEvent) -> bool {
        self.spec
            .progress
            .send(ShardProgress {
                shard: self.shard(),
                gen: self.spec.gen,
                event,
            })
            .is_ok()
    }

    /// Flushes terminal accounting and replies with [`ShardReply::Final`].
    fn finish(&mut self) {
        let _ = self.replies.send(ShardReply::Final(self.engine.finish()));
    }

    /// Everything blocked on the mailbox since the previous grant
    /// completed was spent waiting for the coordinator to advance the
    /// watermark and extend the lease.
    fn lease_granted(&mut self) {
        if let Some(probe) = &self.spec.taps.stall {
            probe
                .watermark_ms
                .set(probe.watermark_ms.get() + self.grant_wait_ms);
            probe.wait_hist.observe(self.grant_wait_ms);
        }
        self.grant_wait_ms = 0.0;
    }

    /// Charges the wall time since `since` to a stall bucket. The gauges
    /// are cumulative and outlive the worker, so a replacement continues
    /// from the totals its predecessor left behind.
    fn charge(&self, bucket: Stall, since: Instant) {
        if let Some(probe) = &self.spec.taps.stall {
            let gauge = match bucket {
                Stall::Work => &probe.work_ms,
                Stall::Mailbox => &probe.mailbox_ms,
            };
            gauge.set(gauge.get() + since.elapsed().as_secs_f64() * 1e3);
        }
    }
}

impl ShardHandle {
    /// Spawns the worker thread for `spec`. The worker builds its own
    /// shortest-path table and engine from the (owned) shard topology, so
    /// nothing borrowed crosses the thread boundary.
    ///
    /// # Errors
    ///
    /// Fails only if the OS refuses to spawn the thread.
    pub fn spawn(spec: SpawnSpec, policy: Box<dyn SlotPolicy + Send>) -> std::io::Result<Self> {
        let shard = spec.plan.shard;
        let bound = spec.command_bound.max(1);
        let (cmd_tx, cmd_rx) = std::sync::mpsc::sync_channel::<ShardCommand>(bound);
        let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel::<ShardReply>(4);
        let abandoned = Arc::new(AtomicBool::new(false));
        let worker_abandoned = Arc::clone(&abandoned);
        let notice = spec.progress.clone();
        let gen = spec.gen;
        let join = std::thread::Builder::new()
            .name(format!("mec-shard-{shard}"))
            .spawn(move || {
                // A panicking worker (chaos crash, engine bug) cannot send
                // anything itself, so the spawn wrapper turns the unwind
                // into a death notice on the progress plane. The channel
                // is FIFO per sender, so the notice always follows every
                // tick the worker streamed before dying — the coordinator
                // can attribute the first missing slot exactly. Normal
                // exits (finish, error, stall-park abandon) send nothing.
                let body = std::panic::AssertUnwindSafe(|| {
                    worker_main(spec, policy, &reply_tx, cmd_rx, &worker_abandoned);
                });
                if std::panic::catch_unwind(body).is_err() {
                    let _ = notice.send(ShardProgress {
                        shard,
                        gen,
                        event: ShardEvent::Died,
                    });
                }
            })?;
        Ok(Self {
            cmd_tx,
            reply_rx,
            join: Some(join),
            abandoned,
        })
    }

    /// Sends a command; blocks when the bounded queue is full.
    ///
    /// # Errors
    ///
    /// Fails only if the worker already exited (after an error reply).
    pub fn send(&self, cmd: ShardCommand) -> Result<(), SendError<ShardCommand>> {
        self.cmd_tx.send(cmd)
    }

    /// Receives the next reply, blocking until the worker produces one.
    ///
    /// # Errors
    ///
    /// Fails only if the worker exited without replying.
    pub fn recv(&self) -> Result<ShardReply, RecvError> {
        self.reply_rx.recv()
    }

    /// Receives the next reply, giving up after `timeout_ms` (0 waits
    /// forever). `None` means the worker is stalled (or merely slow) or
    /// exited without replying; the supervisor decides.
    pub fn recv_within(&self, timeout_ms: u64) -> Option<ShardReply> {
        recv_within(&self.reply_rx, timeout_ms)
    }

    /// Waits for the worker thread to exit. Dropping the handle without
    /// joining also shuts the worker down (its command channel closes),
    /// but joining makes teardown deterministic.
    pub fn join(mut self) {
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }

    /// Abandons a worker presumed wedged: signals it to exit if it ever
    /// checks (stalled workers poll the flag), then detaches the thread so
    /// the driver is never blocked on a join that may not return. A truly
    /// wedged thread dies with the process.
    pub fn abandon(mut self) {
        self.abandoned.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            join.thread().unpark();
            drop(join);
        }
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        // Closing cmd_tx ends the worker's command loop; the abandon flag
        // frees a stalled worker from its park loop. Join if possible so
        // panics in the worker are not silently leaked mid-test.
        self.abandoned.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            join.thread().unpark();
            let _ = join.join();
        }
    }
}

/// Receives from `rx`, giving up after `timeout_ms` (0 waits forever).
/// `None` on timeout or disconnect.
pub(crate) fn recv_within<T>(rx: &Receiver<T>, timeout_ms: u64) -> Option<T> {
    if timeout_ms > 0 {
        rx.recv_timeout(Duration::from_millis(timeout_ms)).ok()
    } else {
        rx.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition;
    use crate::policy::policy_from_name;
    use mec_topology::TopologyBuilder;
    use mec_workload::WorkloadBuilder;
    use std::sync::mpsc::RecvTimeoutError;

    /// A cold-start spec with no chaos, no checkpoints, no recovery and
    /// nothing attached, streaming into `progress`.
    fn spec(plan: ShardPlan, command_bound: usize, progress: Sender<ShardProgress>) -> SpawnSpec {
        SpawnSpec {
            plan,
            config: SlotConfig::default(),
            command_bound,
            checkpoint_every: 0,
            faults: Vec::new(),
            recover: None,
            progress,
            gen: 0,
            taps: ShardTaps::default(),
        }
    }

    /// Spawns a cold-start worker with a private progress channel.
    fn spawn_fresh(
        plan: ShardPlan,
        policy: Box<dyn SlotPolicy + Send>,
        command_bound: usize,
    ) -> (ShardHandle, Receiver<ShardProgress>) {
        let (progress, events) = std::sync::mpsc::channel();
        let spec = spec(plan, command_bound, progress);
        (ShardHandle::spawn(spec, policy).unwrap(), events)
    }

    #[test]
    fn inject_grant_finish_roundtrip() {
        let topo = TopologyBuilder::new(8).seed(3).build();
        let plan = partition(&topo, 1).remove(0);
        let requests = WorkloadBuilder::new(&topo).seed(3).count(20).build();
        let policy = policy_from_name("Greedy", 100, mec_core::SolverKind::default()).unwrap();
        let (handle, events) = spawn_fresh(plan, policy, 64);
        for r in requests {
            handle.send(ShardCommand::Inject(r)).unwrap();
        }
        // A single 100-slot lease streams one tick event per slot.
        handle.send(ShardCommand::Grant { through: 99 }).unwrap();
        let mut backlog = usize::MAX;
        for slot in 0..100 {
            match events.recv().unwrap() {
                ShardProgress {
                    shard: 0,
                    gen: 0,
                    event: ShardEvent::Tick(tick),
                } => {
                    assert_eq!(tick.shard, 0);
                    assert_eq!(tick.report.slot, slot);
                    assert_eq!(tick.checkpoint, None, "checkpointing is off by default");
                    backlog = tick.backlog;
                }
                other => panic!("expected tick event, got {other:?}"),
            }
        }
        assert_eq!(backlog, 0, "20 requests should drain within 100 slots");
        handle.send(ShardCommand::Finish).unwrap();
        match handle.recv().unwrap() {
            ShardReply::Final(metrics) => {
                assert_eq!(
                    metrics.completed()
                        + metrics.expired()
                        + metrics.aborted()
                        + metrics.unserved(),
                    20
                );
            }
            other => panic!("expected final reply, got {other:?}"),
        }
        handle.join();
    }

    /// Grants `slots` more slots starting at `from` and collects the tick
    /// stream.
    fn drive(
        handle: &ShardHandle,
        events: &Receiver<ShardProgress>,
        from: u64,
        slots: u64,
    ) -> Vec<ShardTick> {
        handle
            .send(ShardCommand::Grant {
                through: from + slots - 1,
            })
            .unwrap();
        (0..slots)
            .map(|_| match events.recv().unwrap().event {
                ShardEvent::Tick(tick) => tick,
                other => panic!("expected tick event, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn stale_grants_are_idempotent() {
        let topo = TopologyBuilder::new(6).seed(9).build();
        let plan = partition(&topo, 1).remove(0);
        let policy = policy_from_name("Greedy", 100, mec_core::SolverKind::default()).unwrap();
        let (handle, events) = spawn_fresh(plan, policy, 16);
        let ticks = drive(&handle, &events, 0, 5);
        assert_eq!(ticks.last().unwrap().report.slot, 4);
        // A non-extending lease executes nothing: no stray tick events.
        handle.send(ShardCommand::Grant { through: 3 }).unwrap();
        let extended = drive(&handle, &events, 5, 1);
        assert_eq!(extended[0].report.slot, 5, "slots 0..=4 must not re-run");
        handle.send(ShardCommand::Finish).unwrap();
        handle.join();
    }

    #[test]
    fn periodic_checkpoints_attach_to_interval_ticks() {
        let topo = TopologyBuilder::new(6).seed(7).build();
        let plan = partition(&topo, 1).remove(0);
        let policy = policy_from_name("Greedy", 100, mec_core::SolverKind::default()).unwrap();
        let (progress, events) = std::sync::mpsc::channel();
        let spec = SpawnSpec {
            checkpoint_every: 4,
            ..spec(plan, 16, progress)
        };
        let handle = ShardHandle::spawn(spec, policy).unwrap();
        let ticks = drive(&handle, &events, 0, 9);
        for tick in &ticks {
            let expect_checkpoint = (tick.report.slot + 1) % 4 == 0;
            assert_eq!(tick.checkpoint.is_some(), expect_checkpoint);
            if let Some(state) = &tick.checkpoint {
                assert_eq!(state.next_slot, tick.report.slot + 1);
            }
        }
        handle.send(ShardCommand::Finish).unwrap();
        handle.join();
    }

    #[test]
    fn recovered_worker_matches_uninterrupted_run() {
        let topo = TopologyBuilder::new(8).seed(11).build();
        let plan = partition(&topo, 1).remove(0);
        let requests = WorkloadBuilder::new(&topo).seed(11).count(15).build();

        // Reference: one worker runs 40 slots straight through.
        let reference = {
            let policy = policy_from_name("Greedy", 100, mec_core::SolverKind::default()).unwrap();
            let (handle, events) = spawn_fresh(plan.clone(), policy, 64);
            for r in requests.clone() {
                handle.send(ShardCommand::Inject(r)).unwrap();
            }
            let ticks = drive(&handle, &events, 0, 40);
            let last = ticks.last().unwrap().clone();
            handle.send(ShardCommand::Finish).unwrap();
            handle.join();
            last
        };

        // Recovery path: replay the same injections from genesis through
        // slot 29, then tick the last 10 live.
        let journal: Vec<(u64, Request)> = requests.iter().map(|r| (0u64, r.clone())).collect();
        let policy = policy_from_name("Greedy", 100, mec_core::SolverKind::default()).unwrap();
        let (progress, events) = std::sync::mpsc::channel();
        let spec = SpawnSpec {
            recover: Some(RecoverPlan {
                base: EngineState::genesis(plan.topo.station_count()),
                journal,
                events: Vec::new(),
                through: 29,
                life_from: 0,
                life_ids: Vec::new(),
            }),
            gen: 1,
            ..spec(plan.clone(), 64, progress)
        };
        let handle = ShardHandle::spawn(spec, policy).unwrap();
        let recovered = match handle.recv().unwrap() {
            ShardReply::Recovered(r) => r,
            other => panic!("expected recovered reply, got {other:?}"),
        };
        assert_eq!(recovered.replayed, 15);
        let ticks = drive(&handle, &events, 30, 10);
        let last = ticks.last().unwrap();
        assert_eq!(last.report.slot, reference.report.slot);
        assert_eq!(last.backlog, reference.backlog);
        assert_eq!(last.totals.total_reward, reference.totals.total_reward);
        assert_eq!(last.totals.completed, reference.totals.completed);
        handle.send(ShardCommand::Finish).unwrap();
        handle.join();
    }

    #[test]
    fn probed_worker_streams_learner_events_per_tick() {
        let topo = TopologyBuilder::new(8).seed(5).build();
        let plan = partition(&topo, 1).remove(0);
        let requests = WorkloadBuilder::new(&topo).seed(5).count(30).build();
        let policy = policy_from_name("DynamicRR", 100, mec_core::SolverKind::default()).unwrap();
        let (progress, events) = std::sync::mpsc::channel();
        let spec = SpawnSpec {
            taps: ShardTaps {
                probe: true,
                ..ShardTaps::default()
            },
            ..spec(plan, 64, progress)
        };
        let handle = ShardHandle::spawn(spec, policy).unwrap();
        for r in requests {
            handle.send(ShardCommand::Inject(r)).unwrap();
        }
        let ticks = drive(&handle, &events, 0, 20);
        let events: usize = ticks.iter().map(|t| t.learner_events.len()).sum();
        assert!(events > 0, "a probed learner must stream lifecycle events");
        for tick in &ticks {
            let decision = tick
                .decision
                .as_ref()
                .expect("every probed learner tick carries a decision record");
            assert_eq!(decision.slot, tick.report.slot);
            // Each tick's events belong to that tick alone: one Sample per
            // learner update, stamped with the slot's step.
            for ev in &tick.learner_events {
                assert!(ev.value > 0.0, "events carry the arm's threshold value");
            }
        }
        handle.send(ShardCommand::Finish).unwrap();
        handle.join();
    }

    #[test]
    fn unprobed_worker_keeps_learner_fields_empty() {
        let topo = TopologyBuilder::new(8).seed(5).build();
        let plan = partition(&topo, 1).remove(0);
        let policy = policy_from_name("DynamicRR", 100, mec_core::SolverKind::default()).unwrap();
        let (handle, events) = spawn_fresh(plan, policy, 64);
        for tick in drive(&handle, &events, 0, 5) {
            assert!(tick.learner_events.is_empty());
            assert_eq!(tick.probe_dropped, 0);
            assert!(tick.decision.is_none());
            assert!(tick.solve_times_ms.is_empty());
        }
        handle.send(ShardCommand::Finish).unwrap();
        handle.join();
    }

    #[test]
    fn stalled_worker_times_out_and_abandons_cleanly() {
        let topo = TopologyBuilder::new(4).seed(1).build();
        let plan = partition(&topo, 1).remove(0);
        let policy = policy_from_name("Greedy", 100, mec_core::SolverKind::default()).unwrap();
        let (progress, events) = std::sync::mpsc::channel();
        let spec = SpawnSpec {
            faults: vec![ShardFault {
                slot: 2,
                kind: FaultKind::Stall,
            }],
            ..spec(plan, 8, progress)
        };
        let handle = ShardHandle::spawn(spec, policy).unwrap();
        drive(&handle, &events, 0, 2);
        handle.send(ShardCommand::Grant { through: 2 }).unwrap();
        match events.recv_timeout(Duration::from_millis(100)) {
            Err(RecvTimeoutError::Timeout) => {}
            other => panic!("expected a stall timeout, got {other:?}"),
        }
        // Abandon returns promptly even though the worker is wedged; a
        // stall-park exit is a normal return, so no death notice appears.
        handle.abandon();
        assert!(matches!(
            events.recv_timeout(Duration::from_millis(500)),
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected)
        ));
    }

    #[test]
    fn crashed_worker_sends_a_death_notice_after_its_ticks() {
        let topo = TopologyBuilder::new(4).seed(2).build();
        let plan = partition(&topo, 1).remove(0);
        let policy = policy_from_name("Greedy", 100, mec_core::SolverKind::default()).unwrap();
        let (progress, events) = std::sync::mpsc::channel();
        let spec = SpawnSpec {
            faults: vec![ShardFault {
                slot: 3,
                kind: FaultKind::Crash,
            }],
            ..spec(plan, 8, progress)
        };
        let handle = ShardHandle::spawn(spec, policy).unwrap();
        // Lease past the crash slot: ticks 0..=2 stream, then the spawn
        // wrapper's Died notice — strictly after the surviving ticks.
        handle.send(ShardCommand::Grant { through: 5 }).unwrap();
        for slot in 0..3 {
            match events.recv().unwrap().event {
                ShardEvent::Tick(tick) => assert_eq!(tick.report.slot, slot),
                other => panic!("expected tick event, got {other:?}"),
            }
        }
        match events.recv_timeout(Duration::from_secs(5)).unwrap().event {
            ShardEvent::Died => {}
            other => panic!("expected a death notice, got {other:?}"),
        }
        handle.join();
    }
}
