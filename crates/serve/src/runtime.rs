//! The serving loop: partition → spawn actors → route/admit →
//! epoch-leased ticks folded at a watermark → periodic snapshots → drain
//! → final accounting — under a per-shard **supervisor** that detects
//! worker failure (crash, stall, or missed fold deadline), routes around
//! the outage, and restarts the shard with checkpoint-plus-journal
//! replay.
//!
//! ## The epoch/watermark protocol
//!
//! Each shard is an actor with a bounded command mailbox; the coordinator
//! never waits for a shard inside a slot. Instead it issues run-ahead
//! **leases** (`ShardCommand::Grant`): a shard may execute every slot up
//! to the granted horizon back-to-back, injecting the slot-stamped
//! arrivals the grant carries before stepping each slot, and streaming
//! one tick report per slot onto a shared progress channel. The
//! coordinator's **watermark** advances one slot at a time: phase `t`
//! (disk faults, reconfig, restarts, handoffs) runs only after every live
//! shard's slot `t-1` report has been folded, and the fold for slot `t`
//! consumes reports **in shard order** regardless of the wall-clock order
//! they arrived in.
//!
//! ## The dispatch front
//!
//! Dispatch (route, admit, journal, and queue a slot's arrivals for the
//! grant covering that slot) runs at a **dispatch front** that may lead
//! the watermark by up to the epoch horizon, so a shard can execute slot
//! `f` while the coordinator is still folding slot `f-1`. The front takes
//! slot `f` early only when the coordinator can prove lockstep would make
//! the same decisions there: (a) the run is quiet — virtual clock, every
//! shard up, no pending handoffs, ops exhausted, nothing held by
//! placement, no pending drains, no scripted disk faults; (b) `f` lies
//! inside the horizon and before the hard stop, and an arrival at or past
//! `f` is still due; (c) the front never passes a scripted shard-fault
//! slot that has not been folded; (d) `f` is not a snapshot boundary; and
//! (e) every shard's tracked backlog plus the arrivals at `f` that may
//! land on it fits the queue capacity. The tracked backlog is the last
//! observed backlog plus every admission since, and an engine step never
//! raises a backlog, so under (e) lockstep would admit every one of those
//! arrivals too. When any of (a)–(e) fails the front waits for the
//! watermark and the slot runs exactly as lockstep runs it. A lease never
//! covers a slot whose arrivals are not dispatched yet. Driver trace
//! events and lifecycle records of a slot dispatched early are held back
//! and emitted where lockstep emits them, so snapshots, traces, and final
//! accounting are byte-identical for any epoch horizon, including horizon
//! 1 (lockstep).
//!
//! ## The coordinator
//!
//! [`serve`] builds a `Coordinator` that owns the run state (placement
//! plane, router, supervised shards, progress plane, clock) and drives
//! it one slot at a time, one method per phase: `reconfigure` (disk
//! faults, drains, ops), `supervise` (restarts, then pending handoffs),
//! `dispatch` (released holds and due arrivals through placement and
//! admission), `dispatch_ahead` (move the dispatch front), `grant`
//! (extend leases), `fold_wait` (collect progress),
//! `fold` (apply this slot's reports in shard order), `observe_slo`, and
//! `snapshot`; `finish` runs terminal accounting. Each shard worker is a
//! `Worker` in the `shard` module with the matching methods on its side.
//!
//! ## Determinism contract
//!
//! With [`ClockMode::Virtual`] and fixed seed, shard count, policy, and
//! load, two runs produce byte-identical final snapshots because every
//! source of ordering is pinned:
//!
//! * admission decisions read only the [`Router`]'s tracked backlog (the
//!   depth each shard reported at its last folded tick plus the
//!   admissions in flight since), never live channel state;
//! * every slot is folded at the watermark — all live shards' reports
//!   for the slot are consumed **in shard order** before anything else
//!   happens, and worker-side trace/lifecycle records are held back
//!   until the watermark passes their slot (driver-side ones of a slot
//!   dispatched early, until lockstep would have dispatched it);
//! * per-shard engine seeds derive from the base seed and shard index;
//! * the final [`Snapshot`] carries no wall-clock field, and every fault
//!   counter is in virtual slots or event counts.
//!
//! The contract extends to chaos runs: scripted faults key off virtual
//! slots (leases never cross a pending fault slot, so faults fire exactly
//! when lockstep would have fired them), detection is attributed to the
//! slot whose report is missing, and recovery replays journaled arrivals
//! at their original admission slots — so repeating an identical
//! `--chaos` command reproduces the identical final snapshot.
//!
//! ## Fault model
//!
//! A shard worker can fail three ways, and the supervisor sees each as a
//! distinct signal on the progress plane:
//!
//! * **crash** — the worker thread panicked; its spawn wrapper posts a
//!   death notice (`ShardEvent::Died`) behind any reports it
//!   already streamed, so the first missing slot is attributed exactly;
//! * **stall** — the worker stops reporting without exiting; only the
//!   fold deadline ([`FaultConfig::tick_timeout_ms`]) can see it, after
//!   which the handle is *abandoned* (detached, never joined);
//! * **policy error** — the policy produced an illegal schedule
//!   (`ShardEvent::Error`). This is a bug, not an outage, and
//!   stays **fatal** ([`ServeError::Shard`]): restarting would
//!   deterministically replay the same error.
//!
//! While a shard is down its stations are unavailable and arrivals follow
//! the router's [`DegradedPolicy`]. Restart replays the journal on top of
//! the shard's recovery base: the genesis state by default (exact for
//! every policy, including learners with unserializable state), or the
//! latest periodic checkpoint when [`FaultConfig::checkpoint_every`] is
//! nonzero (cheaper catch-up, exact for stateless policies). After
//! [`FaultConfig::max_restarts`] failed restarts the supervisor stops
//! retrying; the shard is revived once more at finish so terminal
//! accounting still covers every admitted request.
//!
//! Drain/leave handoffs are **splittable**: only the departing station's
//! in-flight jobs move (a [`mec_sim::StationSlice`]), and the move is
//! recorded as replay events on the shards involved, so handoffs compose
//! with periodic checkpoints instead of forcing genesis replay. With
//! [`ServeConfig::state_dir`] set, arrival journals and checkpoints
//! additionally persist to CRC-framed files (see [`crate::journal`])
//! that are read back and verified against the in-memory truth on every
//! recovery — injected disk faults (`truncate:` / `corrupt:` /
//! `slowdisk:`) move recovery counters, never the simulation outcome.

use crate::chaos::{ChaosSpec, FaultSpec, ShardFault};
use crate::clock::{Clock, ClockMode};
use crate::journal::{self, DiskStore};
use crate::loadgen::LoadGen;
use crate::obs::{ObsHub, ObsState};
use crate::partition::{partition, ShardPlan};
use crate::placement::{PlacementPlane, RouteDecision};
use crate::policy::{policy_from_name, UnknownPolicy};
use crate::router::{Admission, DegradedPolicy, Router};
use crate::shard::{
    recv_within, HandoffEvent, RecoverPlan, ShardCommand, ShardEvent, ShardHandle, ShardProgress,
    ShardReply, ShardTick, ShardTotals, SpawnSpec,
};
use crate::snapshot::{LatencyStats, Snapshot};
use mec_obs::lifecycle::{DRIVER, NO_BS};
use mec_obs::{SloEngine, SloSpec, SlotSample};
use mec_placement::{OpsLog, PlacementConfig, ReconfigOp};
use mec_sim::{EngineState, Metrics, SlotConfig};
use mec_topology::{StationId, Topology};
use mec_workload::Request;
use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Supervision and recovery knobs.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Fold deadline in milliseconds: how long the coordinator waits for
    /// a live shard's slot report (the window resets on every progress
    /// event it ingests). A shard that misses it is treated as stalled
    /// and restarted. 0 disables the deadline (a wedged worker then
    /// blocks the watermark forever).
    pub tick_timeout_ms: u64,
    /// Ask workers for an engine checkpoint every N slots (0 disables;
    /// recovery then replays from genesis, which is exact for every
    /// policy but replays the whole prefix).
    pub checkpoint_every: u64,
    /// What happens to arrivals whose home shard is down.
    pub degraded: DegradedPolicy,
    /// Restart attempts per shard before the supervisor gives up and
    /// leaves the shard down until final accounting.
    pub max_restarts: u64,
    /// Slots to wait before restarting a failed shard when the chaos spec
    /// does not pin an explicit recovery slot (minimum 1).
    pub restart_backoff_slots: u64,
    /// Per-shard journal capacity in entries; older entries are evicted
    /// (counted in [`FaultStats::journal_dropped`], making genesis replay
    /// best-effort).
    pub journal_cap: usize,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            tick_timeout_ms: 5_000,
            checkpoint_every: 0,
            degraded: DegradedPolicy::Buffer,
            max_restarts: 8,
            restart_backoff_slots: 1,
            journal_cap: 1 << 20,
        }
    }
}

/// Knobs for one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shard workers (each owns one engine and one policy).
    pub shards: usize,
    /// Per-shard backlog cap: arrivals beyond it are shed, not queued.
    pub queue_capacity: usize,
    /// Emit a snapshot every this many slots (0 disables periodic
    /// snapshots; the final snapshot is always produced).
    pub snapshot_every: u64,
    /// Scheduling policy name; see [`crate::POLICY_NAMES`].
    pub policy: String,
    /// Which simplex backs the policy's LP solves (see
    /// [`mec_core::SolverKind`]); `DynamicRR` is the only consumer today.
    pub solver: mec_core::SolverKind,
    /// Slot parameters shared by every shard engine. The per-shard seed is
    /// derived from `sim.seed` and the shard index; `sim.horizon` is
    /// ignored (the serving loop owns the clock).
    pub sim: SlotConfig,
    /// Extra slots allowed after the last arrival before the run is cut
    /// off (remaining jobs count as unserved).
    pub drain_slots: u64,
    /// Virtual (as fast as possible) or wall-clock-paced ticking.
    pub clock: ClockMode,
    /// Run-ahead lease length in slots: how far past the fold watermark
    /// a shard may execute before it must wait for the coordinator.
    /// 1 (or 0) is lockstep; larger horizons let shards pipeline across
    /// slots with the coordinator's fold, and let the coordinator
    /// dispatch arrivals that far ahead of the fold when it can prove
    /// lockstep admission (see the module docs). Leases never cover a
    /// slot with undispatched arrivals, reconfig, faults, or pending
    /// handoffs, so the outcome is byte-identical for every horizon —
    /// only wall-clock throughput changes. Ignored under a paced clock.
    pub epoch_horizon: u64,
    /// Supervision, checkpointing, and degraded-routing knobs.
    pub faults: FaultConfig,
    /// Scripted faults to inject (empty for a normal run).
    pub chaos: ChaosSpec,
    /// Observability attachment: a shared metrics registry plus an
    /// optional event-trace sink. `None` (the default) gives the run a
    /// private registry and changes nothing observable.
    pub obs: Option<Arc<ObsHub>>,
    /// Service placement knobs; `services == 0` (the default) disables
    /// placement-aware routing entirely.
    pub placement: PlacementConfig,
    /// Scripted topology reconfiguration ops (joins/leaves/drains),
    /// merged with any ops carried by the chaos spec. Handoffs ship only
    /// the departing station's in-flight jobs as a
    /// [`mec_sim::StationSlice`] and are recorded as replay events, so
    /// they compose with periodic checkpointing
    /// ([`FaultConfig::checkpoint_every`]) — recovery restarts from the
    /// newest checkpoint at or before the op and replays only the
    /// journal suffix.
    pub ops: OpsLog,
    /// Directory for on-disk persistence: per-shard CRC-framed arrival
    /// journals plus atomically-rotated engine checkpoints (see the
    /// [`crate::journal`] module). `None` (the default) keeps all
    /// recovery state in memory. The in-memory supervisor state stays
    /// authoritative either way — disk state is a verified mirror, read
    /// back and checked on every recovery, falling back (and healing)
    /// on any corruption so injected disk faults can change recovery
    /// counters but never the simulation outcome.
    pub state_dir: Option<PathBuf>,
    /// Service-level objectives evaluated after every slot fold (see
    /// [`mec_obs::SloSpec::parse`]). Empty (the default) disables the
    /// engine entirely; evaluation reads only deterministic per-slot
    /// deltas, so attaching SLOs never perturbs the run.
    pub slo: Vec<SloSpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 256,
            snapshot_every: 100,
            policy: "DynamicRR".to_string(),
            solver: mec_core::SolverKind::default(),
            sim: SlotConfig::default(),
            drain_slots: 1_000,
            clock: ClockMode::Virtual,
            epoch_horizon: 8,
            faults: FaultConfig::default(),
            chaos: ChaosSpec::default(),
            obs: None,
            placement: PlacementConfig::default(),
            ops: OpsLog::default(),
            state_dir: None,
            slo: Vec::new(),
        }
    }
}

/// Why a serving run could not complete.
#[derive(Debug)]
pub enum ServeError {
    /// The configured policy name resolves to nothing.
    Policy(UnknownPolicy),
    /// A shard's policy produced an illegal schedule (the wrapped message
    /// names the shard and the simulation error). Fatal by design: a
    /// restart would deterministically replay the same error.
    Shard(String),
    /// A shard worker died and could not be revived even for final
    /// accounting.
    WorkerDied(usize),
    /// The OS refused to spawn a worker thread.
    Spawn {
        /// The shard whose worker could not be spawned.
        shard: usize,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The chaos spec is inconsistent with the run configuration (e.g.
    /// targets a shard index beyond the shard count).
    Chaos(String),
    /// The placement/reconfiguration setup is invalid (an op targets a
    /// station the topology lacks).
    Reconfig(String),
    /// The state directory could not be created (persistence failures
    /// *during* the run degrade to fault counters instead).
    Disk(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Policy(e) => write!(f, "{e}"),
            Self::Shard(msg) => write!(f, "shard failed: {msg}"),
            Self::WorkerDied(shard) => write!(f, "shard {shard} worker died and stayed dead"),
            Self::Spawn { shard, source } => {
                write!(f, "spawning worker for shard {shard}: {source}")
            }
            Self::Chaos(msg) => write!(f, "chaos spec: {msg}"),
            Self::Reconfig(msg) => write!(f, "reconfiguration: {msg}"),
            Self::Disk(e) => write!(f, "state directory: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<UnknownPolicy> for ServeError {
    fn from(e: UnknownPolicy) -> Self {
        Self::Policy(e)
    }
}

/// What a completed serving run hands back.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The deterministic end-of-run snapshot (no wall-clock fields).
    pub final_snapshot: Snapshot,
    /// Merged metrics of every shard engine, in shard order.
    pub metrics: Metrics,
    /// Virtual slots executed.
    pub slots_run: u64,
    /// Periodic snapshots emitted through the callback.
    pub snapshots_emitted: usize,
    /// Wall-clock duration of the run in seconds.
    pub wall_secs: f64,
    /// The normalized ops journal the run applied, as JSONL (empty when
    /// no ops ran). Feeding it back as the ops script of a same-seed run
    /// reproduces the identical final snapshot — that is the
    /// crash-and-replay oracle for live reconfiguration.
    pub ops_journal: String,
}

/// Derives a shard engine's seed from the run seed. The odd multiplier
/// (splitmix64's increment) decorrelates neighbouring shards.
fn shard_seed(base: u64, shard: usize) -> u64 {
    base ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Wall-clock milliseconds since `start`.
fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Supervisor view of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardStatus {
    /// Worker live, participating in the watermark protocol.
    Up,
    /// Worker failed at `detected_at`; restart scheduled at `restart_at`.
    Down {
        /// Slot whose tick the worker missed.
        detected_at: u64,
        /// Slot at whose top the supervisor will attempt a restart.
        restart_at: u64,
    },
    /// Supervisor exhausted `max_restarts`; the shard stays down until
    /// final accounting revives it once more.
    Dead {
        /// Slot whose tick the worker missed last.
        detected_at: u64,
    },
}

/// Per-shard supervision state: everything needed to respawn the worker
/// and to keep reporting cumulative counters while it is down.
struct Supervised {
    shard: usize,
    plan: ShardPlan,
    sim: SlotConfig,
    handle: Option<ShardHandle>,
    status: ShardStatus,
    restarts_used: u64,
    /// Spawn generation of the current worker; progress events stamped
    /// with an older generation are dropped (a restarted shard reuses
    /// the same shared channel).
    gen: u64,
    /// Next slot not yet covered by a lease: the worker holds grants for
    /// every slot below this.
    granted: u64,
    /// Reports received from the current worker but not yet folded —
    /// the run-ahead buffer. Front is always the lowest unfolded slot
    /// (workers report slots in order).
    inbox: VecDeque<ShardTick>,
    /// The spawn wrapper posted a death notice for the current worker.
    died: bool,
    /// The current worker reported a fatal policy error; surfaced at the
    /// fold of the slot whose report it replaced.
    fatal: Option<String>,
    /// Scripted faults for this shard not yet consumed by a failure.
    faults_remaining: Vec<ShardFault>,
    /// Full fault specs for this shard (for `recover_at` lookups).
    chaos_faults: Vec<FaultSpec>,
    /// Recovery base: genesis, or the latest adopted checkpoint.
    base: EngineState,
    /// Handoff operations this shard participated in since the recovery
    /// base, re-applied at their original slots during catch-up replay.
    /// Pruned when a newer checkpoint (which already embeds their
    /// effect) is adopted.
    replay_events: Vec<HandoffEvent>,
    /// Last-known cumulative counters — the snapshot view of a shard
    /// that is currently down.
    totals: ShardTotals,
    /// Every latency sample this shard has reported (replaced wholesale on
    /// recovery; per-tick deltas from before a crash are unreliable).
    latencies: Vec<f64>,
    /// Global ids of the requests inside `base`, in engine-local (dense
    /// inject) order — the supervisor-side mirror of the worker's
    /// lifecycle id map. The engine re-identifies requests on inject, so
    /// a checkpoint alone cannot recover global ids; this mirror is
    /// extended at each adoption (from the journal and handoff events the
    /// checkpoint absorbs) and seeds the tracker of a replacement worker.
    /// Maintained only under the `lifecycle` feature; empty otherwise.
    life_ids: Vec<u64>,
}

impl Supervised {
    /// A shard not yet spawned, at genesis.
    fn new(plan: ShardPlan, cfg: &ServeConfig, horizon_hint: u64) -> Self {
        let shard = plan.shard;
        Self {
            shard,
            sim: SlotConfig {
                seed: shard_seed(cfg.sim.seed, shard),
                horizon: horizon_hint,
                ..cfg.sim
            },
            base: EngineState::genesis(plan.topo.station_count()),
            plan,
            handle: None,
            status: ShardStatus::Up,
            restarts_used: 0,
            gen: 0,
            granted: 0,
            inbox: VecDeque::new(),
            died: false,
            fatal: None,
            faults_remaining: cfg.chaos.faults_for(shard),
            chaos_faults: cfg
                .chaos
                .faults
                .iter()
                .filter(|f| f.shard == shard)
                .copied()
                .collect(),
            replay_events: Vec::new(),
            totals: ShardTotals::default(),
            latencies: Vec::new(),
            life_ids: Vec::new(),
        }
    }

    /// The slot at which a failed shard may be restarted: the scripted
    /// `recover_at` when the chaos spec pins one for the fault that (by
    /// slot) just fired, otherwise detection plus the configured backoff.
    /// Always strictly after the detection slot.
    fn restart_slot(&self, detected_at: u64, backoff_slots: u64) -> u64 {
        let scripted = self
            .chaos_faults
            .iter()
            .rfind(|f| f.slot <= detected_at)
            .and_then(|f| f.recover_at);
        match scripted {
            Some(at) => at.max(detected_at + 1),
            None => detected_at + backoff_slots.max(1),
        }
    }

    /// Live and still owing the fold its report for the current slot.
    fn awaited(&self) -> bool {
        self.status == ShardStatus::Up
            && self.inbox.is_empty()
            && !self.died
            && self.fatal.is_none()
    }
}

/// Extends a supervisor-side lifecycle id mirror with everything a
/// catch-up replay would inject on top of it: handoff absorbs and
/// journaled arrivals merged by slot, absorbs first within a slot —
/// exactly the order the worker re-identifies them (handoffs precede
/// dispatch in the live loop, and replay preserves that).
fn extend_life_ids(map: &mut Vec<u64>, events: &[HandoffEvent], journal: &[(u64, Request)]) {
    let mut events = events.iter().peekable();
    for (slot, request) in journal {
        while let Some(event) = events.next_if(|e| e.slot() <= *slot) {
            if let HandoffEvent::Absorb { ids, .. } = event {
                map.extend_from_slice(ids);
            }
        }
        map.push(request.id().index() as u64);
    }
    for event in events {
        if let HandoffEvent::Absorb { ids, .. } = event {
            map.extend_from_slice(ids);
        }
    }
}

/// Reads `shard`'s persisted state back and checks it round-trips to the
/// authoritative in-memory copy (checkpoint byte-equal to the recovery
/// base, journal suffix equal to the router's). Returns the verified
/// disk journal on success, `None` on any corruption, truncation, or
/// divergence — every incident lands in the recovery counters, never in
/// the simulation outcome.
fn verified_disk_journal(
    store: &mut DiskStore,
    sup: &Supervised,
    router: &Router,
    obs: &mut ObsState,
    slot: u64,
) -> Option<Vec<(u64, Request)>> {
    let shard = sup.shard;
    let recovered = store.recover_shard(shard);
    if !recovered.incidents.is_clean() {
        obs.note_disk_incidents(slot, shard, &recovered.incidents);
    }
    let base_ok = match &recovered.checkpoint {
        Some(state) => journal::encode_state(state) == journal::encode_state(&sup.base),
        None => sup.base.next_slot == 0,
    };
    let suffix: Vec<(u64, Request)> = recovered
        .journal
        .into_iter()
        .filter(|(s, _)| *s >= sup.base.next_slot)
        .collect();
    if base_ok && suffix == router.journal_since(shard, sup.base.next_slot) {
        Some(suffix)
    } else {
        obs.note_disk_fallback(slot, shard);
        None
    }
}

/// A scheduled drain/leave handoff waiting for its source shard to be
/// up. The takeover station is pinned at schedule time so the outcome
/// does not depend on how long the source shard stays down.
struct PendingHandoff {
    station: usize,
    takeover: Option<usize>,
    leave: bool,
}

/// One slot's dispatch outcome: the admission-funnel counters, plus the
/// admissions per shard that the tracked backlog carries until the slot
/// folds. Kept from dispatch to fold, so the slot's shed count feeds its
/// SLO sample even when the slot was dispatched ahead of the watermark.
struct DispatchCounts {
    slot: u64,
    injected: u64,
    buffered: u64,
    spilled: u64,
    shed: u64,
    held: u64,
    /// Requests admitted into each shard's backlog (injected, buffered,
    /// or spilled), indexed by shard.
    admitted: Vec<usize>,
}

/// Cumulative served-side totals across shards before a slot's fold —
/// the baseline the slot's SLO sample is measured against.
struct SloMark {
    good: usize,
    bad: usize,
    /// Latency samples per shard, in shard order.
    latencies: Vec<usize>,
}

/// The serving run's state, owned by the coordinator thread: placement
/// and admission, the supervised shards, the progress plane, and the
/// driver clocks. [`serve`] drives it one slot at a time, one method per
/// phase, then hands it to [`Coordinator::finish`].
struct Coordinator<'c> {
    cfg: &'c ServeConfig,
    plane: PlacementPlane,
    router: Router,
    obs: ObsState,
    /// The on-disk mirror, when a state directory is configured.
    store: Option<DiskStore>,
    supervised: Vec<Supervised>,
    /// The shared progress plane: every worker (and every restart
    /// incarnation) streams its per-slot reports here. The coordinator
    /// keeps its own sender so the channel never disconnects while
    /// workers come and go.
    progress_tx: Sender<ShardProgress>,
    progress_rx: Receiver<ShardProgress>,
    clock: Clock,
    /// Arrivals not yet dispatched, in arrival-slot order.
    arrivals: VecDeque<Request>,
    /// The dispatch front: every slot below it has been dispatched. It
    /// leads the watermark only while [`Self::dispatch_ahead`] can prove
    /// lockstep admission.
    front: u64,
    /// Dispatched slots not yet folded, oldest first.
    unfolded: VecDeque<DispatchCounts>,
    /// Per shard: admitted requests, stamped with their slot, waiting for
    /// the grant that covers that slot.
    outbox: Vec<Vec<(u64, Request)>>,
    /// Drain/leave handoffs waiting for their source shard to be up.
    pending: Vec<PendingHandoff>,
    slo: SloEngine,
    /// The policy's horizon hint: everything a finite load can need.
    horizon_hint: u64,
    /// At least one slot past the last arrival (and past the last
    /// scheduled reconfiguration effect), so every request is dispatched
    /// (and counted as admitted or shed) even with drain 0.
    hard_stop: u64,
    snapshots_emitted: usize,
    /// Slots dispatched ahead of the fold watermark so far.
    dispatched_ahead: u64,
    // Driver-side phase split (wall-clock, registry-only): time spent
    // dispatching, recovering shards, and folding at the watermark
    // (granting leases, waiting for reports, folding them). The
    // remainder is reconfig/snapshot overhead.
    dispatch_ms: f64,
    recovery_ms: f64,
    fold_ms: f64,
}

/// Runs the serving loop to completion over a finite load.
///
/// `on_snapshot` observes each periodic [`Snapshot`] as it is produced
/// (the final snapshot is returned in the outcome, not passed to the
/// callback). The run ends when every arrival has been dispatched and all
/// shard backlogs are empty, or `drain_slots` after the last arrival,
/// whichever comes first.
///
/// # Errors
///
/// * [`ServeError::Policy`] — unknown policy name (checked before any
///   thread spawns);
/// * [`ServeError::Chaos`] — the chaos spec targets a shard that does not
///   exist;
/// * [`ServeError::Shard`] — a policy produced an illegal schedule
///   (fatal: a restart would replay the same error);
/// * [`ServeError::Spawn`] — the OS refused a worker thread;
/// * [`ServeError::WorkerDied`] — a worker died and could not be revived
///   even for final accounting.
///
/// # Panics
///
/// Panics if `cfg.shards` is 0 or exceeds the station count (see
/// [`partition`]).
pub fn serve<F: FnMut(&Snapshot)>(
    topo: &Topology,
    load: LoadGen,
    cfg: &ServeConfig,
    mut on_snapshot: F,
) -> Result<ServeOutcome, ServeError> {
    let mut run = Coordinator::new(topo, load, cfg)?;
    loop {
        let slot = run.clock.ticks();
        run.reconfigure(slot);
        run.supervise(slot)?;
        run.dispatch(slot);
        let mark = run.slo_mark();
        run.clock.tick();
        run.dispatch_ahead(slot);
        run.grant(slot);
        run.fold_wait();
        let shed = run.fold(slot)?;
        run.observe_slo(slot, mark, shed);
        // Worker-side events join the trace here, at the watermark, in
        // shard order. Events a run-ahead worker already emitted for
        // future slots stay held back until their slot folds, so the
        // trace is byte-identical for every epoch horizon.
        run.obs.drain_rings_through(slot);
        if let Some(snap) = run.snapshot() {
            on_snapshot(&snap);
        }
        if run.drained() || run.clock.ticks() >= run.hard_stop {
            break;
        }
    }
    run.finish()
}

impl<'c> Coordinator<'c> {
    /// Validates the configuration, builds the planes, and spawns every
    /// shard worker.
    fn new(topo: &Topology, load: LoadGen, cfg: &'c ServeConfig) -> Result<Self, ServeError> {
        if let Some(max) = cfg.chaos.max_shard() {
            if max >= cfg.shards {
                return Err(ServeError::Chaos(format!(
                    "fault targets shard {max} but the run has only {} shards",
                    cfg.shards
                )));
            }
        }
        if !cfg.chaos.disk_faults.is_empty() && cfg.state_dir.is_none() {
            return Err(ServeError::Chaos(
                "disk fault injection needs a state directory (--state-dir)".to_string(),
            ));
        }
        let store = match &cfg.state_dir {
            Some(dir) => Some(DiskStore::create(dir, cfg.shards).map_err(ServeError::Disk)?),
            None => None,
        };
        let mut ops = cfg.ops.clone();
        ops.ops.extend(cfg.chaos.ops.iter().copied());
        let plane = PlacementPlane::new(topo, &cfg.placement, ops).map_err(ServeError::Reconfig)?;
        let plans = partition(topo, cfg.shards);
        let mut router = Router::new(cfg.shards, cfg.queue_capacity);
        router.set_station_counts(plans.iter().map(|p| p.topo.station_count()).collect());
        router.set_degraded_policy(cfg.faults.degraded);
        router.set_journal_cap(cfg.faults.journal_cap);
        debug_assert!(router.consistent_with(&plans));

        let last_arrival = load.max_arrival();
        let horizon_hint = last_arrival.saturating_add(cfg.drain_slots);
        let obs = ObsState::new(cfg.shards, cfg.obs.clone());
        mec_obs::event!(
            obs,
            0u64,
            "run_start",
            shards = cfg.shards,
            policy = cfg.policy.as_str(),
            seed = cfg.sim.seed,
            requests = load.len(),
        );
        let (progress_tx, progress_rx) = std::sync::mpsc::channel();
        let mut run = Self {
            cfg,
            hard_stop: last_arrival
                .max(plane.last_op_effect_slot())
                .saturating_add(cfg.drain_slots.max(1)),
            plane,
            router,
            obs,
            store,
            supervised: plans
                .into_iter()
                .map(|plan| Supervised::new(plan, cfg, horizon_hint))
                .collect(),
            progress_tx,
            progress_rx,
            clock: Clock::new(cfg.clock),
            arrivals: load.into_requests().into(),
            front: 0,
            unfolded: VecDeque::new(),
            outbox: vec![Vec::new(); cfg.shards],
            pending: Vec::new(),
            slo: SloEngine::new(cfg.slo.clone()),
            horizon_hint,
            snapshots_emitted: 0,
            dispatched_ahead: 0,
            dispatch_ms: 0.0,
            recovery_ms: 0.0,
            fold_ms: 0.0,
        };
        for shard in 0..cfg.shards {
            run.supervised[shard].handle = Some(run.spawn(shard, None)?);
        }
        Ok(run)
    }

    /// Spawns `shard`'s worker at its current generation, cold or
    /// replaying `recover` first.
    fn spawn(&self, shard: usize, recover: Option<RecoverPlan>) -> Result<ShardHandle, ServeError> {
        let cfg = self.cfg;
        let sup = &self.supervised[shard];
        let policy = policy_from_name(&cfg.policy, self.horizon_hint, cfg.solver)?;
        let spec = SpawnSpec {
            plan: sup.plan.clone(),
            config: sup.sim,
            // Arrivals ride inside grants, and every grant extends the
            // lease by at least one slot within the horizon past the
            // watermark, so at most `horizon` grants are ever queued.
            // The spare slot takes a handoff command (handoffs only run
            // while leases are lockstep); a fuller mailbox only makes
            // the coordinator wait for a live worker to drain it.
            command_bound: cfg.epoch_horizon.max(1) as usize + 1,
            checkpoint_every: cfg.faults.checkpoint_every,
            faults: sup.faults_remaining.clone(),
            recover,
            progress: self.progress_tx.clone(),
            gen: sup.gen,
            taps: self.obs.taps(shard),
        };
        ShardHandle::spawn(spec, policy).map_err(|source| ServeError::Spawn { shard, source })
    }

    /// Scripted changes land at the top of the slot. Disk faults fire
    /// first, before any persistence or recovery touches the files. Then
    /// drain handoffs whose window expired and ops scheduled for this
    /// slot: membership changes immediately, the state move itself waits
    /// for [`Self::supervise`], after the restart pass.
    fn reconfigure(&mut self, slot: u64) {
        if let Some(store) = self.store.as_mut() {
            for fault in self.cfg.chaos.disk_faults_due(slot) {
                match store.apply_fault(&fault) {
                    Ok(bytes) => self.obs.note_disk_fault(slot, &fault, bytes),
                    Err(e) => self
                        .obs
                        .note_disk_write_error(slot, fault.shard, "fault", &e),
                }
            }
        }
        if !self.plane.is_live() {
            return;
        }
        for station in self.plane.drains_due(slot) {
            self.schedule_handoff(station, false);
        }
        for op in self.plane.ops_due(slot) {
            self.obs.note_reconfig(slot, &op);
            match op {
                ReconfigOp::BsJoin { station, .. } => self.plane.apply_join(station),
                ReconfigOp::BsLeave { station, .. } => self.schedule_handoff(station, true),
                ReconfigOp::BsDrain {
                    station,
                    slot: at,
                    window,
                } => self.plane.apply_drain(station, at.saturating_add(window)),
            }
        }
    }

    /// Schedules one drain/leave handoff: membership changes now (the
    /// station stops admitting immediately), the state move executes in
    /// [`Self::hand_off`] once the source shard is up.
    fn schedule_handoff(&mut self, station: usize, leave: bool) {
        let takeover = self.plane.nearest_active(station);
        self.plane.apply_handoff(station, leave, 0);
        self.pending.push(PendingHandoff {
            station,
            takeover,
            leave,
        });
    }

    /// Restarts shards whose backoff (or scripted recovery slot) is due,
    /// then executes pending handoffs whose source shard is up. Restarts
    /// run before dispatch, so the journal holds only arrivals from slots
    /// before `slot` and catch-up through `slot - 1` leaves the shard
    /// exactly at the watermark. Handoffs run after the restart pass, so
    /// a shard that stays down keeps `restart_at > slot` and its catch-up
    /// replays the events recorded here.
    fn supervise(&mut self, slot: u64) -> Result<(), ServeError> {
        let start = Instant::now();
        for shard in 0..self.supervised.len() {
            let sup = &mut self.supervised[shard];
            let ShardStatus::Down {
                detected_at,
                restart_at,
            } = sup.status
            else {
                continue;
            };
            if restart_at > slot {
                continue;
            }
            if sup.restarts_used >= self.cfg.faults.max_restarts {
                sup.status = ShardStatus::Dead { detected_at };
                continue;
            }
            if !self.restart(shard, slot, detected_at)? {
                self.supervised[shard].status = ShardStatus::Down {
                    detected_at,
                    restart_at: slot + self.cfg.faults.restart_backoff_slots.max(1),
                };
            }
        }
        self.recovery_ms += ms_since(start);
        for p in std::mem::take(&mut self.pending) {
            if !self.hand_off(&p, slot) {
                self.pending.push(p);
            }
        }
        Ok(())
    }

    /// Restarts a down shard: spawn a fresh worker with the recovery base,
    /// the journal tail, and the handoff events recorded since the base,
    /// wait for its catch-up report, and fold the recovered state in.
    /// Returns `Ok(false)` if the replacement worker itself died before
    /// reporting (the caller reschedules).
    ///
    /// The catch-up wait is a *blocking* receive on purpose: replaying a
    /// long prefix legitimately takes many tick intervals, and scripted
    /// faults never fire during replay, so the deadline that guards live
    /// ticks would only produce false positives here.
    fn restart(&mut self, shard: usize, slot: u64, detected_at: u64) -> Result<bool, ServeError> {
        let journal = self.recovery_journal(shard, slot);
        let sup = &mut self.supervised[shard];
        let through = slot.saturating_sub(1);
        let recover = RecoverPlan {
            base: sup.base.clone(),
            journal,
            events: sup
                .replay_events
                .iter()
                .filter(|e| e.slot() >= sup.base.next_slot && e.slot() <= through)
                .cloned()
                .collect(),
            through,
            // The dead worker emitted lifecycle records through the slot
            // before the one whose tick it missed; replay re-emits only
            // from the missed slot on, keeping the stream duplicate-free.
            life_from: detected_at,
            life_ids: sup.life_ids.clone(),
        };
        // The replacement worker is a fresh incarnation: later progress
        // events from the dead one (none should exist, but a stalled
        // worker is only abandoned, never joined) must not be attributed
        // to it.
        sup.gen += 1;
        sup.inbox.clear();
        sup.died = false;
        sup.fatal = None;
        sup.restarts_used += 1;
        self.obs.note_restart_attempt(shard);
        let handle = self.spawn(shard, Some(recover))?;
        match handle.recv() {
            Ok(ShardReply::Recovered(rec)) => {
                self.obs.note_restart_ok(
                    slot,
                    shard,
                    rec.replayed,
                    slot.saturating_sub(detected_at),
                );
                // Catch-up injected every journaled admission, including
                // those of slots dispatched past the watermark.
                self.router.observe_backlog(shard, rec.backlog);
                for counts in &mut self.unfolded {
                    counts.admitted[shard] = 0;
                }
                self.router.mark_up(shard);
                let sup = &mut self.supervised[shard];
                sup.totals = rec.totals;
                sup.latencies = rec.latencies;
                sup.handle = Some(handle);
                sup.status = ShardStatus::Up;
                // Catch-up covered everything below `slot`; leases resume
                // from the watermark.
                sup.granted = slot;
                Ok(true)
            }
            Ok(ShardReply::Error(msg)) => Err(ServeError::Shard(msg)),
            Ok(other) => Err(ServeError::Shard(format!(
                "shard {shard} answered recovery with {other:?}"
            ))),
            Err(_) => {
                self.obs.note_restart_failed(slot, shard);
                handle.abandon();
                Ok(false)
            }
        }
    }

    /// The replay journal for a restart: the on-disk mirror when it
    /// verifies intact, else the authoritative in-memory suffix — in
    /// which case the mirror is rewritten (healed) from memory so later
    /// recoveries read clean state again. Identical bytes either way; the
    /// difference is only visible in the recovery counters.
    fn recovery_journal(&mut self, shard: usize, slot: u64) -> Vec<(u64, Request)> {
        let sup = &self.supervised[shard];
        let Some(store) = self.store.as_mut() else {
            return self.router.journal_since(shard, sup.base.next_slot);
        };
        if let Some(disk) = verified_disk_journal(store, sup, &self.router, &mut self.obs, slot) {
            return disk;
        }
        let memory = self.router.journal_since(shard, sup.base.next_slot);
        if let Err(e) = store.rewrite_journal(shard, &memory) {
            self.obs.note_disk_write_error(slot, shard, "heal", &e);
        }
        if sup.base.next_slot > 0 {
            match store.write_checkpoint(shard, &sup.base) {
                Ok(bytes) => self.obs.note_checkpoint_write(slot, shard, bytes),
                Err(e) => self.obs.note_disk_write_error(slot, shard, "heal", &e),
            }
        }
        memory
    }

    /// Executes one pending handoff if its source shard is up: extract
    /// the departing station's in-flight jobs as a
    /// [`mec_sim::StationSlice`], record the extract/absorb pair as
    /// replay events on the shards involved, and ship the slice live to
    /// the takeover shard. Cost is proportional to the moved slice, never
    /// to the journal or run length. Returns `false` to keep it pending.
    ///
    /// A source shard that is down keeps the handoff pending (the jobs
    /// are safe in its replayed engine); a dead source drops it — those
    /// jobs finish in place under final accounting, and nothing moves.
    fn hand_off(&mut self, p: &PendingHandoff, slot: u64) -> bool {
        let shards = self.cfg.shards;
        let from_shard = self.router.shard_of(StationId(p.station));
        match self.supervised[from_shard].status {
            ShardStatus::Down { .. } => return false,
            ShardStatus::Dead { .. } => {
                self.obs
                    .note_handoff(slot, p.station, p.takeover, 0, 0, p.leave);
                return true;
            }
            ShardStatus::Up => {}
        }
        let Some(to) = p.takeover else {
            // No other active station: jobs finish where they are.
            self.obs.note_handoff(slot, p.station, None, 0, 0, p.leave);
            return true;
        };
        let local = StationId(p.station / shards);
        if !self.send(from_shard, slot, ShardCommand::ExtractStation(local)) {
            return false;
        }
        let reply = self.supervised[from_shard]
            .handle
            .as_ref()
            .expect("sent implies a live handle")
            .recv();
        let Ok(ShardReply::Extracted(slice, ids)) = reply else {
            // Died mid-extract: the extract event was never recorded, so
            // the replayed engine still owns the jobs; retry next slot.
            self.note_down(from_shard, slot, "disconnect");
            return false;
        };
        let moved = slice.jobs.len() as u64;
        if moved == 0 {
            self.obs
                .note_handoff(slot, p.station, Some(to), 0, 0, p.leave);
            return true;
        }
        let bytes = journal::encode_slice(&slice).len() as u64;
        self.supervised[from_shard]
            .replay_events
            .push(HandoffEvent::Extract {
                slot,
                station: local,
            });
        let to_shard = self.router.shard_of(StationId(to));
        let to_local = StationId(to / shards);
        self.router
            .transfer_backlog(from_shard, to_shard, moved as usize);
        for &id in &ids {
            mec_obs::lifecycle!(self.obs, id, "handoff", slot, to_shard as i64, to as i64);
        }
        self.supervised[to_shard]
            .replay_events
            .push(HandoffEvent::Absorb {
                slot,
                slice: slice.clone(),
                home: to_local,
                ids: ids.clone(),
            });
        if self.supervised[to_shard].status == ShardStatus::Up {
            self.send(
                to_shard,
                slot,
                ShardCommand::AbsorbStation(slice, to_local, ids),
            );
        }
        self.plane.note_migrated(moved, bytes);
        self.obs
            .note_handoff(slot, p.station, Some(to), moved, bytes, p.leave);
        true
    }

    /// Dispatches `slot` at the watermark: releases the driver events
    /// of a slot the front already took, otherwise dispatches it now.
    fn dispatch(&mut self, slot: u64) {
        mec_obs::prof_slot!(slot);
        if slot < self.front {
            self.obs.release_driver_through(slot);
        } else {
            self.dispatch_slot(slot);
        }
    }

    /// Moves the dispatch front ahead of the watermark as far as the
    /// module docs' conditions (a)–(e) prove lockstep admission. Driver
    /// events of every slot dispatched here are held back until
    /// [`Self::dispatch`] reaches that slot.
    fn dispatch_ahead(&mut self, slot: u64) {
        // Scripted disk faults damage the journal mirror in place; an
        // early append would change what a later salvage keeps.
        if !self.cfg.chaos.disk_faults.is_empty() {
            return;
        }
        let every = self.cfg.snapshot_every;
        let horizon = self.cfg.epoch_horizon.max(1);
        let limit = (slot + horizon)
            .min(self.hard_stop)
            .min(self.fault_fence(slot));
        self.obs.hold_driver(true);
        while self.front < limit
            && self.quiet()
            && self.arrivals.front().is_some()
            && !(every > 0 && self.front.is_multiple_of(every))
            && self.admission_bound_holds(self.front)
        {
            self.dispatch_slot(self.front);
            self.dispatched_ahead += 1;
            self.obs.note_dispatched_ahead();
        }
        self.obs.hold_driver(false);
        mec_obs::prof_slot!(slot);
    }

    /// Nothing but the engines changes state: no outage, handoff,
    /// reconfiguration or placement hold that lockstep would interleave
    /// with a lease or a dispatch. Condition (a), with no disk faults.
    fn quiet(&self) -> bool {
        self.cfg.epoch_horizon > 1
            && self.cfg.clock == ClockMode::Virtual
            && self.pending.is_empty()
            && self.supervised.iter().all(|s| s.status == ShardStatus::Up)
            && self.plane.ops_exhausted()
            && !self.plane.has_held()
            && !self.plane.has_pending_drains()
    }

    /// Condition (c): the last slot the front may take, the first
    /// scripted shard fault at or after the watermark. The fault's own
    /// slot is dispatched while the shard is up, as lockstep does; the
    /// next slot waits for the fold that sees whether it survived.
    fn fault_fence(&self, slot: u64) -> u64 {
        self.supervised
            .iter()
            .flat_map(|s| &s.faults_remaining)
            .map(|f| f.slot)
            .filter(|&f| f >= slot)
            .min()
            .map_or(u64::MAX, |f| f + 1)
    }

    /// Condition (e): every arrival due at `f` fits its shard's queue on
    /// the tracked backlog, which never undercounts the backlog lockstep
    /// would see at `f`. With a live placement plane an arrival may be
    /// rehomed onto any shard, so each shard must fit all of them.
    fn admission_bound_holds(&self, f: u64) -> bool {
        let due = self.arrivals.iter().take_while(|r| r.arrival_slot() <= f);
        let backlogs = self.router.backlogs();
        let cap = self.cfg.queue_capacity;
        if self.plane.is_live() {
            let n = due.count();
            return backlogs.iter().all(|&b| b + n <= cap);
        }
        let mut fits = backlogs
            .iter()
            .map(|&b| cap.saturating_sub(b))
            .collect::<Vec<_>>();
        for request in due {
            let room = &mut fits[self.router.shard_of(request.home())];
            if *room == 0 {
                return false;
            }
            *room -= 1;
        }
        true
    }

    /// Dispatches requests released from install holds, then every
    /// arrival due by `slot` — all through the placement plane and
    /// admission, counting each outcome for the admission-funnel event —
    /// and advances the front past `slot`.
    fn dispatch_slot(&mut self, slot: u64) {
        // Installs that finished their latency window become resident
        // before this slot's dispatch, so their held requests hit.
        for done in self.plane.complete_installs(slot) {
            self.obs.note_install_done(slot, &done);
        }
        let shed_down_before = self.router.shed_while_down();
        let place_before = self.plane.stats().clone();
        let mut counts = DispatchCounts {
            slot,
            injected: 0,
            buffered: 0,
            spilled: 0,
            shed: 0,
            held: 0,
            admitted: vec![0; self.cfg.shards],
        };
        let start = Instant::now();
        {
            mec_obs::prof_slot!(slot);
            mec_obs::prof_scope!("serve.dispatch");
            for request in self.plane.release_due(slot) {
                let rid = request.id().index() as u64;
                mec_obs::lifecycle!(self.obs, rid, "release", slot, DRIVER, NO_BS);
                self.dispatch_one(request, slot, &mut counts);
            }
            while let Some(request) = self.arrivals.pop_front_if(|r| r.arrival_slot() <= slot) {
                self.dispatch_one(request, slot, &mut counts);
            }
        }
        // Per-slot durability point: everything this slot admitted is on
        // disk before the grant covering the slot is sent.
        if let Some(store) = self.store.as_mut() {
            if let Err(e) = store.flush() {
                self.obs
                    .note_disk_write_error(slot, usize::MAX, "flush", &e);
            }
        }
        self.dispatch_ms += ms_since(start);
        let shed_down = self.router.shed_while_down() - shed_down_before;
        self.obs.note_admission(
            slot,
            counts.injected,
            counts.buffered,
            counts.spilled,
            counts.shed.saturating_sub(shed_down),
            shed_down,
            counts.held,
        );
        let place_delta = self.plane.stats().delta_since(&place_before);
        self.obs.note_placement(slot, &place_delta);
        self.unfolded.push_back(counts);
        self.front = slot + 1;
    }

    /// Routes one request through the placement plane and, when it
    /// proceeds, through shard admission — the single dispatch path both
    /// fresh arrivals and released held requests take. Every admitted
    /// request is mirrored to the shard's on-disk journal when a state
    /// directory is configured (write failures degrade to counters, never
    /// to outcome), and a live one waits in the shard's outbox for the
    /// grant covering `slot`.
    fn dispatch_one(&mut self, request: Request, slot: u64, counts: &mut DispatchCounts) {
        let rid = request.id().index() as u64;
        let request = match self.plane.route(request, slot) {
            RouteDecision::Proceed(r) => r,
            RouteDecision::Held { .. } => {
                mec_obs::lifecycle!(self.obs, rid, "hold", slot, DRIVER, NO_BS);
                counts.held += 1;
                return;
            }
            RouteDecision::Shed => {
                mec_obs::lifecycle!(self.obs, rid, "shed", slot, DRIVER, NO_BS);
                self.router.count_shed(1);
                counts.shed += 1;
                return;
            }
        };
        let holders = self.plane.holders_of(&request);
        if !holders.is_empty() {
            // Placement steered this request away from its home shard
            // toward a replica holder.
            mec_obs::lifecycle!(self.obs, rid, "redirect", slot, DRIVER, NO_BS);
        }
        let holders = (!holders.is_empty()).then_some(holders.as_slice());
        let (shard, request, live) = match self.router.admit_with(&request, slot, holders) {
            Admission::Inject { shard, request } => {
                mec_obs::lifecycle!(self.obs, rid, "admit", slot, shard as i64, NO_BS);
                counts.injected += 1;
                (shard, request, true)
            }
            Admission::Spilled { shard, request } => {
                mec_obs::lifecycle!(self.obs, rid, "spill", slot, shard as i64, NO_BS);
                counts.spilled += 1;
                (shard, request, true)
            }
            Admission::Buffered { shard, request } => {
                mec_obs::lifecycle!(self.obs, rid, "buffer", slot, shard as i64, NO_BS);
                counts.buffered += 1;
                (shard, request, false)
            }
            Admission::Shed => {
                mec_obs::lifecycle!(self.obs, rid, "shed", slot, DRIVER, NO_BS);
                counts.shed += 1;
                return;
            }
        };
        counts.admitted[shard] += 1;
        if let Some(store) = self.store.as_mut() {
            if let Err(e) = store.append_arrival(shard, slot, &request) {
                self.obs.note_disk_write_error(slot, shard, "append", &e);
            }
        }
        if live {
            self.outbox[shard].push((slot, request));
        }
    }

    /// Sends `cmd` to `shard`'s worker. A failed send (the worker died
    /// since its last report) marks the shard down. Returns whether the
    /// command was delivered.
    fn send(&mut self, shard: usize, slot: u64, cmd: ShardCommand) -> bool {
        let sent = self.supervised[shard]
            .handle
            .as_ref()
            .is_some_and(|h| h.send(cmd).is_ok());
        if !sent {
            self.note_down(shard, slot, "send_failed");
        }
        sent
    }

    /// Transitions a live shard to `Down`: abandons the handle (never a
    /// blocking join — the worker may be wedged), marks its stations
    /// unavailable, and strips faults it already consumed so the restart
    /// cannot crash-loop on the same scripted fault. `reason` names the
    /// detection signal (`disconnect`, `timeout`, or `send_failed`) for
    /// the trace.
    fn note_down(&mut self, shard: usize, detected_at: u64, reason: &str) {
        let backoff = self.cfg.faults.restart_backoff_slots;
        let sup = &mut self.supervised[shard];
        if sup.status != ShardStatus::Up {
            return;
        }
        self.obs.note_detection(detected_at, shard, reason);
        if let Some(handle) = sup.handle.take() {
            handle.abandon();
        }
        // Queued arrivals are journaled; the restart's replay delivers
        // them.
        self.outbox[shard].clear();
        self.router.mark_down(shard);
        let restart_at = sup.restart_slot(detected_at, backoff);
        sup.faults_remaining.retain(|f| f.slot > detected_at);
        sup.status = ShardStatus::Down {
            detected_at,
            restart_at,
        };
    }

    /// The SLO baseline before this slot's fold; `None` without SLOs.
    fn slo_mark(&self) -> Option<SloMark> {
        (!self.slo.is_empty()).then(|| {
            let (good, bad) = self.outcome_totals();
            SloMark {
                good,
                bad,
                latencies: self.supervised.iter().map(|s| s.latencies.len()).collect(),
            }
        })
    }

    /// Completed and lost (expired + aborted) requests across shards.
    fn outcome_totals(&self) -> (usize, usize) {
        let good = self.supervised.iter().map(|s| s.totals.completed).sum();
        let bad = self
            .supervised
            .iter()
            .map(|s| s.totals.expired + s.totals.aborted)
            .sum();
        (good, bad)
    }

    /// Extends each live shard's lease, possibly many slots ahead, and
    /// ships the arrivals of the newly covered slots inside the grant. A
    /// shard's lease stops short of its next scripted fault, which must
    /// fire at its exact slot, after that slot's injections.
    fn grant(&mut self, slot: u64) {
        mec_obs::prof_scope!("serve.grant");
        let start = Instant::now();
        let lease_end = self.lease_end(slot);
        for shard in 0..self.supervised.len() {
            let sup = &self.supervised[shard];
            if sup.status != ShardStatus::Up {
                continue;
            }
            let through = sup
                .faults_remaining
                .iter()
                .filter(|f| f.slot > slot)
                .fold(lease_end, |through, f| through.min(f.slot - 1));
            // A lease is extended only once less than half the horizon
            // of it is left: a worker still busy with its lease needs no
            // message yet, and the later grant carries more arrivals.
            // (Measured on serve_steady: extending every slot was ~3%
            // slower; refilling the dispatch front in half-horizon
            // chunks instead was ~5% slower.)
            if sup.granted > through || sup.granted > slot + self.cfg.epoch_horizon / 2 {
                continue;
            }
            let outbox = &mut self.outbox[shard];
            let covered = outbox.partition_point(|(s, _)| *s <= through);
            let arrivals = outbox.drain(..covered).collect();
            if self.send(shard, slot, ShardCommand::Grant { through, arrivals }) {
                self.supervised[shard].granted = through + 1;
            }
        }
        self.fold_ms += ms_since(start);
    }

    /// The last slot a lease granted at `slot` may cover. A shard may run
    /// ahead of the watermark only while the coordinator can prove it
    /// will send that shard nothing but the arrivals of the leased slots,
    /// all dispatched already: the run is quiet (see [`Self::quiet`])
    /// and the lease stops before the next undispatched arrival.
    fn lease_end(&self, slot: u64) -> u64 {
        if !self.quiet() {
            return slot;
        }
        let mut through = slot + self.cfg.epoch_horizon - 1;
        if let Some(next) = self.arrivals.front() {
            through = through.min(next.arrival_slot().saturating_sub(1));
        }
        through.min(self.hard_stop.saturating_sub(1)).max(slot)
    }

    /// Pulls progress events until every live shard has buffered this
    /// slot's tick (or signalled death/error). The deadline window
    /// restarts on every event, so a long grant span never trips it while
    /// progress is still flowing. When it elapses, every still-missing
    /// shard is stalled; the fold marks them down.
    fn fold_wait(&mut self) {
        mec_obs::prof_scope!("serve.fold_wait");
        let start = Instant::now();
        while self.supervised.iter().any(Supervised::awaited) {
            let Some(p) = recv_within(&self.progress_rx, self.cfg.faults.tick_timeout_ms) else {
                break;
            };
            // Events from a stale incarnation (an abandoned worker that
            // limped on after its replacement spawned) are dropped by
            // generation.
            let Some(sup) = self.supervised.get_mut(p.shard) else {
                continue;
            };
            if p.gen != sup.gen {
                continue;
            }
            match p.event {
                ShardEvent::Tick(tick) => sup.inbox.push_back(tick),
                ShardEvent::Error(msg) => sup.fatal = Some(msg),
                ShardEvent::Died => sup.died = true,
            }
        }
        self.fold_ms += ms_since(start);
    }

    /// Folds exactly this slot's tick reports in shard order — the
    /// ordering half of the determinism contract. A missing tick carries
    /// its detection signal: a death notice is a crash, a bare deadline a
    /// stall. Returns the slot's shed count.
    fn fold(&mut self, slot: u64) -> Result<u64, ServeError> {
        mec_obs::prof_scope!("serve.fold");
        let start = Instant::now();
        let counts = self
            .unfolded
            .pop_front()
            .expect("every slot is dispatched before it folds");
        debug_assert_eq!(counts.slot, slot, "slot folded before its dispatch");
        for shard in 0..self.supervised.len() {
            let sup = &mut self.supervised[shard];
            if sup.status != ShardStatus::Up {
                continue;
            }
            if let Some(tick) = sup.inbox.pop_front() {
                debug_assert_eq!(tick.report.slot, slot, "shard folded out of order");
                self.apply_tick(shard, &tick);
            } else if let Some(msg) = sup.fatal.take() {
                return Err(ServeError::Shard(msg));
            } else {
                let reason = if sup.died { "disconnect" } else { "timeout" };
                self.note_down(shard, slot, reason);
            }
        }
        for sup in &self.supervised {
            if sup.status != ShardStatus::Up {
                self.obs.note_degraded(sup.shard);
            }
        }
        self.fold_ms += ms_since(start);
        self.obs.set_slot(self.clock.ticks());
        self.obs.note_driver_stall(
            self.clock.elapsed_secs() * 1e3,
            self.dispatch_ms,
            self.recovery_ms,
            self.fold_ms,
        );
        Ok(counts.shed)
    }

    /// Folds one tick report into the supervisor state: adopt any
    /// checkpoint (pruning the journal and replay events it covers, and
    /// mirroring it to disk when a state directory is configured),
    /// refresh the tracked backlog (the reported depth plus the
    /// admissions of slots dispatched past this one), cache the
    /// cumulative counters, and feed the tick to the metrics layer.
    fn apply_tick(&mut self, shard: usize, tick: &ShardTick) {
        self.obs.note_tick(tick);
        let sup = &mut self.supervised[shard];
        if let Some(state) = &tick.checkpoint {
            if cfg!(feature = "lifecycle") {
                // Fold the journal suffix and handoff events this
                // checkpoint embeds into the id mirror *before* they are
                // pruned away — the worker's map as of the new base is
                // the old base's map plus these, in replay order.
                let journal: Vec<(u64, Request)> = self
                    .router
                    .journal_since(shard, sup.base.next_slot)
                    .into_iter()
                    .filter(|(s, _)| *s < state.next_slot)
                    .collect();
                let events: Vec<HandoffEvent> = sup
                    .replay_events
                    .iter()
                    .filter(|e| e.slot() < state.next_slot)
                    .cloned()
                    .collect();
                extend_life_ids(&mut sup.life_ids, &events, &journal);
            }
            self.router.prune_journal(shard, state.next_slot);
            sup.replay_events.retain(|e| e.slot() >= state.next_slot);
            sup.base = state.clone();
            if let Some(store) = self.store.as_mut() {
                let slot = tick.report.slot;
                match store.write_checkpoint(shard, state) {
                    Ok(bytes) => self.obs.note_checkpoint_write(slot, shard, bytes),
                    Err(e) => self
                        .obs
                        .note_disk_write_error(slot, shard, "checkpoint", &e),
                }
                if let Err(e) = store.prune_journal(shard, state.next_slot) {
                    self.obs.note_disk_write_error(slot, shard, "prune", &e);
                }
            }
        }
        let in_flight: usize = self.unfolded.iter().map(|c| c.admitted[shard]).sum();
        self.router.observe_backlog(shard, tick.backlog + in_flight);
        sup.totals = tick.totals;
        sup.latencies.extend_from_slice(&tick.new_latencies);
    }

    /// SLO evaluation over this slot's deterministic deltas: completions
    /// (with their latencies) are good events; expirations, aborts, and
    /// `shed` are bad. Runs before the ring drain so breach/recovery
    /// events land in the trace at the slot that caused them.
    fn observe_slo(&mut self, slot: u64, mark: Option<SloMark>, shed: u64) {
        let Some(mark) = mark else {
            return;
        };
        let (good, lost) = self.outcome_totals();
        let latencies: Vec<f64> = self
            .supervised
            .iter()
            .zip(&mark.latencies)
            .flat_map(|(s, &seen)| s.latencies[seen.min(s.latencies.len())..].iter().copied())
            .collect();
        let transitions = self.slo.observe_slot(SlotSample {
            good: good.saturating_sub(mark.good) as u64,
            bad: (lost.saturating_sub(mark.bad) as u64) + shed,
            latencies_ms: &latencies,
        });
        self.obs.note_slo(slot, &self.slo, &transitions);
    }

    /// The periodic snapshot, when one is due at the watermark just
    /// folded: served-side counters summed over the shards' last reports.
    fn snapshot(&mut self) -> Option<Snapshot> {
        let slot = self.clock.ticks();
        let every = self.cfg.snapshot_every;
        if every == 0 || !slot.is_multiple_of(every) {
            return None;
        }
        mec_obs::prof_scope!("serve.snapshot");
        let samples: Vec<f64> = self
            .supervised
            .iter()
            .flat_map(|s| s.latencies.iter().copied())
            .collect();
        let served = Snapshot {
            completed: self.supervised.iter().map(|s| s.totals.completed).sum(),
            expired: self.supervised.iter().map(|s| s.totals.expired).sum(),
            aborted: self.supervised.iter().map(|s| s.totals.aborted).sum(),
            total_reward: self.supervised.iter().map(|s| s.totals.total_reward).sum(),
            latency: LatencyStats::from_samples(&samples),
            slots_per_sec: Some(slot as f64 / self.clock.elapsed_secs().max(1e-9)),
            ..Snapshot::default()
        };
        self.snapshots_emitted += 1;
        Some(self.fleet_snapshot(slot, served))
    }

    /// A snapshot at `slot`: admission, queue, fault and placement state
    /// from the coordinator around the served-side fields of `served`.
    fn fleet_snapshot(&mut self, slot: u64, served: Snapshot) -> Snapshot {
        self.obs.sync_router(&self.router);
        self.obs.sync_placement(self.plane.state());
        Snapshot {
            slot,
            shards: self.cfg.shards,
            admitted: self.router.admitted(),
            shed: self.router.shed(),
            queue_depths: self.router.backlogs().to_vec(),
            faults: self.obs.fault_stats(),
            placement: self.plane.stats().clone(),
            ..served
        }
    }

    /// Every arrival dispatched and folded, every backlog empty, and no
    /// placement or reconfiguration work outstanding.
    fn drained(&self) -> bool {
        self.arrivals.is_empty()
            && self.front <= self.clock.ticks()
            && self.router.backlogs().iter().all(|&b| b == 0)
            && !self.plane.has_held()
            && self.plane.ops_exhausted()
            && !self.plane.has_pending_drains()
            && self.pending.is_empty()
    }

    /// Terminal accounting and the final snapshot.
    fn finish(mut self) -> Result<ServeOutcome, ServeError> {
        // The hard stop can cut the run off with requests still parked
        // behind in-flight installs; they count as shed so admitted +
        // shed covers every arrival.
        let abandoned = self.plane.abandon_held();
        if abandoned > 0 {
            self.router.count_shed(abandoned);
        }
        // Terminal accounting, merged in shard order, so every admitted
        // request appears in exactly one shard's metrics.
        let end_slot = self.clock.ticks();
        let mut metrics = Metrics::new();
        for shard in 0..self.supervised.len() {
            metrics.merge(&self.finish_shard(shard, end_slot)?);
        }
        let wall_secs = self.clock.elapsed_secs();

        // Final disk audit: read every shard's persisted state back and
        // check it round-trips to the in-memory truth, so corruption
        // injected after the last restart still surfaces in the recovery
        // counters.
        if let Some(store) = self.store.as_mut() {
            for sup in &self.supervised {
                let _ = verified_disk_journal(store, sup, &self.router, &mut self.obs, end_slot);
            }
        }
        self.obs.drain_rings_through(u64::MAX);
        let served = Snapshot {
            completed: metrics.completed(),
            expired: metrics.expired(),
            aborted: metrics.aborted(),
            unserved: metrics.unserved(),
            total_reward: metrics.total_reward(),
            latency: LatencyStats::from_samples(metrics.latencies_ms()),
            ..Snapshot::default()
        };
        let final_snapshot = self.fleet_snapshot(end_slot, served);
        mec_obs::event!(
            self.obs,
            end_slot,
            "run_end",
            admitted = final_snapshot.admitted,
            shed = final_snapshot.shed,
            completed = final_snapshot.completed,
            expired = final_snapshot.expired,
            aborted = final_snapshot.aborted,
            unserved = final_snapshot.unserved,
            total_reward = final_snapshot.total_reward,
        );
        // Wall-clock stall summary events are opt-in (`--stall-events`):
        // their payloads vary run to run, which would break trace
        // byte-identity for same-seed comparisons.
        let wall_ms = wall_secs * 1e3;
        let (dispatch, recovery, fold) = (self.dispatch_ms, self.recovery_ms, self.fold_ms);
        if self.obs.stall_events() {
            self.obs.note_stall_summary(
                end_slot,
                wall_ms,
                dispatch,
                recovery,
                fold,
                end_slot,
                self.dispatched_ahead,
            );
        }
        self.obs
            .note_driver_stall(wall_ms, dispatch, recovery, fold);
        self.obs.flush(end_slot);
        Ok(ServeOutcome {
            final_snapshot,
            metrics,
            slots_run: end_slot,
            snapshots_emitted: self.snapshots_emitted,
            wall_secs,
            ops_journal: if self.plane.is_live() {
                self.plane.ops_journal()
            } else {
                String::new()
            },
        })
    }

    /// Collects `shard`'s terminal metrics. A down (or given-up) shard is
    /// revived with a catch-up through the final slot first, and a worker
    /// that dies on `Finish` gets one more revival. Failures here leave
    /// no poisoned channels behind: every handle's drop abandons, then
    /// joins, so teardown completes even when one shard already exited.
    fn finish_shard(&mut self, shard: usize, end_slot: u64) -> Result<Metrics, ServeError> {
        let mut revivals = 0u32;
        loop {
            if let ShardStatus::Down { detected_at, .. } | ShardStatus::Dead { detected_at } =
                self.supervised[shard].status
            {
                revivals += 1;
                if revivals > 2 {
                    return Err(ServeError::WorkerDied(shard));
                }
                if !self.restart(shard, end_slot, detected_at)? {
                    continue;
                }
            }
            let Some(handle) = self.supervised[shard].handle.take() else {
                return Err(ServeError::WorkerDied(shard));
            };
            let reply = if handle.send(ShardCommand::Finish).is_ok() {
                handle.recv_within(self.cfg.faults.tick_timeout_ms)
            } else {
                None
            };
            match reply {
                Some(ShardReply::Final(metrics)) => {
                    handle.join();
                    return Ok(metrics);
                }
                Some(ShardReply::Error(msg)) => return Err(ServeError::Shard(msg)),
                Some(other) => {
                    return Err(ServeError::Shard(format!(
                        "shard {shard} answered Finish with {other:?}"
                    )))
                }
                None => {
                    handle.abandon();
                    self.router.mark_down(shard);
                    self.supervised[shard].status = ShardStatus::Down {
                        detected_at: end_slot,
                        restart_at: end_slot,
                    };
                }
            }
        }
    }
}
