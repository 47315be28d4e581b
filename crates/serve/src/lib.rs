//! # mec-serve
//!
//! A sharded, long-running serving runtime over the `mec-sim` slot engine:
//! the substrate for operating the paper's online offloading policies as a
//! *service* — arrivals stream in continuously, decisions happen per tick,
//! and the operator watches metrics snapshots — instead of replaying a
//! pre-materialized trace to completion.
//!
//! ## Architecture
//!
//! ```text
//!            ┌────────────┐  Inject/Grant{through}  ┌─────────────────────┐
//!  LoadGen ─▶│Coordinator │────────────────────────▶│ Shard 0: Engine+Pol │─┐
//!            │ (admission │   bounded mailboxes     ├─────────────────────┤ │ ShardEvent::Tick
//!            │ + watermark│────────────────────────▶│ Shard 1: Engine+Pol │─┤ (shared progress
//!            │    fold)   │                         ├─────────────────────┤ │  channel, folded
//!            └────────────┘                         │        ...          │ │  in shard order)
//!                  ▲                                └─────────────────────┘ │
//!            ┌────────────┐                          ┌────────────────┐     │
//!            │   Clock    │                          │   Aggregator   │◀────┘
//!            │ (virtual / │                          │ (JSON Snapshot)│
//!            │   paced)   │                          └────────────────┘
//!            └────────────┘
//! ```
//!
//! * [`partition`] splits a global [`mec_topology::Topology`] into
//!   per-shard sub-topologies (round-robin by station id, induced edges,
//!   bridged back to connectivity).
//! * Each shard is an **actor**: a worker thread owning its own
//!   [`mec_sim::Engine`] and a boxed [`mec_sim::SlotPolicy`], with a
//!   **bounded** command mailbox and a shared progress channel.
//! * The [`Router`] maps arrivals to shards by home base station and
//!   applies **deterministic admission control**: when a shard's tracked
//!   backlog reaches `queue_capacity`, new arrivals for it are shed (and
//!   counted) instead of enqueued.
//! * There is no per-slot barrier. The coordinator leases each shard a
//!   span of slots (`ShardCommand::Grant`, bounded by
//!   [`ServeConfig::epoch_horizon`]); workers execute leased slots
//!   back-to-back, streaming one `ShardEvent::Tick` per slot,
//!   while the coordinator folds exactly one slot per phase at the
//!   **watermark** — the slot for which every inbound message has
//!   provably arrived. Same seed + same shards ⇒ byte-identical results
//!   for *every* horizon, including 1 (lockstep). See DESIGN.md §17.
//! * The fan-in aggregator folds per-tick shard reports into periodic
//!   JSON-serializable [`Snapshot`]s at watermark boundaries.
//!
//! ## Fault tolerance
//!
//! The runtime supervises every shard (see `runtime` module docs and
//! DESIGN.md §9): a crashed, stalled, or deadline-missing worker is
//! detected on the progress plane (a death notice, an error event, or a
//! missed fold deadline), its stations are routed around
//! ([`DegradedPolicy`]: buffer / shed / spill), and the shard is restarted
//! with checkpoint-plus-journal replay so recovery is deterministic.
//! Scripted fault injection ([`ChaosSpec`], `mec-serve --chaos`) exercises
//! the whole path reproducibly; [`FaultStats`] in each [`Snapshot`] counts
//! restarts, replayed arrivals, and degraded slots.
//!
//! ## Placement and live reconfiguration
//!
//! With [`ServeConfig::placement`] enabled (`services > 0`), every
//! arrival routes through a [`PlacementPlane`] before shard admission
//! (see DESIGN.md §13): a hit on the home station's service cache
//! proceeds; a miss redirects to the nearest deadline-feasible holder or
//! triggers a capacity-bounded install (LRU/LFU eviction, warm/cold
//! latency charged in slots) that parks the request until the service is
//! resident. [`ServeConfig::ops`] — or `drain:`/`join:`/`leave:`
//! directives in the chaos spec — reconfigures the fleet mid-run:
//! a drain extracts only the drained station's in-flight jobs (a
//! [`mec_sim::StationSlice`]) and ships them to the nearest active
//! station deterministically, so handoff cost is bounded by the moved
//! state and same seed + same ops script still reproduces a
//! byte-identical final snapshot. [`PlacementStats`] in each
//! [`Snapshot`] counts hits, installs, rehomes, and handoffs. With
//! [`ServeConfig::state_dir`] set, arrivals and checkpoints also persist
//! to CRC-framed on-disk journals (see the [`journal`] module) that
//! survive — and report — injected disk faults.
//!
//! ## Observability
//!
//! Attach an [`ObsHub`] (see [`ServeConfig::obs`]) to scrape a live
//! Prometheus-style metrics page via [`mec_obs::MetricsServer`] and — with
//! the `obs` cargo feature — stream a structured JSONL event trace
//! (admission funnel, restarts, fault injections, per-arm learner state).
//! Without a hub the runtime uses a private registry and behaves exactly
//! as before; without the feature, tracing compiles to nothing and
//! same-seed runs stay byte-identical. See DESIGN.md §10.
//!
//! ## Quickstart
//!
//! ```
//! use mec_serve::{serve, LoadGen, ServeConfig};
//! use mec_topology::TopologyBuilder;
//! use mec_workload::WorkloadBuilder;
//!
//! let topo = TopologyBuilder::new(16).seed(7).build();
//! let population = WorkloadBuilder::new(&topo).seed(7).count(500).build();
//! // 2000 requests/second against 50 ms slots → 100 per slot.
//! let load = LoadGen::poisson(population, 2000.0, 50.0, 7);
//! let cfg = ServeConfig {
//!     shards: 4,
//!     ..ServeConfig::default()
//! };
//! let outcome = serve(&topo, load, &cfg, |_snapshot| {}).unwrap();
//! assert_eq!(outcome.final_snapshot.admitted + outcome.final_snapshot.shed, 500);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod clock;
pub mod journal;
pub mod loadgen;
pub mod obs;
pub mod partition;
pub mod placement;
pub mod policy;
pub mod router;
pub mod runtime;
mod shard;
pub mod snapshot;

pub use chaos::{
    ChaosParseError, ChaosSpec, DiskFaultKind, DiskFaultSpec, DiskTarget, FaultKind, FaultSpec,
    ShardFault,
};
pub use clock::{Clock, ClockMode};
pub use journal::{DiskIncidents, DiskRecovery, DiskStore, JournalError, JournalWriter, Salvage};
pub use loadgen::LoadGen;
pub use obs::ObsHub;
pub use partition::{partition, ShardPlan};
pub use placement::{PlacementPlane, RouteDecision};
pub use policy::{policy_from_name, UnknownPolicy, POLICY_NAMES};
pub use router::{Admission, DegradedPolicy, Router};
pub use runtime::{serve, FaultConfig, ServeConfig, ServeError, ServeOutcome};
pub use snapshot::{FaultStats, LatencyStats, PlacementStats, Snapshot};
