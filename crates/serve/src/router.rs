//! Arrival routing, deterministic admission control, and degraded-mode
//! handling for unavailable shards.
//!
//! The router owns the *driver-side* view of every shard's queue depth.
//! Admission decisions use only that tracked backlog — the depth each
//! shard reported at the last barriered tick plus the injections sent
//! since — never live channel occupancy, so whether a run sheds a given
//! request depends only on the seed, the load, and the shard count, not
//! on thread timing.
//!
//! For fault tolerance the router additionally keeps, per shard:
//!
//! * an **availability** flag — the supervisor marks a shard down when its
//!   worker crashes, stalls, or misses the reply deadline, and up again
//!   after a restart;
//! * a **bounded journal** of every admitted (already localized) request
//!   tagged with its admission slot — the replay log a restarted worker
//!   consumes to catch back up. Under checkpointed recovery the journal is
//!   pruned to the last checkpoint; under genesis replay it spans the run.
//!
//! While a shard is down, arrivals for it follow the configured
//! [`DegradedPolicy`]: journal them for replay at recovery (`Buffer`, the
//! default — lossless), drop them immediately (`Shed`), or reroute them to
//! the nearest available shard (`Spill` — lossy with respect to placement,
//! but keeps serving).

use crate::partition::ShardPlan;
use mec_topology::station::StationId;
use mec_workload::request::Request;
use std::collections::VecDeque;

/// What to do with arrivals whose home shard is down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedPolicy {
    /// Hold the arrival in the shard's journal and replay it (at its
    /// original slot) when the shard recovers. Lossless and exact: after
    /// catch-up the shard is in the state it would have reached without
    /// the outage.
    #[default]
    Buffer,
    /// Drop the arrival immediately (counted as shed).
    Shed,
    /// Reroute the arrival to the nearest available shard (by cyclic
    /// shard distance), mapped onto that shard's closest local station.
    Spill,
}

impl DegradedPolicy {
    /// Parses the CLI spelling (`buffer` | `shed` | `spill`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "buffer" => Some(Self::Buffer),
            "shed" => Some(Self::Shed),
            "spill" => Some(Self::Spill),
            _ => None,
        }
    }
}

/// The outcome of routing one arrival.
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// The home shard is up: inject the localized request now.
    Inject {
        /// The owning shard.
        shard: usize,
        /// The request, rewritten into the shard-local id space.
        request: Request,
    },
    /// The home shard is down and the policy buffers: the request sits in
    /// the journal until the shard recovers. Nothing to send now.
    Buffered {
        /// The (down) owning shard.
        shard: usize,
        /// The request, rewritten into the shard-local id space — what
        /// the journal holds and replay will eventually deliver.
        request: Request,
    },
    /// The home shard is down and the policy spills: inject the request
    /// into a neighbor shard now.
    Spilled {
        /// The shard that took the request over.
        shard: usize,
        /// The request, rewritten into the *spill* shard's local id space.
        request: Request,
    },
    /// The request was dropped (full queue, full journal, or `Shed`
    /// policy while down).
    Shed,
}

/// Maps arrivals to shards, sheds load when a shard's backlog is full,
/// and journals admissions for crash recovery.
#[derive(Debug, Clone)]
pub struct Router {
    shards: usize,
    queue_capacity: usize,
    backlog: Vec<usize>,
    admitted: u64,
    shed: u64,
    available: Vec<bool>,
    /// Stations per shard, for clamping spilled requests into the target
    /// shard's local id space (set from the partition plans).
    station_counts: Vec<usize>,
    degraded: DegradedPolicy,
    /// Per-shard replay log: (admission slot, localized request).
    journal: Vec<VecDeque<(u64, Request)>>,
    journal_cap: usize,
    journal_dropped: u64,
    spilled: u64,
    shed_while_down: u64,
}

impl Router {
    /// Creates a router for `shards` shards, each willing to hold at most
    /// `queue_capacity` in-flight (waiting + running) requests. Degraded
    /// policy defaults to [`DegradedPolicy::Buffer`]; the journal cap
    /// defaults to `1 << 20` entries per shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `queue_capacity == 0`.
    pub fn new(shards: usize, queue_capacity: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(queue_capacity > 0, "queue capacity must be positive");
        Self {
            shards,
            queue_capacity,
            backlog: vec![0; shards],
            admitted: 0,
            shed: 0,
            available: vec![true; shards],
            station_counts: vec![usize::MAX; shards],
            degraded: DegradedPolicy::Buffer,
            journal: (0..shards).map(|_| VecDeque::new()).collect(),
            journal_cap: 1 << 20,
            journal_dropped: 0,
            spilled: 0,
            shed_while_down: 0,
        }
    }

    /// Records each shard's station count (for spill localization) from
    /// the actual partition.
    pub fn set_station_counts(&mut self, counts: Vec<usize>) {
        assert_eq!(counts.len(), self.shards, "one count per shard");
        self.station_counts = counts;
    }

    /// Sets the degraded-mode policy for arrivals whose shard is down.
    pub fn set_degraded_policy(&mut self, policy: DegradedPolicy) {
        self.degraded = policy;
    }

    /// Caps each shard's journal at `cap` entries (oldest dropped first).
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` — recovery needs at least one entry.
    pub fn set_journal_cap(&mut self, cap: usize) {
        assert!(cap > 0, "journal cap must be positive");
        self.journal_cap = cap;
    }

    /// The shard that owns `home` under round-robin station assignment.
    /// Matches [`crate::partition`]'s `global_id % shards` rule.
    pub fn shard_of(&self, home: StationId) -> usize {
        home.index() % self.shards
    }

    /// Rewrites a request's home station to the owning shard's local id
    /// space. The request id is preserved; the shard engine re-identifies
    /// on injection anyway.
    pub fn localize(&self, request: &Request) -> Request {
        Request::new(
            request.id(),
            StationId(request.home().index() / self.shards),
            request.arrival_slot(),
            request.duration_slots(),
            request.tasks().to_vec(),
            request.demand().clone(),
            request.deadline(),
        )
    }

    /// Rewrites a request into `target`'s local id space even when the
    /// home station belongs to another shard: the natural local index is
    /// clamped into the target's station range, which under round-robin
    /// assignment lands on a station whose global id neighbors the home.
    fn localize_into(&self, target: usize, request: &Request) -> Request {
        let natural = request.home().index() / self.shards;
        let clamped = natural.min(self.station_counts[target].saturating_sub(1));
        Request::new(
            request.id(),
            StationId(clamped),
            request.arrival_slot(),
            request.duration_slots(),
            request.tasks().to_vec(),
            request.demand().clone(),
            request.deadline(),
        )
    }

    /// Picks the spill destination for a request homing on (down)
    /// `home_shard`. With a placement hint, the winner is the hinted
    /// *holder station* whose shard is up — minimum cyclic shard distance
    /// first, then smallest global station id (the pinned tie-break) —
    /// and the request lands exactly on that station. Without a usable
    /// hint this falls back to the legacy nearest-available-shard rule.
    /// Returns `(shard, Some(local_station))` for a directed spill,
    /// `(shard, None)` for the legacy clamp.
    fn spill_choice(
        &self,
        home_shard: usize,
        holders: Option<&[usize]>,
    ) -> Option<(usize, Option<usize>)> {
        if let Some(holders) = holders {
            let best = holders
                .iter()
                .map(|&g| (g % self.shards, g))
                .filter(|&(s, _)| s != home_shard && self.available[s])
                .min_by_key(|&(s, g)| ((s + self.shards - home_shard) % self.shards, g));
            if let Some((shard, global)) = best {
                return Some((shard, Some(global / self.shards)));
            }
        }
        self.spill_target(home_shard).map(|s| (s, None))
    }

    /// Marks `shard` unavailable: subsequent arrivals follow the degraded
    /// policy until [`Router::mark_up`].
    pub fn mark_down(&mut self, shard: usize) {
        self.available[shard] = false;
    }

    /// Marks `shard` available again (after a successful restart).
    pub fn mark_up(&mut self, shard: usize) {
        self.available[shard] = true;
    }

    /// Whether `shard` is currently marked available.
    pub fn is_available(&self, shard: usize) -> bool {
        self.available[shard]
    }

    /// The nearest available shard to `shard` by cyclic distance
    /// (deterministic spill target), if any shard is up at all.
    pub fn spill_target(&self, shard: usize) -> Option<usize> {
        (1..self.shards)
            .map(|d| (shard + d) % self.shards)
            .find(|&s| self.available[s])
    }

    /// Appends an admitted request to `shard`'s replay journal, evicting
    /// the oldest entry when the cap is reached.
    fn journal_push(&mut self, shard: usize, slot: u64, request: Request) {
        let q = &mut self.journal[shard];
        if q.len() >= self.journal_cap {
            q.pop_front();
            self.journal_dropped += 1;
        }
        q.push_back((slot, request));
    }

    /// Decides what happens to `request` arriving at `slot`.
    ///
    /// When the home shard is up this is classic admission control: a full
    /// shard sheds, otherwise the localized request is admitted, journaled,
    /// and returned for live injection. When the home shard is down the
    /// configured [`DegradedPolicy`] applies. Every admitted request —
    /// injected, buffered, or spilled — is recorded in the journal of the
    /// shard that will (eventually) own it.
    pub fn admit(&mut self, request: &Request, slot: u64) -> Admission {
        self.admit_with(request, slot, None)
    }

    /// [`Router::admit`] with a placement hint: `holders` are the global
    /// ids of stations currently holding the request's service. The hint
    /// only affects [`DegradedPolicy::Spill`], which then reroutes onto a
    /// station that can actually serve the request instead of the
    /// geometrically nearest shard.
    pub fn admit_with(
        &mut self,
        request: &Request,
        slot: u64,
        holders: Option<&[usize]>,
    ) -> Admission {
        let home_shard = self.shard_of(request.home());
        if self.available[home_shard] {
            if self.backlog[home_shard] >= self.queue_capacity {
                self.shed += 1;
                return Admission::Shed;
            }
            let localized = self.localize(request);
            self.backlog[home_shard] += 1;
            self.admitted += 1;
            self.journal_push(home_shard, slot, localized.clone());
            return Admission::Inject {
                shard: home_shard,
                request: localized,
            };
        }
        match self.degraded {
            DegradedPolicy::Buffer => {
                if self.backlog[home_shard] >= self.queue_capacity
                    || self.journal[home_shard].len() >= self.journal_cap
                {
                    self.shed += 1;
                    self.shed_while_down += 1;
                    return Admission::Shed;
                }
                let localized = self.localize(request);
                self.backlog[home_shard] += 1;
                self.admitted += 1;
                self.journal_push(home_shard, slot, localized.clone());
                Admission::Buffered {
                    shard: home_shard,
                    request: localized,
                }
            }
            DegradedPolicy::Shed => {
                self.shed += 1;
                self.shed_while_down += 1;
                Admission::Shed
            }
            DegradedPolicy::Spill => {
                let Some((target, station)) = self.spill_choice(home_shard, holders) else {
                    self.shed += 1;
                    self.shed_while_down += 1;
                    return Admission::Shed;
                };
                if self.backlog[target] >= self.queue_capacity {
                    self.shed += 1;
                    self.shed_while_down += 1;
                    return Admission::Shed;
                }
                let localized = match station {
                    Some(local) => Request::new(
                        request.id(),
                        StationId(local.min(self.station_counts[target].saturating_sub(1))),
                        request.arrival_slot(),
                        request.duration_slots(),
                        request.tasks().to_vec(),
                        request.demand().clone(),
                        request.deadline(),
                    ),
                    None => self.localize_into(target, request),
                };
                self.backlog[target] += 1;
                self.admitted += 1;
                self.spilled += 1;
                self.journal_push(target, slot, localized.clone());
                Admission::Spilled {
                    shard: target,
                    request: localized,
                }
            }
        }
    }

    /// Moves `n` tracked in-flight jobs from `from`'s backlog to `to`'s
    /// — the admission-control view of a station handoff. Saturating on
    /// the source side (the next barriered tick reports resynchronize
    /// the truth either way).
    pub fn transfer_backlog(&mut self, from: usize, to: usize, n: usize) {
        if from == to || n == 0 {
            return;
        }
        let moved = n.min(self.backlog[from]);
        self.backlog[from] -= moved;
        self.backlog[to] += moved;
    }

    /// Counts `n` requests shed outside the router (placement-plane
    /// sheds, held requests abandoned at the hard stop), keeping the
    /// `admitted + shed == dispatched` invariant intact.
    pub fn count_shed(&mut self, n: u64) {
        self.shed += n;
    }

    /// Clones `shard`'s journal entries with admission slot `>= from_slot`
    /// — the replay payload for a worker restarting from a checkpoint
    /// whose next slot is `from_slot`.
    pub fn journal_since(&self, shard: usize, from_slot: u64) -> Vec<(u64, Request)> {
        self.journal[shard]
            .iter()
            .filter(|(s, _)| *s >= from_slot)
            .cloned()
            .collect()
    }

    /// Drops `shard`'s journal entries with admission slot `< before_slot`
    /// — safe once a checkpoint covering them exists.
    pub fn prune_journal(&mut self, shard: usize, before_slot: u64) {
        let q = &mut self.journal[shard];
        while q.front().is_some_and(|(s, _)| *s < before_slot) {
            q.pop_front();
        }
    }

    /// Current journal length of `shard`.
    pub fn journal_len(&self, shard: usize) -> usize {
        self.journal[shard].len()
    }

    /// Replaces the tracked backlog of `shard` with the depth it reported
    /// at the last barriered tick.
    pub fn observe_backlog(&mut self, shard: usize, backlog: usize) {
        self.backlog[shard] = backlog;
    }

    /// Tracked per-shard queue depths, indexed by shard.
    pub fn backlogs(&self) -> &[usize] {
        &self.backlog
    }

    /// Requests admitted so far (injected, buffered, or spilled).
    pub const fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests shed so far.
    pub const fn shed(&self) -> u64 {
        self.shed
    }

    /// Requests rerouted to a neighbor shard while their home was down.
    pub const fn spilled(&self) -> u64 {
        self.spilled
    }

    /// Requests shed because their shard was down (subset of
    /// [`Router::shed`]).
    pub const fn shed_while_down(&self) -> u64 {
        self.shed_while_down
    }

    /// Journal entries evicted by the cap so far.
    pub const fn journal_dropped(&self) -> u64 {
        self.journal_dropped
    }

    /// Checks the round-robin contract against an actual partition: every
    /// plan station must map back to its own shard. Used by tests and
    /// debug assertions in the runtime.
    pub fn consistent_with(&self, plans: &[ShardPlan]) -> bool {
        plans.len() == self.shards
            && plans.iter().all(|plan| {
                plan.stations
                    .iter()
                    .all(|&g| self.shard_of(g) == plan.shard)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition;
    use mec_topology::TopologyBuilder;
    use mec_workload::WorkloadBuilder;

    fn admit_simple(router: &mut Router, request: &Request, slot: u64) -> Option<(usize, Request)> {
        match router.admit(request, slot) {
            Admission::Inject { shard, request } => Some((shard, request)),
            _ => None,
        }
    }

    #[test]
    fn routing_matches_partition() {
        let topo = TopologyBuilder::new(17).seed(5).build();
        let plans = partition(&topo, 4);
        let router = Router::new(4, 8);
        assert!(router.consistent_with(&plans));
        for plan in &plans {
            for (local, &global) in plan.stations.iter().enumerate() {
                assert_eq!(router.shard_of(global), plan.shard);
                assert_eq!(global.index() / 4, local);
            }
        }
    }

    #[test]
    fn localize_stays_inside_shard_topology() {
        let topo = TopologyBuilder::new(10).seed(2).build();
        let plans = partition(&topo, 3);
        let router = Router::new(3, 8);
        let requests = WorkloadBuilder::new(&topo).seed(2).count(50).build();
        for r in &requests {
            let shard = router.shard_of(r.home());
            let local = router.localize(r);
            assert!(
                local.home().index() < plans[shard].topo.station_count(),
                "{} localized out of range for shard {shard}",
                r.home()
            );
            assert_eq!(plans[shard].stations[local.home().index()], r.home());
        }
    }

    #[test]
    fn full_shard_sheds() {
        let topo = TopologyBuilder::new(4).seed(0).build();
        let requests = WorkloadBuilder::new(&topo).seed(0).count(20).build();
        let mut router = Router::new(1, 3);
        let mut admitted = 0;
        let mut shed = 0;
        for r in &requests {
            match admit_simple(&mut router, r, 0) {
                Some(_) => admitted += 1,
                None => shed += 1,
            }
        }
        assert_eq!(admitted, 3);
        assert_eq!(shed, 17);
        assert_eq!(router.admitted(), 3);
        assert_eq!(router.shed(), 17);
        assert_eq!(router.shed_while_down(), 0, "shard was never down");
        // A tick report freeing the queue lets arrivals in again.
        router.observe_backlog(0, 0);
        assert!(admit_simple(&mut router, &requests[0], 1).is_some());
    }

    #[test]
    fn buffer_policy_journals_while_down() {
        let topo = TopologyBuilder::new(4).seed(1).build();
        let requests = WorkloadBuilder::new(&topo).seed(1).count(8).build();
        let mut router = Router::new(2, 16);
        router.mark_down(0);
        let mut buffered = 0;
        let mut injected = 0;
        for (i, r) in requests.iter().enumerate() {
            match router.admit(r, i as u64) {
                Admission::Buffered { shard, request } => {
                    assert_eq!(shard, 0);
                    assert_eq!(request.id(), r.id());
                    buffered += 1;
                }
                Admission::Inject { shard, .. } => {
                    assert_eq!(shard, 1);
                    injected += 1;
                }
                other => panic!("unexpected admission {other:?}"),
            }
        }
        assert!(buffered > 0, "some requests home on shard 0");
        assert_eq!(buffered + injected, 8);
        // Buffered arrivals are journaled and grow the tracked backlog.
        assert_eq!(router.journal_len(0), buffered);
        assert_eq!(router.backlogs()[0], buffered);
        assert_eq!(router.admitted(), 8);
        // Recovery replays everything from slot 0.
        assert_eq!(router.journal_since(0, 0).len(), buffered);
        router.mark_up(0);
        assert!(router.is_available(0));
    }

    #[test]
    fn shed_policy_drops_while_down() {
        let topo = TopologyBuilder::new(4).seed(1).build();
        let requests = WorkloadBuilder::new(&topo).seed(1).count(8).build();
        let mut router = Router::new(2, 16);
        router.set_degraded_policy(DegradedPolicy::Shed);
        router.mark_down(0);
        for (i, r) in requests.iter().enumerate() {
            let _ = router.admit(r, i as u64);
        }
        assert!(router.shed_while_down() > 0);
        assert_eq!(router.shed(), router.shed_while_down());
        assert_eq!(router.journal_len(0), 0, "shed arrivals are not journaled");
    }

    #[test]
    fn spill_policy_reroutes_to_available_neighbor() {
        let topo = TopologyBuilder::new(9).seed(4).build();
        let plans = partition(&topo, 3);
        let requests = WorkloadBuilder::new(&topo).seed(4).count(30).build();
        let mut router = Router::new(3, 64);
        router.set_station_counts(plans.iter().map(|p| p.topo.station_count()).collect());
        router.set_degraded_policy(DegradedPolicy::Spill);
        router.mark_down(1);
        assert_eq!(router.spill_target(1), Some(2));
        let mut spilled = 0;
        for (i, r) in requests.iter().enumerate() {
            match router.admit(r, i as u64) {
                Admission::Spilled { shard, request } => {
                    assert_eq!(shard, 2);
                    assert!(request.home().index() < plans[2].topo.station_count());
                    spilled += 1;
                }
                Admission::Inject { shard, .. } => assert_ne!(shard, 1),
                other => panic!("unexpected admission {other:?}"),
            }
        }
        assert!(spilled > 0);
        assert_eq!(router.spilled(), spilled);
        // Spilled requests live in the target shard's journal.
        assert!(router.journal_len(2) as u64 >= spilled);
        assert_eq!(router.journal_len(1), 0);
    }

    #[test]
    fn spill_with_no_shard_up_sheds() {
        let topo = TopologyBuilder::new(4).seed(0).build();
        let requests = WorkloadBuilder::new(&topo).seed(0).count(4).build();
        let mut router = Router::new(2, 8);
        router.set_degraded_policy(DegradedPolicy::Spill);
        router.mark_down(0);
        router.mark_down(1);
        assert_eq!(router.spill_target(0), None);
        for r in &requests {
            assert_eq!(router.admit(r, 0), Admission::Shed);
        }
        assert_eq!(router.shed(), 4);
        assert_eq!(router.shed_while_down(), 4);
    }

    #[test]
    fn placement_spill_prefers_holder_with_pinned_tie_break() {
        let topo = TopologyBuilder::new(9).seed(4).build();
        let plans = partition(&topo, 3);
        let requests = WorkloadBuilder::new(&topo).seed(4).count(30).build();
        let mut router = Router::new(3, 64);
        router.set_station_counts(plans.iter().map(|p| p.topo.station_count()).collect());
        router.set_degraded_policy(DegradedPolicy::Spill);
        router.mark_down(0);
        let victim = requests
            .iter()
            .find(|r| r.home().index() % 3 == 0)
            .expect("seeded workload covers shard 0");
        // Holders 4 and 7 share shard 1 (cyclic distance 1 from shard 0),
        // holder 5 sits on shard 2 (distance 2). The tie inside shard 1
        // resolves to the smallest global station id: 4, local index 1.
        match router.admit_with(victim, 0, Some(&[7, 5, 4])) {
            Admission::Spilled { shard, request } => {
                assert_eq!(shard, 1);
                assert_eq!(request.home().index(), 4 / 3);
            }
            other => panic!("expected a directed spill, got {other:?}"),
        }
        // The same arrival without a hint follows the legacy clamp rule.
        let mut legacy = Router::new(3, 64);
        legacy.set_station_counts(plans.iter().map(|p| p.topo.station_count()).collect());
        legacy.set_degraded_policy(DegradedPolicy::Spill);
        legacy.mark_down(0);
        assert_eq!(
            legacy.admit_with(victim, 0, None),
            legacy.clone().admit(victim, 0),
            "no hint degrades to the legacy spill"
        );
        // Holders only on the down shard itself: fall back to legacy too.
        let mut own = Router::new(3, 64);
        own.set_station_counts(plans.iter().map(|p| p.topo.station_count()).collect());
        own.set_degraded_policy(DegradedPolicy::Spill);
        own.mark_down(0);
        match own.admit_with(victim, 0, Some(&[0, 3])) {
            Admission::Spilled { shard, .. } => assert_eq!(shard, 1),
            other => panic!("expected the legacy spill, got {other:?}"),
        }
    }

    #[test]
    fn transfer_backlog_moves_and_saturates() {
        let mut router = Router::new(3, 16);
        router.observe_backlog(0, 5);
        router.observe_backlog(1, 2);
        router.transfer_backlog(0, 1, 3);
        assert_eq!(router.backlogs(), &[2, 5, 0]);
        // Saturates at the tracked source depth.
        router.transfer_backlog(0, 2, 10);
        assert_eq!(router.backlogs(), &[0, 5, 2]);
        // Self-transfer is a no-op.
        router.transfer_backlog(1, 1, 4);
        assert_eq!(router.backlogs(), &[0, 5, 2]);
    }

    #[test]
    fn journal_prunes_and_caps() {
        let topo = TopologyBuilder::new(4).seed(0).build();
        let requests = WorkloadBuilder::new(&topo).seed(0).count(12).build();
        let mut router = Router::new(1, 1024);
        router.set_journal_cap(5);
        for (i, r) in requests.iter().enumerate() {
            let _ = router.admit(r, i as u64);
        }
        // Cap 5: only the newest five entries remain; seven were dropped.
        assert_eq!(router.journal_len(0), 5);
        assert_eq!(router.journal_dropped(), 7);
        assert_eq!(router.journal_since(0, 9).len(), 3);
        router.prune_journal(0, 10);
        assert_eq!(router.journal_len(0), 2);
        router.prune_journal(0, u64::MAX);
        assert_eq!(router.journal_len(0), 0);
    }
}
