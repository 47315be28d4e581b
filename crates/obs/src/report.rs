//! Post-hoc run reports rendered from a JSONL trace.
//!
//! [`build_report`] folds the event stream emitted by a traced serving
//! run (see the `mec-serve --trace-out` schema in DESIGN.md §10) into a
//! [`RunReport`]; [`RunReport::render`] produces the human-readable
//! text: run header, admission funnel, arm-elimination timeline, fault
//! and restart log, disk-recovery summary (checkpoint mirror sizes,
//! salvage and corruption incidents, per-handoff moved state), per-shard
//! latency histograms, and the final bandit state per shard.

use crate::json::{parse_flat_object, JsonValue, ParseError};
use crate::registry::HistogramSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Latency bucket bounds (ms) used when rebuilding per-shard
/// distributions from `served` events.
pub const LATENCY_MS_BOUNDS: &[f64] = &[
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
];

/// Install-latency bucket bounds (slots) used when rebuilding the
/// distribution from `install` events.
pub const INSTALL_SLOT_BOUNDS: &[f64] = &[1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 13.0];

/// One `arm_eliminated` event.
#[derive(Debug, Clone, PartialEq)]
pub struct Elimination {
    /// Slot the elimination was observed at.
    pub slot: u64,
    /// Shard whose learner eliminated the arm.
    pub shard: u64,
    /// Eliminated arm index.
    pub arm: u64,
    /// The arm's threshold value in MHz.
    pub value_mhz: f64,
    /// Active arms remaining after the elimination.
    pub active_left: u64,
}

/// One `reconfig` or `handoff` event, in stream order.
#[derive(Debug, Clone, PartialEq)]
pub struct Reconfig {
    /// Slot the op (or handoff) applied at.
    pub slot: u64,
    /// `join`, `leave`, `drain`, or `handoff`.
    pub op: String,
    /// The station it targets.
    pub station: u64,
    /// For handoffs: the takeover station (-1 when the fleet was empty).
    pub takeover: i64,
    /// For handoffs: in-flight jobs migrated to the takeover station.
    pub migrated: u64,
    /// For handoffs: encoded station-slice bytes shipped.
    pub bytes: u64,
}

/// One `journal_salvage` event: a shard's disk mirror came back damaged
/// and was salvaged during recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct Salvage {
    /// Slot the salvage happened at.
    pub slot: u64,
    /// The shard whose files were damaged.
    pub shard: u64,
    /// CRC-failed records detected.
    pub corrupt_records: u64,
    /// Bytes truncated away to reach the last valid record.
    pub salvaged_bytes: u64,
    /// Read retries spent before the files yielded.
    pub retries: u64,
    /// Checkpoint reads that fell back from current to previous.
    pub checkpoint_fallbacks: u64,
}

/// One `disk_fault` event: an injected chaos fault landing on the store.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskFault {
    /// Slot the fault applied at.
    pub slot: u64,
    /// The shard whose files it hit.
    pub shard: u64,
    /// `journal` or `ckpt`.
    pub target: String,
    /// `truncate`, `corrupt`, or `slowdisk`.
    pub kind: String,
    /// Bytes affected.
    pub bytes: u64,
}

/// One `restart` event.
#[derive(Debug, Clone, PartialEq)]
pub struct Restart {
    /// Slot the restart completed at.
    pub slot: u64,
    /// The restarted shard.
    pub shard: u64,
    /// Journal entries replayed during catch-up.
    pub replayed: u64,
    /// Outage length in slots.
    pub latency_slots: u64,
    /// Whether the replacement worker came up.
    pub ok: bool,
}

/// One `slo_breach` / `slo_recovered` transition.
#[derive(Debug, Clone, PartialEq)]
pub struct SloEvent {
    /// Slot the transition fired at.
    pub slot: u64,
    /// The spec string (e.g. `deadline_hit_rate>=0.95@512`).
    pub spec: String,
    /// `true` = entered breach, `false` = recovered.
    pub breached: bool,
    /// The windowed value at the transition.
    pub value: f64,
    /// Fast-window burn rate at the transition.
    pub burn_fast: f64,
    /// Slow-window burn rate at the transition.
    pub burn_slow: f64,
}

/// One `drift_suspected` / `drift_cleared` event from the per-arm
/// Page–Hinkley detectors.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftEvent {
    /// Slot the detector fired (or cleared) at.
    pub slot: u64,
    /// Shard whose learner the arm belongs to.
    pub shard: u64,
    /// The arm whose reward stream drifted.
    pub arm: u64,
    /// The detector's running mean at the transition.
    pub mean: f64,
    /// The Page–Hinkley statistic at the transition.
    pub score: f64,
    /// `true` = drift suspected, `false` = cleared.
    pub suspected: bool,
}

/// Final per-shard regret accounting (from the last `learning_state`
/// sweep).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearningState {
    /// Slot of the sweep.
    pub slot: u64,
    /// Realized cumulative (normalized) reward.
    pub cum_reward: f64,
    /// The moving hindsight-oracle total.
    pub oracle: f64,
    /// Cumulative regret (oracle − realized, floored at 0).
    pub regret: f64,
    /// Learner updates accounted.
    pub steps: u64,
}

/// Final per-shard LP introspection (from the last `lp_state` sweep).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LpState {
    /// Slot of the sweep.
    pub slot: u64,
    /// Slot-LP solves so far.
    pub solves: u64,
    /// Warm starts that installed and survived.
    pub warm_hits: u64,
    /// Warm starts that fell back to a cold solve.
    pub warm_fallbacks: u64,
    /// Solves with no usable cached basis.
    pub cold_starts: u64,
    /// Simplex pivots performed.
    pub pivots: u64,
    /// Basis refactorizations performed.
    pub refactorizations: u64,
}

/// One `flight_dump` header from the decision flight recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Slot the trigger fired at.
    pub slot: u64,
    /// What tripped the dump (`slo`, `drift`, `crash`, `manual`).
    pub trigger: String,
    /// Snapshots in the dump.
    pub snapshots: u64,
}

/// One `stall_shard` event: a shard's run-total wall-time split under
/// the epoch/actor runtime — time executing leased slots, time handling
/// mailbox commands, and time idle waiting for the next lease (the
/// watermark).
#[derive(Debug, Clone, PartialEq)]
pub struct StallShard {
    /// The shard.
    pub shard: u64,
    /// Total time executing leased slots (ms).
    pub work_ms: f64,
    /// Total time handling mailbox commands — injections, station
    /// extract/absorb (ms).
    pub mailbox_ms: f64,
    /// Total time idle waiting for the watermark to extend the lease
    /// (ms).
    pub watermark_ms: f64,
}

/// The `stall_driver` event: the driver's run-total phase split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallDriver {
    /// Wall time of the serve loop (ms).
    pub wall_ms: f64,
    /// Time spent routing/injecting arrivals (ms).
    pub dispatch_ms: f64,
    /// Time spent detecting faults and restarting workers (ms).
    pub recovery_ms: f64,
    /// Time spent granting leases and folding tick reports at the
    /// watermark (ms).
    pub fold_ms: f64,
    /// Slots the loop ran.
    pub slots: u64,
}

/// Final per-arm learner state (from the last `arm_state` sweep).
#[derive(Debug, Clone, PartialEq)]
pub struct ArmRow {
    /// Arm index.
    pub arm: u64,
    /// Threshold value in MHz.
    pub value_mhz: f64,
    /// Times pulled.
    pub pulls: u64,
    /// Empirical mean reward.
    pub mean: f64,
    /// Upper confidence bound.
    pub ucb: f64,
    /// Lower confidence bound.
    pub lcb: f64,
    /// Still active?
    pub active: bool,
}

/// Everything the report extracted from the trace.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Total events read.
    pub events: u64,
    /// `run_start` attributes (shards, policy, seed, ...), rendered as-is.
    pub run_start: BTreeMap<String, String>,
    /// `run_end` attributes (admitted, completed, ...), rendered as-is.
    pub run_end: BTreeMap<String, String>,
    /// Admission funnel totals summed over per-slot `admission` events.
    pub funnel: BTreeMap<&'static str, u64>,
    /// Placement totals summed over per-slot `placement` events.
    pub placement: BTreeMap<&'static str, u64>,
    /// Completed installs: total count and warm count.
    pub installs: (u64, u64),
    /// Install-latency distribution (slots) from `install` events.
    pub install_latency: Option<HistogramSnapshot>,
    /// Reconfiguration timeline: `reconfig` and `handoff` events in
    /// stream order.
    pub reconfigs: Vec<Reconfig>,
    /// Every arm elimination, in stream order.
    pub eliminations: Vec<Elimination>,
    /// Every restart, in stream order.
    pub restarts: Vec<Restart>,
    /// `fault_injected` events as `(slot, shard, kind)`.
    pub faults_injected: Vec<(u64, u64, String)>,
    /// `fault_detected` events as `(slot, shard, reason)`.
    pub faults_detected: Vec<(u64, u64, String)>,
    /// `checkpoint_write` totals: (writes, framed bytes).
    pub checkpoint_writes: (u64, u64),
    /// Every `journal_salvage` event, in stream order.
    pub salvages: Vec<Salvage>,
    /// `disk_fallback` events as `(slot, shard)`.
    pub disk_fallbacks: Vec<(u64, u64)>,
    /// Every injected `disk_fault` event, in stream order.
    pub disk_faults: Vec<DiskFault>,
    /// `disk_error` events as `(slot, shard, op)` (shard -1 = store-wide).
    pub disk_errors: Vec<(u64, i64, String)>,
    /// Per-shard latency distribution from `served` events.
    pub latency: BTreeMap<u64, HistogramSnapshot>,
    /// Final per-shard arm table (last `arm_state` sweep wins).
    pub arms: BTreeMap<u64, BTreeMap<u64, ArmRow>>,
    /// Per-shard slot of the last `arm_state` sweep seen.
    pub arms_as_of: BTreeMap<u64, u64>,
    /// SLO breach/recovery transitions, in stream order.
    pub slo_events: Vec<SloEvent>,
    /// Per-shard wall-time splits from `stall_shard` events.
    pub stall_shards: Vec<StallShard>,
    /// The driver's wall-time split, when traced with `--stall-events`.
    pub stall_driver: Option<StallDriver>,
    /// Trace events dropped to ring saturation (from `trace_drops`).
    pub trace_dropped: u64,
    /// Lifecycle records dropped to ring saturation (from
    /// `lifecycle_drops`).
    pub lifecycle_dropped: u64,
    /// Arm-lifecycle event counts by kind (`activate`, `sample`, ...),
    /// from `arm_lifecycle` events.
    pub arm_lifecycle: BTreeMap<String, u64>,
    /// Learner-probe events dropped at the policy buffer (from
    /// `arm_lifecycle_drops`).
    pub arm_lifecycle_dropped: u64,
    /// Drift suspected/cleared transitions, in stream order.
    pub drift_events: Vec<DriftEvent>,
    /// Final per-shard regret accounting (last `learning_state` wins).
    pub learning: BTreeMap<u64, LearningState>,
    /// Final per-shard LP introspection (last `lp_state` wins).
    pub lp: BTreeMap<u64, LpState>,
    /// Flight-recorder dump headers, in stream order.
    pub flight_dumps: Vec<FlightDump>,
}

fn get_u64(m: &BTreeMap<String, JsonValue>, key: &str) -> u64 {
    m.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn get_f64(m: &BTreeMap<String, JsonValue>, key: &str) -> f64 {
    m.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

fn get_str(m: &BTreeMap<String, JsonValue>, key: &str) -> String {
    m.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or("")
        .to_string()
}

/// Renders one parsed object's non-(slot, kind) fields for the header
/// sections, deterministically (keys sorted).
fn render_attrs(m: &BTreeMap<String, JsonValue>) -> BTreeMap<String, String> {
    m.iter()
        .filter(|(k, _)| k.as_str() != "slot" && k.as_str() != "kind")
        .map(|(k, v)| {
            let rendered = match v {
                JsonValue::Str(s) => s.clone(),
                JsonValue::Num(n) => {
                    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                        format!("{}", *n as i64)
                    } else {
                        format!("{n}")
                    }
                }
                JsonValue::Bool(b) => b.to_string(),
                JsonValue::Null => "null".to_string(),
                // parse_flat_object never produces these.
                JsonValue::Arr(_) | JsonValue::Obj(_) => "<nested>".to_string(),
            };
            (k.clone(), rendered)
        })
        .collect()
}

/// Folds trace lines into a [`RunReport`]. Blank lines are skipped;
/// unknown event kinds are counted but otherwise ignored (forward
/// compatibility).
///
/// # Errors
///
/// Fails on the first malformed line, reporting its 1-based number.
pub fn build_report<I, S>(lines: I) -> Result<RunReport, (usize, ParseError)>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut r = RunReport::default();
    for (i, line) in lines.into_iter().enumerate() {
        let line = line.as_ref().trim();
        if line.is_empty() {
            continue;
        }
        let obj = parse_flat_object(line).map_err(|e| (i + 1, e))?;
        r.events += 1;
        let slot = get_u64(&obj, "slot");
        let shard = get_u64(&obj, "shard");
        match get_str(&obj, "kind").as_str() {
            "run_start" => r.run_start = render_attrs(&obj),
            "run_end" => r.run_end = render_attrs(&obj),
            "admission" => {
                for key in ["admitted", "buffered", "spilled", "shed", "shed_down"] {
                    *r.funnel.entry(key).or_insert(0) += get_u64(&obj, key);
                }
            }
            "placement" => {
                for key in ["hits", "misses", "redirects", "rehomed", "held", "shed"] {
                    *r.placement.entry(key).or_insert(0) += get_u64(&obj, key);
                }
            }
            "install" => {
                r.installs.0 += 1;
                if obj.get("warm") == Some(&JsonValue::Bool(true)) {
                    r.installs.1 += 1;
                }
                r.install_latency
                    .get_or_insert_with(|| HistogramSnapshot::empty(INSTALL_SLOT_BOUNDS))
                    .record(get_f64(&obj, "latency_slots"));
            }
            "reconfig" => r.reconfigs.push(Reconfig {
                slot,
                op: get_str(&obj, "op"),
                station: get_u64(&obj, "station"),
                takeover: -1,
                migrated: 0,
                bytes: 0,
            }),
            "handoff" => r.reconfigs.push(Reconfig {
                slot,
                op: "handoff".to_string(),
                station: get_u64(&obj, "station"),
                takeover: obj
                    .get("takeover")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(-1.0) as i64,
                migrated: get_u64(&obj, "migrated"),
                bytes: get_u64(&obj, "bytes"),
            }),
            "checkpoint_write" => {
                r.checkpoint_writes.0 += 1;
                r.checkpoint_writes.1 += get_u64(&obj, "bytes");
            }
            "journal_salvage" => r.salvages.push(Salvage {
                slot,
                shard,
                corrupt_records: get_u64(&obj, "corrupt_records"),
                salvaged_bytes: get_u64(&obj, "salvaged_bytes"),
                retries: get_u64(&obj, "retries"),
                checkpoint_fallbacks: get_u64(&obj, "checkpoint_fallbacks"),
            }),
            "disk_fallback" => r.disk_fallbacks.push((slot, shard)),
            "disk_fault" => r.disk_faults.push(DiskFault {
                slot,
                shard,
                target: get_str(&obj, "target"),
                kind: get_str(&obj, "fault"),
                bytes: get_u64(&obj, "bytes"),
            }),
            "disk_error" => r.disk_errors.push((
                slot,
                obj.get("shard").and_then(JsonValue::as_f64).unwrap_or(-1.0) as i64,
                get_str(&obj, "op"),
            )),
            "arm_eliminated" => r.eliminations.push(Elimination {
                slot,
                shard,
                arm: get_u64(&obj, "arm"),
                value_mhz: get_f64(&obj, "value_mhz"),
                active_left: get_u64(&obj, "active_left"),
            }),
            "restart" => r.restarts.push(Restart {
                slot,
                shard,
                replayed: get_u64(&obj, "replayed"),
                latency_slots: get_u64(&obj, "latency_slots"),
                ok: obj.get("ok") == Some(&JsonValue::Bool(true)),
            }),
            "fault_injected" => r
                .faults_injected
                .push((slot, shard, get_str(&obj, "fault"))),
            "fault_detected" => r
                .faults_detected
                .push((slot, shard, get_str(&obj, "reason"))),
            "served" => {
                r.latency
                    .entry(shard)
                    .or_insert_with(|| HistogramSnapshot::empty(LATENCY_MS_BOUNDS))
                    .record(get_f64(&obj, "lat_ms"));
            }
            kind @ ("slo_breach" | "slo_recovered") => r.slo_events.push(SloEvent {
                slot,
                spec: get_str(&obj, "slo"),
                breached: kind == "slo_breach",
                value: get_f64(&obj, "value"),
                burn_fast: get_f64(&obj, "burn_fast"),
                burn_slow: get_f64(&obj, "burn_slow"),
            }),
            "stall_shard" => r.stall_shards.push(StallShard {
                shard,
                work_ms: get_f64(&obj, "work_ms"),
                mailbox_ms: get_f64(&obj, "mailbox_ms"),
                watermark_ms: get_f64(&obj, "watermark_ms"),
            }),
            "stall_driver" => {
                r.stall_driver = Some(StallDriver {
                    wall_ms: get_f64(&obj, "wall_ms"),
                    dispatch_ms: get_f64(&obj, "dispatch_ms"),
                    recovery_ms: get_f64(&obj, "recovery_ms"),
                    fold_ms: get_f64(&obj, "fold_ms"),
                    slots: get_u64(&obj, "slots"),
                });
            }
            "trace_drops" => r.trace_dropped += get_u64(&obj, "count"),
            "lifecycle_drops" => r.lifecycle_dropped += get_u64(&obj, "count"),
            "arm_lifecycle" => {
                *r.arm_lifecycle.entry(get_str(&obj, "event")).or_insert(0) += 1;
            }
            "arm_lifecycle_drops" => r.arm_lifecycle_dropped += get_u64(&obj, "count"),
            kind @ ("drift_suspected" | "drift_cleared") => r.drift_events.push(DriftEvent {
                slot,
                shard,
                arm: get_u64(&obj, "arm"),
                mean: get_f64(&obj, "mean"),
                score: get_f64(&obj, "score"),
                suspected: kind == "drift_suspected",
            }),
            "learning_state" => {
                r.learning.insert(
                    shard,
                    LearningState {
                        slot,
                        cum_reward: get_f64(&obj, "cum_reward"),
                        oracle: get_f64(&obj, "oracle"),
                        regret: get_f64(&obj, "regret"),
                        steps: get_u64(&obj, "steps"),
                    },
                );
            }
            "lp_state" => {
                r.lp.insert(
                    shard,
                    LpState {
                        slot,
                        solves: get_u64(&obj, "solves"),
                        warm_hits: get_u64(&obj, "warm_hits"),
                        warm_fallbacks: get_u64(&obj, "warm_fallbacks"),
                        cold_starts: get_u64(&obj, "cold_starts"),
                        pivots: get_u64(&obj, "pivots"),
                        refactorizations: get_u64(&obj, "refactorizations"),
                    },
                );
            }
            "flight_dump" => r.flight_dumps.push(FlightDump {
                slot,
                trigger: get_str(&obj, "trigger"),
                snapshots: get_u64(&obj, "snapshots"),
            }),
            "arm_state" => {
                let arm = get_u64(&obj, "arm");
                // A new sweep (later slot) replaces the previous table.
                let as_of = r.arms_as_of.entry(shard).or_insert(slot);
                if *as_of != slot {
                    *as_of = slot;
                    r.arms.insert(shard, BTreeMap::new());
                }
                r.arms.entry(shard).or_default().insert(
                    arm,
                    ArmRow {
                        arm,
                        value_mhz: get_f64(&obj, "value_mhz"),
                        pulls: get_u64(&obj, "pulls"),
                        mean: get_f64(&obj, "mean"),
                        ucb: get_f64(&obj, "ucb"),
                        lcb: get_f64(&obj, "lcb"),
                        active: obj.get("active") == Some(&JsonValue::Bool(true)),
                    },
                );
            }
            _ => {}
        }
    }
    Ok(r)
}

fn section(out: &mut String, title: &str) {
    let _ = writeln!(out, "\n== {title} ==");
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

impl RunReport {
    /// Renders the report as plain text.
    #[allow(clippy::too_many_lines)]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "mec-obs report ({} events)", self.events);
        if self.trace_dropped > 0 {
            let _ = writeln!(
                out,
                "WARNING: trace ring saturated — {} event(s) dropped; \
                 this report may be incomplete (raise the ring capacity)",
                self.trace_dropped
            );
        }
        if self.lifecycle_dropped > 0 {
            let _ = writeln!(
                out,
                "WARNING: lifecycle ring saturated — {} record(s) dropped; \
                 request journeys may have gaps (raise the lifecycle ring capacity)",
                self.lifecycle_dropped
            );
        }

        if !self.run_start.is_empty() {
            section(&mut out, "run");
            for (k, v) in &self.run_start {
                let _ = writeln!(out, "  {k}: {v}");
            }
        }
        if !self.run_end.is_empty() {
            section(&mut out, "outcome");
            for (k, v) in &self.run_end {
                let _ = writeln!(out, "  {k}: {v}");
            }
        }

        section(&mut out, "admission funnel");
        if self.funnel.values().all(|&v| v == 0) {
            let _ = writeln!(out, "  (no admission events traced)");
        } else {
            let total: u64 = self.funnel.values().sum();
            let _ = writeln!(out, "  offered: {total}");
            for key in ["admitted", "buffered", "spilled", "shed", "shed_down"] {
                let v = self.funnel.get(key).copied().unwrap_or(0);
                let pct = if total > 0 {
                    100.0 * v as f64 / total as f64
                } else {
                    0.0
                };
                let _ = writeln!(out, "  {key:>9}: {v} ({pct:.1}%)");
            }
        }

        if !self.slo_events.is_empty() {
            section(&mut out, "slo");
            for e in &self.slo_events {
                let verdict = if e.breached { "BREACHED" } else { "recovered" };
                let _ = writeln!(
                    out,
                    "  slot {:>6}  {} {verdict} (value {:.4}, burn fast {:.2} / slow {:.2})",
                    e.slot, e.spec, e.value, e.burn_fast, e.burn_slow
                );
            }
            // Final state per spec: the last transition wins.
            let mut last: BTreeMap<&str, &SloEvent> = BTreeMap::new();
            for e in &self.slo_events {
                last.insert(e.spec.as_str(), e);
            }
            for (spec, e) in &last {
                let state = if e.breached {
                    "still breached at end of trace"
                } else {
                    "healthy at end of trace"
                };
                let _ = writeln!(out, "  {spec}: {state}");
            }
        }

        let placement_active = self.placement.values().any(|&v| v > 0)
            || self.installs.0 > 0
            || !self.reconfigs.is_empty();
        if placement_active {
            section(&mut out, "placement");
            for key in ["hits", "misses", "redirects", "rehomed", "held", "shed"] {
                let v = self.placement.get(key).copied().unwrap_or(0);
                let _ = writeln!(out, "  {key:>9}: {v}");
            }
            let (total, warm) = self.installs;
            let _ = writeln!(out, "   installs: {total} ({warm} warm)");
            if let Some(hist) = &self.install_latency {
                let _ = writeln!(
                    out,
                    "  install latency (slots): n={} mean={:.1} p50~{:.1} p95~{:.1}",
                    hist.count,
                    if hist.count > 0 {
                        hist.sum / hist.count as f64
                    } else {
                        0.0
                    },
                    hist.quantile(0.50),
                    hist.quantile(0.95),
                );
            }
            if !self.reconfigs.is_empty() {
                let _ = writeln!(out, "  reconfiguration timeline:");
                for r in &self.reconfigs {
                    if r.op == "handoff" {
                        let takeover = if r.takeover < 0 {
                            "nobody".to_string()
                        } else {
                            format!("station {}", r.takeover)
                        };
                        let _ = writeln!(
                            out,
                            "    slot {:>6}  station {} handed off to {takeover} \
                             ({} journal entr(ies) migrated)",
                            r.slot, r.station, r.migrated
                        );
                    } else {
                        let _ = writeln!(
                            out,
                            "    slot {:>6}  {} station {}",
                            r.slot, r.op, r.station
                        );
                    }
                }
            }
        }

        section(&mut out, "arm-elimination timeline");
        if self.eliminations.is_empty() {
            let _ = writeln!(out, "  (no eliminations recorded)");
        } else {
            for e in &self.eliminations {
                let _ = writeln!(
                    out,
                    "  slot {:>6}  shard {}  arm {} ({:.1} MHz) eliminated, {} active left",
                    e.slot, e.shard, e.arm, e.value_mhz, e.active_left
                );
            }
        }

        let learning_active = !self.arm_lifecycle.is_empty()
            || !self.drift_events.is_empty()
            || !self.learning.is_empty()
            || !self.lp.is_empty()
            || !self.flight_dumps.is_empty()
            || self.arm_lifecycle_dropped > 0;
        if learning_active {
            section(&mut out, "learning");
            if !self.arm_lifecycle.is_empty() {
                let total: u64 = self.arm_lifecycle.values().sum();
                let _ = writeln!(out, "  arm-lifecycle events: {total}");
                for kind in [
                    "activate",
                    "sample",
                    "bound_update",
                    "eliminate",
                    "reactivate",
                ] {
                    if let Some(&n) = self.arm_lifecycle.get(kind) {
                        let _ = writeln!(out, "    {kind:>12}: {n}");
                    }
                }
                for (kind, n) in &self.arm_lifecycle {
                    if !matches!(
                        kind.as_str(),
                        "activate" | "sample" | "bound_update" | "eliminate" | "reactivate"
                    ) {
                        let _ = writeln!(out, "    {kind:>12}: {n}");
                    }
                }
            }
            if self.arm_lifecycle_dropped > 0 {
                let _ = writeln!(
                    out,
                    "  WARNING: learner probe buffer saturated — {} event(s) dropped \
                     before the driver drained them",
                    self.arm_lifecycle_dropped
                );
            }
            for (shard, l) in &self.learning {
                let _ = writeln!(
                    out,
                    "  shard {shard} regret (as of slot {}): {:.4} \
                     (realized {:.4} vs oracle {:.4} over {} step(s))",
                    l.slot, l.regret, l.cum_reward, l.oracle, l.steps
                );
            }
            for (shard, lp) in &self.lp {
                let warm_pct = pct(lp.warm_hits as f64, lp.solves as f64);
                let _ = writeln!(
                    out,
                    "  shard {shard} slot-lp (as of slot {}): {} solve(s), \
                     {} warm hit(s) ({warm_pct:.1}%), {} fallback(s), {} cold, \
                     {} pivot(s), {} refactorization(s)",
                    lp.slot,
                    lp.solves,
                    lp.warm_hits,
                    lp.warm_fallbacks,
                    lp.cold_starts,
                    lp.pivots,
                    lp.refactorizations
                );
            }
            if !self.drift_events.is_empty() {
                let _ = writeln!(out, "  drift timeline:");
                for d in &self.drift_events {
                    let verdict = if d.suspected { "SUSPECTED" } else { "cleared" };
                    let _ = writeln!(
                        out,
                        "    slot {:>6}  shard {}  arm {} drift {verdict} \
                         (mean {:.4}, score {:.3})",
                        d.slot, d.shard, d.arm, d.mean, d.score
                    );
                }
            }
            for f in &self.flight_dumps {
                let _ = writeln!(
                    out,
                    "  slot {:>6}  flight recorder dumped {} snapshot(s) \
                     (trigger: {})",
                    f.slot, f.snapshots, f.trigger
                );
            }
        }

        if !self.faults_injected.is_empty()
            || !self.faults_detected.is_empty()
            || !self.restarts.is_empty()
        {
            section(&mut out, "faults and recovery");
            for (slot, shard, kind) in &self.faults_injected {
                let _ = writeln!(out, "  slot {slot:>6}  shard {shard}  injected: {kind}");
            }
            for (slot, shard, reason) in &self.faults_detected {
                let _ = writeln!(out, "  slot {slot:>6}  shard {shard}  detected: {reason}");
            }
            for r in &self.restarts {
                let verdict = if r.ok { "recovered" } else { "failed" };
                let _ = writeln!(
                    out,
                    "  slot {:>6}  shard {}  restart {verdict}: {} arrival(s) replayed, \
                     outage {} slot(s)",
                    r.slot, r.shard, r.replayed, r.latency_slots
                );
            }
        }

        let handoffs: Vec<&Reconfig> = self
            .reconfigs
            .iter()
            .filter(|r| r.op == "handoff")
            .collect();
        let recovery_active = self.checkpoint_writes.0 > 0
            || !self.salvages.is_empty()
            || !self.disk_fallbacks.is_empty()
            || !self.disk_faults.is_empty()
            || !self.disk_errors.is_empty()
            || !self.restarts.is_empty()
            || handoffs.iter().any(|h| h.bytes > 0);
        if recovery_active {
            section(&mut out, "recovery");
            let (writes, bytes) = self.checkpoint_writes;
            if writes > 0 {
                let _ = writeln!(
                    out,
                    "  checkpoints mirrored: {writes} ({bytes} bytes, mean {:.0})",
                    bytes as f64 / writes as f64
                );
            }
            let ok: Vec<&Restart> = self.restarts.iter().filter(|r| r.ok).collect();
            if !ok.is_empty() {
                let total: u64 = ok.iter().map(|r| r.latency_slots).sum();
                let max = ok.iter().map(|r| r.latency_slots).max().unwrap_or(0);
                let _ = writeln!(
                    out,
                    "  restores: {} (outage mean {:.1} slot(s), max {max})",
                    ok.len(),
                    total as f64 / ok.len() as f64
                );
            }
            for f in &self.disk_faults {
                let _ = writeln!(
                    out,
                    "  slot {:>6}  shard {}  injected disk fault: {} {} ({} byte(s))",
                    f.slot, f.shard, f.kind, f.target, f.bytes
                );
            }
            for s in &self.salvages {
                let _ = writeln!(
                    out,
                    "  slot {:>6}  shard {}  salvage: {} corrupt record(s), \
                     {} byte(s) truncated, {} retr(ies), {} checkpoint fallback(s)",
                    s.slot,
                    s.shard,
                    s.corrupt_records,
                    s.salvaged_bytes,
                    s.retries,
                    s.checkpoint_fallbacks
                );
            }
            for (slot, shard) in &self.disk_fallbacks {
                let _ = writeln!(
                    out,
                    "  slot {slot:>6}  shard {shard}  disk mirror distrusted; \
                     recovered from memory and healed"
                );
            }
            for (slot, shard, op) in &self.disk_errors {
                let who = if *shard < 0 {
                    "store".to_string()
                } else {
                    format!("shard {shard}")
                };
                let _ = writeln!(out, "  slot {slot:>6}  {who}  disk {op} error absorbed");
            }
            if handoffs.iter().any(|h| h.bytes > 0) {
                let _ = writeln!(out, "  per-handoff moved state:");
                for h in &handoffs {
                    let _ = writeln!(
                        out,
                        "    slot {:>6}  station {}: {} job(s), {} byte(s)",
                        h.slot, h.station, h.migrated, h.bytes
                    );
                }
            }
        }

        if !self.stall_shards.is_empty() || self.stall_driver.is_some() {
            section(&mut out, "barrier-stall attribution");
            let wall = self.stall_driver.map_or(0.0, |d| d.wall_ms);
            if let Some(d) = &self.stall_driver {
                let _ = writeln!(
                    out,
                    "  driver wall {:.1} ms over {} slot(s): dispatch {:.1} ms ({:.1}%), \
                     recovery {:.1} ms ({:.1}%), watermark fold {:.1} ms ({:.1}%)",
                    d.wall_ms,
                    d.slots,
                    d.dispatch_ms,
                    pct(d.dispatch_ms, wall),
                    d.recovery_ms,
                    pct(d.recovery_ms, wall),
                    d.fold_ms,
                    pct(d.fold_ms, wall),
                );
            }
            let mut work_shares = Vec::new();
            let mut wait_shares = Vec::new();
            for s in &self.stall_shards {
                let total = s.work_ms + s.mailbox_ms + s.watermark_ms;
                let denom = if wall > 0.0 { wall } else { total };
                work_shares.push(pct(s.work_ms, denom));
                wait_shares.push(pct(s.watermark_ms, denom));
                let _ = writeln!(
                    out,
                    "  shard {}: work {:.1} ms ({:.1}%) + mailbox {:.1} ms ({:.1}%) \
                     + watermark-wait {:.1} ms ({:.1}%) = {:.1} ms ({:.1}% of wall)",
                    s.shard,
                    s.work_ms,
                    pct(s.work_ms, denom),
                    s.mailbox_ms,
                    pct(s.mailbox_ms, denom),
                    s.watermark_ms,
                    pct(s.watermark_ms, denom),
                    total,
                    pct(total, denom),
                );
            }
            if !work_shares.is_empty() {
                let mean = work_shares.iter().sum::<f64>() / work_shares.len() as f64;
                let wait = wait_shares.iter().sum::<f64>() / wait_shares.len() as f64;
                let _ = writeln!(
                    out,
                    "  mean shard work share: {mean:.1}%; mean watermark-wait share: \
                     {wait:.1}% — watermark waits are where a lease span too short \
                     (or a straggler shard) caps scaling"
                );
            }
        }

        if !self.latency.is_empty() {
            section(&mut out, "per-shard latency (ms, from served events)");
            for (shard, hist) in &self.latency {
                let _ = writeln!(
                    out,
                    "  shard {shard}: n={} mean={:.1} p50~{:.1} p95~{:.1} p99~{:.1}",
                    hist.count,
                    if hist.count > 0 {
                        hist.sum / hist.count as f64
                    } else {
                        0.0
                    },
                    hist.quantile(0.50),
                    hist.quantile(0.95),
                    hist.quantile(0.99),
                );
                let peak = hist.counts.iter().copied().max().unwrap_or(0).max(1);
                for (i, &c) in hist.counts.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    let le = hist
                        .bounds
                        .get(i)
                        .map_or_else(|| "+Inf".to_string(), |b| format!("{b}"));
                    let bar = "#".repeat((1 + c * 40 / peak) as usize);
                    let _ = writeln!(out, "    le {le:>6}: {c:>7} {bar}");
                }
            }
        }

        if !self.arms.is_empty() {
            section(&mut out, "final bandit state");
            for (shard, arms) in &self.arms {
                let as_of = self.arms_as_of.get(shard).copied().unwrap_or(0);
                let _ = writeln!(out, "  shard {shard} (as of slot {as_of}):");
                let _ = writeln!(
                    out,
                    "    {:>3} {:>9} {:>7} {:>7} {:>7} {:>7}  state",
                    "arm", "mhz", "pulls", "mean", "lcb", "ucb"
                );
                for row in arms.values() {
                    let state = if row.active { "active" } else { "eliminated" };
                    let _ = writeln!(
                        out,
                        "    {:>3} {:>9.1} {:>7} {:>7.3} {:>7.3} {:>7.3}  {state}",
                        row.arm, row.value_mhz, row.pulls, row.mean, row.lcb, row.ucb
                    );
                }
            }
        }
        out
    }
}

/// Summary of a `--lifecycle-out` request-journey stream.
#[derive(Debug, Default)]
pub struct LifecycleReport {
    /// Records read.
    pub records: u64,
    /// Distinct request ids seen.
    pub requests: u64,
    /// Records per stage name, sorted.
    pub stages: BTreeMap<String, u64>,
    /// Slot range covered (first, last).
    pub slots: Option<(u64, u64)>,
}

/// Does this line look like a lifecycle record? (`id` and `stage`
/// fields, no `kind` — trace events always carry `kind`.)
pub fn sniff_lifecycle(first_line: &str) -> bool {
    parse_flat_object(first_line.trim()).is_ok_and(|obj| {
        obj.contains_key("id") && obj.contains_key("stage") && !obj.contains_key("kind")
    })
}

/// Folds a lifecycle JSONL stream into a [`LifecycleReport`]. Blank
/// lines are skipped.
///
/// # Errors
///
/// Fails on the first malformed line, reporting its 1-based number —
/// callers salvage a torn tail exactly like they do for traces.
pub fn build_lifecycle_report<I, S>(lines: I) -> Result<LifecycleReport, (usize, ParseError)>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut r = LifecycleReport::default();
    let mut ids = std::collections::BTreeSet::new();
    for (i, line) in lines.into_iter().enumerate() {
        let line = line.as_ref().trim();
        if line.is_empty() {
            continue;
        }
        let obj = parse_flat_object(line).map_err(|e| (i + 1, e))?;
        r.records += 1;
        ids.insert(get_u64(&obj, "id"));
        *r.stages.entry(get_str(&obj, "stage")).or_insert(0) += 1;
        let slot = get_u64(&obj, "slot");
        r.slots = Some(match r.slots {
            None => (slot, slot),
            Some((lo, hi)) => (lo.min(slot), hi.max(slot)),
        });
    }
    r.requests = ids.len() as u64;
    Ok(r)
}

impl LifecycleReport {
    /// Renders the summary as plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "mec-obs lifecycle report ({} record(s), {} request(s))",
            self.records, self.requests
        );
        if let Some((lo, hi)) = self.slots {
            let _ = writeln!(out, "  slots {lo}..={hi}");
        }
        for (stage, n) in &self.stages {
            let _ = writeln!(out, "  {stage:>9}: {n}");
        }
        out
    }
}

/// One dump block inside a flight-recorder stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDumpBlock {
    /// The header (trigger, slot, advertised snapshot count).
    pub header: FlightDump,
    /// Snapshot lines actually present under this header.
    pub snapshots: u64,
    /// Slot range the snapshots cover.
    pub slots: Option<(u64, u64)>,
    /// Distinct shards contributing snapshots.
    pub shards: u64,
}

/// Summary of a `--flight-out` decision flight-recorder stream.
#[derive(Debug, Default)]
pub struct FlightStreamReport {
    /// Lines read.
    pub events: u64,
    /// The dump blocks, in stream order.
    pub dumps: Vec<FlightDumpBlock>,
}

/// Does this line look like a flight-recorder stream? (First event is
/// always a `flight_dump` header; a bare `flight` line means a torn
/// stream, still recognizably flight data.)
pub fn sniff_flight(first_line: &str) -> bool {
    parse_flat_object(first_line.trim())
        .is_ok_and(|obj| matches!(get_str(&obj, "kind").as_str(), "flight_dump" | "flight"))
}

/// Folds a flight-recorder JSONL stream into a [`FlightStreamReport`].
///
/// # Errors
///
/// Fails on the first malformed line, reporting its 1-based number —
/// callers salvage a torn tail exactly like they do for traces.
pub fn build_flight_report<I, S>(lines: I) -> Result<FlightStreamReport, (usize, ParseError)>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut r = FlightStreamReport::default();
    let mut shards = std::collections::BTreeSet::new();
    for (i, line) in lines.into_iter().enumerate() {
        let line = line.as_ref().trim();
        if line.is_empty() {
            continue;
        }
        let obj = parse_flat_object(line).map_err(|e| (i + 1, e))?;
        r.events += 1;
        let slot = get_u64(&obj, "slot");
        match get_str(&obj, "kind").as_str() {
            "flight_dump" => {
                if let Some(last) = r.dumps.last_mut() {
                    last.shards = shards.len() as u64;
                }
                shards.clear();
                r.dumps.push(FlightDumpBlock {
                    header: FlightDump {
                        slot,
                        trigger: get_str(&obj, "trigger"),
                        snapshots: get_u64(&obj, "snapshots"),
                    },
                    snapshots: 0,
                    slots: None,
                    shards: 0,
                });
            }
            "flight" => {
                shards.insert(get_u64(&obj, "shard"));
                if let Some(dump) = r.dumps.last_mut() {
                    dump.snapshots += 1;
                    dump.slots = Some(match dump.slots {
                        None => (slot, slot),
                        Some((lo, hi)) => (lo.min(slot), hi.max(slot)),
                    });
                    dump.shards = shards.len() as u64;
                }
            }
            _ => {}
        }
    }
    Ok(r)
}

impl FlightStreamReport {
    /// Renders the summary as plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "mec-obs flight report ({} dump(s), {} line(s))",
            self.dumps.len(),
            self.events
        );
        for d in &self.dumps {
            let range = d.slots.map_or_else(
                || "no snapshots".to_string(),
                |(lo, hi)| format!("slots {lo}..={hi}"),
            );
            let _ = writeln!(
                out,
                "  slot {:>6}  trigger {}: {} snapshot(s) over {} shard(s), {range}",
                d.header.slot, d.header.trigger, d.snapshots, d.shards
            );
            if d.snapshots != d.header.snapshots {
                let _ = writeln!(
                    out,
                    "    WARNING: header advertised {} snapshot(s) but {} present \
                     (torn dump?)",
                    d.header.snapshots, d.snapshots
                );
            }
            if let Some((_, hi)) = d.slots {
                if hi != d.header.slot {
                    let _ = writeln!(
                        out,
                        "    note: last snapshot slot {hi} != trigger slot {} \
                         (shards may have lagged the trigger)",
                        d.header.slot
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &[&str] = &[
        r#"{"slot":0,"kind":"run_start","shards":2,"policy":"DynamicRR","seed":7}"#,
        r#"{"slot":3,"kind":"admission","admitted":10,"buffered":0,"spilled":1,"shed":2,"shed_down":0}"#,
        r#"{"slot":4,"kind":"admission","admitted":5,"buffered":1,"spilled":0,"shed":0,"shed_down":3}"#,
        r#"{"slot":5,"kind":"fault_injected","shard":1,"fault":"crash"}"#,
        r#"{"slot":5,"kind":"fault_detected","shard":1,"reason":"disconnect"}"#,
        r#"{"slot":9,"kind":"restart","shard":1,"replayed":12,"latency_slots":4,"ok":true}"#,
        r#"{"slot":10,"kind":"served","shard":0,"lat_ms":42.0}"#,
        r#"{"slot":11,"kind":"served","shard":0,"lat_ms":180.0}"#,
        r#"{"slot":12,"kind":"arm_eliminated","shard":0,"arm":8,"value_mhz":1000.0,"active_left":8}"#,
        r#"{"slot":20,"kind":"arm_state","shard":0,"arm":0,"value_mhz":100.0,"pulls":9,"mean":0.5,"ucb":0.9,"lcb":0.1,"active":true}"#,
        r#"{"slot":40,"kind":"arm_state","shard":0,"arm":0,"value_mhz":100.0,"pulls":19,"mean":0.6,"ucb":0.8,"lcb":0.4,"active":true}"#,
        r#"{"slot":40,"kind":"arm_state","shard":0,"arm":8,"value_mhz":1000.0,"pulls":4,"mean":0.1,"ucb":0.5,"lcb":-0.3,"active":false}"#,
        r#"{"slot":99,"kind":"run_end","admitted":15,"shed":2,"completed":14}"#,
    ];

    #[test]
    fn builds_and_renders_all_sections() {
        let report = build_report(SAMPLE.iter().copied()).unwrap();
        assert_eq!(report.events, 13);
        assert_eq!(report.funnel["admitted"], 15);
        assert_eq!(report.funnel["shed_down"], 3);
        assert_eq!(report.eliminations.len(), 1);
        assert_eq!(report.restarts[0].replayed, 12);
        assert_eq!(report.latency[&0].count, 2);
        // The slot-40 sweep replaced the slot-20 one.
        assert_eq!(report.arms[&0][&0].pulls, 19);
        assert_eq!(report.arms_as_of[&0], 40);

        let text = report.render();
        assert!(text.contains("arm-elimination timeline"), "{text}");
        assert!(
            text.contains("arm 8 (1000.0 MHz) eliminated, 8 active left"),
            "{text}"
        );
        assert!(text.contains("admission funnel"), "{text}");
        assert!(
            text.contains("restart recovered: 12 arrival(s) replayed"),
            "{text}"
        );
        assert!(text.contains("final bandit state"), "{text}");
        assert!(text.contains("eliminated"), "{text}");
    }

    #[test]
    fn placement_events_render_their_own_section() {
        let lines = [
            r#"{"slot":3,"kind":"placement","hits":4,"misses":6,"redirects":2,"rehomed":1,"held":3,"shed":0}"#,
            r#"{"slot":5,"kind":"placement","hits":6,"misses":1,"redirects":0,"rehomed":0,"held":0,"shed":1}"#,
            r#"{"slot":6,"kind":"install","station":2,"service":17,"warm":false,"latency_slots":4}"#,
            r#"{"slot":7,"kind":"install","station":2,"service":3,"warm":true,"latency_slots":2}"#,
            r#"{"slot":8,"kind":"reconfig","op":"drain","station":5}"#,
            r#"{"slot":12,"kind":"handoff","station":5,"takeover":9,"migrated":7,"leave":false}"#,
            r#"{"slot":20,"kind":"handoff","station":9,"takeover":-1,"migrated":0,"leave":true}"#,
        ];
        let report = build_report(lines.iter().copied()).unwrap();
        assert_eq!(report.placement["hits"], 10);
        assert_eq!(report.placement["misses"], 7);
        assert_eq!(report.installs, (2, 1));
        assert_eq!(report.install_latency.as_ref().unwrap().count, 2);
        assert_eq!(report.reconfigs.len(), 3);
        assert_eq!(report.reconfigs[1].takeover, 9);

        let text = report.render();
        assert!(text.contains("== placement =="), "{text}");
        assert!(text.contains("installs: 2 (1 warm)"), "{text}");
        assert!(text.contains("drain station 5"), "{text}");
        assert!(
            text.contains("station 5 handed off to station 9 (7 journal entr(ies) migrated)"),
            "{text}"
        );
        assert!(text.contains("station 9 handed off to nobody"), "{text}");
    }

    #[test]
    fn recovery_events_render_their_own_section() {
        let lines = [
            r#"{"slot":4,"kind":"checkpoint_write","shard":0,"bytes":900}"#,
            r#"{"slot":8,"kind":"checkpoint_write","shard":1,"bytes":1100}"#,
            r#"{"slot":10,"kind":"disk_fault","shard":1,"target":"journal","fault":"corrupt","bytes":16}"#,
            r#"{"slot":14,"kind":"journal_salvage","shard":1,"corrupt_records":2,"salvaged_bytes":64,"retries":1,"checkpoint_fallbacks":0}"#,
            r#"{"slot":14,"kind":"disk_fallback","shard":1}"#,
            r#"{"slot":14,"kind":"restart","shard":1,"replayed":30,"latency_slots":4,"ok":true}"#,
            r#"{"slot":15,"kind":"disk_error","shard":-1,"op":"flush","error":"boom"}"#,
            r#"{"slot":20,"kind":"handoff","station":5,"takeover":9,"migrated":7,"bytes":512,"leave":false}"#,
        ];
        let report = build_report(lines.iter().copied()).unwrap();
        assert_eq!(report.checkpoint_writes, (2, 2000));
        assert_eq!(report.salvages.len(), 1);
        assert_eq!(report.salvages[0].salvaged_bytes, 64);
        assert_eq!(report.disk_fallbacks, vec![(14, 1)]);
        assert_eq!(report.disk_errors, vec![(15, -1, "flush".to_string())]);
        assert_eq!(report.reconfigs[0].bytes, 512);

        let text = report.render();
        assert!(text.contains("== recovery =="), "{text}");
        assert!(
            text.contains("checkpoints mirrored: 2 (2000 bytes, mean 1000)"),
            "{text}"
        );
        assert!(
            text.contains("salvage: 2 corrupt record(s), 64 byte(s) truncated"),
            "{text}"
        );
        assert!(text.contains("disk mirror distrusted"), "{text}");
        assert!(text.contains("store  disk flush error absorbed"), "{text}");
        assert!(text.contains("station 5: 7 job(s), 512 byte(s)"), "{text}");
    }

    #[test]
    fn quiet_runs_omit_the_recovery_section() {
        let lines = [
            r#"{"slot":3,"kind":"admission","admitted":10,"buffered":0,"spilled":0,"shed":0,"shed_down":0}"#,
        ];
        let report = build_report(lines.iter().copied()).unwrap();
        assert!(!report.render().contains("== recovery =="));
    }

    #[test]
    fn quiet_runs_omit_the_placement_section() {
        let report = build_report(SAMPLE.iter().copied()).unwrap();
        assert!(!report.render().contains("== placement =="));
    }

    #[test]
    fn empty_trace_renders_placeholders() {
        let report = build_report(std::iter::empty::<&str>()).unwrap();
        let text = report.render();
        assert!(text.contains("(no eliminations recorded)"), "{text}");
        assert!(text.contains("(no admission events traced)"), "{text}");
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let err = build_report(["{}", "not json"].iter().copied()).unwrap_err();
        assert_eq!(err.0, 2);
    }

    #[test]
    fn slo_transitions_render_timeline_and_final_state() {
        let lines = [
            r#"{"slot":83,"kind":"slo_breach","slo":"deadline_hit_rate>=0.95@512","value":0.9120,"burn_fast":4.20,"burn_slow":1.30}"#,
            r#"{"slot":164,"kind":"slo_recovered","slo":"deadline_hit_rate>=0.95@512","value":0.9612,"burn_fast":0.40,"burn_slow":1.10}"#,
            r#"{"slot":190,"kind":"slo_breach","slo":"p99_latency<=250@512","value":310.0,"burn_fast":2.00,"burn_slow":1.50}"#,
        ];
        let report = build_report(lines.iter().copied()).unwrap();
        assert_eq!(report.slo_events.len(), 3);
        assert!(report.slo_events[0].breached);
        assert!(!report.slo_events[1].breached);

        let text = report.render();
        assert!(text.contains("== slo =="), "{text}");
        assert!(
            text.contains(
                "slot     83  deadline_hit_rate>=0.95@512 BREACHED \
                 (value 0.9120, burn fast 4.20 / slow 1.30)"
            ),
            "{text}"
        );
        assert!(
            text.contains("deadline_hit_rate>=0.95@512: healthy at end of trace"),
            "{text}"
        );
        assert!(
            text.contains("p99_latency<=250@512: still breached at end of trace"),
            "{text}"
        );
    }

    #[test]
    fn stall_events_render_barrier_attribution() {
        let lines = [
            r#"{"slot":250,"kind":"stall_shard","shard":0,"work_ms":2000.0,"mailbox_ms":500.0,"watermark_ms":7500.0}"#,
            r#"{"slot":250,"kind":"stall_shard","shard":1,"work_ms":4000.0,"mailbox_ms":0.0,"watermark_ms":6000.0}"#,
            r#"{"slot":250,"kind":"stall_driver","wall_ms":10000.0,"dispatch_ms":500.0,"recovery_ms":0.0,"fold_ms":9000.0,"slots":250}"#,
        ];
        let report = build_report(lines.iter().copied()).unwrap();
        assert_eq!(report.stall_shards.len(), 2);
        let d = report.stall_driver.unwrap();
        assert_eq!(d.slots, 250);
        assert_eq!(d.fold_ms, 9000.0);

        let text = report.render();
        assert!(text.contains("== barrier-stall attribution =="), "{text}");
        assert!(
            text.contains("driver wall 10000.0 ms over 250 slot(s)"),
            "{text}"
        );
        // Shard 0: 20% work + 5% mailbox + 75% watermark, 100% of wall.
        assert!(
            text.contains(
                "shard 0: work 2000.0 ms (20.0%) + mailbox 500.0 ms (5.0%) \
                 + watermark-wait 7500.0 ms (75.0%) = 10000.0 ms (100.0% of wall)"
            ),
            "{text}"
        );
        // Mean work share over the two shards: (20 + 40) / 2 = 30%.
        assert!(text.contains("mean shard work share: 30.0%"), "{text}");
        // Mean watermark-wait share: (75 + 60) / 2 = 67.5%.
        assert!(text.contains("mean watermark-wait share: 67.5%"), "{text}");
    }

    #[test]
    fn learning_events_render_their_own_section() {
        let lines = [
            r#"{"slot":1,"kind":"arm_lifecycle","shard":0,"arm":0,"event":"activate","pulls":0,"mean":0.0,"radius":null,"value_mhz":100.0}"#,
            r#"{"slot":5,"kind":"arm_lifecycle","shard":0,"arm":0,"event":"sample","pulls":3,"mean":0.5,"radius":0.4,"value_mhz":100.0}"#,
            r#"{"slot":5,"kind":"arm_lifecycle","shard":0,"arm":0,"event":"bound_update","pulls":3,"mean":0.5,"radius":0.4,"value_mhz":100.0}"#,
            r#"{"slot":9,"kind":"arm_lifecycle","shard":0,"arm":2,"event":"eliminate","pulls":4,"mean":0.1,"radius":0.3,"value_mhz":1000.0}"#,
            r#"{"slot":12,"kind":"drift_suspected","shard":0,"arm":1,"mean":0.3120,"score":2.145}"#,
            r#"{"slot":30,"kind":"drift_cleared","shard":0,"arm":1,"mean":0.7,"score":0.1}"#,
            r#"{"slot":40,"kind":"learning_state","shard":0,"cum_reward":22.5,"oracle":24.0,"regret":1.5,"steps":40}"#,
            r#"{"slot":40,"kind":"lp_state","shard":0,"solves":40,"warm_hits":36,"warm_fallbacks":2,"cold_starts":2,"pivots":120,"refactorizations":3}"#,
            r#"{"slot":41,"kind":"flight_dump","trigger":"drift","snapshots":12,"evicted":3}"#,
            r#"{"slot":50,"kind":"arm_lifecycle_drops","count":7}"#,
        ];
        let report = build_report(lines.iter().copied()).unwrap();
        assert_eq!(report.arm_lifecycle["sample"], 1);
        assert_eq!(report.arm_lifecycle["eliminate"], 1);
        assert_eq!(report.drift_events.len(), 2);
        assert!(report.drift_events[0].suspected);
        assert!(!report.drift_events[1].suspected);
        assert_eq!(report.learning[&0].steps, 40);
        assert_eq!(report.lp[&0].warm_hits, 36);
        assert_eq!(report.flight_dumps[0].trigger, "drift");
        assert_eq!(report.arm_lifecycle_dropped, 7);

        let text = report.render();
        assert!(text.contains("== learning =="), "{text}");
        assert!(text.contains("arm-lifecycle events: 4"), "{text}");
        assert!(
            text.contains("arm 1 drift SUSPECTED (mean 0.3120, score 2.145)"),
            "{text}"
        );
        assert!(
            text.contains("shard 0 regret (as of slot 40): 1.5000"),
            "{text}"
        );
        assert!(
            text.contains("40 solve(s), 36 warm hit(s) (90.0%), 2 fallback(s), 2 cold"),
            "{text}"
        );
        assert!(
            text.contains("flight recorder dumped 12 snapshot(s) (trigger: drift)"),
            "{text}"
        );
        assert!(
            text.contains("learner probe buffer saturated — 7 event(s) dropped"),
            "{text}"
        );
        // Quiet runs omit the section.
        let quiet = build_report(SAMPLE.iter().copied()).unwrap();
        assert!(!quiet.render().contains("== learning =="));
    }

    #[test]
    fn lifecycle_drops_warn_up_top() {
        let lines = [r#"{"slot":80,"kind":"lifecycle_drops","count":9}"#];
        let report = build_report(lines.iter().copied()).unwrap();
        assert_eq!(report.lifecycle_dropped, 9);
        let text = report.render();
        assert!(
            text.contains("WARNING: lifecycle ring saturated — 9 record(s) dropped"),
            "{text}"
        );
    }

    #[test]
    fn lifecycle_stream_builds_salvages_and_sniffs() {
        let lines = [
            r#"{"id":1,"stage":"admit","slot":0,"shard":-1,"bs":3}"#,
            r#"{"id":1,"stage":"start","slot":2,"shard":0,"bs":3}"#,
            r#"{"id":2,"stage":"admit","slot":2,"shard":-1,"bs":4}"#,
            r#"{"id":1,"stage":"complete","slot":9,"shard":0,"bs":3}"#,
        ];
        assert!(sniff_lifecycle(lines[0]));
        assert!(!sniff_lifecycle(SAMPLE[0]), "trace lines must not sniff");
        let r = build_lifecycle_report(lines.iter().copied()).unwrap();
        assert_eq!(r.records, 4);
        assert_eq!(r.requests, 2);
        assert_eq!(r.stages["admit"], 2);
        assert_eq!(r.slots, Some((0, 9)));
        let text = r.render();
        assert!(text.contains("4 record(s), 2 request(s)"), "{text}");
        assert!(text.contains("slots 0..=9"), "{text}");

        // A torn final line errors exactly there, and the prefix
        // salvages cleanly — the bin's recovery contract.
        let mut torn: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        torn.push(r#"{"id":3,"stage":"adm"#.to_string());
        let (line_no, _) = build_lifecycle_report(&torn).unwrap_err();
        assert_eq!(line_no, 5);
        let salvaged = build_lifecycle_report(&torn[..line_no - 1]).unwrap();
        assert_eq!(salvaged.records, 4);
    }

    #[test]
    fn flight_stream_builds_salvages_and_sniffs() {
        let lines = [
            r#"{"slot":60,"kind":"flight_dump","trigger":"crash","snapshots":3,"evicted":0}"#,
            r#"{"slot":58,"kind":"flight","shard":0,"arm":3,"value":400.0,"active_arms":5,"best_arm":3,"best_mean":0.7,"granted":9,"granted_mhz":3600.0,"assign_digest":123,"lp_solves":0,"lp_warm_hits":0,"lp_pivots":0}"#,
            r#"{"slot":59,"kind":"flight","shard":0,"arm":3,"value":400.0,"active_arms":5,"best_arm":3,"best_mean":0.7,"granted":9,"granted_mhz":3600.0,"assign_digest":124,"lp_solves":0,"lp_warm_hits":0,"lp_pivots":0}"#,
            r#"{"slot":60,"kind":"flight","shard":0,"arm":3,"value":400.0,"active_arms":5,"best_arm":3,"best_mean":0.7,"granted":9,"granted_mhz":3600.0,"assign_digest":125,"lp_solves":0,"lp_warm_hits":0,"lp_pivots":0}"#,
        ];
        assert!(sniff_flight(lines[0]));
        assert!(sniff_flight(lines[1]), "bare snapshots still sniff");
        assert!(!sniff_flight(SAMPLE[0]));
        let r = build_flight_report(lines.iter().copied()).unwrap();
        assert_eq!(r.dumps.len(), 1);
        assert_eq!(r.dumps[0].snapshots, 3);
        assert_eq!(r.dumps[0].slots, Some((58, 60)));
        assert_eq!(r.dumps[0].shards, 1);
        let text = r.render();
        assert!(
            text.contains("trigger crash: 3 snapshot(s) over 1 shard(s), slots 58..=60"),
            "{text}"
        );
        assert!(!text.contains("WARNING"), "complete dump: {text}");

        // Torn tail: error at the last line, salvage the prefix; the
        // under-count vs. the header is called out.
        let mut torn: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        torn.push(r#"{"slot":60,"kind":"fli"#.to_string());
        let (line_no, _) = build_flight_report(&torn).unwrap_err();
        assert_eq!(line_no, 5);
        let salvaged = build_flight_report(&torn[..line_no - 1]).unwrap();
        assert_eq!(salvaged.dumps[0].snapshots, 3);
        let partial = build_flight_report(lines[..3].iter().copied()).unwrap();
        assert!(
            partial
                .render()
                .contains("advertised 3 snapshot(s) but 2 present"),
            "{}",
            partial.render()
        );
    }

    #[test]
    fn trace_drops_emit_a_loud_warning_up_top() {
        let lines = [r#"{"slot":99,"kind":"trace_drops","count":42}"#];
        let report = build_report(lines.iter().copied()).unwrap();
        assert_eq!(report.trace_dropped, 42);
        let text = report.render();
        let warn = text.find("WARNING: trace ring saturated").unwrap();
        assert!(text.contains("42 event(s) dropped"), "{text}");
        // The warning sits above every section.
        assert!(warn < text.find("==").unwrap(), "{text}");

        let clean = build_report(SAMPLE.iter().copied()).unwrap();
        assert!(!clean.render().contains("WARNING"), "no spurious warning");
    }
}
