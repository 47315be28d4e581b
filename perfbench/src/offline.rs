//! The offline workload: `Appro` and `Heu` on instances of the paper's
//! largest Fig 3(c) point, single-threaded.

use crate::report::{Tally, Values};
use crate::stats::median;
use crate::sys;
use mec_bench::figures::bench_instance;
use mec_core::slotlp::{SlotLp, Truncation};
use mec_core::{Appro, Heu, Instance, OfflineAlgorithm, OffloadOutcome, Realizations};
use mec_core::{SlotLpSolver, SolverKind};
use mec_serve::LatencyStats;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "offline_fig3c";
/// Requests per instance (Fig 3(c)'s largest point).
const REQUESTS: usize = 300;
/// Base stations per instance.
const STATIONS: usize = 20;
/// Instances per run. One instance's LP difficulty swings its solve time
/// by a third from seed to seed; a run averages over several.
const INSTANCES: usize = 8;
/// Instance rebuilds per round; `setup_s` is the median build time, so
/// it samples the machine over the whole run.
const REBUILDS_PER_ROUND: usize = 4;
/// Fewest timed rounds (one `Appro` + `Heu` pair per instance) a run makes.
const MIN_ROUNDS: usize = 3;

/// The operating point, printed beside every result.
pub fn describe() -> String {
    format!(
        "algorithms=Appro,Heu instances={INSTANCES} requests={REQUESTS} stations={STATIONS} \
         solver={:?} threads=1 available_parallelism={}",
        SolverKind::default(),
        sys::parallelism()
    )
}

/// One seeded `bench_instance`.
struct Case {
    seed: u64,
    instance: Instance,
    realized: Realizations,
}

/// Builds the run's instances, returning them and the build's span.
fn build(seed: u64) -> (Vec<Case>, sys::Span) {
    sys::measure(|| {
        (0..INSTANCES as u64)
            .map(|i| {
                let seed = seed.wrapping_mul(INSTANCES as u64).wrapping_add(i);
                let (instance, realized) = bench_instance(REQUESTS, STATIONS, seed);
                Case {
                    seed,
                    instance,
                    realized,
                }
            })
            .collect()
    })
}

/// Rebuilds the instances `REBUILDS_PER_ROUND` times, adding each build
/// span to `builds` and failing a rebuild that differs from `first`.
fn rebuild(seed: u64, first: &[Case], builds: &mut Vec<sys::Span>, tally: &mut Tally) {
    for _ in 0..REBUILDS_PER_ROUND {
        let (again, span) = build(seed);
        builds.push(span);
        let same = again.iter().zip(first).all(|(a, b)| {
            a.instance.requests() == b.instance.requests()
                && a.instance.topo() == b.instance.topo()
                && a.realized == b.realized
        });
        tally.record(if same {
            Vec::new()
        } else {
            vec![format!(
                "seed {seed} built different instances on a rebuild"
            )]
        });
    }
}

fn solve(algo: &dyn OfflineAlgorithm, case: &Case) -> Result<OffloadOutcome, String> {
    algo.solve(&case.instance, &case.realized)
        .map_err(|e| format!("{} failed on instance seed {}: {e}", algo.name(), case.seed))
}

/// Every request is either admitted (with a latency sample) or rejected,
/// and a repeat decides exactly as the reference solve did.
fn check(out: &OffloadOutcome, reference: &OffloadOutcome, what: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let m = out.metrics();
    if m.completed() + m.expired() != REQUESTS || m.completed() != out.admitted() {
        errors.push(format!(
            "{what}: {} admitted + {} rejected does not cover {REQUESTS} requests",
            m.completed(),
            m.expired()
        ));
    }
    if out.assignment() != reference.assignment() {
        errors.push(format!("{what}: assignment differs from the first solve"));
    }
    if m.total_reward().to_bits() != reference.metrics().total_reward().to_bits()
        || m.latencies_ms() != reference.metrics().latencies_ms()
    {
        errors.push(format!("{what}: rewards differ from the first solve"));
    }
    errors
}

/// Per-instance solve spans over rounds.
struct Timings {
    appro: Vec<Vec<sys::Span>>,
    heu: Vec<Vec<sys::Span>>,
    rounds: usize,
}

impl Timings {
    /// Each instance's undisturbed `Appro` and `Heu` solves.
    fn undisturbed(&self) -> (Vec<Vec<sys::Span>>, Vec<Vec<sys::Span>>) {
        let keep = |per: &[Vec<sys::Span>]| per.iter().map(|xs| sys::undisturbed(xs, 1)).collect();
        (keep(&self.appro), keep(&self.heu))
    }
}

/// Wall times of per-instance spans.
fn walls(per_instance: &[Vec<sys::Span>]) -> Vec<Vec<f64>> {
    per_instance
        .iter()
        .map(|xs| xs.iter().map(|s| s.wall_ms).collect())
        .collect()
}

/// Σ over instances of each instance's median: robust to a slow repeat,
/// and summed over the instances' different difficulties.
fn sum_of_medians(per_instance: &[Vec<f64>]) -> f64 {
    per_instance.iter().map(|xs| median(xs)).sum()
}

/// Rebuilds the instances, then solves each with `Appro` and `Heu`, once
/// per round, checking each solve against the first round's, until
/// `seconds` have passed (or a further round would overrun them) and
/// `min_rounds` are done. `before_solves` runs ahead of each instance's
/// solves.
fn rounds(
    seed: u64,
    cases: &[Case],
    seconds: f64,
    min_rounds: usize,
    builds: &mut Vec<sys::Span>,
    tally: &mut Tally,
    mut before_solves: impl FnMut(usize, &Case) -> Result<(), String>,
) -> Result<(Timings, Vec<(OffloadOutcome, OffloadOutcome)>), String> {
    let mut t = Timings {
        appro: vec![Vec::new(); cases.len()],
        heu: vec![Vec::new(); cases.len()],
        rounds: 0,
    };
    let mut reference: Vec<(OffloadOutcome, OffloadOutcome)> = Vec::new();
    let started = Instant::now();
    loop {
        let round_start = Instant::now();
        rebuild(seed, cases, builds, tally);
        for (i, case) in cases.iter().enumerate() {
            before_solves(i, case)?;
            let (appro, a) = sys::measure(|| solve(&Appro::new(case.seed), case));
            let (heu, h) = sys::measure(|| solve(&Heu::new(case.seed), case));
            let (appro, heu) = (appro?, heu?);
            t.appro[i].push(a);
            t.heu[i].push(h);
            match reference.get(i) {
                Some((appro_ref, heu_ref)) => {
                    tally.record(check(&appro, appro_ref, "Appro"));
                    tally.record(check(&heu, heu_ref, "Heu"));
                }
                None => {
                    tally.record(check(&appro, &appro, "Appro"));
                    tally.record(check(&heu, &heu, "Heu"));
                    reference.push((appro, heu));
                }
            }
        }
        t.rounds += 1;
        let elapsed = started.elapsed().as_secs_f64();
        let round_s = round_start.elapsed().as_secs_f64();
        if t.rounds >= min_rounds && elapsed + round_s > seconds {
            return Ok((t, reference));
        }
    }
}

/// A warm-up pair on the first instance, so caches and the allocator
/// are settled before the first timed solve.
fn warm_up(cases: &[Case]) -> Result<(), String> {
    let case = cases.first().ok_or("no instances")?;
    solve(&Appro::new(case.seed), case)?;
    solve(&Heu::new(case.seed), case)?;
    Ok(())
}

/// The end-to-end run: every instance solved by `Appro` and `Heu` once
/// per round.
pub fn end_to_end(seed: u64, seconds: f64, tally: &mut Tally) -> Result<Values, String> {
    let (cases, first_build) = build(seed);
    let mut builds = vec![first_build];
    warm_up(&cases)?;
    let (t, outcomes) = rounds(
        seed,
        &cases,
        seconds,
        MIN_ROUNDS,
        &mut builds,
        tally,
        |_, _| Ok(()),
    )?;

    let requests = (REQUESTS * cases.len()) as f64;
    let appro_reward: f64 = outcomes
        .iter()
        .map(|(a, _)| a.metrics().total_reward())
        .sum();
    let heu_reward: f64 = outcomes
        .iter()
        .map(|(_, h)| h.metrics().total_reward())
        .sum();
    let admitted: usize = outcomes.iter().map(|(a, _)| a.admitted()).sum();
    let latencies: Vec<f64> = outcomes
        .iter()
        .flat_map(|(a, h)| {
            a.metrics()
                .latencies_ms()
                .iter()
                .chain(h.metrics().latencies_ms())
        })
        .copied()
        .collect();
    let latency = LatencyStats::from_samples(&latencies);
    let (appro, heu) = t.undisturbed();
    let appro_ms = sum_of_medians(&walls(&appro));
    let heu_ms = sum_of_medians(&walls(&heu));
    let used: Vec<sys::Span> = appro.iter().chain(&heu).flatten().copied().collect();
    let cpu_ms: f64 = used.iter().map(|s| s.cpu_ms).sum();
    let setup_ms: Vec<f64> = sys::undisturbed(&builds, MIN_ROUNDS)
        .iter()
        .map(|s| s.wall_ms)
        .collect();
    println!(
        "# timed_rounds={} (one Appro + one Heu solve per instance each) undisturbed_solves={}/{} \
         appro_ms={:.3} heu_ms={:.3} (sums over instances of per-instance medians) \
         heu_reward_per_req={:.6} appro_admitted={admitted} latency_samples={} \
         (Appro and Heu pooled)",
        t.rounds,
        used.len(),
        2 * t.rounds * cases.len(),
        appro_ms,
        heu_ms,
        heu_reward / requests,
        latency.count
    );
    // A round decides every request twice, once per algorithm.
    let decided = 2.0 * requests;
    Ok(vec![
        ("setup_s", median(&setup_ms) / 1e3),
        ("req_per_s", decided / ((appro_ms + heu_ms) / 1e3)),
        (
            "cpu_ms_per_kreq",
            cpu_ms / (used.len() as f64 * REQUESTS as f64 / 1e3),
        ),
        ("reward_per_req", appro_reward / requests),
        ("served_frac", admitted as f64 / requests),
        ("latency_ms_p99", latency.p99_ms),
        ("peak_rss_mb", sys::peak_rss_mb()),
    ])
}

/// Per-instance timings of the slot LP as both algorithms build and solve
/// it.
struct LpTrace {
    build_ms: Vec<Vec<f64>>,
    solve_ms: Vec<Vec<f64>>,
    /// The first instance's build + solve time with the per-call timers on
    /// against the same with none, minus one, per round.
    overhead: Vec<f64>,
    vars: usize,
    pivots: u64,
    refactorizations: u64,
}

impl LpTrace {
    /// Builds and solves instance `i`'s LP with a timer per call. The first
    /// instance also prices those timers in the order untimed, timed,
    /// timed, untimed, so warm caches favour neither side.
    fn sample(&mut self, i: usize, case: &Case) -> Result<(), String> {
        if i > 0 {
            return self.timed(i, case).map(drop);
        }
        let plain = plain_lp(case)?;
        let timed = self.timed(i, case)? + self.timed(i, case)?;
        self.overhead.push(timed / (plain + plain_lp(case)?) - 1.0);
        Ok(())
    }

    /// One build + solve with a timer around each call; returns the
    /// whole under one outer timer, in milliseconds.
    fn timed(&mut self, i: usize, case: &Case) -> Result<f64, String> {
        let subset: Vec<usize> = (0..REQUESTS).collect();
        let outer = Instant::now();
        let t0 = Instant::now();
        let lp = SlotLp::build(&case.instance, &subset, Truncation::Standard);
        self.build_ms[i].push(t0.elapsed().as_secs_f64() * 1e3);
        let mut solver = SlotLpSolver::new(SolverKind::default());
        let t0 = Instant::now();
        let frac = solver
            .solve(&lp, REQUESTS)
            .map_err(|e| format!("slot LP: {e}"))?;
        self.solve_ms[i].push(t0.elapsed().as_secs_f64() * 1e3);
        let total = outer.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(frac);
        if self.build_ms[i].len() == 1 {
            self.vars += lp.var_count();
            self.pivots += solver.stats().pivots;
            self.refactorizations += solver.stats().refactorizations;
        }
        Ok(total)
    }
}

/// One build + solve of the case's LP under a single timer, in
/// milliseconds.
fn plain_lp(case: &Case) -> Result<f64, String> {
    let subset: Vec<usize> = (0..REQUESTS).collect();
    let outer = Instant::now();
    let lp = SlotLp::build(&case.instance, &subset, Truncation::Standard);
    let frac = SlotLpSolver::new(SolverKind::default())
        .solve(&lp, REQUESTS)
        .map_err(|e| format!("slot LP: {e}"))?;
    let total = outer.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(frac);
    Ok(total)
}

/// The traced run: each round rebuilds the instances and, per instance,
/// times the slot LP's build and solve apart, then whole `Appro` and `Heu`
/// solves. Rounding (`Appro`) and repair (`Heu`) are each solve's time
/// beyond the LP. Every figure sums per-instance medians over the
/// instances.
pub fn traced(seed: u64, seconds: f64, tally: &mut Tally) -> Result<Values, String> {
    let started = Instant::now();
    let (cases, first_build) = build(seed);
    let mut builds = vec![first_build];
    warm_up(&cases)?;
    let n = cases.len();
    let mut lp = LpTrace {
        build_ms: vec![Vec::new(); n],
        solve_ms: vec![Vec::new(); n],
        overhead: Vec::new(),
        vars: 0,
        pivots: 0,
        refactorizations: 0,
    };
    let remaining = seconds - started.elapsed().as_secs_f64();
    let (t, outcomes) = rounds(
        seed,
        &cases,
        remaining,
        MIN_ROUNDS,
        &mut builds,
        tally,
        |i, case| lp.sample(i, case),
    )?;

    let requests = (REQUESTS * n) as f64;
    let lp_build = sum_of_medians(&lp.build_ms);
    let lp_solve = sum_of_medians(&lp.solve_ms);
    let (appro, heu) = t.undisturbed();
    let appro_ms = sum_of_medians(&walls(&appro));
    let heu_ms = sum_of_medians(&walls(&heu));
    let heu_reward: f64 = outcomes
        .iter()
        .map(|(_, h)| h.metrics().total_reward())
        .sum();
    println!("# traced_rounds={}", t.rounds);
    Ok(vec![
        (
            "instance.build_ms",
            median(&builds.iter().map(|s| s.wall_ms).collect::<Vec<_>>()),
        ),
        ("lp.build_ms", lp_build),
        ("lp.solve_ms", lp_solve),
        ("lp.vars", lp.vars as f64),
        ("lp.pivots", lp.pivots as f64),
        ("lp.refactorizations", lp.refactorizations as f64),
        ("appro_ms", appro_ms),
        ("appro.rounding_ms", appro_ms - lp_build - lp_solve),
        ("heu_ms", heu_ms),
        ("heu.repair_ms", heu_ms - lp_build - lp_solve),
        ("heu_reward_per_req", heu_reward / requests),
        ("trace.overhead_frac", median(&lp.overhead)),
    ])
}
