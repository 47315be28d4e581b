//! The result line: named metrics with units, plus the correctness tally.

/// Metric values a workload measured, by name.
pub type Values = Vec<(&'static str, f64)>;

/// The end-to-end metrics every untraced run prints: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_per_s", "req/s"),
    ("cpu_ms_per_kreq", "ms/kreq"),
    ("reward_per_req", "reward/req"),
    ("served_frac", "ratio"),
    ("latency_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints: `(name, unit)`. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_ms", "ms"),
    ("workload.build_ms", "ms"),
    ("loadgen.build_ms", "ms"),
    ("instance.build_ms", "ms"),
    ("serve.wall_ms", "ms"),
    ("serve.cpu_ms", "ms"),
    ("serve.slots", "count"),
    ("serve.arrival_slots", "count"),
    ("serve.partition_ms", "ms"),
    ("serve.critical_path_ms", "ms"),
    ("serve.coord_overhead_ms", "ms"),
    ("router.admit_calls", "count"),
    ("router.admit_us_mean", "us"),
    ("router.admitted", "count"),
    ("router.shed", "count"),
    ("placement.route_calls", "count"),
    ("placement.route_us_mean", "us"),
    ("placement.hit_ratio", "ratio"),
    ("placement.redirects", "count"),
    ("placement.installs", "count"),
    ("placement.evictions", "count"),
    ("placement.held", "count"),
    ("engine.inject_us_mean", "us"),
    ("engine.step_self_ms", "ms"),
    ("engine.steps", "count"),
    ("engine.step_us_p50", "us"),
    ("engine.step_us_p99", "us"),
    ("engine.backlog_mean", "count"),
    ("engine.expired", "count"),
    ("engine.aborted", "count"),
    ("policy.schedule_ms", "ms"),
    ("policy.schedule_us_p50", "us"),
    ("policy.schedule_us_p99", "us"),
    ("policy.observe_ms", "ms"),
    ("policy.allocations", "count"),
    ("bandit.active_arms_final", "count"),
    ("bandit.threshold_final", "reward"),
    ("lp.build_ms", "ms"),
    ("lp.solve_ms", "ms"),
    ("lp.vars", "count"),
    ("lp.pivots", "count"),
    ("lp.refactorizations", "count"),
    ("appro_ms", "ms"),
    ("appro.rounding_ms", "ms"),
    ("heu_ms", "ms"),
    ("heu.repair_ms", "ms"),
    ("heu_reward_per_req", "reward/req"),
    ("trace.overhead_frac", "ratio"),
];

/// Puts `values` in the order of `names`, reading 0 for a name the
/// workload did not measure.
///
/// # Errors
///
/// A value whose name is not in `names`.
pub fn complete(
    names: &[(&'static str, &'static str)],
    values: &Values,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    if let Some((stray, _)) = values
        .iter()
        .find(|(n, _)| names.iter().all(|(m, _)| m != n))
    {
        return Err(format!("metric {stray} is not declared"));
    }
    Ok(names
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            (name, value, unit)
        })
        .collect())
}

/// Correctness tally over the operations a run attempted.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations run (timed calls, warm-up and replays included).
    pub attempted: u64,
    /// Operations whose output failed a correctness check.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation; `errors` lists the checks it failed.
    pub fn record(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.errors.extend(errors);
        }
    }

    /// Whether every attempted operation passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Formats a float as JSON with every digit (shortest round-trip form).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// The last stdout line of a run: the tally and every metric with its unit.
pub fn result_line(tally: &Tally, metrics: &[(&str, f64, &str)]) -> String {
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_f64(*value)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_tally_and_metrics() {
        let mut tally = Tally::default();
        tally.record(Vec::new());
        let names = [("setup_s", "s"), ("req_per_s", "req/s")];
        let metrics = complete(&names, &vec![("req_per_s", 1234.5)]).unwrap();
        assert_eq!(
            result_line(&tally, &metrics),
            concat!(
                "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{",
                "\"setup_s\":{\"value\":0.0,\"unit\":\"s\"},",
                "\"req_per_s\":{\"value\":1234.5,\"unit\":\"req/s\"}}}"
            )
        );
        assert!(complete(&names, &vec![("nope", 1.0)]).is_err());
        tally.record(vec!["mismatch".to_string()]);
        assert!(!tally.correct());
    }

    /// `BENCHMARK.json` declares exactly the metrics the runs print.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = text[start..].find(']').expect("section end") + start;
            text[start..end].to_string()
        };
        for (key, names) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = section(key);
            assert_eq!(declared.matches("\"name\"").count(), names.len(), "{key}");
            for (name, unit) in names {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(declared.contains(&entry), "{key} lacks {entry}");
            }
        }
    }
}
