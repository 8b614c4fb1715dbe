//! The metric names and units the benchmark reports, and the result line.
//!
//! `BENCHMARK.json` lists the same names and units; a test keeps the two in
//! step.

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_share", "share"),
    ("rate_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("ack_ms.p50", "ms"),
    ("ack_ms.p90", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("attempts_per_cert", "count"),
    ("sim_overhead_pct", "%"),
    ("flush_bytes_per_kop", "B/kop"),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tvm.vm.us_per_pick", "us"),
    ("tvm.vm.cpu_us_per_pick", "us"),
    ("tvm.vm.busy_share", "share"),
    ("tvm.vm.native_ms_per_run", "ms"),
    ("tvm.pool.os_spawns_per_run", "count"),
    ("tvm.snapshot.bytes", "B"),
    ("core.recorder.ms_per_run", "ms"),
    ("core.recorder.entries_per_kop", "1/kop"),
    ("core.recorder.epochs_per_run", "count"),
    ("core.codec.encode_us_per_kib", "us/KiB"),
    ("core.codec.decode_us_per_kib", "us/KiB"),
    ("core.codec.bytes_per_entry", "B"),
    ("core.sketch.index_us", "us"),
    ("core.explore.ms_per_attempt", "ms"),
    ("core.explore.wasted_share", "share"),
    ("core.explore.checkpoint_ms", "ms"),
    ("core.feedback.candidates_us", "us"),
    ("core.feedback.candidates_per_trace", "count"),
    ("core.certificate.replay_ms", "ms"),
    ("core.certificate.bytes", "B"),
    ("core.certificate.decode_us", "us"),
    ("svc.client.submit_ms", "ms"),
    ("svc.client.wait_ms", "ms"),
    ("svc.client.fetch_ms", "ms"),
    ("svc.journal.syncs_per_submit", "count"),
    ("svc.journal.mean_cohort", "count"),
    ("svc.cache.hit_share", "share"),
    ("svc.queue.dedup_share", "share"),
    ("svc.queue.job_ms.p50", "ms"),
    ("svc.store.put_ms", "ms"),
    ("svc.store.get_ms", "ms"),
    ("svc.journal.append_ms", "ms"),
    ("gen.late_ms.p90", "ms"),
];

/// Prefix of the per-layer metrics that give the traced run's change
/// against the untraced run, one per end-to-end metric.
pub const OVERHEAD_PREFIX: &str = "trace.overhead_pct.";

/// Per-layer names: the layer table, then one tracing-overhead metric per
/// end-to-end metric.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(
            END_TO_END
                .iter()
                .map(|&(n, _)| (format!("{OVERHEAD_PREFIX}{n}"), "%")),
        )
        .collect()
}

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    /// Sets (or overwrites) a value.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// A value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Sets every value of `other` here.
    pub fn merge(&mut self, other: &Values) {
        for (name, value) in &other.0 {
            self.set(name, *value);
        }
    }
}

/// The result line: the run's verdict and the named metrics, in table
/// order. Fails if any named metric was not measured.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(String, &str)],
    values: &Values,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let v = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e2e() -> Vec<(String, &'static str)> {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut values = Values::default();
        for (i, (n, _)) in e2e().iter().enumerate() {
            values.set(n, i as f64 + 0.5);
        }
        let line = result_line(true, 10, 0, &e2e(), &values).unwrap();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        for (n, u) in END_TO_END {
            let needle = format!("\"{n}\": {{\"value\": ");
            let at = line.find(&needle).unwrap_or_else(|| panic!("{n} missing"));
            let tail = &line[at..];
            assert!(tail.contains(&format!("\"unit\": \"{u}\"}}")), "{n}");
        }
    }

    #[test]
    fn missing_metric_is_an_error() {
        let values = Values::default();
        assert!(result_line(true, 1, 0, &e2e(), &values).is_err());
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let listed =
            |n: &str, u: &str| json.contains(&format!("{{\"name\": \"{n}\", \"unit\": \"{u}\""));
        for (n, u) in END_TO_END {
            assert!(listed(n, u), "end-to-end {n} [{u}] not in BENCHMARK.json");
        }
        for (n, u) in per_layer_names() {
            assert!(listed(&n, u), "per-layer {n} [{u}] not in BENCHMARK.json");
        }
        let entries = json.matches("{\"name\": ").count();
        // Workloads carry names too.
        let workloads = json.matches("\"why\": ").count();
        assert_eq!(
            entries,
            END_TO_END.len() + per_layer_names().len() + workloads,
            "BENCHMARK.json lists metrics the benchmark does not report"
        );
    }
}
