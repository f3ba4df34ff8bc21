//! The metric catalogue and the two renderings of a result: one
//! human-readable line per metric (name, value, unit, sample count) and
//! the final one-line JSON object.

use std::fmt::Write as _;

/// End-to-end metrics, printed by the untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s_p50", "s"),
    ("requests_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_s", "s"),
    ("plan.build_s", "s"),
    ("plan.records", "count"),
    ("plan.mirrors", "count"),
    ("plan.hubs", "count"),
    ("plan.est_peak_ratio", "ratio"),
    ("engine.self_s", "s"),
    ("engine.step_s.0", "s"),
    ("engine.step_s.1", "s"),
    ("engine.step_s.2", "s"),
    ("engine.step_s.3", "s"),
    ("engine.flops", "flop"),
    ("engine.gflops", "GFLOP/s"),
    ("engine.msg_bytes.columnar", "B"),
    ("engine.msg_bytes.legacy", "B"),
    ("engine.worker_skew", "ratio"),
    ("engine.modelled_s", "s"),
    ("transport.calls", "count"),
    ("transport.exchange_s", "s"),
    ("transport.share", "ratio"),
    ("transport.wire_bytes", "B"),
    ("transport.wire_mb_per_s", "MB/s"),
    ("spill.bytes", "B"),
    ("recovery.checkpoints", "count"),
    ("outofcore.overhead_s", "s"),
    ("serve.intake_us_p50", "us"),
    ("serve.batch_ms_p50", "ms"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.coalescing", "req/batch"),
    ("serve.batches", "count"),
    ("serve.plans_built", "count"),
    ("kernel.matmul_gflops", "GFLOP/s"),
    ("kernel.segment_sum_gbps", "GB/s"),
    ("kernel.row_axpy_gbps", "GB/s"),
    ("obs.trace_overhead", "ratio"),
    ("obs.events", "count"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<Metric>,
    /// Free-form lines printed before the metrics (host facts, checksums,
    /// caveats).
    pub notes: Vec<String>,
}

fn unit_of(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .copied()
}

impl Report {
    /// Count one operation (a plan run or a serve request).
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record catalogue metric `name`. Panics on a name outside the
    /// catalogue: that is a bug in the benchmark, not in the program.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let (name, unit) = unit_of(name).unwrap_or_else(|| panic!("unknown metric `{name}`"));
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// `failed / attempted`.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metrics of one catalogue, in catalogue order. A per-layer
    /// metric the workload does not exercise reads 0 with 0 samples.
    pub fn select(&self, catalogue: &[(&'static str, &'static str)]) -> Vec<Metric> {
        catalogue
            .iter()
            .map(|&(name, unit)| {
                self.get(name).cloned().unwrap_or(Metric {
                    name,
                    unit,
                    value: 0.0,
                    samples: 0,
                })
            })
            .collect()
    }

    /// Human-readable lines: notes, the operation counts, then one line per
    /// selected metric.
    pub fn render_text(&self, metrics: &[Metric]) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        let _ = writeln!(
            out,
            "fail_share = {} (failed {} of {} operations)",
            self.fail_share(),
            self.failed,
            self.attempted
        );
        for m in metrics {
            let samples = if m.samples == 0 {
                "not exercised by this workload".to_string()
            } else {
                format!("n={}", m.samples)
            };
            let _ = writeln!(out, "{} = {} {} ({samples})", m.name, m.value, m.unit);
        }
        out
    }

    /// The one-line JSON result.
    pub fn render_json(&self, metrics: &[Metric]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_valid() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[..i].contains(n), "duplicate metric {n}");
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn json_line_shape() {
        let mut r = Report::default();
        r.op(true);
        r.op(false);
        r.set("setup_s", 1.5, 3);
        let line = r.render_json(&r.select(&END_TO_END[..1]));
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \
             \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(r.fail_share(), 0.5);
    }
}
