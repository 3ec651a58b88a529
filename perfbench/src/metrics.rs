//! The metric tables `BENCHMARK.json` declares, and the JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("elements_per_s", "elem/s"),
    ("chunk_p50_ms", "ms"),
    ("chunk_p99_ms", "ms"),
    ("peak_heap_mb", "MB"),
    ("recover_s", "s"),
    ("elements_per_s.par2", "elem/s"),
    ("chunk_p99_ms.par2", "ms"),
    ("peak_heap_mb.par2", "MB"),
];

/// Per-layer metrics (traced runs): name and unit.  A layer a workload does
/// not run (a circuit on a workload without views) reports 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("decode.ns_per_element", "ns"),
    ("decode.busy_frac", "ratio"),
    ("wal.ns_per_append", "ns"),
    ("wal.busy_frac", "ratio"),
    ("wal.bytes_per_element", "B"),
    ("wal.write_syscalls_per_element", "count"),
    ("checkpoint.count", "count"),
    ("checkpoint.ms_p50", "ms"),
    ("checkpoint.ms_max", "ms"),
    ("checkpoint.busy_frac", "ratio"),
    ("checkpoint.snapshot_bytes", "B"),
    ("recover.snapshot_load_ms", "ms"),
    ("recover.replay_ns_per_element", "ns"),
    ("engine.self_ns_per_element", "ns"),
    ("sampler.ns_per_element", "ns"),
    ("sampler.busy_frac", "ratio"),
    ("sampler.accept_frac", "ratio"),
    ("sampler.heap_bytes_per_edge", "B"),
    ("sampler.sample_edges", "count"),
    ("count.ns_per_element", "ns"),
    ("count.busy_frac", "ratio"),
    ("count.comparisons_per_element", "count"),
    ("count.hit_frac", "ratio"),
    ("count.butterflies_per_element", "count"),
    ("parabacus.phase1_busy_frac", "ratio"),
    ("parabacus.phase2_busy_frac", "ratio"),
    ("parabacus.worker_imbalance", "ratio"),
    ("parabacus.replayed_ops_per_element", "count"),
    ("parabacus.t1_over_abacus", "ratio"),
    ("parabacus.t1_s", "s"),
    ("parabacus.abacus_s", "s"),
    ("circuit.graph_ns_per_element", "ns"),
    ("circuit.pairs_per_element", "count"),
    ("circuit.estimator_ns_per_element", "ns"),
    ("view.peredge.ns_per_element", "ns"),
    ("view.vertex.ns_per_element", "ns"),
    ("view.clustering.ns_per_element", "ns"),
    ("view.bitruss.ns_per_element", "ns"),
    ("view.anomaly.ns_per_element", "ns"),
    ("driver.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Collected samples per metric name; each reports its median.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Adds one sample of `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Median of `name`'s samples, if any.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| crate::stats::median(v))
    }
}

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`.
/// Non-finite values print as 0 and make the run incorrect.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        correct && finite
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(true, 3, 0, &[("setup_s", 0.25, "s"), ("x", f64::NAN, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let declared = text.matches("\"name\":").count();
        let workloads = crate::workloads::WORKLOADS.len();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        for workload in crate::workloads::WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{}\"", workload.name)));
        }
    }
}
