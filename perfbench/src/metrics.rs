//! The benchmark's metric catalogue and the statistics it reports.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! a unit test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name in the result JSON.
    pub name: &'static str,
    /// Unit in the result JSON.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of each workload sees; reported by untraced runs
/// (`--trace 0`) as medians over the run's repetitions.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("wall_s", "s", Lower),
    m("longest_ns", "ns", Lower),
    m("peak_rss_mb", "MB", Lower),
];

/// Single-layer metrics, reported by traced runs (`--trace 1`). A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[Metric] = &[
    // Front end: parse, place/route/extract, graph build.
    m("netlist.parse_s", "s", Lower),
    m("layout.place_s", "s", Lower),
    m("layout.route_s", "s", Lower),
    m("layout.extract_s", "s", Lower),
    m("graph.build_s", "s", Lower),
    // Characterization.
    m("macromodel.prewarm_s", "s", Lower),
    m("macromodel.char_solves", "count", Lower),
    m("macromodel.models", "count", Lower),
    // Analysis passes (kernel, tables, memo, keyed cache, Newton).
    m("sta.analyze_s", "s", Lower),
    m("kernel.passes", "count", Lower),
    m("kernel.stage_solves", "count", Lower),
    m("kernel.newton_solves", "count", Lower),
    m("kernel.newton_iters", "count", Lower),
    m("macromodel.table_hits", "count", Higher),
    m("macromodel.table_fallbacks", "count", Lower),
    m("macromodel.table_hit_ratio", "ratio", Higher),
    m("exec.cache_hit_ratio", "ratio", Higher),
    // Scenario matrix, and the exact engine next to the fast one.
    m("scenario.prewarm_s", "s", Lower),
    m("scenario.run_s", "s", Lower),
    m("scenario.signoff_run_s", "s", Lower),
    m("scenario.newton_iters", "count", Lower),
    m("signoff_wall_s", "s", Lower),
    m("signoff_gap_ns", "ns", Lower),
    // Service: daemon, solve store, characterization store.
    m("serve.load_s", "s", Lower),
    m("charstore.replayed", "count", Higher),
    m("serve.query_ms", "ms", Lower),
    m("serve.what_if_ms", "ms", Lower),
    m("serve.eco_ms", "ms", Lower),
    m("serve.analyze_ms", "ms", Lower),
    m("serve.newton_iters", "count", Lower),
    m("serve.stage_solves", "count", Lower),
    m("serve.cache_hits", "count", Higher),
    m("store.replayed", "count", Higher),
    m("store.appended", "count", Lower),
    m("store.deduped", "count", Lower),
    m("req_p50_ms", "ms", Lower),
    m("req_p95_ms", "ms", Lower),
    m("req_per_s", "1/s", Higher),
    // Self time per layer, from the spans.
    m("self.run_s", "s", Lower),
    m("self.netlist_s", "s", Lower),
    m("self.layout_s", "s", Lower),
    m("self.graph_s", "s", Lower),
    m("self.sta_s", "s", Lower),
    m("self.report_s", "s", Lower),
    m("self.scenario_s", "s", Lower),
    m("self.serve_s", "s", Lower),
    m("self.incremental_s", "s", Lower),
    m("self.check_s", "s", Lower),
    // The tracer itself.
    m("trace.spans", "count", Lower),
    m("trace.overhead_s", "s", Lower),
];

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; `None` for no values.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The highest of p99/p95/p90/p75/p50 that has at least ten samples
/// beyond it, as `(label, value)`; the maximum when there are too few
/// samples for any.
pub fn tail(values: &[f64]) -> Option<(&'static str, f64)> {
    let n = values.len() as f64;
    for (label, q) in [
        ("p99", 0.99),
        ("p95", 0.95),
        ("p90", 0.90),
        ("p75", 0.75),
        ("p50", 0.5),
    ] {
        if n * (1.0 - q) >= 10.0 {
            return quantile(values, q).map(|v| (label, v));
        }
    }
    values
        .iter()
        .copied()
        .max_by(f64::total_cmp)
        .map(|v| ("max", v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let many: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&many).map(|t| t.0), Some("p95"));
        assert_eq!(tail(&[1.0, 5.0]), Some(("max", 5.0)));
    }

    #[test]
    fn names_are_unique_and_valid() {
        let mut seen = HashSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
            assert!(metric.name.len() <= 64);
            assert!(metric
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(metric.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        }
    }

    /// `BENCHMARK.json` lists exactly this catalogue, in this order.
    #[test]
    fn benchmark_json_matches_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = xtalk::sta::serve::Json::parse(&text).expect("valid JSON");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(|v| v.as_arr()).expect(key);
            let names: Vec<(&str, &str)> = listed
                .iter()
                .map(|m| {
                    (
                        m.str_field("name").unwrap_or(""),
                        m.str_field("unit").unwrap_or(""),
                    )
                })
                .collect();
            let want: Vec<(&str, &str)> = list.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(names, want, "{key}");
            for (entry, metric) in listed.iter().zip(list) {
                assert_eq!(
                    entry.str_field("better"),
                    Some(metric.better.word()),
                    "{}",
                    metric.name
                );
            }
        }
    }
}
