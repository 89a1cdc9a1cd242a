//! The metric table: every metric the benchmark reports, with its unit,
//! direction and (for end-to-end metrics) regression bound. `BENCHMARK.json`
//! at the repository root carries the same table; a unit test keeps the two
//! equal.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload from the untraced run.
/// An *operation* is the workload's unit of closed-loop work (README.md).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Per-layer metrics, reported by every workload from the traced run; a
/// layer the workload does not use reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("walks.schedule.busy_s", "s", Lower),
    layer("walks.schedule.ns_per_traversal_l0", "ns", Lower),
    layer("walks.schedule.ns_per_traversal_upper", "ns", Lower),
    layer("walks.schedule.traversals", "count", Lower),
    layer("walks.schedule.build_share", "ratio", Lower),
    layer("embedding.level0_s", "s", Lower),
    layer("embedding.walk_levels_s", "s", Lower),
    layer("embedding.bottom_s", "s", Lower),
    layer("embedding.portals_s", "s", Lower),
    layer("embedding.base_rounds", "count", Lower),
    layer("walks.parallel.busy_s", "s", Lower),
    layer("walks.parallel.ns_per_traversal", "ns", Lower),
    layer("routing.prep_s", "s", Lower),
    layer("routing.hops_s", "s", Lower),
    layer("routing.bottom_s", "s", Lower),
    layer("routing.base_rounds", "count", Lower),
    layer("routing.portal_misses", "count", Lower),
    layer("routing.route_ms_p95", "ms", Lower),
    layer("routing.exact_route_ms_p50", "ms", Lower),
    layer("routing.exact_emulation_share", "ratio", Lower),
    layer("mst.iterations", "count", Lower),
    layer("mst.routing_instances", "count", Lower),
    layer("mst.base_rounds", "count", Lower),
    layer("mst.ms_per_instance", "ms", Lower),
    layer("mst.boruvka.candidate_flood_s", "s", Lower),
    layer("mst.boruvka.merge_s", "s", Lower),
    layer("mst.boruvka.label_flood_s", "s", Lower),
    layer("congest.rounds", "count", Lower),
    layer("congest.messages", "count", Lower),
    layer("congest.ns_per_message", "ns", Lower),
    layer("congest.us_per_round", "us", Lower),
    layer("congest.threads1_wall_s", "s", Lower),
    layer("congest.threads2_over_1", "ratio", Lower),
    layer("congest.dropped", "count", Lower),
    layer("congest.lost_to_churn", "count", Lower),
    layer("mst.healing.phase_restarts", "count", Lower),
    layer("walks.healing.reissued", "count", Lower),
    layer("healing.useful_ratio", "ratio", Higher),
    layer("observe.overhead_ratio", "ratio", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Metric values in report order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Values(pub Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(find(name).is_some(), "unknown metric {name}");
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Every metric of `defs`, in table order, with 0 for those not set.
    pub fn complete(&self, defs: &[MetricDef]) -> Values {
        Values(
            defs.iter()
                .map(|d| (d.name.to_string(), self.get(d.name).unwrap_or(0.0)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` sits at the repository root, five levels above this
    /// package.
    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("valid JSON")
    }

    fn check(listed: &Json, defs: &[MetricDef]) {
        let listed = listed.as_arr().expect("metric list");
        assert_eq!(listed.len(), defs.len());
        for (entry, def) in listed.iter().zip(defs) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
            let better = match def.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                def.bound,
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn table_matches_benchmark_json() {
        let b = benchmark_json();
        check(b.get("end_to_end").unwrap(), END_TO_END);
        check(b.get("per_layer").unwrap(), PER_LAYER);
        let names: Vec<&str> = b
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[..i].contains(n), "{n} twice");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for m in END_TO_END {
            assert!(m.bound.unwrap() <= 0.25);
        }
    }
}
