//! What the benchmark promises, in one place: workloads, metric names,
//! units, directions and bounds. `BENCHMARK.json` is generated from these
//! tables (`--manifest`) and a test pins the committed file to them.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`, given
/// back as `--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// `(name, why)` of every workload.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "query_discovery",
        "Fig. 8 setting: 7 candidate-query collections of 0.6k-1.3k large sets, cache off, \
         2 closed-loop in-process clients; the kernels and lookahead do the work",
    ),
    (
        "wire_warm",
        "service edge: 2000-set copy-add over TCP loopback, warm plan; latency of open-loop \
         Poisson sessions at 250/s, closed-loop capacity over 2 connections; kernels only on \
         choice screens",
    ),
    (
        "plan_build",
        "5.2.1 setting: k-LP(3) and weighted k-LP(2) plans precomputed for 20 web-table \
         sub-collections; lookahead, memo and plan writes, no service",
    ),
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric the benchmark reports.
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off. `throughput_per_s` is
/// sessions/s on `query_discovery`, closed-loop sessions/s over 2
/// connections on `wire_warm` and trees/s on `plan_build`.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
    e2e("question_p50_us", "us", Lower, 0.25),
    e2e("question_tail_us", "us", Lower, 0.25),
    e2e("throughput_per_s", "1/s", Higher, 0.25),
    e2e("questions_per_session", "count", Lower, 0.05),
];

/// Per-layer metrics of the traced run. `*.self_us` and
/// `trace.residual_us` are per question and sum to `trace.question_us`.
pub const PER_LAYER: &[Metric] = &[
    layer("trace.question_us", "us", Lower),
    layer("trace.residual_us", "us", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("gen.wait_us", "us", Lower),
    layer("gen.late_ms.p50", "ms", Lower),
    layer("gen.late_ms.max", "ms", Lower),
    layer("gen.backlog_max", "count", Lower),
    layer("server.self_us", "us", Lower),
    layer("server.roundtrip_us", "us", Lower),
    layer("server.overhead_us", "us", Lower),
    layer("service.self_us", "us", Lower),
    layer("service.handle_us.create", "us", Lower),
    layer("service.handle_us.ask", "us", Lower),
    layer("service.handle_us.answer", "us", Lower),
    layer("service.handle_us.close", "us", Lower),
    layer("service.error_responses", "count", Lower),
    layer("engine.self_us", "us", Lower),
    layer("engine.next_question_us", "us", Lower),
    layer("engine.answer_us", "us", Lower),
    layer("plan.self_us", "us", Lower),
    layer("plan.lookup_ns", "ns", Lower),
    layer("plan.record_ns", "ns", Lower),
    layer("plan.lookups", "count", Higher),
    layer("plan.hit_rate", "ratio", Higher),
    layer("plan.nodes", "count", Lower),
    layer("plan.evicted", "count", Lower),
    layer("plan.save_ms", "ms", Lower),
    layer("plan.load_ms", "ms", Lower),
    layer("plan.file_bytes", "bytes", Lower),
    layer("lookahead.self_us", "us", Lower),
    layer("lookahead.select_us", "us", Lower),
    layer("lookahead.selects", "count", Lower),
    layer("lookahead.prune_rate", "ratio", Higher),
    layer("lookahead.evaluated_per_select", "count", Lower),
    layer("subcollection.self_us", "us", Lower),
    layer("subcollection.count_ns_per_element", "ns", Lower),
    layer("subcollection.partition_ns", "ns", Lower),
    layer("subcollection.postings_share", "ratio", Lower),
    layer("subcollection.partition_calls_per_select", "count", Lower),
    layer("setup.generate_s", "s", Lower),
    layer("setup.install_s", "s", Lower),
    layer("setup.warm_s", "s", Lower),
    layer("mem.collections_bytes", "bytes", Lower),
    layer("mem.plan_cache_bytes", "bytes", Lower),
];

fn better_str(b: Better) -> &'static str {
    match b {
        Lower => "lower",
        Higher => "higher",
    }
}

/// The `BENCHMARK.json` document these tables describe.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
          \"--manifest-path\", \"setbench/Cargo.toml\", \"--\"],\n";
    s += "  \"paths\": [\"setbench\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    s += "  \"workloads\": [\n";
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better_str(m.better),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better_str(m.better)
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ]\n}\n";
    s
}

/// Metric values of one run, checked against the tables when printed.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Sets `name` (replacing an earlier value).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The result line's `metrics` object over `table`, in table order.
    /// Panics on a metric the run forgot to set: that is a benchmark bug.
    pub fn encode(&self, table: &[Metric]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|m| {
                let v = self
                    .get(m.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
                assert!(v.is_finite(), "metric {} is not finite: {v}", m.name);
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_tables() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
    }

    #[test]
    fn the_manifest_is_within_the_format_limits() {
        let doc = setdisc_util::report::parse_json(&manifest()).expect("valid JSON");
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        let mut seen = std::collections::HashSet::new();
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16);
        }
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
        assert!(doc.get("per_layer").and_then(|v| v.as_array()).is_some());
    }

    #[test]
    fn encode_keeps_every_digit() {
        let mut v = Values::default();
        v.set("setup_s", 0.123456789012);
        v.set("setup_s", 1.0 / 3.0);
        let table = &END_TO_END[..1];
        assert_eq!(
            v.encode(table),
            "{\"setup_s\": {\"value\": 0.3333333333333333, \"unit\": \"s\"}}"
        );
    }
}
