//! Every metric the benchmark emits, with its unit and direction, and
//! the result line that carries them.

use std::collections::BTreeMap;

use hka::obs::Json;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit in the result line.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn spec(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the served system sees; printed with `--trace 0`.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", Lower),
    spec("req_within_1ms_frac", "fraction", Higher),
    spec("req_within_5ms_frac", "fraction", Higher),
    spec("served_frac", "fraction", Higher),
    spec("hk_success_frac", "fraction", Higher),
    spec("gen_area_m2", "m2", Lower),
    spec("unlink_freq", "1/req", Lower),
];

/// Single layers, from the traced in-process run; printed with
/// `--trace 1`. `shard.*` and `journal.sync*` come from its sharded
/// drive of the same stream. `serve.*` is the child process's capacity
/// lifetime that precedes it: capacity moved by up to 2× between runs
/// of the same code on a shared host, per CPU second as well as per
/// wall second, so it has no bound and is not an end-to-end metric.
pub const PER_LAYER: &[Spec] = &[
    spec("serve.capacity_ev_per_cpu_s", "events/cpu-s", Higher),
    spec("envelope.decode_loc_ns", "ns", Lower),
    spec("envelope.decode_req_ns", "ns", Lower),
    spec("envelope.encode_resp_ns", "ns", Lower),
    spec("gateway.service_busy_frac", "fraction", Higher),
    spec("gateway.burst_envelopes_mean", "count", Higher),
    spec("gateway.overloads_per_kreq", "1/kreq", Lower),
    spec("gateway.shed_per_kloc", "1/kloc", Lower),
    spec("gateway.wire_us_p50", "us", Lower),
    spec("ts.inproc_eps", "events/s", Higher),
    spec("ts.ingest_ns_p50", "ns", Lower),
    spec("ts.request_us_p50", "us", Lower),
    spec("ts.request_us_p99", "us", Lower),
    spec("ts.algo1_frac", "fraction", Lower),
    spec("ts.unlink_attempts_per_kreq", "1/kreq", Lower),
    spec("algo1.first_us_p50", "us", Lower),
    spec("algo1.first_us_p99", "us", Lower),
    spec("journal.records_per_kreq", "1/kreq", Lower),
    spec("journal.bytes_per_kreq", "B/kreq", Lower),
    spec("journal.write_us_p50", "us", Lower),
    spec("journal.syncs_per_kreq", "1/kreq", Lower),
    spec("journal.sync_us_p50", "us", Lower),
    spec("shard.barrier_us_p50", "us", Lower),
    spec("shard.barrier_us_p99", "us", Lower),
    spec("shard.epochs_per_kreq", "1/kreq", Lower),
    spec("shard.union_rebuilds", "count", Lower),
    spec("shard.union_memo_hits_per_kreq", "1/kreq", Higher),
    spec("ledger.residual_frac", "fraction", Lower),
    spec("trace.overhead_frac", "fraction", Lower),
];

/// The metrics of one run, checked against a spec table.
pub struct Report {
    specs: &'static [Spec],
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// An empty report for `specs`.
    pub fn new(specs: &'static [Spec]) -> Report {
        Report {
            specs,
            values: BTreeMap::new(),
        }
    }

    /// Records a metric. Panics on a name outside the spec table or a
    /// non-finite value: both are bugs in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.specs.iter().any(|s| s.name == name),
            "metric {name} is not in the spec table"
        );
        assert!(value.is_finite(), "metric {name} = {value}");
        self.values.insert(name, value);
    }

    /// The result line: every spec'd metric by name with its unit.
    /// Panics if one was never recorded.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let metrics: BTreeMap<String, Json> = self
            .specs
            .iter()
            .map(|s| {
                let value = *self
                    .values
                    .get(s.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", s.name));
                let entry = Json::obj([("value", Json::Num(value)), ("unit", Json::from(s.unit))]);
                (s.name.to_string(), entry)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }

    /// Human-readable lines, one per metric.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in self.specs {
            if let Some(v) = self.values.get(s.name) {
                out.push_str(&format!(
                    "  {:<34} {:>16.6} {:<10} ({} is better)\n",
                    s.name,
                    v,
                    s.unit,
                    s.better.as_str()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        hka::obs::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn check_table(section: &Json, specs: &[Spec]) {
        let Json::Arr(entries) = section else {
            panic!("not an array");
        };
        assert_eq!(entries.len(), specs.len(), "metric count");
        for (entry, spec) in entries.iter().zip(specs) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(spec.name));
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(spec.unit),
                "{}",
                spec.name
            );
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(spec.better.as_str()),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let bench = benchmark_json();
        check_table(bench.get("end_to_end").unwrap(), END_TO_END);
        check_table(bench.get("per_layer").unwrap(), PER_LAYER);
    }

    #[test]
    fn workloads_match_benchmark_json_and_state_their_rates() {
        let bench = benchmark_json();
        let Some(Json::Arr(entries)) = bench.get("workloads") else {
            panic!("workloads is not an array");
        };
        let names: Vec<&str> = entries
            .iter()
            .map(|e| e.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        for (entry, w) in entries.iter().zip(crate::workload::WORKLOADS) {
            let why = entry.get("why").and_then(Json::as_str).unwrap();
            let rate = format!("{} ev/s", w.offered_eps as u64);
            assert!(why.contains(&rate), "{}: why does not state {rate}", w.name);
        }
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut r = Report::new(END_TO_END);
        for (i, s) in END_TO_END.iter().enumerate() {
            r.set(s.name, 1.5 + i as f64);
        }
        let line = hka::obs::json::parse(&r.result_line(10, 0)).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("attempted").and_then(Json::as_int), Some(10));
        assert_eq!(line.get("failed").and_then(Json::as_int), Some(0));
        let m = line.get("metrics").unwrap();
        for s in END_TO_END {
            let e = m.get(s.name).unwrap();
            assert_eq!(e.get("unit").and_then(Json::as_str), Some(s.unit));
            assert!(e.get("value").and_then(Json::as_f64).is_some());
        }
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn result_line_refuses_a_missing_metric() {
        Report::new(END_TO_END).result_line(1, 0);
    }
}
