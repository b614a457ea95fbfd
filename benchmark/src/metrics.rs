//! The metric catalogue (the same names, units and bounds as
//! `BENCHMARK.json` — a unit test holds the two together), the
//! per-run collector that prints them, and the A/A comparison.

use crate::harness::Tally;
use crate::workloads::CLASSES;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// An end-to-end metric: what a user of the server sees. `bound` is
/// the share of the parent's median by which it may get worse.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the test that holds `BENCHMARK.json` to this table.
    #[cfg_attr(not(test), allow(dead_code))]
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: false,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 7] = [
    lower("setup_s", "s", 0.25),
    lower("query_p50_ms", "ms", 0.25),
    lower("query_p90_ms", "ms", 0.25),
    lower("first_frame_p50_ms", "ms", 0.25),
    EndToEnd {
        name: "throughput_qps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    lower("load_p50_ms", "ms", 0.20),
    lower("sim_makespan_s", "s", 0.03),
];

/// Per-layer metrics with fixed names: (name, unit, higher is better).
/// Two more per op class are appended by [`per_layer`].
const LAYER_FIXED: [(&str, &str, bool); 54] = [
    ("server.wire_rtt_ms", "ms", false),
    ("server.request_parse_us", "us", false),
    ("server.frame_encode_us_per_krow", "us", false),
    ("server.frame_write_mb_per_s", "MB/s", true),
    ("server.frames_per_query", "count", false),
    ("server.bytes_per_query", "bytes", false),
    ("query.parse_us", "us", false),
    ("planner.plan_cold_us", "us", false),
    ("planner.cache_hit_ratio", "ratio", true),
    ("planner.jobs_per_query", "count", false),
    ("cost.predicted_over_sim", "ratio", false),
    ("core.execute_ms", "ms", false),
    ("core.setup_ms", "ms", false),
    ("core.admission_wait_ms", "ms", false),
    ("core.queued_fraction", "ratio", false),
    ("core.degraded_fraction", "ratio", false),
    ("core.shed", "count", false),
    ("core.load_rows_per_s", "rows/s", true),
    ("mapreduce.jobs_real_ms", "ms", false),
    ("mapreduce.shuffle_records", "count", false),
    ("mapreduce.shuffle_bytes", "bytes", false),
    ("mapreduce.shuffle_records_per_input", "ratio", false),
    ("mapreduce.reduce_skew", "ratio", false),
    ("mapreduce.blocks_pruned_fraction", "ratio", true),
    ("mapreduce.rows_pruned_fraction", "ratio", true),
    ("mapreduce.put_relation_ms_per_mrow", "ms", false),
    ("mapreduce.task_retries", "count", false),
    ("mapreduce.parallel_efficiency", "ratio", true),
    ("join.reduce_candidates", "count", false),
    ("join.candidates_per_output_row", "ratio", false),
    ("join.candidates_per_s", "1/s", true),
    ("join.chain_map_ms", "ms", false),
    ("join.chain_reduce_ms", "ms", false),
    ("join.pair_kernel_ms", "ms", false),
    ("hilbert.partition_build_us", "us", false),
    ("hilbert.replication_factor", "ratio", false),
    ("storage.csv_parse_mb_per_s", "MB/s", true),
    ("storage.columns_build_ms_per_mrow", "ms", false),
    ("storage.stats_collect_ms_per_mrow", "ms", false),
    ("storage.csv_encode_mb_per_s", "MB/s", true),
    ("storage.loaded_rss_mb", "MiB", false),
    ("storage.peak_rss_mb", "MiB", false),
    ("storage.rss_bytes_per_row", "bytes", false),
    ("storage.reported_resident_bytes_per_row", "bytes", false),
    ("storage.skip_speedup", "ratio", true),
    ("obs.recorder_overhead_frac", "ratio", false),
    ("obs.metrics_render_ms", "ms", false),
    ("obs.profile_coverage", "ratio", true),
    ("harness.unattributed_ms", "ms", false),
    ("harness.trace_overhead_frac", "ratio", false),
    ("harness.query_samples", "count", true),
    ("harness.setups", "count", true),
    ("harness.traced_replays", "count", true),
    ("harness.host_threads", "count", true),
];

/// Counts that must repeat exactly between two runs of one build on
/// one seed (the A/A script compares them with `==`).
const EXACT: [&str; 8] = [
    "sim_makespan_s",
    "server.frames_per_query",
    "planner.jobs_per_query",
    "mapreduce.shuffle_records",
    "mapreduce.shuffle_bytes",
    "mapreduce.task_retries",
    "join.reduce_candidates",
    "hilbert.replication_factor",
];

/// Every per-layer metric as (name, unit, higher is better), in the
/// order `BENCHMARK.json` lists them.
pub fn per_layer() -> Vec<(String, &'static str, bool)> {
    let mut all: Vec<(String, &'static str, bool)> = LAYER_FIXED
        .iter()
        .map(|&(n, u, h)| (n.to_string(), u, h))
        .collect();
    for class in CLASSES {
        all.push((format!("class.{class}.p50_ms"), "ms", false));
        all.push((format!("class.{class}.unattributed_ms"), "ms", false));
    }
    all
}

/// The metrics of one run.
pub struct Metrics {
    workload: &'static str,
    end_to_end: BTreeMap<&'static str, f64>,
    per_layer: BTreeMap<String, f64>,
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

impl Metrics {
    pub fn new(workload: &'static str) -> Self {
        Metrics {
            workload,
            end_to_end: BTreeMap::new(),
            per_layer: BTreeMap::new(),
        }
    }

    pub fn end_to_end(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name),
            "{name} is not an end-to-end metric"
        );
        self.end_to_end.insert(name, finite(value));
    }

    /// End-to-end metrics that were never set or read 0.
    pub fn unmeasured(&self) -> Vec<&'static str> {
        END_TO_END
            .iter()
            .map(|m| m.name)
            .filter(|n| self.end_to_end.get(n).copied().unwrap_or(0.0) == 0.0)
            .collect()
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.per_layer.insert(name.to_string(), finite(value));
    }

    /// Print every collected metric as `workload metric value unit`,
    /// then the result object: the end-to-end metrics, or with
    /// `traced` every per-layer metric (0 where a metric does not
    /// apply to this workload, e.g. another workload's class).
    pub fn print(&self, traced: bool, correct: bool, tally: &Tally) {
        let mut json = Vec::new();
        for m in &END_TO_END {
            let v = self.end_to_end.get(m.name).copied().unwrap_or(0.0);
            println!("{} {} {v} {}", self.workload, m.name, m.unit);
            if !traced {
                json.push(format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                ));
            }
        }
        if traced {
            let catalogue = per_layer();
            for name in self.per_layer.keys() {
                assert!(
                    catalogue.iter().any(|(n, _, _)| n == name),
                    "{name} is not a per-layer metric"
                );
            }
            for (name, unit, _) in &catalogue {
                let v = self.per_layer.get(name).copied();
                if let Some(v) = v {
                    println!("{} {name} {v} {unit}", self.workload);
                }
                json.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    v.unwrap_or(0.0)
                ));
            }
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.attempted.max(1),
            tally.failed,
            json.join(", ")
        );
    }
}

/// `workload metric value unit` lines of a results file, keyed by
/// (workload, metric).
fn parse_results(text: &str) -> BTreeMap<(String, String), f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        if let [workload, metric, value, _unit] = words[..] {
            if let Ok(v) = value.parse::<f64>() {
                out.insert((workload.to_string(), metric.to_string()), v);
            }
        }
    }
    out
}

/// Disagreements between two runs of the same build: every end-to-end
/// metric must agree within its own bound (either direction), and the
/// [`EXACT`] ones exactly.
pub fn compare(first: &str, second: &str) -> Vec<String> {
    let (a, b) = (parse_results(first), parse_results(second));
    let mut problems = Vec::new();
    for ((workload, metric), &x) in &a {
        let Some(&y) = b.get(&(workload.clone(), metric.clone())) else {
            problems.push(format!("{workload} {metric}: missing from the second run"));
            continue;
        };
        if EXACT.contains(&metric.as_str()) {
            if x != y {
                problems.push(format!(
                    "{workload} {metric}: {x} vs {y}, must repeat exactly"
                ));
            }
        } else if let Some(m) = END_TO_END.iter().find(|m| m.name == metric) {
            let drift = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
            if drift > m.bound {
                problems.push(format!(
                    "{workload} {metric}: {x} vs {y} differ by {:.1} % (bound {:.0} %)",
                    drift * 100.0,
                    m.bound * 100.0
                ));
            }
        }
    }
    if a.is_empty() {
        problems.push("the first run holds no results".into());
    }
    problems
}

pub fn compare_files(first: &str, second: &str) -> ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    match (read(first), read(second)) {
        (Ok(a), Ok(b)) => {
            let problems = compare(&a, &b);
            for p in &problems {
                println!("A/A MISMATCH {p}");
            }
            if problems.is_empty() {
                println!("A/A ok: every end-to-end metric within its bound, exact counts equal");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("mwtj-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for m in &END_TO_END {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let layers = per_layer();
        assert!(layers.len() <= 128);
        for (name, unit, higher) in &layers {
            let better = if *higher { "higher" } else { "lower" };
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            assert!(name.len() <= 64 && unit.len() <= 16);
        }
        let names = json.matches("\"name\": ").count();
        assert_eq!(
            names,
            crate::workloads::NAMES.len() + END_TO_END.len() + layers.len()
        );
        for w in crate::workloads::NAMES {
            assert!(json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
        }
        let mut seen = std::collections::BTreeSet::new();
        for n in layers
            .iter()
            .map(|l| l.0.as_str())
            .chain(END_TO_END.iter().map(|m| m.name))
        {
            assert!(seen.insert(n.to_string()), "{n} is listed twice");
        }
    }

    #[test]
    fn aa_compare_applies_each_metrics_own_bound() {
        let a = "w query_p50_ms 100 ms\nw sim_makespan_s 0.5 s\nw mapreduce.shuffle_records 7 count\nnoise\n";
        assert!(compare(a, a).is_empty());
        let within =
            "w query_p50_ms 124 ms\nw sim_makespan_s 0.5 s\nw mapreduce.shuffle_records 7 count\n";
        assert!(compare(a, within).is_empty());
        let slow =
            "w query_p50_ms 126 ms\nw sim_makespan_s 0.5 s\nw mapreduce.shuffle_records 7 count\n";
        assert_eq!(compare(a, slow).len(), 1);
        let drifted = "w query_p50_ms 100 ms\nw sim_makespan_s 0.500001 s\nw mapreduce.shuffle_records 8 count\n";
        assert_eq!(compare(a, drifted).len(), 2);
        assert_eq!(compare(a, "w query_p50_ms 100 ms\n").len(), 2);
        assert!(!compare("", a).is_empty());
    }
}
