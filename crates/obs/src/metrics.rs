//! The sharded metrics registry: counters, gauges and fixed-bucket
//! histograms behind one consistent naming scheme, rendered in a
//! stable line-oriented text exposition (`name{label=value} number`)
//! and a machine-parsable JSON variant.
//!
//! Shapes follow the Prometheus conventions the exposition mimics:
//! counters are monotone `_total`s, histograms explode into
//! cumulative `_bucket{le=…}` series plus `_sum`/`_count`. Writers
//! hash their series name across a fixed set of mutex shards so
//! concurrent query threads rarely contend; readers lock shard by
//! shard and sort, so a scrape is cheap and deterministic.
//! A value some live state already owns (a queue depth, a loaded
//! relation's layout) is not written at all: the registry's collector
//! reads it from its owner at every scrape, so it cannot go stale.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, OnceLock};

/// Default histogram upper bounds, in milliseconds — tuned for the
/// latencies this engine actually sees (sub-millisecond plans up to
/// multi-second fault-injected runs).
pub const DEFAULT_LATENCY_BUCKETS_MS: [f64; 12] = [
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
];

/// Shard count: a small power of two so the name hash spreads writer
/// contention without bloating an (engine-local) registry.
const SHARDS: usize = 16;

/// One series key: metric name plus its sorted label set.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Key {
    name: String,
    labels: Vec<(String, String)>,
}

impl Key {
    fn new(name: &str, labels: &[(&str, &str)]) -> Key {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Key {
            name: name.to_string(),
            labels,
        }
    }

    /// `name` or `name{k=v,k2=v2}` — the exposition spelling.
    fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

/// The value of one series, as captured by a scrape.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone counter.
    Counter(u64),
    /// Last-write-wins gauge.
    Gauge(f64),
    /// Fixed-bucket histogram: per-bucket counts (same length as
    /// `bounds`), total sum and total count.
    Histogram {
        /// Upper bounds of the buckets (an implicit `+Inf` follows).
        bounds: Vec<f64>,
        /// Observations ≤ the matching bound (non-cumulative).
        counts: Vec<u64>,
        /// Sum of all observed values.
        sum: f64,
        /// Number of observations (including those above every bound).
        count: u64,
    },
}

/// The `emit(name, labels, value)` sink the collector of pulled series
/// ([`Registry::set_collector`]) writes to.
pub type Emit<'a> = dyn FnMut(&str, &[(&str, &str)], MetricValue) + 'a;
type Collector = Box<dyn Fn(&mut Emit) + Send + Sync>;

/// A sharded registry of counters, gauges and histograms. The engine
/// owns one per instance, so parallel tests never cross-contaminate.
pub struct Registry {
    shards: Vec<Mutex<HashMap<Key, MetricValue>>>,
    collector: OnceLock<Collector>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            collector: OnceLock::new(),
        }
    }

    /// Install the collector of pulled series (once; later calls are
    /// ignored). Every scrape — [`Registry::series`], both renderers —
    /// runs it, so never scrape while holding a lock it takes. The
    /// by-name reads ([`Registry::get`] and friends) see pushed series
    /// only.
    pub fn set_collector(&self, collector: impl Fn(&mut Emit) + Send + Sync + 'static) {
        let _ = self.collector.set(Box::new(collector));
    }

    fn shard(&self, key: &Key) -> &Mutex<HashMap<Key, MetricValue>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Add `delta` to a counter (creating it at 0).
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let key = Key::new(name, labels);
        let mut shard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
        match shard.entry(key).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(v) => *v += delta,
            _ => debug_assert!(false, "{name}: metric kind changed"),
        }
    }

    /// Set a gauge to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let key = Key::new(name, labels);
        let mut shard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
        let slot = shard.entry(key).or_insert(MetricValue::Gauge(0.0));
        match slot {
            MetricValue::Gauge(v) => *v = value,
            _ => debug_assert!(false, "{name}: metric kind changed"),
        }
    }

    /// Record one observation into a histogram with the default
    /// latency buckets.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.observe_with(name, labels, &DEFAULT_LATENCY_BUCKETS_MS, value);
    }

    /// Record one observation into a histogram with explicit bucket
    /// upper bounds (used on first touch; later observations reuse
    /// the series' existing bounds).
    pub fn observe_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64], value: f64) {
        let key = Key::new(name, labels);
        let mut shard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
        let slot = shard.entry(key).or_insert_with(|| MetricValue::Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len()],
            sum: 0.0,
            count: 0,
        });
        match slot {
            MetricValue::Histogram {
                bounds,
                counts,
                sum,
                count,
            } => {
                if let Some(i) = bounds.iter().position(|b| value <= *b) {
                    counts[i] += 1;
                }
                *sum += value;
                *count += 1;
            }
            _ => debug_assert!(false, "{name}: metric kind changed"),
        }
    }

    /// Read a counter's current value (0 if never written).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(MetricValue::Counter(v)) => v,
            _ => 0,
        }
    }

    /// Sum a counter over every label set it was written with (0 if
    /// never written).
    pub fn counter_sum(&self, name: &str) -> u64 {
        let mut sum = 0;
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            for (key, value) in shard.iter() {
                if let (true, MetricValue::Counter(v)) = (key.name == name, value) {
                    sum += v;
                }
            }
        }
        sum
    }

    /// Read a histogram's observation count (0 if never written).
    pub fn histogram_count(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(MetricValue::Histogram { count, .. }) => count,
            _ => 0,
        }
    }

    /// Read one series' value, if present.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<MetricValue> {
        let key = Key::new(name, labels);
        let shard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
        shard.get(&key).cloned()
    }

    /// Every series, pushed and pulled, sorted by name then labels —
    /// the single source both renderers consume.
    fn snapshot(&self) -> Vec<(Key, MetricValue)> {
        let mut all: Vec<(Key, MetricValue)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            all.extend(shard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        if let Some(collect) = self.collector.get() {
            collect(&mut |name, labels, value| all.push((Key::new(name, labels), value)));
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Every series as `(rendered name, value)`, sorted by name then
    /// labels — the same coherent snapshot the renderers consume,
    /// exposed so the engine can materialise the registry as the
    /// `sys.metrics` relation.
    pub fn series(&self) -> Vec<(String, MetricValue)> {
        self.snapshot()
            .into_iter()
            .map(|(k, v)| (k.render(), v))
            .collect()
    }

    /// The text exposition: one `name{label=value} number` line per
    /// series, histograms exploded into cumulative `_bucket{le=…}`
    /// lines plus `_sum` and `_count`. Sorted, hence stable across
    /// scrapes — the format the server `metrics` verb answers with.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (key, value) in self.snapshot() {
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{} {v}\n", key.render()));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{} {v}\n", key.render()));
                }
                MetricValue::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                } => {
                    let mut cumulative = 0u64;
                    for (bound, c) in bounds.iter().zip(&counts) {
                        cumulative += c;
                        let mut k = key.clone();
                        k.name = format!("{}_bucket", key.name);
                        k.labels.push(("le".into(), format!("{bound}")));
                        k.labels.sort();
                        out.push_str(&format!("{} {cumulative}\n", k.render()));
                    }
                    let mut k = key.clone();
                    k.name = format!("{}_bucket", key.name);
                    k.labels.push(("le".into(), "+Inf".into()));
                    k.labels.sort();
                    out.push_str(&format!("{} {count}\n", k.render()));
                    out.push_str(&format!("{}_sum{} {sum}\n", key.name, labels_suffix(&key)));
                    out.push_str(&format!(
                        "{}_count{} {count}\n",
                        key.name,
                        labels_suffix(&key)
                    ));
                }
            }
        }
        out
    }

    /// The JSON exposition: an object keyed by rendered series name.
    /// Counters and gauges map to numbers; histograms to
    /// `{"buckets": {"<le>": n, …}, "sum": s, "count": n}` with
    /// cumulative bucket counts matching the text form.
    pub fn render_json(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (key, value) in self.snapshot() {
            let name = json_escape(&key.render());
            match value {
                MetricValue::Counter(v) => parts.push(format!("\"{name}\":{v}")),
                MetricValue::Gauge(v) => parts.push(format!("\"{name}\":{}", json_num(v))),
                MetricValue::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                } => {
                    let mut cumulative = 0u64;
                    let mut buckets: Vec<String> = bounds
                        .iter()
                        .zip(&counts)
                        .map(|(b, c)| {
                            cumulative += c;
                            format!("\"{b}\":{cumulative}")
                        })
                        .collect();
                    buckets.push(format!("\"+Inf\":{count}"));
                    parts.push(format!(
                        "\"{name}\":{{\"buckets\":{{{}}},\"sum\":{},\"count\":{count}}}",
                        buckets.join(","),
                        json_num(sum)
                    ));
                }
            }
        }
        format!("{{{}}}", parts.join(","))
    }
}

/// `{k=v,…}` after a histogram's `_sum`/`_count` name (empty when the
/// series has no labels).
fn labels_suffix(key: &Key) -> String {
    if key.labels.is_empty() {
        String::new()
    } else {
        let labels: Vec<String> = key.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{{{}}}", labels.join(","))
    }
}

/// JSON-safe float: finite values print via `Display` (valid JSON
/// numbers), non-finite degrade to 0 rather than emit bare `inf`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Escape a string for use inside a JSON string literal: backslash,
/// double quote, and every control character below U+0020 (the chars
/// RFC 8259 requires escaped — a label value holding a newline or tab
/// must not break the exposition).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render_sorted_and_stable() {
        let reg = Registry::new();
        reg.counter_add("b_total", &[], 2);
        reg.counter_add("a_total", &[("method", "ours")], 1);
        reg.counter_add("a_total", &[("method", "hive")], 3);
        reg.gauge_set("depth", &[], 4.5);
        let text = reg.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "a_total{method=hive} 3",
                "a_total{method=ours} 1",
                "b_total 2",
                "depth 4.5",
            ]
        );
        // Scrapes are stable.
        assert_eq!(text, reg.render_text());
        assert_eq!(reg.counter_value("a_total", &[("method", "hive")]), 3);
        assert_eq!(reg.counter_value("missing", &[]), 0);
    }

    #[test]
    fn label_order_is_canonical() {
        let reg = Registry::new();
        reg.counter_add("x", &[("b", "2"), ("a", "1")], 1);
        reg.counter_add("x", &[("a", "1"), ("b", "2")], 1);
        assert_eq!(reg.counter_value("x", &[("b", "2"), ("a", "1")]), 2);
        assert!(reg.render_text().contains("x{a=1,b=2} 2"));
    }

    #[test]
    fn histograms_explode_cumulatively() {
        let reg = Registry::new();
        let bounds = [1.0, 10.0, 100.0];
        for v in [0.5, 5.0, 50.0, 500.0] {
            reg.observe_with("lat_ms", &[("m", "x")], &bounds, v);
        }
        let text = reg.render_text();
        assert!(text.contains("lat_ms_bucket{le=1,m=x} 1"), "{text}");
        assert!(text.contains("lat_ms_bucket{le=10,m=x} 2"), "{text}");
        assert!(text.contains("lat_ms_bucket{le=100,m=x} 3"), "{text}");
        assert!(text.contains("lat_ms_bucket{le=+Inf,m=x} 4"), "{text}");
        assert!(text.contains("lat_ms_sum{m=x} 555.5"), "{text}");
        assert!(text.contains("lat_ms_count{m=x} 4"), "{text}");
        assert_eq!(reg.histogram_count("lat_ms", &[("m", "x")]), 4);
    }

    #[test]
    fn json_variant_parses_shape() {
        let reg = Registry::new();
        reg.counter_add("c_total", &[], 7);
        reg.observe_with("h_ms", &[], &[1.0], 0.5);
        reg.gauge_set("g", &[], 1.25);
        let json = reg.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"c_total\":7"), "{json}");
        assert!(json.contains("\"g\":1.25"), "{json}");
        assert!(
            json.contains("\"h_ms\":{\"buckets\":{\"1\":1,\"+Inf\":1},\"sum\":0.5,\"count\":1}"),
            "{json}"
        );
    }

    #[test]
    fn concurrent_writers_do_not_lose_counts() {
        let reg = std::sync::Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = std::sync::Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    reg.counter_add("spam_total", &[], 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter_value("spam_total", &[]), 8000);
    }

    #[test]
    fn concurrent_histogram_and_labeled_counter_writers_are_exact() {
        // N threads hammering one histogram (and a counter with a
        // per-thread label) must leave exact final values — no lost
        // updates across the shard mutexes.
        let reg = std::sync::Arc::new(Registry::new());
        let threads = 8usize;
        let per = 500usize;
        let mut handles = Vec::new();
        for t in 0..threads {
            let reg = std::sync::Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let label = format!("t{t}");
                for i in 0..per {
                    reg.observe_with("h_ms", &[], &[1.0, 10.0], (i % 20) as f64);
                    reg.counter_add("per_thread_total", &[("t", &label)], 2);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.histogram_count("h_ms", &[]), (threads * per) as u64);
        match reg.get("h_ms", &[]).unwrap() {
            MetricValue::Histogram { counts, sum, .. } => {
                // Values cycle 0..20: 2 of them land in [0, 1.0] and 9
                // in (1.0, 10.0] (bucket counts are non-cumulative).
                assert_eq!(counts[0], (threads * per * 2 / 20) as u64);
                assert_eq!(counts[1], (threads * per * 9 / 20) as u64);
                let expected = (0..20).map(f64::from).sum::<f64>() * (threads * per / 20) as f64;
                assert!((sum - expected).abs() < 1e-6, "{sum} vs {expected}");
            }
            other => panic!("not a histogram: {other:?}"),
        }
        for t in 0..threads {
            let label = format!("t{t}");
            assert_eq!(
                reg.counter_value("per_thread_total", &[("t", &label)]),
                (per * 2) as u64
            );
        }
    }

    #[test]
    fn json_escape_handles_quotes_backslashes_and_controls() {
        let reg = Registry::new();
        reg.counter_add("c_total", &[("rel", "a\"b\\c\nd\te\u{1}f")], 1);
        let json = reg.render_json();
        assert!(
            json.contains("a\\\"b\\\\c\\nd\\te\\u0001f"),
            "label not escaped: {json}"
        );
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn series_snapshot_matches_renderers() {
        let reg = Registry::new();
        reg.counter_add("b_total", &[], 2);
        reg.gauge_set("a", &[("x", "1")], 0.5);
        let series = reg.series();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, "a{x=1}");
        assert_eq!(series[0].1, MetricValue::Gauge(0.5));
        assert_eq!(series[1].0, "b_total");
        assert_eq!(series[1].1, MetricValue::Counter(2));
    }

    #[test]
    fn pulled_series_are_read_from_their_owner_at_every_scrape() {
        let reg = Registry::new();
        let depth = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(3));
        let owner = std::sync::Arc::clone(&depth);
        reg.set_collector(move |emit| {
            let v = owner.load(std::sync::atomic::Ordering::Relaxed);
            emit("depth", &[("q", "a")], MetricValue::Gauge(v as f64));
        });
        reg.counter_add("e_total", &[("m", "x")], 2);
        reg.counter_add("e_total", &[("m", "y")], 5);
        assert_eq!(
            reg.render_text(),
            "depth{q=a} 3\ne_total{m=x} 2\ne_total{m=y} 5\n"
        );
        depth.store(0, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(
            reg.series()[0],
            ("depth{q=a}".into(), MetricValue::Gauge(0.0))
        );
        assert!(reg.render_json().starts_with("{\"depth{q=a}\":0,"));
        // By-name reads cover pushed series only.
        assert_eq!(reg.get("depth", &[("q", "a")]), None);
        assert_eq!(reg.counter_sum("e_total"), 7);
        assert_eq!(reg.counter_sum("depth"), 0);
    }
}
