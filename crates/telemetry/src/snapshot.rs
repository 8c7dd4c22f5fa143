//! Exposition snapshots: a point-in-time bag of labelled samples,
//! rendered as Prometheus-style text or JSON.
//!
//! A [`Snapshot`] is built by whoever owns the metrics (the `Service`,
//! the fleet's `Cluster`), so this module knows nothing about the serving
//! stack — it only knows names, labels and values. Histograms are
//! exposed in the Prometheus *summary* shape (`quantile="0.5"` /
//! `"0.9"` / `"0.99"` plus `_sum`, `_count` and `_max`), which keeps
//! the text format compact while preserving the tail.
//!
//! Fleet views come from [`Snapshot::merge`]: the cluster coordinator
//! takes every node's snapshot, stamps it with a `node` label, and
//! appends it to its own fleet-level rows; the conservation tests
//! compare the coordinator's own bookkeeping against the per-node sums
//! with [`Snapshot::sum_gauge`].

use crate::metrics::HistogramSnapshot;

/// One sample's value.
#[derive(Clone, Debug)]
pub enum SnapValue {
    /// Monotone total.
    Counter(u64),
    /// Last-write-wins reading.
    Gauge(f64),
    /// Frozen distribution (boxed: a `HistogramSnapshot` carries its
    /// full bucket array, far larger than the scalar variants).
    Histogram(Box<HistogramSnapshot>),
}

/// One named, labelled sample.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Metric name (`cellstream_serve_replan_ns`, ...).
    pub name: String,
    /// Label pairs, e.g. `("app", "audio")` or `("node", "3")`.
    pub labels: Vec<(String, String)>,
    /// The reading.
    pub value: SnapValue,
}

/// A point-in-time set of samples with exposition renderers.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Every sample, in push order.
    pub samples: Vec<Sample>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples were pushed.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn push(&mut self, name: &str, labels: &[(&str, &str)], value: SnapValue) {
        self.samples.push(Sample {
            name: name.to_owned(),
            labels: labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect(),
            value,
        });
    }

    /// Add a counter sample.
    pub fn push_counter(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.push(name, labels, SnapValue::Counter(v));
    }

    /// Add a gauge sample.
    pub fn push_gauge(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.push(name, labels, SnapValue::Gauge(v));
    }

    /// Add a histogram sample.
    pub fn push_histogram(&mut self, name: &str, labels: &[(&str, &str)], h: HistogramSnapshot) {
        self.push(name, labels, SnapValue::Histogram(Box::new(h)));
    }

    /// First gauge with this name, any labels.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.samples.iter().find_map(|s| match (&s.value, s.name == name) {
            (SnapValue::Gauge(v), true) => Some(*v),
            _ => None,
        })
    }

    /// First gauge with this name carrying every given label pair.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples.iter().find_map(|s| {
            let labelled =
                labels.iter().all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v));
            match (&s.value, s.name == name && labelled) {
                (SnapValue::Gauge(g), true) => Some(*g),
                _ => None,
            }
        })
    }

    /// Sum of every gauge with this name across all label sets.
    pub fn sum_gauge(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match &s.value {
                SnapValue::Gauge(v) => *v,
                SnapValue::Counter(v) => *v as f64,
                SnapValue::Histogram(_) => 0.0,
            })
            .sum()
    }

    /// Sum of every counter with this name across all label sets.
    pub fn sum_counter(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match &s.value {
                SnapValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// Append every sample of `other`, stamped with an extra label
    /// (e.g. `("node", "3")`) — the fleet-merge primitive.
    pub fn merge(&mut self, other: Snapshot, key: &str, value: &str) {
        for mut s in other.samples {
            if !s.labels.iter().any(|(k, _)| k == key) {
                s.labels.push((key.to_owned(), value.to_owned()));
            }
            self.samples.push(s);
        }
    }

    /// Prometheus-style text exposition.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            match &s.value {
                SnapValue::Counter(v) => {
                    out.push_str(&format!("{}{} {v}\n", s.name, label_str(&s.labels, &[])));
                }
                SnapValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        s.name,
                        label_str(&s.labels, &[]),
                        prom_num(*v)
                    ));
                }
                SnapValue::Histogram(h) => {
                    for q in ["0.5", "0.9", "0.99"] {
                        let p: f64 = 100.0 * q.parse::<f64>().unwrap_or(0.5);
                        out.push_str(&format!(
                            "{}{} {}\n",
                            s.name,
                            label_str(&s.labels, &[("quantile", q)]),
                            h.quantile(p)
                        ));
                    }
                    let plain = label_str(&s.labels, &[]);
                    out.push_str(&format!("{}_sum{plain} {}\n", s.name, h.sum));
                    out.push_str(&format!("{}_count{plain} {}\n", s.name, h.count));
                    out.push_str(&format!("{}_max{plain} {}\n", s.name, h.max));
                }
            }
        }
        out
    }

    /// JSON exposition (non-finite gauges render as `null`).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .samples
            .iter()
            .map(|s| {
                let labels: Vec<String> = s
                    .labels
                    .iter()
                    .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
                    .collect();
                let head = format!(
                    "\"name\": \"{}\", \"labels\": {{{}}}",
                    escape(&s.name),
                    labels.join(", ")
                );
                match &s.value {
                    SnapValue::Counter(v) => {
                        format!("    {{{head}, \"type\": \"counter\", \"value\": {v}}}")
                    }
                    SnapValue::Gauge(v) => {
                        format!("    {{{head}, \"type\": \"gauge\", \"value\": {}}}", json_num(*v))
                    }
                    SnapValue::Histogram(h) => {
                        let buckets: Vec<String> = h
                            .nonzero_buckets()
                            .map(|(floor, count)| format!("[{floor}, {count}]"))
                            .collect();
                        format!(
                            "    {{{head}, \"type\": \"histogram\", \"count\": {}, \"sum\": {}, \
                             \"max\": {}, \"p50\": {}, \"p99\": {}, \"buckets\": [{}]}}",
                            h.count,
                            h.sum,
                            h.max,
                            h.quantile(50.0),
                            h.quantile(99.0),
                            buckets.join(", "),
                        )
                    }
                }
            })
            .collect();
        format!("{{\n  \"samples\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
    }
}

/// Render labels (plus extras) as `{k="v",...}`, or empty when none.
fn label_str(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    let mut pairs: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape(v))).collect();
    pairs.extend(extra.iter().map(|(k, v)| format!("{k}=\"{}\"", escape(v))));
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Escape `"` and `\` for label values and JSON strings.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Prometheus number rendering (`+Inf` is legal there).
fn prom_num(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v}")
    }
}

/// JSON number rendering (`null` for non-finite readings).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}
