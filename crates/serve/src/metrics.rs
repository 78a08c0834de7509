//! One walk over the server's metrics, rendered two ways.
//!
//! [`ServerState::visit_metrics`](crate::server::ServerState::visit_metrics)
//! visits every metric once, in `/v1/stats` order, and a [`Sink`] renders
//! what it visits: [`JsonSink`] builds the `adds.serve-stats/v8` document,
//! [`PromSink`] the `adds.metrics/v2` Prometheus text, with exactly one
//! `# TYPE` line per family. A metric is named once, by its stats path:
//! its Prometheus name is the section's prefix plus its key, with `_total`
//! for counters (`net.accepted` is `adds_net_accepted_total`). Labelled
//! families ([`Sink::family`]) carry their own name.

use adds_obs::metrics::{prom_counter, prom_gauge, prom_histogram, Histogram};
use adds_query::json::Json;
use adds_store::StoreSnapshot;

/// One metric's value, and how Prometheus types it.
#[derive(Clone, Copy)]
pub enum Value<'a> {
    /// A monotonic count, exported as `{prefix}{key}_total`.
    Counter(u64),
    /// A level that can fall (entries, open connections).
    Gauge(u64),
    /// `true`/`false` in JSON, a 0/1 gauge in Prometheus.
    Flag(bool),
    /// A log₂ histogram: a `{count, p50, p90, p99}` summary in JSON, its
    /// quantile keys suffixed with the unit (`"_us"` gives `p50_us`), and
    /// the full bucket series in Prometheus.
    Histogram(&'a Histogram, &'static str),
}

/// Where [`ServerState::visit_metrics`](crate::server::ServerState::visit_metrics)
/// sends each metric.
pub trait Sink {
    /// Open the `/v1/stats` object `key`; the unlabelled metrics inside
    /// it are named `{prefix}{key}` in Prometheus.
    fn enter(&mut self, key: &str, prefix: &'static str);
    /// Close the innermost open object.
    fn leave(&mut self);
    /// Unlabelled metrics, in order.
    fn metrics<'a>(&mut self, list: impl IntoIterator<Item = (&'a str, Value<'a>)>);
    /// A labelled family: one key per label value in the current object,
    /// one `name{label="…"}` series each under one `# TYPE` line.
    fn family<'a>(
        &mut self,
        name: &str,
        label: &str,
        members: impl IntoIterator<Item = (&'a str, Value<'a>)>,
    );
}

/// The persistent store's counters, in the order `/v1/stats` (`store`)
/// and `adds-cli store stats` (`adds.store-stats/v1`) list them.
pub fn visit_store(sink: &mut impl Sink, s: &StoreSnapshot) {
    use Value::{Counter, Gauge};
    sink.metrics([
        ("entries", Gauge(s.entries)),
        ("pending", Gauge(s.pending)),
        ("segments", Gauge(s.segments)),
        ("live_bytes", Gauge(s.live_bytes)),
        ("gets", Counter(s.gets)),
        ("hits", Counter(s.hits)),
        ("misses", Counter(s.misses)),
        ("puts", Counter(s.puts)),
        ("puts_ignored", Counter(s.puts_ignored)),
        ("commits", Counter(s.commits)),
        ("commit_failures", Counter(s.commit_failures)),
        ("committed_records", Counter(s.committed_records)),
        ("committed_bytes", Counter(s.committed_bytes)),
        ("recovered_records", Counter(s.recovered_records)),
        ("truncated_bytes", Counter(s.truncated_bytes)),
        ("quarantined_records", Counter(s.quarantined_records)),
        ("rotations", Counter(s.rotations)),
        ("compactions", Counter(s.compactions)),
    ]);
}

/// Builds a JSON document headed by its `schema` key. Histogram quantiles
/// are log₂-bucket upper bounds: within one bucket width of the true
/// value, 0 when empty.
pub struct JsonSink(Vec<(String, Vec<(String, Json)>)>);

impl JsonSink {
    /// An empty document of `schema`.
    pub fn new(schema: &str) -> JsonSink {
        JsonSink(vec![(
            String::new(),
            vec![("schema".to_string(), Json::str(schema))],
        )])
    }

    /// The finished document.
    pub fn finish(mut self) -> Json {
        let (_, root) = self.0.pop().expect("the root object");
        assert!(self.0.is_empty(), "every entered object is left");
        Json::Obj(root)
    }

    fn push(&mut self, key: &str, value: Json) {
        let (_, fields) = self.0.last_mut().expect("an open object");
        fields.push((key.to_string(), value));
    }
}

impl Sink for JsonSink {
    fn enter(&mut self, key: &str, _prefix: &'static str) {
        self.0.push((key.to_string(), Vec::new()));
    }

    fn leave(&mut self) {
        let (key, fields) = self.0.pop().expect("an entered object");
        self.push(&key, Json::Obj(fields));
    }

    fn metrics<'a>(&mut self, list: impl IntoIterator<Item = (&'a str, Value<'a>)>) {
        for (key, value) in list {
            let json = match value {
                Value::Counter(n) | Value::Gauge(n) => Json::UInt(n),
                Value::Flag(b) => Json::Bool(b),
                Value::Histogram(h, unit) => {
                    let mut summary = vec![("count".to_string(), Json::UInt(h.count()))];
                    for (q, p) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
                        summary.push((format!("{p}{unit}"), Json::UInt(h.quantile(q))));
                    }
                    Json::Obj(summary)
                }
            };
            self.push(key, json);
        }
    }

    fn family<'a>(
        &mut self,
        _name: &str,
        _label: &str,
        members: impl IntoIterator<Item = (&'a str, Value<'a>)>,
    ) {
        self.metrics(members);
    }
}

/// Writes Prometheus text exposition headed by a `# {schema}` comment.
pub struct PromSink {
    out: String,
    prefixes: Vec<&'static str>,
}

impl PromSink {
    /// An exposition of `schema`.
    pub fn new(schema: &str) -> PromSink {
        PromSink {
            out: format!("# {schema}\n"),
            prefixes: Vec::new(),
        }
    }

    /// The finished text.
    pub fn finish(self) -> String {
        self.out
    }

    /// One series of `name`, after its family's `# TYPE` line if `typed`
    /// is false.
    fn series(&mut self, name: &str, typed: bool, labels: &str, value: Value) {
        if !typed {
            let kind = match value {
                Value::Counter(_) => "counter",
                Value::Gauge(_) | Value::Flag(_) => "gauge",
                Value::Histogram(..) => "histogram",
            };
            self.out.push_str(&format!("# TYPE {name} {kind}\n"));
        }
        match value {
            Value::Counter(n) => prom_counter(&mut self.out, name, labels, n),
            Value::Gauge(n) => prom_gauge(&mut self.out, name, labels, n as i64),
            Value::Flag(b) => prom_gauge(&mut self.out, name, labels, b as i64),
            Value::Histogram(h, _) => prom_histogram(&mut self.out, name, labels, h),
        }
    }
}

impl Sink for PromSink {
    fn enter(&mut self, _key: &str, prefix: &'static str) {
        self.prefixes.push(prefix);
    }

    fn leave(&mut self) {
        self.prefixes.pop();
    }

    fn metrics<'a>(&mut self, list: impl IntoIterator<Item = (&'a str, Value<'a>)>) {
        let prefix = self.prefixes.last().copied().unwrap_or("adds_");
        for (key, value) in list {
            let total = if matches!(value, Value::Counter(_)) {
                "_total"
            } else {
                ""
            };
            self.series(&format!("{prefix}{key}{total}"), false, "", value);
        }
    }

    fn family<'a>(
        &mut self,
        name: &str,
        label: &str,
        members: impl IntoIterator<Item = (&'a str, Value<'a>)>,
    ) {
        for (i, (key, value)) in members.into_iter().enumerate() {
            self.series(name, i > 0, &format!("{label}=\"{key}\""), value);
        }
    }
}
