//! The `adds-cli serve` engine: the `/v1` API over [`crate::http`] into
//! one shared, demand-driven [`Session`], on the event-driven core from
//! [`adds_net`]. One nonblocking `poll(2)` loop owns every socket, an
//! explicit connection budget answers overload with `503 Retry-After`, a
//! timer wheel enforces read/idle deadlines (slow-loris defense), and
//! framed requests execute on the `--jobs` worker pool. Scales to tens of
//! thousands of keep-alive connections.
//!
//! Every request is routed by [`ServerState::handle`] and serialized by
//! [`crate::http::serialize_response`]. The `reactor_parity` tests pin the
//! bytes on the wire, dribbled and pipelined input included, to that
//! in-process path: `read_request` → `handle` → `serialize_response`.
//!
//! ## Endpoints
//!
//! [`ENDPOINTS`] declares these rows, in this order, and a test holds the
//! table to it. Every `GET` endpoint answers `HEAD` too, with the status
//! and headers of the `GET`, `Content-Length` included, and no body. A
//! known path under another method answers `405` with an `Allow` header
//! (`GET, HEAD` on a `GET` endpoint); an unknown path answers `404`.
//!
//! | method + path | body | response |
//! |---|---|---|
//! | `POST /v1/analyze` | IL source | `adds.analyze/v2` document |
//! | `POST /v1/parallelize` | IL source | `adds.parallelize/v2` document |
//! | `POST /v1/run` | IL source | `adds.run/v1` document |
//! | `POST /v1/check` | IL source | `adds.check/v1` document |
//! | `POST /v1/parse` | IL source | `adds.parse/v1` document |
//! | `POST /v1/batch` | `adds.batch/v1` request | `adds.batch/v1` results |
//! | `GET /v1/report/{sha256}` | — | cached stage document or 404 |
//! | `GET /v1/corpus` | — | built-in program list |
//! | `GET /v1/corpus/{name}` | — | built-in program source (text) |
//! | `GET /v1/stats` | — | `adds.serve-stats/v8` counters, gauges + latency quantiles |
//! | `GET /healthz` | — | `ok` |
//! | `GET /v1/metrics` | — | the same metrics as Prometheus text (`adds.metrics/v2`) |
//! | `GET /v1/trace` | — | `adds.trace/v1` buffered spans (needs `--trace`) |
//!
//! `POST` endpoints accept `?name=NAME` to set the report's display name
//! (default: the body's sha256), `analyze` accepts `&matrices=1`, and
//! `run` accepts `&pes=2,4&bodies=64&steps=2&theta=0.7&dt=0.001`.
//! `GET /v1/report/{sha}` accepts `?stage=analyze|parallelize|check|parse`
//! (default `analyze`), `&matrices=1`, and `&name=`. Responses to cacheable
//! requests carry `X-Adds-Sha256` (the content address for later
//! `/v1/report` fetches) and `X-Adds-Cache: hit|miss|coalesced|disk`
//! (`disk`: answered from the `--store` persistent tier, byte-identical
//! to a recompute).
//!
//! ## `POST /v1/batch`
//!
//! One request, many stage/run items, all through the same session — so
//! an `analyze` item warms every artifact a later `parallelize` item of
//! the same source needs:
//!
//! ```json
//! {"items": [
//!   {"stage": "analyze", "program": "barnes_hut", "matrices": false},
//!   {"stage": "parallelize", "program": "barnes_hut"},
//!   {"stage": "check", "source": "type T ...", "name": "inline.il"},
//!   {"stage": "run", "program": "barnes_hut", "pes": [2, 4], "bodies": 32}
//! ]}
//! ```
//!
//! Each item names either a built-in `program` or carries inline
//! `source`. The response (`adds.batch/v1`) holds one result per item in
//! order: `{name, sha256, cache, ok, doc}` — `doc` being byte-identical
//! to the matching single-request document — or `{error}` for items that
//! could not run.
//!
//! Connections are persistent by default (HTTP/1.1 keep-alive) unless the
//! client sends `Connection: close`; see [`crate::http`]. With `--log`,
//! every request emits one structured JSON line ([`crate::logging`]) on
//! stdout.

use crate::corpus;
use crate::http::{
    read_head, read_request, serialize_response, BadRequest, Request, Response,
    KEEPALIVE_IDLE_TIMEOUT, KEEPALIVE_MAX_REQUESTS, MAX_BODY_BYTES, MAX_HEADER_BYTES,
};
use crate::logging;
use crate::metrics::{visit_store, JsonSink, PromSink, Sink, Value};
use adds_net::reactor::{Framed, Protocol, Reactor, ReactorOptions, Reply, StopHandle};
use adds_net::stats::NetStats;
use adds_obs::metrics::{Counter, Histogram};
use adds_obs::trace;
use adds_query::json::Json;
use adds_query::runner::RunOptions;
use adds_query::session::{RunRequest, Session, SessionConfig, Stage, StageRequest};
use adds_query::sha::Digest;
use adds_query::QueryKind;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default connection budget.
pub const DEFAULT_MAX_CONNECTIONS: usize = 10_240;

/// Default deadline for reading one full request (slow-loris bound).
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:8199` (port 0 picks an ephemeral one).
    pub addr: String,
    /// Worker budget (0 = one per core): HTTP worker threads, and the
    /// session's parallel fan-out width (batch items, per-function
    /// effects, per-PE runs). Only affects wall-clock — responses are
    /// byte-identical at every value.
    pub jobs: usize,
    /// Per-cache entry bound (0 = unbounded) with CLOCK eviction.
    pub cache_capacity: usize,
    /// Emit one structured JSON access-log line per request on stdout.
    pub log: bool,
    /// Write a Chrome `trace_event` JSON file here on shutdown
    /// (`serve --trace out.json`); enables span recording.
    pub trace_path: Option<String>,
    /// Persistent store directory (`serve --store DIR`): report/run cache
    /// values survive restarts in an append-only, checksummed segment
    /// store. A background thread commits the write-behind buffer every
    /// [`COMMIT_INTERVAL`]; shutdown commits once more.
    pub store_dir: Option<String>,
    /// Connection budget: accepts beyond it are answered with `503` +
    /// `Retry-After` and counted (`adds_net_rejected_total`) instead of
    /// piling into the accept queue.
    pub max_connections: usize,
    /// Deadline for reading one full request, from accept (or the first
    /// byte after an idle gap) to the last body byte — the slow-loris
    /// bound. A dribbling client cannot extend it.
    pub read_timeout: Duration,
    /// Idle keep-alive timeout between requests (default
    /// [`KEEPALIVE_IDLE_TIMEOUT`]).
    pub idle_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:8199".to_string(),
            jobs: 0,
            cache_capacity: 0,
            log: false,
            trace_path: None,
            store_dir: None,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            read_timeout: DEFAULT_READ_TIMEOUT,
            idle_timeout: KEEPALIVE_IDLE_TIMEOUT,
        }
    }
}

/// Declares the routes once. Each `Variant "label" { … }` is one
/// [`Route`] with its metric label, in metric order; each
/// `METHOD "pattern", "body", "response";` inside it is one [`Endpoint`].
macro_rules! routes {
    ($($route:ident $label:literal {
        $($method:ident $pattern:literal, $body:literal, $response:literal;)+
    })+) => {
        /// What [`ServerState::handle`] dispatches on, and the key of every
        /// per-route metric: dense, so counters and histograms index by it.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Route {
            $(
                $(#[doc = concat!("`", stringify!($method), " ", $pattern, "`")])+
                $route,
            )+
            /// Anything else (404s, bad methods, unreadable requests).
            Other,
        }

        impl Route {
            /// Every route, in declaration order (`as usize` indexes this).
            pub const ALL: &'static [Route] = &[$(Route::$route,)+ Route::Other];

            /// Number of routes (the counter and histogram array length).
            pub const COUNT: usize = Route::ALL.len();

            /// Stable metric label (matches the `/v1/stats` request keys).
            pub fn name(self) -> &'static str {
                match self {
                    $(Route::$route => $label,)+
                    Route::Other => "other",
                }
            }
        }

        /// Every endpoint, in declaration order: the rows of the module
        /// docs' endpoint table.
        pub const ENDPOINTS: &[Endpoint] = &[$($(Endpoint {
            method: stringify!($method),
            pattern: $pattern,
            route: Route::$route,
            body: $body,
            response: $response,
        },)+)+];
    };
}

routes! {
    Analyze "analyze" { POST "/v1/analyze", "IL source", "`adds.analyze/v2` document"; }
    Parallelize "parallelize" {
        POST "/v1/parallelize", "IL source", "`adds.parallelize/v2` document";
    }
    Run "run" { POST "/v1/run", "IL source", "`adds.run/v1` document"; }
    Check "check" { POST "/v1/check", "IL source", "`adds.check/v1` document"; }
    Parse "parse" { POST "/v1/parse", "IL source", "`adds.parse/v1` document"; }
    Batch "batch" { POST "/v1/batch", "`adds.batch/v1` request", "`adds.batch/v1` results"; }
    Report "report" { GET "/v1/report/{sha256}", "—", "cached stage document or 404"; }
    Corpus "corpus" {
        GET "/v1/corpus", "—", "built-in program list";
        GET "/v1/corpus/{name}", "—", "built-in program source (text)";
    }
    Stats "stats" {
        GET "/v1/stats", "—", "`adds.serve-stats/v8` counters, gauges + latency quantiles";
    }
    Healthz "healthz" { GET "/healthz", "—", "`ok`"; }
    Metrics "metrics" {
        GET "/v1/metrics", "—", "the same metrics as Prometheus text (`adds.metrics/v2`)";
    }
    Trace "trace" { GET "/v1/trace", "—", "`adds.trace/v1` buffered spans (needs `--trace`)"; }
}

/// One endpoint of the API, declared in [`ENDPOINTS`].
#[derive(Clone, Copy, Debug)]
pub struct Endpoint {
    /// The request method.
    pub method: &'static str,
    /// The path: exact, or a prefix ending in one `{…}` placeholder, which
    /// matches any suffix, the empty one included.
    pub pattern: &'static str,
    /// The route that serves it.
    pub route: Route,
    /// What the request body holds.
    pub body: &'static str,
    /// What the response holds.
    pub response: &'static str,
}

impl Endpoint {
    /// `None` when `path` does not match the pattern; otherwise what the
    /// placeholder captured, `None` for an exact pattern.
    fn capture<'p>(&self, path: &'p str) -> Option<Option<&'p str>> {
        match self.pattern.split_once('{') {
            Some((prefix, _)) => path.strip_prefix(prefix).map(Some),
            None => (path == self.pattern).then_some(None),
        }
    }
}

/// Where a request line leads: one pass over [`ENDPOINTS`].
#[derive(Clone, Copy, Debug)]
enum Target<'p> {
    /// An endpoint's route, with what its placeholder captured.
    Route(Route, Option<&'p str>),
    /// The path is declared for another method only: the `Allow` value.
    /// Every pattern is declared once, so it names one method, and `HEAD`
    /// beside a `GET`.
    WrongMethod(&'static str),
    /// No endpoint declares the path.
    NotFound,
}

impl<'p> Target<'p> {
    fn resolve(method: &str, path: &'p str) -> Target<'p> {
        // HEAD is a GET whose body the response leaves out (RFC 9110
        // §9.3.2).
        let method = if method == "HEAD" { "GET" } else { method };
        let mut target = Target::NotFound;
        for endpoint in ENDPOINTS {
            if let Some(arg) = endpoint.capture(path) {
                if endpoint.method == method {
                    return Target::Route(endpoint.route, arg);
                }
                target = Target::WrongMethod(match endpoint.method {
                    "GET" => "GET, HEAD",
                    other => other,
                });
            }
        }
        target
    }

    fn route(self) -> Route {
        match self {
            Target::Route(route, _) => route,
            Target::WrongMethod(_) | Target::NotFound => Route::Other,
        }
    }
}

/// Per-route latency histograms and the request-body byte counter. All
/// lock-free.
pub struct ServeMetrics {
    /// Request latency (µs) per route, indexed by `Route as usize`.
    pub route_latency: [Histogram; Route::COUNT],
    /// Total request body bytes read.
    pub bytes_in: Counter,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics {
            route_latency: std::array::from_fn(|_| Histogram::new()),
            bytes_in: Counter::new(),
        }
    }
}

/// The shared server state: the demand-driven [`Session`] plus request
/// counters. Routing lives here so tests can drive it without sockets.
pub struct ServerState {
    /// The demand-driven stage/run executor.
    pub service: Session,
    /// Per-route request counters (`/v1/stats` `requests`,
    /// `adds_requests_total`), indexed by `Route as usize`.
    pub requests: [AtomicU64; Route::COUNT],
    /// Latency histograms and the request-body byte counter.
    pub metrics: ServeMetrics,
    /// Emit access-log lines (`serve --log`).
    pub log_requests: bool,
    /// Event-loop counters (`/v1/stats` `net` section, `adds_net_*`
    /// metrics).
    pub net: Arc<NetStats>,
}

impl Default for ServerState {
    fn default() -> Self {
        ServerState {
            service: Session::default(),
            requests: Default::default(),
            metrics: ServeMetrics::default(),
            log_requests: false,
            net: Arc::new(NetStats::default()),
        }
    }
}

/// Most items accepted in one `/v1/batch` request.
const MAX_BATCH_ITEMS: usize = 256;

/// Most `run` items per batch. A batch executes synchronously on one
/// worker, and a single `run` item may legitimately sit near the per-run
/// parameter caps — letting 256 of them ride one request would multiply
/// the "don't tie the worker up indefinitely" bound by 256. Clients
/// wanting more runs issue separate requests, which spread over the pool.
const MAX_BATCH_RUN_ITEMS: usize = 4;

impl ServerState {
    fn count(&self, route: Route) {
        self.requests[route as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Route one request to a response.
    pub fn handle(&self, req: &Request) -> Response {
        self.serve(Target::resolve(&req.method, &req.path), req)
    }

    /// [`Self::handle`] for a request line already resolved.
    fn serve(&self, target: Target, req: &Request) -> Response {
        self.count(target.route());
        let resp = match target {
            Target::Route(Route::Healthz, _) => Response::text(200, "ok\n"),
            Target::Route(Route::Stats, _) => Response::json(200, self.stats_doc().pretty()),
            Target::Route(Route::Metrics, _) => Response::text(200, self.metrics_text()),
            Target::Route(Route::Trace, _) => {
                if trace::enabled() {
                    Response::json(200, trace::render_current())
                } else {
                    Response::error(404, "tracing is off; start the server with --trace")
                }
            }
            Target::Route(Route::Corpus, None) => Response::json(200, corpus_doc().pretty()),
            Target::Route(Route::Corpus, Some(name)) => match corpus::find(name) {
                Some(e) => Response::text(200, e.source),
                None => Response::error(404, &format!("unknown corpus program `{name}`")),
            },
            Target::Route(Route::Report, hex) => self.report_lookup(hex.unwrap_or_default(), req),
            Target::Route(Route::Analyze, _) => self.stage_request(Stage::Analyze, req),
            Target::Route(Route::Parallelize, _) => self.stage_request(Stage::Parallelize, req),
            Target::Route(Route::Check, _) => self.stage_request(Stage::Check, req),
            Target::Route(Route::Parse, _) => self.stage_request(Stage::Parse, req),
            Target::Route(Route::Run, _) => self.run_request(req),
            Target::Route(Route::Batch, _) => self.batch_request(req),
            Target::WrongMethod(allow) => {
                let msg = format!("method {} not allowed on {}", req.method, req.path);
                Response::error(405, &msg).with_header("Allow", allow.to_string())
            }
            Target::Route(Route::Other, _) | Target::NotFound => {
                Response::error(404, &format!("no route for {} {}", req.method, req.path))
            }
        };
        Response {
            head_only: req.method == "HEAD",
            ..resp
        }
    }

    /// Visit every server metric once, in `/v1/stats` order: the report
    /// cache, the query layers, requests, latency, the parallel executor,
    /// the reactor, and the persistent store (`{"enabled": false}` alone
    /// without `--store`). [`Self::stats_doc`] and [`Self::metrics_text`]
    /// render this one walk; see [`crate::metrics`] for how each metric
    /// is named.
    pub fn visit_metrics(&self, sink: &mut impl Sink) {
        use Value::{Counter, Gauge, Histogram};
        let a = |x: &AtomicU64| x.load(Ordering::Relaxed);
        let (svc, db) = (&self.service, self.service.db());
        let (cs, qs, par) = (svc.stats(), svc.query_stats(), svc.par_stats());

        sink.enter("cache", "adds_cache_");
        sink.metrics([
            ("hits", Counter(a(&cs.hits))),
            ("misses", Counter(a(&cs.misses))),
            ("coalesced", Counter(a(&cs.coalesced))),
            ("disk_hits", Counter(a(&cs.disk_hits))),
            ("in_flight", Gauge(a(&cs.in_flight))),
            ("evicted", Counter(a(&cs.evicted))),
            ("entries", Gauge(svc.entries() as u64)),
        ]);
        sink.leave();

        // Per-layer compute counts, then the artifact caches' own
        // counters: with `--cache-cap`, the memory-heavy artifacts (typed
        // programs, fixpoints, bytecode) evict here, not in `cache`.
        sink.enter("queries", "adds_query_");
        let computes = svc.query_computes();
        let computes = computes.iter().map(|&(layer, n)| (layer, Counter(n)));
        sink.family("adds_query_computes_total", "layer", computes);
        sink.metrics([
            ("entries", Gauge(db.artifact_entries() as u64)),
            ("hits", Counter(a(&qs.hits))),
            ("misses", Counter(a(&qs.misses))),
            ("evicted", Counter(a(&qs.evicted))),
            ("dropped", Counter(db.dropped_digest_entries())),
        ]);
        sink.leave();

        sink.enter("requests", "adds_request_");
        let counts = Route::ALL
            .iter()
            .map(|&r| (r.name(), Counter(a(&self.requests[r as usize]))));
        sink.family("adds_requests_total", "route", counts);
        sink.metrics([("body_bytes", Counter(self.metrics.bytes_in.get()))]);
        sink.leave();

        sink.enter("latency", "");
        sink.enter("routes", "");
        let routes = Route::ALL.iter().map(|&r| {
            (
                r.name(),
                Histogram(&self.metrics.route_latency[r as usize], "_us"),
            )
        });
        sink.family("adds_request_duration_us", "route", routes);
        sink.leave();
        sink.enter("layers", "");
        let layers = QueryKind::ALL
            .iter()
            .map(|&k| (k.name(), Histogram(db.layer_duration(k), "_us")));
        sink.family("adds_query_duration_us", "layer", layers);
        sink.leave();
        sink.leave();

        sink.enter("parallel", "adds_par_");
        sink.metrics([
            // The *configured* budget (0 = one per core), not the resolved
            // count, so the document stays host-independent.
            ("jobs", Gauge(svc.jobs() as u64)),
            ("fanouts", Counter(par.fanouts())),
            ("inline", Counter(par.inline_runs())),
            ("tasks", Counter(par.tasks())),
            ("steals", Counter(par.steals())),
            // Single-flight coalescing across both cache banks.
            (
                "coalesced_flights",
                Counter(a(&qs.coalesced) + a(&cs.coalesced)),
            ),
            ("utilization_pct", Histogram(par.utilization(), "")),
        ]);
        sink.leave();

        let n = self.net.snapshot();
        sink.enter("net", "adds_net_");
        sink.metrics([
            ("open", Gauge(n.open)),
            ("keepalive", Gauge(n.keepalive)),
            ("accepted", Counter(n.accepted)),
            ("rejected", Counter(n.rejected)),
            ("dispatched", Counter(n.dispatched)),
            ("inline", Counter(n.inline_served)),
            ("poll_wakeups", Counter(n.poll_wakeups)),
            ("timer_expirations", Counter(n.timer_expirations)),
        ]);
        sink.leave();

        sink.enter("store", "adds_store_");
        let store = db.store();
        sink.metrics([("enabled", Value::Flag(store.is_some()))]);
        if let Some(store) = store {
            visit_store(sink, &store.stats());
        }
        sink.leave();
    }

    /// The `/v1/stats` document, `adds.serve-stats/v8`: [`Self::visit_metrics`]
    /// as JSON, with latency quantiles in place of histograms. No
    /// timestamps, so tests can golden it.
    pub fn stats_doc(&self) -> Json {
        let mut sink = JsonSink::new("adds.serve-stats/v8");
        self.visit_metrics(&mut sink);
        sink.finish()
    }

    /// The `GET /v1/metrics` body, `adds.metrics/v2`:
    /// [`Self::visit_metrics`] as Prometheus text exposition.
    pub fn metrics_text(&self) -> String {
        let mut sink = PromSink::new("adds.metrics/v2");
        self.visit_metrics(&mut sink);
        sink.finish()
    }

    fn stage_request(&self, stage: Stage, req: &Request) -> Response {
        let Ok(source) = std::str::from_utf8(&req.body) else {
            return Response::error(400, "body is not valid UTF-8");
        };
        if source.is_empty() {
            return Response::error(400, "empty body: POST the IL source");
        }
        let matrices = flag(req, "matrices");
        let out = self.service.stage(source, StageRequest { stage, matrices });
        let doc = Session::stage_doc(stage, &out.report, req.param("name"));
        Response::json(200, doc.pretty())
            .with_header("X-Adds-Sha256", out.digest.hex())
            .with_header("X-Adds-Cache", out.outcome.name().to_string())
    }

    fn run_request(&self, req: &Request) -> Response {
        let Ok(source) = std::str::from_utf8(&req.body) else {
            return Response::error(400, "body is not valid UTF-8");
        };
        if source.is_empty() {
            return Response::error(400, "empty body: POST the IL source");
        }
        let opts = match run_options(req) {
            Ok(o) => o,
            Err(msg) => return Response::error(400, &msg),
        };
        let out = self.service.run(source, &RunRequest { opts });
        let resp = match &*out.result {
            Ok(report) => Response::json(200, Session::run_doc(report, req.param("name")).pretty()),
            Err(msg) => {
                // The cached canonical error names the program by its
                // content hash; restore the caller's display name, same
                // as the Ok path does.
                let msg = match req.param("name") {
                    Some(n) => msg.replace(&out.digest.hex(), n),
                    None => msg.clone(),
                };
                Response::error(422, &msg)
            }
        };
        resp.with_header("X-Adds-Sha256", out.digest.hex())
            .with_header("X-Adds-Cache", out.outcome.name().to_string())
    }

    fn batch_request(&self, req: &Request) -> Response {
        let Ok(body) = std::str::from_utf8(&req.body) else {
            return Response::error(400, "body is not valid UTF-8");
        };
        let doc = match Json::parse(body) {
            Ok(d) => d,
            Err(e) => return Response::error(400, &format!("batch body is not JSON: {e}")),
        };
        let Some(items) = doc.get("items").and_then(Json::as_arr) else {
            return Response::error(400, "batch body needs an `items` array");
        };
        if items.len() > MAX_BATCH_ITEMS {
            return Response::error(
                400,
                &format!("batch accepts at most {MAX_BATCH_ITEMS} items"),
            );
        }
        let runs = items
            .iter()
            .filter(|i| i.get("stage").and_then(Json::as_str) == Some("run"))
            .count();
        if runs > MAX_BATCH_RUN_ITEMS {
            return Response::error(
                400,
                &format!("batch accepts at most {MAX_BATCH_RUN_ITEMS} `run` items"),
            );
        }
        // Resolve every item up front (corpus lookup, option parsing) so
        // execution works over plain data, then execute each *distinct*
        // cache key once, concurrently, through the shared session.
        // Duplicates are answered afterwards from the warm cache, so
        // their `cache` labels ("hit") match a serial left-to-right
        // execution exactly — parallelism must never leak into the bytes.
        let resolved: Vec<Result<BatchItem, String>> =
            items.iter().map(|i| self.resolve_batch_item(i)).collect();
        let mut seen = std::collections::HashSet::new();
        let mut firsts: Vec<usize> = Vec::new();
        let mut dups: Vec<usize> = Vec::new();
        for (i, r) in resolved.iter().enumerate() {
            if let Ok(item) = r {
                if seen.insert(item.cache_key(&self.service)) {
                    firsts.push(i);
                } else {
                    dups.push(i);
                }
            }
        }
        let first_results = self.service.par_map(&firsts, |&i| match &resolved[i] {
            Ok(item) => self.exec_batch_item(item),
            Err(_) => unreachable!("only resolved items are scheduled"),
        });

        let mut slots: Vec<Option<(bool, Json)>> = resolved
            .iter()
            .map(|r| match r {
                Ok(_) => None,
                Err(msg) => Some((false, Json::obj([("error", Json::str(msg))]))),
            })
            .collect();
        for (&i, result) in firsts.iter().zip(first_results) {
            slots[i] = Some(result);
        }
        for i in dups {
            let Ok(item) = &resolved[i] else {
                unreachable!()
            };
            slots[i] = Some(self.exec_batch_item(item));
        }

        let mut ok = true;
        let mut results = Vec::with_capacity(items.len());
        for slot in slots {
            let (item_ok, json) = slot.expect("every item answered");
            ok &= item_ok;
            results.push(json);
        }
        let doc = Json::obj([
            ("schema", Json::str("adds.batch/v1")),
            ("ok", Json::Bool(ok)),
            ("results", Json::Arr(results)),
        ]);
        Response::json(200, doc.pretty())
    }

    /// Validate one batch item into executable form (no session work yet).
    fn resolve_batch_item(&self, item: &Json) -> Result<BatchItem, String> {
        let stage_name = item
            .get("stage")
            .and_then(Json::as_str)
            .ok_or("item needs a `stage` string")?;
        let (name, source): (String, String) = match (
            item.get("program").and_then(Json::as_str),
            item.get("source").and_then(Json::as_str),
        ) {
            (Some(p), None) => {
                let e = corpus::find(p).ok_or(format!("unknown corpus program `{p}`"))?;
                (p.to_string(), e.source.to_string())
            }
            (None, Some(s)) => (String::new(), s.to_string()),
            (Some(_), Some(_)) => return Err("item takes `program` or `source`, not both".into()),
            (None, None) => return Err("item needs `program` or `source`".into()),
        };
        let display = item
            .get("name")
            .and_then(Json::as_str)
            .map(str::to_string)
            .or(if name.is_empty() { None } else { Some(name) });

        let op = if stage_name == "run" {
            BatchOp::Run(batch_run_options(item)?)
        } else {
            let stage =
                Stage::parse_name(stage_name).ok_or(format!("unknown stage `{stage_name}`"))?;
            let matrices = item
                .get("matrices")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            BatchOp::Stage { stage, matrices }
        };
        Ok(BatchItem {
            display,
            source,
            op,
        })
    }

    /// Execute one resolved batch item → `(ok, result object)`.
    fn exec_batch_item(&self, item: &BatchItem) -> (bool, Json) {
        let display = &item.display;
        match &item.op {
            BatchOp::Run(opts) => {
                let out = self
                    .service
                    .run(&item.source, &RunRequest { opts: opts.clone() });
                let (item_ok, doc) = match &*out.result {
                    Ok(report) => (true, Session::run_doc(report, display.as_deref())),
                    Err(msg) => {
                        let msg = match display {
                            Some(n) => msg.replace(&out.digest.hex(), n),
                            None => msg.clone(),
                        };
                        (false, Json::obj([("error", Json::str(&msg))]))
                    }
                };
                (
                    item_ok,
                    batch_result(display, &out.digest, out.outcome.name(), item_ok, doc),
                )
            }
            BatchOp::Stage { stage, matrices } => {
                let out = self.service.stage(
                    &item.source,
                    StageRequest {
                        stage: *stage,
                        matrices: *matrices,
                    },
                );
                let doc = Session::stage_doc(*stage, &out.report, display.as_deref());
                (
                    out.report.ok,
                    batch_result(display, &out.digest, out.outcome.name(), out.report.ok, doc),
                )
            }
        }
    }

    fn report_lookup(&self, hex: &str, req: &Request) -> Response {
        let Some(digest) = Digest::parse(hex) else {
            return Response::error(400, "report id must be a 64-char sha256 hex string");
        };
        let Some(stage) = Stage::parse_name(req.param("stage").unwrap_or("analyze")) else {
            let other = req.param("stage").unwrap_or_default();
            return Response::error(400, &format!("unknown stage `{other}`"));
        };
        let matrices = flag(req, "matrices");
        match self
            .service
            .lookup(&digest, StageRequest { stage, matrices })
        {
            Some(report) => {
                let doc = Session::stage_doc(stage, &report, req.param("name"));
                Response::json(200, doc.pretty())
                    .with_header("X-Adds-Sha256", digest.hex())
                    .with_header("X-Adds-Cache", "hit".to_string())
            }
            None => Response::error(
                404,
                &format!(
                    "no cached {} report for {hex}; POST the source to /v1/{} first",
                    stage.name(),
                    stage.name()
                ),
            ),
        }
    }
}

/// The `GET /v1/corpus` listing (`adds.corpus/v1`).
fn corpus_doc() -> Json {
    let programs = corpus::CORPUS
        .iter()
        .map(|e| Json::obj([("name", Json::str(e.name)), ("about", Json::str(e.about))]))
        .collect();
    Json::obj([
        ("schema", Json::str("adds.corpus/v1")),
        ("programs", Json::Arr(programs)),
    ])
}

/// One batch item, validated into executable form.
struct BatchItem {
    /// Caller's display name (`name`, or the corpus program name).
    display: Option<String>,
    /// Resolved IL source text.
    source: String,
    /// What to do with it.
    op: BatchOp,
}

/// The operation a batch item requests.
enum BatchOp {
    Run(RunOptions),
    Stage { stage: Stage, matrices: bool },
}

impl BatchItem {
    /// The `(digest, fingerprint)` cache key this item's request-level
    /// query resolves to — the identity the batch executor dedupes on, so
    /// two items that would share a cache entry never race for it.
    fn cache_key(&self, service: &Session) -> (Digest, String) {
        let digest = adds_query::sha::sha256(self.source.as_bytes());
        let fp = service.db().fingerprints();
        let fingerprint = match &self.op {
            BatchOp::Run(opts) => fp.run_report(opts),
            BatchOp::Stage { stage, matrices } => fp.stage_report(*stage, *matrices),
        };
        (digest, fingerprint)
    }
}

/// One `adds.batch/v1` result object.
fn batch_result(name: &Option<String>, digest: &Digest, cache: &str, ok: bool, doc: Json) -> Json {
    Json::obj([
        (
            "name",
            match name {
                Some(n) => Json::str(n),
                None => Json::str(digest.hex()),
            },
        ),
        ("sha256", Json::str(digest.hex())),
        ("cache", Json::str(cache)),
        ("ok", Json::Bool(ok)),
        ("doc", doc),
    ])
}

/// A boolean query flag: present (empty), `1`, or `true`.
fn flag(req: &Request, key: &str) -> bool {
    matches!(req.param(key), Some("" | "1" | "true"))
}

fn run_options(req: &Request) -> Result<RunOptions, String> {
    let mut opts = RunOptions::default();
    if let Some(v) = req.param("pes") {
        opts.pes = parse_usize_list(v).ok_or(format!("pes expects e.g. 2,4,7 — got `{v}`"))?;
    }
    if let Some(v) = req.param("bodies") {
        opts.bodies = v
            .parse()
            .map_err(|_| format!("bodies expects an integer, got `{v}`"))?;
    }
    if let Some(v) = req.param("steps") {
        opts.steps = v
            .parse()
            .map_err(|_| format!("steps expects an integer, got `{v}`"))?;
    }
    if let Some(v) = req.param("theta") {
        opts.theta = v
            .parse()
            .map_err(|_| format!("theta expects a number, got `{v}`"))?;
    }
    if let Some(v) = req.param("dt") {
        opts.dt = v
            .parse()
            .map_err(|_| format!("dt expects a number, got `{v}`"))?;
    }
    validate_run_options(&opts)?;
    Ok(opts)
}

/// Run parameters from a batch item's JSON fields (same caps as the query
/// string form).
fn batch_run_options(item: &Json) -> Result<RunOptions, String> {
    let mut opts = RunOptions::default();
    if let Some(pes) = item.get("pes") {
        let list = pes
            .as_arr()
            .map(|items| items.iter().map(Json::as_usize).collect::<Option<Vec<_>>>())
            .unwrap_or_default()
            .filter(|v: &Vec<usize>| !v.is_empty() && v.iter().all(|&x| x > 0));
        opts.pes = list.ok_or("pes expects an array of positive integers")?;
    }
    if let Some(v) = item.get("bodies") {
        opts.bodies = v.as_usize().ok_or("bodies expects an integer")?;
    }
    if let Some(v) = item.get("steps") {
        opts.steps = v
            .as_f64()
            .filter(|f| f.fract() == 0.0)
            .ok_or("steps expects an integer")? as i64;
    }
    if let Some(v) = item.get("theta") {
        opts.theta = v.as_f64().ok_or("theta expects a number")?;
    }
    if let Some(v) = item.get("dt") {
        opts.dt = v.as_f64().ok_or("dt expects a number")?;
    }
    validate_run_options(&opts)?;
    Ok(opts)
}

/// Shared `/v1/run` parameter caps: one request runs synchronously on one
/// worker, so the knobs are bounded well past the paper's grid (N ≤ 1024,
/// 80 steps, 7 PEs) but short of tying the worker up indefinitely.
fn validate_run_options(opts: &RunOptions) -> Result<(), String> {
    if opts.pes.len() > MAX_PES_LIST || opts.pes.iter().any(|&p| p > MAX_PES) {
        return Err(format!(
            "pes accepts at most {MAX_PES_LIST} values of at most {MAX_PES}"
        ));
    }
    if opts.bodies > MAX_BODIES {
        return Err(format!("bodies is capped at {MAX_BODIES}"));
    }
    if !(0..=MAX_STEPS).contains(&opts.steps) {
        return Err(format!("steps must be between 0 and {MAX_STEPS}"));
    }
    if !(0.0..=MAX_THETA).contains(&opts.theta) {
        return Err(format!("theta must be finite and in 0..={MAX_THETA}"));
    }
    if !(opts.dt > 0.0 && opts.dt <= MAX_DT) {
        return Err(format!("dt must be finite and in (0, {MAX_DT}]"));
    }
    Ok(())
}

const MAX_BODIES: usize = 16_384;
const MAX_STEPS: i64 = 1_000;
const MAX_PES: usize = 1_024;
const MAX_PES_LIST: usize = 16;
const MAX_THETA: f64 = 100.0;
const MAX_DT: f64 = 100.0;

/// Parse a comma-separated list of positive integers (`2,4,7`). Shared
/// with the CLI's `--pes`/`--klimit` flags.
pub fn parse_usize_list(s: &str) -> Option<Vec<usize>> {
    let out: Option<Vec<usize>> = s.split(',').map(|p| p.trim().parse().ok()).collect();
    out.filter(|v: &Vec<usize>| !v.is_empty() && v.iter().all(|&x| x > 0))
}

/// A bound, not-yet-serving server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    trace_path: Option<String>,
    reactor_opts: ReactorOptions,
}

/// The reactor's timer-wheel granularity: 50ms normally, but finer when
/// the configured deadlines are short (tests use sub-second timeouts and
/// need expiry resolution well inside them).
fn reactor_tick(read: Duration, idle: Duration) -> Duration {
    Duration::from_millis(50)
        .min(read / 2)
        .min(idle / 2)
        .max(Duration::from_millis(5))
}

impl Server {
    /// Bind `opts.addr` and prepare `opts.jobs` workers. A `trace_path`
    /// turns span recording on; the trace file is written when the server
    /// stops.
    pub fn bind(opts: &ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let jobs = if opts.jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            opts.jobs
        };
        if opts.trace_path.is_some() {
            trace::enable();
        }
        // Opening the store runs recovery: segments are checksum-scanned,
        // torn tails truncated, corrupt records quarantined — a crashed
        // previous life never blocks startup.
        let store = match &opts.store_dir {
            Some(dir) => Some(Arc::new(adds_store::Store::open(dir)?)),
            None => None,
        };
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                // One `jobs` budget for both layers: HTTP workers above,
                // query fan-out workers below. A fan-out inside a request
                // spawns scoped threads, so peak threads are bounded by
                // jobs × jobs, not unbounded recursion (nested fan-outs
                // run inline).
                service: Session::with_config(&SessionConfig {
                    cache_capacity: opts.cache_capacity,
                    versions: None,
                    jobs: opts.jobs,
                    store,
                }),
                requests: Default::default(),
                metrics: ServeMetrics::default(),
                net: Arc::new(NetStats::default()),
                log_requests: opts.log,
            }),
            trace_path: opts.trace_path.clone(),
            reactor_opts: ReactorOptions {
                workers: jobs,
                max_connections: opts.max_connections.max(1),
                read_deadline: opts.read_timeout,
                idle_deadline: opts.idle_timeout,
                write_deadline: Duration::from_secs(30),
                drain_deadline: Duration::from_secs(5),
                tick: reactor_tick(opts.read_timeout, opts.idle_timeout),
                max_frame_bytes: MAX_HEADER_BYTES + MAX_BODY_BYTES + 4096,
            },
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (stats, service) — mainly for tests.
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Serve until the process exits: the event loop runs on the calling
    /// thread, request execution on the reactor's worker pool.
    pub fn run(self) -> std::io::Result<()> {
        let stop = Arc::new(AtomicBool::new(false));
        let flusher = spawn_flusher(&self.state, &stop);
        let reactor = http_reactor(self.listener, &self.state, self.reactor_opts, &stop)?;
        reactor.run();
        stop.store(true, Ordering::SeqCst);
        if let Some(f) = flusher {
            let _ = f.join();
        }
        if let Some(path) = &self.trace_path {
            trace::dump_to_file(path)?;
        }
        Ok(())
    }

    /// Start serving on a background thread and return a handle that can
    /// stop the server (used by tests and the bench driver).
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flusher = spawn_flusher(&self.state, &stop);
        let reactor = http_reactor(self.listener, &self.state, self.reactor_opts, &stop)?;
        let reactor_stop = reactor.stop_handle();
        let reactor_thread = std::thread::Builder::new()
            .name("net-reactor".into())
            .spawn(move || reactor.run())?;
        Ok(ServerHandle {
            addr,
            state: self.state,
            reactor_stop,
            reactor_thread: Some(reactor_thread),
            flusher,
            trace_path: self.trace_path,
        })
    }
}

/// The reactor serving `state` over `listener`; it drains and returns once
/// `stop` is set.
fn http_reactor(
    listener: TcpListener,
    state: &Arc<ServerState>,
    opts: ReactorOptions,
    stop: &Arc<AtomicBool>,
) -> std::io::Result<Reactor<HttpProto>> {
    let proto = Arc::new(HttpProto {
        state: Arc::clone(state),
    });
    Reactor::new(
        listener,
        proto,
        opts,
        Arc::clone(&state.net),
        Arc::clone(stop),
    )
}

/// How often the store flusher commits the write-behind buffer. Between
/// commits, freshly computed values are durable-pending only — a crash
/// loses at most this window (recovery still never serves anything
/// corrupt; it just recomputes what was lost).
pub const COMMIT_INTERVAL: std::time::Duration = std::time::Duration::from_millis(200);

/// The write-behind commit loop: every [`COMMIT_INTERVAL`], fold the
/// store's pending puts into a durable, fsynced segment append. One
/// committer thread per server; commit errors poison the store (observable
/// in `/v1/stats` as `commit_failures`) rather than crashing the server.
/// On shutdown the loop commits one final time so a clean stop is lossless.
fn spawn_flusher(
    state: &Arc<ServerState>,
    stop: &Arc<AtomicBool>,
) -> Option<std::thread::JoinHandle<()>> {
    let store = Arc::clone(state.service.db().store()?);
    let stop = Arc::clone(stop);
    Some(std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            std::thread::sleep(COMMIT_INTERVAL);
            let _ = store.commit();
        }
        let _ = store.commit();
    }))
}

/// True once `buf` holds a complete header block: a blank line, `\n\n` or
/// `\n\r\n`. One pass, resumed at `scanned`, a prefix length already
/// searched without a match, less the two bytes a split terminator can
/// start in.
fn head_complete(buf: &[u8], scanned: usize) -> bool {
    let from = scanned.saturating_sub(2).min(buf.len());
    let mut rest = &buf[from..];
    while let Some(i) = rest.iter().position(|&b| b == b'\n') {
        rest = &rest[i + 1..];
        if rest.starts_with(b"\n") || rest.starts_with(b"\r\n") {
            return true;
        }
    }
    false
}

/// The HTTP glue between [`adds_net`]'s reactor and [`ServerState`]:
/// frames with the head parser behind [`read_request`], executes through
/// [`ServerState::handle`], and serializes with [`serialize_response`].
struct HttpProto {
    state: Arc<ServerState>,
}

impl HttpProto {
    /// Count, record, log, and render the response for an unreadable
    /// request: the `Response::error` a reader of the same bytes gets.
    fn error_bytes(&self, e: &BadRequest) -> Vec<u8> {
        let state = &self.state;
        state.count(Route::Other);
        let status = match e {
            BadRequest::TooLarge(_) => 413,
            _ => 400,
        };
        let resp = Response::error(status, &e.to_string());
        if state.log_requests {
            emit_access_line("-", "-", &resp, 0, 0);
        }
        state.metrics.route_latency[Route::Other as usize].record(0);
        serialize_response(&resp, false)
    }
}

impl Protocol for HttpProto {
    type Frame = Request;

    fn frame(&self, buf: &[u8], _served: usize, scanned: usize) -> Framed<Request> {
        // Wait for the full header block (or an oversized one — the
        // parser rejects those): end-of-slice inside the headers would
        // otherwise read as the connection closing mid-request. Only a
        // buffer shorter than the head limit is searched, from where the
        // last search stopped, so head work is linear and never touches
        // the body.
        if buf.len() < MAX_HEADER_BYTES && !head_complete(buf, scanned) {
            return Framed::Incomplete {
                need: buf.len() + 1,
                scanned: buf.len(),
            };
        }
        let parse_started = std::time::Instant::now();
        let mut rest = buf;
        let head = match read_head(&mut rest) {
            Ok(head) => head,
            Err(e) => {
                return Framed::Reject {
                    response: self.error_bytes(&e),
                }
            }
        };
        // The head is parsed; the reactor offers the buffer again only
        // once the declared body has fully arrived.
        let head_len = buf.len() - rest.len();
        let consumed = head_len + head.content_length;
        let Some(body) = buf.get(head_len..consumed) else {
            // The head is parsed again when the body is in.
            return Framed::Incomplete {
                need: consumed,
                scanned: 0,
            };
        };
        let req = head.into_request(body.to_vec());
        if trace::enabled() {
            trace::complete_between(
                "serve.parse-body",
                "serve",
                parse_started,
                std::time::Instant::now(),
                vec![("path", req.path.clone())],
            );
        }
        Framed::Frame {
            consumed,
            frame: req,
        }
    }

    /// Routing, panic containment, tracing, route-latency metrics, and
    /// access logging, in exactly this order; the `serve.request` span
    /// closes after serialization.
    fn execute(&self, req: Request, served: usize) -> Reply {
        let state = &self.state;
        let tracing = trace::enabled();
        let keep_alive = req.keep_alive && served < KEEPALIVE_MAX_REQUESTS;
        let mut root = if tracing {
            trace::span("serve.request", "serve")
        } else {
            None
        };
        let started = std::time::Instant::now();
        let target = Target::resolve(&req.method, &req.path);
        let resp = {
            let _execute = if tracing {
                trace::span("serve.execute", "serve")
            } else {
                None
            };
            // A handler panic must not take down a worker or wedge its
            // connection forever.
            let serve = || state.serve(target, &req);
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(serve)) {
                Ok(resp) => resp,
                Err(_) => Response::error(500, "internal error"),
            }
        };
        let micros = started.elapsed().as_micros() as u64;
        if let Some(s) = root.as_mut() {
            s.arg("method", req.method.clone());
            s.arg("path", req.path.clone());
            s.arg("status", resp.status.to_string());
        }
        state.metrics.route_latency[target.route() as usize].record(micros);
        state.metrics.bytes_in.add(req.body.len() as u64);
        if state.log_requests {
            emit_access_line(&req.method, &req.path, &resp, micros, req.body.len() as u64);
        }
        let bytes = {
            let _serialize = if tracing {
                trace::span("serve.serialize", "serve")
            } else {
                None
            };
            serialize_response(&resp, keep_alive)
        };
        drop(root);
        Reply { bytes, keep_alive }
    }

    fn try_inline(&self, req: Request, served: usize) -> Result<Reply, Request> {
        // Only the health probe is cheap enough for the reactor thread;
        // everything else goes to the worker pool.
        if matches!(req.method.as_str(), "GET" | "HEAD") && req.path == "/healthz" {
            Ok(self.execute(req, served))
        } else {
            Err(req)
        }
    }

    fn busy_response(&self) -> Vec<u8> {
        let resp = Response::error(503, "connection budget exhausted; retry shortly")
            .with_header("Retry-After", "1".to_string());
        serialize_response(&resp, false)
    }

    fn timeout_response(&self) -> Option<Vec<u8>> {
        let resp = Response::error(408, "request read deadline exceeded");
        Some(serialize_response(&resp, false))
    }

    fn eof_response(&self, buf: &[u8], served: usize) -> Option<Vec<u8>> {
        // The client closed mid-request; the buffer really is all there
        // is, so read it to its end and answer what that reader reports.
        match read_request(&mut std::io::BufReader::new(buf)) {
            Ok(_) | Err(BadRequest::Closed) => None,
            // Mid-stream EOF on a keep-alive connection closes silently.
            Err(BadRequest::Io(_)) if served > 0 => None,
            Err(e) => Some(self.error_bytes(&e)),
        }
    }
}

/// Write one access-log line to stdout (locked per line; errors dropped —
/// a closed stdout must not take the server down).
fn emit_access_line(method: &str, path: &str, resp: &Response, duration_us: u64, bytes_in: u64) {
    use std::io::Write;
    let line = logging::access_line(
        method,
        path,
        resp.header("X-Adds-Sha256"),
        resp.header("X-Adds-Cache"),
        resp.status,
        duration_us,
        bytes_in,
    );
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
}

/// A running server; dropping it (or calling [`ServerHandle::stop`])
/// shuts it down.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    state: Arc<ServerState>,
    reactor_stop: StopHandle,
    reactor_thread: Option<std::thread::JoinHandle<()>>,
    flusher: Option<std::thread::JoinHandle<()>>,
    trace_path: Option<String>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The shared state (stats, service).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Stop the server: in-flight requests finish (up to the reactor's
    /// drain deadline), idle connections close, and the store commits.
    pub fn stop(self) {
        // Shutdown lives in Drop so that both explicit stops and scope
        // exits go through the same sequence.
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Sets the stop flag the flusher shares and wakes the reactor's
        // poll; the drain closes idle connections at once.
        self.reactor_stop.stop();
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
        // The flusher's exit path runs the final commit, so joining it is
        // what makes a clean stop lossless.
        if let Some(f) = self.flusher.take() {
            let _ = f.join();
        }
        if let Some(path) = &self.trace_path {
            let _ = trace::dump_to_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The module docs' endpoint table is the one written copy of the
    /// routes: it must list every declared endpoint, cells included, in
    /// declaration order, and nothing else.
    #[test]
    fn endpoint_table_matches_the_route_declaration() {
        let documented: Vec<&str> = include_str!("server.rs")
            .lines()
            .skip_while(|line| *line != "//! ## Endpoints")
            .skip_while(|line| !line.starts_with("//! |"))
            .take_while(|line| line.starts_with("//! |"))
            .skip(2) // header and rule
            .map(|line| &line["//! ".len()..])
            .collect();
        let row = |e: &Endpoint| {
            let (method, pattern, body, response) = (e.method, e.pattern, e.body, e.response);
            format!("| `{method} {pattern}` | {body} | {response} |")
        };
        let declared: Vec<String> = ENDPOINTS.iter().map(row).collect();
        assert_eq!(documented, declared, "`## Endpoints` vs ENDPOINTS");

        // `Target::WrongMethod` names one method to allow.
        let mut patterns: Vec<&str> = ENDPOINTS.iter().map(|e| e.pattern).collect();
        patterns.sort_unstable();
        patterns.dedup();
        assert_eq!(patterns.len(), ENDPOINTS.len(), "a pattern declared twice");
    }

    #[test]
    fn partial_requests_say_how_many_bytes_they_need() {
        let proto = HttpProto {
            state: Arc::new(ServerState::default()),
        };
        let head = b"POST /v1/parse?name=t.il HTTP/1.1\r\nContent-Length: 10\r\n\r\n";
        // Inside the head: one more byte, and the search stopped at the end.
        let partial = &head[..head.len() - 2];
        match proto.frame(partial, 0, 0) {
            Framed::Incomplete { need, scanned } => {
                assert_eq!(need, partial.len() + 1);
                assert_eq!(scanned, partial.len());
            }
            _ => panic!("a partial head must not frame"),
        }
        // Head complete, body partial: the head plus the declared body.
        let mut buf = head.to_vec();
        buf.extend_from_slice(b"type T");
        match proto.frame(&buf, 0, 0) {
            Framed::Incomplete { need, .. } => assert_eq!(need, head.len() + 10),
            _ => panic!("a partial body must not frame"),
        }
        // The declared body plus a pipelined byte: exactly one request.
        buf.extend_from_slice(b" {}.G");
        match proto.frame(&buf, 0, 0) {
            Framed::Frame { consumed, frame } => {
                assert_eq!(consumed, head.len() + 10);
                assert_eq!(frame.body, b"type T {}.");
                assert_eq!(frame.param("name"), Some("t.il"));
            }
            _ => panic!("a complete request must frame"),
        }

        // Both terminators, with no body or one holding blank lines, and
        // the bytes arriving in two reads split at every offset, or one at
        // a time: the head always ends at its own blank line.
        let blank = "a\n\nb\r\n\r\nc";
        for (eol, body) in [("\n", ""), ("\r\n", ""), ("\n", blank), ("\r\n", blank)] {
            let len = body.len();
            let req = format!("POST / HTTP/1.1{eol}Content-Length: {len}{eol}{eol}{body}");
            let req = req.as_bytes();
            let splits = (0..req.len()).map(|at| vec![at, req.len()]);
            for reads in splits.chain([(1..=req.len()).collect()]) {
                let frame = frame_reads(&proto, req, &reads);
                assert_eq!(frame.body, body.as_bytes(), "{eol:?} at {reads:?}");
            }
        }
    }

    /// Frames `req` as the reactor does when it has buffered the first
    /// `n` bytes for each `n` of `reads`: `frame` only once `need` is met,
    /// with the last `scanned` handed back.
    fn frame_reads(proto: &HttpProto, req: &[u8], reads: &[usize]) -> Request {
        let (mut need, mut scanned) = (1, 0);
        for &n in reads {
            if n < need {
                continue;
            }
            match proto.frame(&req[..n], 0, scanned) {
                Framed::Incomplete {
                    need: nd,
                    scanned: sc,
                } => (need, scanned) = (nd.max(n + 1), sc),
                Framed::Frame { consumed, frame } if consumed == req.len() => return frame,
                _ => panic!("`{}` misframed", String::from_utf8_lossy(&req[..n])),
            }
        }
        panic!("never framed")
    }
}
