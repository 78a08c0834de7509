//! Per-layer metrics. Counter metrics come from the server's public
//! counter snapshots taken before and after the measured window. Time
//! metrics come from a replay: seeded requests of the workload are driven
//! through the public functions of each layer, in the order the request
//! handler calls them, and each call is timed from outside.

use crate::gen::{self, Pass, ReqId, Rng};
use crate::load::micros;
use crate::oracle::{Expect, Request};
use crate::stats;
use crate::trace::{Spans, REPLAY_TID};
use crate::workloads::{Env, Workload};
use adds_machine::compile::CompiledProgram;
use adds_machine::{run_barnes_hut_compiled, uniform_cloud, CostModel};
use adds_query::json::Json;
use adds_query::persist::{decode_report, encode_report};
use adds_query::runner::{self, ParRun, RunReport};
use adds_query::session::{Session, SessionConfig, Stage, StageRequest};
use adds_query::sha::{sha256, Digest};
use adds_serve::http::{read_request, serialize_response};
use adds_serve::server::ServerState;
use adds_store::Store;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Requests replayed per workload.
pub const REPLAYED: u64 = 64;

/// Particle-cloud seed of the server's `run` query (`runner::CLOUD_SEED`,
/// which is crate-private): the replay simulates the same bodies. Each
/// replayed report is rendered and compared byte for byte with the
/// handler's response, so a change of seed or run path fails the replay
/// instead of timing a different simulation.
const CLOUD_SEED: u64 = 3;

/// Procedure counts of the sweep behind `core.compile_typed_exponent`.
const SWEEP_PROCS: [usize; 5] = [4, 8, 16, 32, 64];

/// The server's public counters at one instant.
pub struct Counters {
    report: [u64; 5],
    computes: Vec<(&'static str, u64)>,
    par_tasks: u64,
    par_steals: u64,
    net: [u64; 4],
    store: Option<adds_store::StoreSnapshot>,
}

impl Counters {
    pub fn snapshot(state: &ServerState) -> Counters {
        let s = state.service.stats();
        let n = state.net.snapshot();
        Counters {
            report: [&s.hits, &s.misses, &s.coalesced, &s.disk_hits, &s.evicted]
                .map(|c| c.load(Ordering::Relaxed)),
            computes: state.service.query_computes(),
            par_tasks: state.service.par_stats().tasks(),
            par_steals: state.service.par_stats().steals(),
            net: [n.poll_wakeups, n.dispatched, n.inline_served, n.rejected],
            store: state.service.db().store().map(|s| s.stats()),
        }
    }
}

/// The counter metrics of a window of `requests` requests lasting `secs`.
pub fn counter_metrics(
    before: &Counters,
    after: &Counters,
    requests: f64,
    secs: f64,
) -> BTreeMap<String, f64> {
    let per_req = |d: u64| d as f64 / requests.max(1.0);
    let d = |i: usize| after.report[i] - before.report[i];
    let lookups = d(0) + d(1) + d(2);
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("query.hit_ratio", d(0) as f64 / lookups.max(1) as f64);
    put("query.coalesced", per_req(d(2)));
    put("query.disk_hits", per_req(d(3)));
    put("query.evicted", per_req(d(4)));
    for ((name, a), (_, b)) in after.computes.iter().zip(&before.computes) {
        if [
            "parsed",
            "typed",
            "analyzed",
            "effects",
            "transformed",
            "compiled",
            "runs",
            "reports",
        ]
        .contains(name)
        {
            put(&format!("query.computes_per_req.{name}"), per_req(a - b));
        }
    }
    put(
        "query.par_tasks",
        per_req(after.par_tasks - before.par_tasks),
    );
    put(
        "query.par_steals",
        per_req(after.par_steals - before.par_steals),
    );
    let net = |i: usize| after.net[i] - before.net[i];
    put("net.poll_wakeups_per_req", per_req(net(0)));
    put("net.dispatched_per_req", per_req(net(1)));
    put("net.inline_per_req", per_req(net(2)));
    put("net.rejected", net(3) as f64);
    let (commits, kib, hits, misses) = match (&before.store, &after.store) {
        (Some(b), Some(a)) => (
            (a.commits - b.commits) as f64 / secs,
            (a.committed_bytes - b.committed_bytes) as f64 / 1024.0 / secs,
            per_req(a.hits - b.hits),
            per_req(a.misses - b.misses),
        ),
        _ => (0.0, 0.0, 0.0, 0.0),
    };
    put("store.commits", commits);
    put("store.committed_kib", kib);
    put("store.hits", hits);
    put("store.misses", misses);
    m
}

/// Time accumulated per metric over every replayed request, plus the
/// spans of each call.
struct Replay<'a> {
    totals: BTreeMap<&'static str, f64>,
    spans: &'a mut Spans,
    id: String,
}

impl Replay<'_> {
    /// Time one call into a layer, charging it to `metric` (`…_us`).
    fn time<T>(&mut self, metric: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = std::hint::black_box(f());
        let end = Instant::now();
        self.charge(metric, start, end, 1.0);
        value
    }

    /// Charge `times` × the span's duration to `metric`.
    fn charge(&mut self, metric: &'static str, start: Instant, end: Instant, times: f64) {
        self.add(metric, micros(end - start) * times);
        let name = metric.trim_end_matches("_us");
        self.spans
            .push(name, REPLAY_TID, start, end, &self.id, Vec::new());
    }

    fn add(&mut self, metric: &'static str, v: f64) {
        *self.totals.entry(metric).or_default() += v;
    }
}

/// Everything the replay needs besides the requests.
struct Bench<'a> {
    /// The handler under test, configured like the workload's server but
    /// evaluating serially, so that its time is the sum of its layers.
    state: ServerState,
    /// A second store for the direct `Store` calls (`mixed_store` only).
    store: Option<Arc<Store>>,
    /// `X-Adds-Cache` of each traced request, by id label.
    outcomes: &'a HashMap<String, String>,
}

/// Replay `REPLAYED` traced-pass requests of `w` and return the replayed
/// time metrics, per request (plus the layer counts and ratios).
pub fn replay(
    w: Workload,
    env: &Env,
    scratch: &Path,
    outcomes: &HashMap<String, String>,
    spans: &mut Spans,
) -> Result<BTreeMap<String, f64>, String> {
    let dirs = [
        scratch.join(format!("replay-{}", std::process::id())),
        scratch.join(format!("replay-direct-{}", std::process::id())),
    ];
    let result = replay_in(w, env, &dirs, outcomes, spans);
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    result
}

fn replay_in(
    w: Workload,
    env: &Env,
    dirs: &[std::path::PathBuf; 2],
    outcomes: &HashMap<String, String>,
    spans: &mut Spans,
) -> Result<BTreeMap<String, f64>, String> {
    let open = |dir: &Path| -> Result<Arc<Store>, String> {
        Store::open(dir)
            .map(Arc::new)
            .map_err(|e| format!("replay store: {e}"))
    };
    let (handler_store, direct_store) = if w.has_store() {
        (Some(open(&dirs[0])?), Some(open(&dirs[1])?))
    } else {
        (None, None)
    };
    let state = ServerState {
        service: Session::with_config(&SessionConfig {
            cache_capacity: w.cache_cap(),
            versions: None,
            jobs: 1,
            store: handler_store.clone(),
        }),
        ..ServerState::default()
    };
    // Prime the replay handler (and the direct store) like the server.
    let fp = state
        .service
        .db()
        .fingerprints()
        .stage_report(Stage::Analyze, false);
    for key in &env.keys {
        let req = read_request(&mut std::io::BufReader::new(key.post.as_slice()))
            .map_err(|e| format!("replay prime: {e}"))?;
        state.handle(&req);
        if let Some(store) = &direct_store {
            let out = state
                .service
                .stage(&key.source, StageRequest::new(Stage::Analyze));
            store.put(&out.digest.0, &fp, &encode_report(&out.report));
        }
    }
    for store in [&handler_store, &direct_store].into_iter().flatten() {
        store.commit().map_err(|e| format!("replay commit: {e}"))?;
    }

    let bench = Bench {
        state,
        store: direct_store,
        outcomes,
    };
    let mut r = Replay {
        totals: BTreeMap::new(),
        spans,
        id: String::new(),
    };
    for index in 0..REPLAYED {
        let req = w.request(env, ReqId::new(Pass::Traced, 0, index));
        r.id = req.id.label();
        let start = Instant::now();
        replay_one(&bench, &mut r, &req)?;
        let target = vec![("target", Json::str(req.target()))];
        r.spans.push(
            "bench.replay",
            REPLAY_TID,
            start,
            Instant::now(),
            &r.id,
            target,
        );
    }
    if let Some(store) = &bench.store {
        r.time("store.commit_us", || store.commit().map(|_| ()))
            .map_err(|e| format!("replay commit: {e}"))?;
    }

    let total = |k: &str| r.totals.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let licensed_ratio = ratio(total("core.licensed"), total("core.loops"));
    let mcycles_per_s = ratio(total("machine.sim_cycles"), total("machine.vm_run_us"));
    let mut m: BTreeMap<String, f64> = LAYER_TIMES
        .iter()
        .chain(&PER_REQUEST)
        .map(|&k| (k.to_string(), total(k) / REPLAYED as f64))
        .collect();
    let layers: f64 = LAYER_TIMES.iter().map(|&k| m[k]).sum();
    m.insert("bench.layer_coverage".into(), layers / m["serve.handle_us"]);
    m.insert("core.licensed_ratio".into(), licensed_ratio);
    m.insert("machine.vm_mcycles_per_s".into(), mcycles_per_s);
    m.insert(
        "core.compile_typed_exponent".into(),
        compile_typed_exponent(env.seed)?,
    );
    Ok(m)
}

/// The replayed layer calls of a request's handler path; their sum is
/// compared with the handler's own time (`bench.layer_coverage`).
const LAYER_TIMES: [&str; 14] = [
    "lang.parse_us",
    "lang.check_us",
    "lang.pretty_us",
    "core.compile_typed_us",
    "core.check_function_us",
    "core.strip_mine_us",
    "query.sha256_us",
    "query.render_us",
    "query.persist_encode_us",
    "query.persist_decode_us",
    "machine.compile_us",
    "machine.vm_run_us",
    "store.get_us",
    "store.put_us",
];

/// The other replay metrics. Like the layer times, each is reported as a
/// mean per replayed request (0 when no replayed request reaches it).
const PER_REQUEST: [&str; 10] = [
    "lang.source_kib",
    "core.functions",
    "core.loops",
    "query.lookups_per_req",
    "machine.sim_cycles",
    "serve.read_request_us",
    "serve.handle_us",
    "serve.serialize_us",
    "serve.response_kib",
    "store.commit_us",
];

fn replay_one(b: &Bench, r: &mut Replay, req: &Request) -> Result<(), String> {
    let err = |what: String| format!("replay {} {}: {what}", req.id.label(), req.target());
    let parsed = r
        .time("serve.read_request_us", || {
            read_request(&mut std::io::BufReader::new(req.wire.as_slice()))
        })
        .map_err(|e| err(e.to_string()))?;
    let lookups_before = lookups(&b.state);
    let resp = r.time("serve.handle_us", || b.state.handle(&parsed));
    let lookups = (lookups(&b.state) - lookups_before) as f64;
    if resp.status != 200 {
        return Err(err(format!("handler answered {}", resp.status)));
    }
    let bytes = r.time("serve.serialize_us", || serialize_response(&resp, true));
    r.add("serve.response_kib", bytes.len() as f64 / 1024.0);
    r.add("lang.source_kib", parsed.body.len() as f64 / 1024.0);
    r.add("query.lookups_per_req", lookups);

    // The replayed layers must rebuild exactly what the handler answered.
    let same = |rendered: String| {
        if rendered.as_bytes() == resp.body.as_slice() {
            Ok(())
        } else {
            Err(err("replayed document differs from the handler's".into()))
        }
    };
    let src = req.body();
    if lookups > 0.0 {
        // Every query of the database hashes the source once.
        let start = Instant::now();
        std::hint::black_box(sha256(src.as_bytes()));
        r.charge("query.sha256_us", start, Instant::now(), lookups);
    }
    let digest = sha256(src.as_bytes());
    match &req.expect {
        Expect::Analyze(_) | Expect::Parallelize(_) => {
            let stage = if matches!(req.expect, Expect::Analyze(_)) {
                Stage::Analyze
            } else {
                Stage::Parallelize
            };
            let c = analyze(r, src).map_err(err)?;
            if stage == Stage::Analyze {
                for f in &c.tp.program.funcs {
                    if let Some(an) = c.analysis(&f.name) {
                        let checks = r.time("core.check_function_us", || {
                            adds_core::check_function(&c.tp, &c.summaries, an, &f.name)
                        });
                        r.add("core.loops", checks.len() as f64);
                        r.add(
                            "core.licensed",
                            checks.iter().filter(|l| l.parallelizable).count() as f64,
                        );
                    }
                }
            } else {
                transform(r, &c).map_err(err)?;
            }
            let out = b.state.service.stage(src, StageRequest::new(stage));
            if let Some(store) = &b.store {
                // A cold report misses the disk tier, then writes behind.
                let fp = b
                    .state
                    .service
                    .db()
                    .fingerprints()
                    .stage_report(stage, false);
                r.time("store.get_us", || store.get(&digest.0, &fp));
                let enc = r.time("query.persist_encode_us", || encode_report(&out.report));
                r.time("store.put_us", || store.put(&digest.0, &fp, &enc));
            }
            same(r.time("query.render_us", || {
                Session::stage_doc(stage, &out.report, None).pretty()
            }))?;
        }
        Expect::Run(opts) => {
            let c = analyze(r, src).map_err(err)?;
            let tp2 = transform(r, &c).map_err(err)?;
            let seq_prog = r.time("machine.compile_us", || CompiledProgram::compile(&c.tp));
            let par_prog = r.time("machine.compile_us", || CompiledProgram::compile(&tp2));
            let bodies = uniform_cloud(opts.bodies, CLOUD_SEED);
            let sim = |prog: &CompiledProgram, pes: usize, detect: bool| {
                run_barnes_hut_compiled(
                    prog,
                    &bodies,
                    opts.steps,
                    opts.theta,
                    opts.dt,
                    pes,
                    CostModel::sequent(),
                    detect,
                )
                .map_err(|e| err(format!("{e:?}")))
            };
            let seq = r.time("machine.vm_run_us", || sim(&seq_prog, 1, false))?;
            r.add("machine.sim_cycles", seq.cycles as f64);
            let mut parallel = Vec::new();
            for &pes in &opts.pes {
                let par = r.time("machine.vm_run_us", || sim(&par_prog, pes, true))?;
                r.add("machine.sim_cycles", par.cycles as f64);
                let physics_matches = seq.bodies.iter().zip(&par.bodies).all(|(a, b)| {
                    (0..3).all(|d| {
                        (a.pos[d] - b.pos[d]).abs() < 1e-9 && (a.vel[d] - b.vel[d]).abs() < 1e-9
                    })
                });
                parallel.push(ParRun {
                    pes,
                    cycles: par.cycles,
                    speedup: seq.cycles as f64 / par.cycles as f64,
                    conflicts: par.conflict_count,
                    parallel_rounds: par.parallel_rounds,
                    physics_matches,
                });
            }
            let report = RunReport {
                program: digest.hex(),
                bodies: opts.bodies,
                steps: opts.steps,
                seq_cycles: seq.cycles,
                parallel,
            };
            same(r.time("query.render_us", || runner::to_json(&report).pretty()))?;
        }
        Expect::Body(_) => {
            // A warm read, by POST (the source) or by report id.
            let (digest, stage) = if parsed.method == "GET" {
                let id = parsed.path.trim_start_matches("/v1/report/");
                (
                    Digest::parse(id).ok_or_else(|| err("bad report id".into()))?,
                    Stage::Analyze,
                )
            } else {
                let name = parsed.path.trim_start_matches("/v1/");
                (
                    digest,
                    Stage::parse_name(name).ok_or_else(|| err("unknown stage".into()))?,
                )
            };
            let report = b
                .state
                .service
                .lookup(&digest, StageRequest::new(stage))
                .ok_or_else(|| err("replay handler lost a primed report".into()))?;
            let disk = b.outcomes.get(&req.id.label()).is_some_and(|c| c == "disk");
            if let (true, Some(store)) = (disk, &b.store) {
                let fp = b
                    .state
                    .service
                    .db()
                    .fingerprints()
                    .stage_report(stage, false);
                let bytes = r
                    .time("store.get_us", || store.get(&digest.0, &fp))
                    .ok_or_else(|| err("direct store lost a primed report".into()))?;
                r.time("query.persist_decode_us", || decode_report(&bytes));
            }
            same(r.time("query.render_us", || {
                Session::stage_doc(stage, &report, None).pretty()
            }))?;
        }
    }
    Ok(())
}

/// Hash calls the database made: one per query lookup.
fn lookups(state: &ServerState) -> u64 {
    let (a, q) = (state.service.stats(), state.service.query_stats());
    [
        &a.hits,
        &a.misses,
        &a.coalesced,
        &q.hits,
        &q.misses,
        &q.coalesced,
    ]
    .iter()
    .map(|c| c.load(Ordering::Relaxed))
    .sum()
}

/// Parse, check and analyze `src`: the `analyzed` query's layer calls.
fn analyze(r: &mut Replay, src: &str) -> Result<adds_core::Compiled, String> {
    let tp = typecheck(r, src)?;
    r.add("core.functions", tp.program.funcs.len() as f64);
    Ok(r.time("core.compile_typed_us", || adds_core::compile_typed(tp)))
}

fn typecheck(r: &mut Replay, src: &str) -> Result<adds_lang::TypedProgram, String> {
    let program = r
        .time("lang.parse_us", || adds_lang::parse_program(src))
        .map_err(|d| d.to_string())?;
    r.time("lang.check_us", || adds_lang::check(program))
        .map_err(|d| d.to_string())
}

/// Strip-mine, print, and re-check: the `transformed` query's layer calls.
/// Returns the re-checked transformed program.
fn transform(r: &mut Replay, c: &adds_core::Compiled) -> Result<adds_lang::TypedProgram, String> {
    let (program, decisions) = r.time("core.strip_mine_us", || {
        adds_core::transform::stripmine::strip_mine_program(&c.tp, &c.summaries, &c.analyses)
    });
    let text = r.time("lang.pretty_us", || adds_lang::pretty::program(&program));
    let licensed: usize = decisions.iter().map(|d| d.parallelized.len()).sum();
    let skipped: usize = decisions.iter().map(|d| d.skipped.len()).sum();
    r.add("core.loops", (licensed + skipped) as f64);
    r.add("core.licensed", licensed as f64);
    typecheck(r, &text)
}

/// Fitted exponent of `compile_typed` time against procedure count, over
/// a seeded sweep of generated programs (best of five per size).
fn compile_typed_exponent(seed: u64) -> Result<f64, String> {
    let mut points = Vec::new();
    for procs in SWEEP_PROCS {
        let mut rng = Rng::for_request(seed, ReqId::new(Pass::Sweep, 0, procs as u64));
        let program = gen::program(&mut rng, procs, "sweep");
        let tp = adds_lang::check_source(&program.source).map_err(|d| d.to_string())?;
        let mut best = f64::MAX;
        for _ in 0..5 {
            let tp = tp.clone();
            let start = Instant::now();
            std::hint::black_box(adds_core::compile_typed(tp));
            best = best.min(micros(start.elapsed()));
        }
        points.push((procs as f64, best));
    }
    Ok(stats::loglog_slope(&points))
}
