//! `e2e` — the end-to-end benchmark of the served ADDS analyzer.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1 [--max-lag-ms L]
//! e2e [--seed N] [--seconds S] [--trace 0|1] [--repeat K]
//! ```
//!
//! With `--workload`, one workload runs in this process against an
//! in-process server on `127.0.0.1:0`: set-up (five or more times, the last
//! server is kept), a measured window of `S` seconds, output checks, and
//! with `--trace 1` a shorter traced pass plus the per-layer replay. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). `correct` is false,
//! and the exit code non-zero, when a response failed a check or when the
//! open-loop generator's lag p99 exceeded `L` ms (default 50): the
//! generator was starved by the server it drives, so the run measured the
//! generator, not the server.
//!
//! Without `--workload`, every workload runs in a child process of its
//! own, `K` times in alternating order (default `--trace 1`), and with
//! `K ≥ 2` each end-to-end metric's spread is printed against its bound
//! from `BENCHMARK.json`; the exit code is non-zero if a check failed, a
//! run was invalid, or a spread other than `setup_s`'s exceeded its bound.

mod client;
mod gen;
mod load;
mod oracle;
mod replay;
mod stats;
mod trace;
mod workloads;

use adds_query::json::Json;
use adds_query::session::Session;
use gen::Pass;
use load::Regime;
use oracle::recompute;
use std::collections::{BTreeMap, HashMap};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Spans;
use workloads::Workload;

const USAGE: &str = "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--repeat K] [--max-lag-ms L]";

/// A run sets up at least `SETUPS_MIN` times, and more, up to
/// `SETUPS_MAX`, until the set-ups have taken `SETUP_BUDGET`; `setup_s` is
/// the median. A set-up of a few milliseconds varies by a third from one
/// to the next, so cheap set-ups are repeated more often.
const SETUPS_MIN: usize = 5;
const SETUPS_MAX: usize = 41;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Longest traced pass.
const TRACED_SECONDS: f64 = 5.0;

/// Most sub-windows of the measured window; throughput and latency are
/// their medians.
const MAX_SUBWINDOWS: usize = 10;

/// An open-loop run whose generator wrote its requests later than this
/// (p99) was starved of CPU by the server it drives: the offered rate was
/// not offered, and the run is invalid. The default of `--max-lag-ms`.
/// Stalls of the whole virtual machine, which delay generator and server
/// alike, make lags of a few milliseconds; latency timed from the due time
/// charges them, so they leave the run valid.
const MAX_LAG_P99_MS: f64 = 50.0;

/// Where runs keep their store directories and trace files.
const SCRATCH: &str = "target/bench";

/// The metric declarations every run must print.
const SPEC: &str = include_str!("../../BENCHMARK.json");

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: Option<bool>,
    repeat: usize,
    max_lag_ms: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        repeat: 1,
        max_lag_ms: MAX_LAG_P99_MS,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = Some(number()?.max(1)),
            "--trace" => args.trace = Some(number()? != 0),
            "--repeat" => args.repeat = number()?.max(1) as usize,
            "--max-lag-ms" => {
                args.max_lag_ms = value
                    .parse()
                    .map_err(|_| format!("{flag} expects a number, got `{value}`"))?
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    std::process::exit(code);
}

/// A metric declared in `BENCHMARK.json`.
struct Declared {
    name: String,
    unit: String,
    bound: Option<f64>,
}

struct Spec {
    run_seconds: u64,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

fn spec() -> Spec {
    let doc = Json::parse(SPEC).expect("BENCHMARK.json is JSON");
    let list = |key: &str| -> Vec<Declared> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json lists the metrics")
            .iter()
            .map(|m| Declared {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .expect("metric name")
                    .to_string(),
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .expect("metric unit")
                    .to_string(),
                bound: m.get("bound").and_then(Json::as_f64),
            })
            .collect()
    };
    Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_usize)
            .expect("run_seconds") as u64,
        end_to_end: list("end_to_end"),
        per_layer: list("per_layer"),
    }
}

/// What one workload run measured.
struct Run {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
    valid: bool,
}

fn run_one(w: Workload, args: &Args) -> i32 {
    let spec = spec();
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let traced = args.trace.unwrap_or(false);
    let run = match measure(w, args.seed, seconds, traced, args.max_lag_ms) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("e2e {}: {e}", w.name());
            return 1;
        }
    };
    println!("e2e {} seed={} seconds={seconds}", w.name(), args.seed);
    for note in &run.notes {
        println!("  {note}");
    }
    let unit = |d: &Declared| (d.name.clone(), d.unit.clone());
    let declared: Vec<(String, String)> = spec
        .end_to_end
        .iter()
        .chain(if traced { &spec.per_layer[..] } else { &[] })
        .map(unit)
        .collect();
    let value = |name: &str| run.metrics.get(name).copied().unwrap_or(f64::NAN);
    for (name, unit) in &declared {
        println!("  {name:<40} {:>14.4} {unit}", value(name));
    }
    for f in &run.failures {
        println!("  FAILED: {f}");
    }
    let as_json = |names: &[(String, String)]| {
        Json::Obj(
            names
                .iter()
                .map(|(name, unit)| {
                    let v = value(name);
                    let v = if v.is_finite() {
                        Json::Float(v)
                    } else {
                        Json::Null
                    };
                    (
                        name.clone(),
                        Json::obj([("value", v), ("unit", Json::str(unit))]),
                    )
                })
                .collect(),
        )
    };
    println!(
        "e2e-metrics {}",
        Json::obj([
            ("workload", Json::str(w.name())),
            ("valid", Json::Bool(run.valid)),
            ("metrics", as_json(&declared)),
        ])
        .compact()
    );
    let reported = if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let correct = run.failed == 0 && run.valid;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::UInt(run.attempted)),
            ("failed", Json::UInt(run.failed)),
            (
                "metrics",
                as_json(&reported.iter().map(unit).collect::<Vec<_>>())
            ),
        ])
        .compact()
    );
    i32::from(!correct)
}

fn measure(
    w: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    max_lag_ms: f64,
) -> Result<Run, String> {
    gen::check_goldens()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch = PathBuf::from(SCRATCH);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {SCRATCH}: {e}"))?;

    let mut setups = Vec::new();
    let mut env = None;
    let mut spent = Duration::ZERO;
    while setups.len() < SETUPS_MIN || (setups.len() < SETUPS_MAX && spent < SETUP_BUDGET) {
        drop(env.take());
        let start = Instant::now();
        env = Some(w.setup(seed, nproc, &scratch, setups.len())?);
        let took = start.elapsed();
        spent += took;
        setups.push(took.as_secs_f64());
    }
    let env = env.expect("at least one set-up");
    let state = env.server().state();
    let regime = w.regime(nproc);
    let make = |id| w.request(&env, id);

    let before = replay::Counters::snapshot(&state);
    let duration = Duration::from_secs(seconds);
    let mut window = load::run(env.addr(), regime, Pass::Window, duration, false, &make);
    let after = replay::Counters::snapshot(&state);
    let peak_rss_mb = peak_rss_mb()?;
    recompute_sample(&mut window);
    let tail_q = w.tail_quantile();
    // As many sub-windows as leave ten samples beyond the tail percentile
    // in each, up to `MAX_SUBWINDOWS`: the more there are, the more of them
    // a burst of host noise must cover before it moves a median.
    let (parts, summary) = (1..=MAX_SUBWINDOWS)
        .rev()
        .map(|parts| (parts, window.summarize(duration, parts, tail_q)))
        .find(|(_, s)| beyond(s.min_samples, tail_q) >= 10)
        .unwrap_or_else(|| (1, window.summarize(duration, 1, tail_q)));
    let lag_p99_ms = stats::quantile(&window.lags_us, 0.99) / 1e3;

    let mut metrics = BTreeMap::new();
    metrics.insert("throughput_rps".to_string(), summary.throughput_rps);
    metrics.insert("latency_p50_ms".to_string(), summary.p50_us / 1e3);
    metrics.insert("latency_tail_ms".to_string(), summary.tail_us / 1e3);
    metrics.insert("setup_s".to_string(), stats::median(&setups));
    metrics.insert("peak_rss_mb".to_string(), peak_rss_mb);

    let mut notes = vec![
        format!("host nproc={nproc}; server jobs={nproc} cache_cap={} store={}", w.cache_cap(), w.has_store()),
        match regime {
            Regime::Closed { clients } => format!("closed loop, {clients} client(s)"),
            Regime::Open { conns, rate } => format!("open loop, {rate} req/s over {conns} connection(s)"),
        },
        format!(
            "medians over {parts} sub-windows of {:.1}s; latency_tail_ms is p{} of at least {} samples ({} beyond it)",
            seconds as f64 / parts as f64,
            tail_q * 100.0,
            summary.min_samples,
            beyond(summary.min_samples, tail_q)
        ),
        format!(
            "{} set-ups: {:.4}-{:.4} s",
            setups.len(),
            setups.iter().copied().fold(f64::MAX, f64::min),
            setups.iter().copied().fold(f64::MIN, f64::max)
        ),
        format!(
            "window: attempted {} failed {} reconnects {}",
            window.attempted, window.failed, window.reconnects
        ),
    ];
    let mut valid = true;
    if matches!(regime, Regime::Open { .. }) {
        notes.push(format!(
            "generator lag p99 {lag_p99_ms:.3} ms (limit {max_lag_ms} ms)"
        ));
        if lag_p99_ms > max_lag_ms {
            valid = false;
            notes.push(format!("INVALID: generator lag p99 above {max_lag_ms} ms"));
        }
    }
    let mut attempted = window.attempted;
    let mut failed = window.failed;
    let mut failures = window.failures;

    if traced {
        let traced_for = Duration::from_secs_f64(TRACED_SECONDS.min(seconds as f64 / 2.0));
        let origin = Instant::now();
        let mut pass = load::run(env.addr(), regime, Pass::Traced, traced_for, true, &make);
        recompute_sample(&mut pass);
        attempted += pass.attempted;
        failed += pass.failed;
        failures.append(&mut pass.failures);
        let mut spans = Spans::new(origin);
        let mut outcomes = HashMap::new();
        for rec in &pass.records {
            let args = vec![
                ("target", Json::str(&rec.target)),
                ("status", Json::UInt(u64::from(rec.status))),
                ("cache", Json::str(&rec.cache)),
            ];
            spans.push(
                "bench.request",
                rec.id.client as u64,
                rec.start,
                rec.end,
                &rec.id.label(),
                args,
            );
            outcomes.insert(rec.id.label(), rec.cache.clone());
        }
        let traced_p50 = pass.summarize(traced_for, 1, 0.5).p50_us;
        let p50 = summary.p50_us;
        metrics.extend(replay::counter_metrics(
            &before,
            &after,
            window.attempted as f64,
            seconds as f64,
        ));
        metrics.extend(replay::replay(w, &env, &scratch, &outcomes, &mut spans)?);
        metrics.insert("bench.generator_lag_p99_ms".into(), lag_p99_ms);
        metrics.insert(
            "bench.trace_overhead_pct".into(),
            (traced_p50 - p50) / p50 * 100.0,
        );
        let served = metrics["serve.read_request_us"]
            + metrics["serve.handle_us"]
            + metrics["serve.serialize_us"];
        metrics.insert("net.residual_us".into(), p50 - served);
        let path = scratch.join(format!("{}.trace.json", w.name()));
        spans
            .write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        notes.push(format!(
            "traced pass {:.1}s: p50 {:.3} ms; trace written to {}",
            traced_for.as_secs_f64(),
            traced_p50 / 1e3,
            path.display()
        ));
    }
    Ok(Run {
        metrics,
        attempted,
        failed,
        failures,
        notes,
        valid,
    })
}

/// Samples beyond the nearest-rank `q`-quantile of `samples` samples.
fn beyond(samples: usize, q: f64) -> usize {
    samples - ((q * samples as f64).ceil() as usize).min(samples)
}

/// Recompute each kept cold response in a fresh session; each must match
/// byte for byte.
fn recompute_sample(result: &mut load::LoadResult) {
    for (req, body) in std::mem::take(&mut result.recompute) {
        if recompute(&Session::new(), &req) != body {
            result.fail(format!(
                "{} {}: response differs from a fresh in-process session",
                req.id.label(),
                req.target()
            ));
        }
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

/// Run every workload in a child process, `repeat` times in alternating
/// order, and compare the repeats against the declared bounds.
fn run_all(args: &Args) -> i32 {
    let spec = spec();
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let trace = if args.trace.unwrap_or(true) { "1" } else { "0" };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2e: cannot find my own executable: {e}");
            return 1;
        }
    };
    let started = Instant::now();
    let mut code = 0;
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    for rep in 0..args.repeat {
        let mut order = Workload::ALL.to_vec();
        if rep % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let child = run_child(&exe, w, args.seed, seconds, trace);
            match child {
                Ok((metrics, correct)) => {
                    if !correct {
                        code = 1;
                    }
                    for d in &spec.end_to_end {
                        if let Some(v) = metrics.get(&d.name) {
                            values
                                .entry((w.name(), d.name.clone()))
                                .or_default()
                                .push(*v);
                        }
                    }
                }
                Err(e) => {
                    eprintln!("e2e {}: {e}", w.name());
                    code = 1;
                }
            }
        }
    }
    println!(
        "e2e: {} run(s) of {} workloads in {:.1}s",
        args.repeat,
        Workload::ALL.len(),
        started.elapsed().as_secs_f64()
    );
    if args.repeat >= 2 {
        println!(
            "{:<14} {:<18} {:>10} {:>8}  values",
            "workload", "metric", "spread", "bound"
        );
        for ((w, name), vs) in &values {
            let bound = spec
                .end_to_end
                .iter()
                .find(|d| &d.name == name)
                .and_then(|d| d.bound)
                .unwrap_or(0.0);
            let spread = spread(vs);
            let out = spread > bound && name != "setup_s";
            if out {
                code = 1;
            }
            println!(
                "{w:<14} {name:<18} {spread:>10.4} {bound:>8.2}  {vs:?}{}",
                if out { "  OUTSIDE BOUND" } else { "" }
            );
        }
    }
    code
}

/// (max − min) / median.
fn spread(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / stats::median(values).abs().max(f64::MIN_POSITIVE)
}

/// Run one workload in a child process, echoing its output. Returns its
/// metrics and whether it was correct (and valid).
fn run_child(
    exe: &Path,
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: &str,
) -> Result<(BTreeMap<String, f64>, bool), String> {
    let mut child = std::process::Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            trace,
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut summary = None;
    let mut last = String::new();
    for line in std::io::BufReader::new(stdout)
        .lines()
        .map_while(Result::ok)
    {
        println!("{line}");
        if let Some(json) = line.strip_prefix("e2e-metrics ") {
            summary = Some(json.to_string());
        }
        last = line;
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    let summary = summary.ok_or(format!("exited with {status} before printing its metrics"))?;
    let doc = Json::parse(&summary).map_err(|e| format!("bad metrics line: {e}"))?;
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => BTreeMap::new(),
    };
    let correct = Json::parse(&last)
        .ok()
        .and_then(|d| d.get("correct").and_then(Json::as_bool))
        .unwrap_or(false);
    Ok((metrics, correct && status.success()))
}
