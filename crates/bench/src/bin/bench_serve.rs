//! S1 — `adds-serve` throughput and tail latency: requests/sec and
//! p50/p99/p999 through a real in-process HTTP server (TCP loopback),
//! cold vs warm cache, closed- vs open-loop arrival, and a many-
//! connection soak against the event-driven reactor engine.
//!
//! Writes `BENCH_serve.json` (schema `adds.bench-serve/v5`) next to
//! `BENCH_machine.json` so the repository carries a service-layer
//! perf-trajectory baseline. `/v3` added `host_cpus`, per-jobs cold rows,
//! and the serial-vs-parallel `parallel` section; `/v4` added per-row
//! `latency_us` percentiles, the `open_loop` section (arrivals scheduled
//! at a fixed rate — latency is measured from the *scheduled* send time,
//! so queueing delay is not coordinated away), and the `soak` section
//! (thousands of concurrent keep-alive connections with churn, probed for
//! tail latency while the reactor holds them all); `/v5` drops `/v2`'s
//! `instrumentation` section, which timed the server with its metrics
//! switched off, a configuration the server no longer has:
//!
//! ```text
//! cargo run --release -p adds-bench --bin bench_serve               # regen
//! cargo run --release -p adds-bench --bin bench_serve -- --check
//! cargo run --release -p adds-bench --bin bench_serve -- --soak-smoke
//! ```
//!
//! `--check` validates an existing file's schema and invariant gates
//! (used by CI to keep the checked-in baseline from rotting); absolute
//! numbers are machine-dependent and not compared. The throughput gates
//! (open-loop ratio, batch speedup) are enforced only when the file was
//! baselined on a host with enough CPUs to show them.
//!
//! `--soak-smoke` runs a reduced live soak (no file written): open
//! `ADDS_SOAK_CONNS` connections (default 512) with churn for
//! `ADDS_SOAK_SECS` seconds (default 2) and fail unless every probe
//! succeeded and the reactor actually held the connections.
//!
//! Rows (all against the reactor engine):
//! * `healthz floor` — close-mode: connection setup + routing per request.
//! * `healthz keepalive` — the same volley over persistent connections.
//! * `healthz open-loop` — keep-alive volley at a *scheduled* arrival
//!   rate targeting a multiple of the close-mode floor.
//! * `analyze cold@jobs=1|4`, `batch cold@jobs=1|4` — empty-cache
//!   analysis, serial vs fanned out.
//! * `analyze warm`, `parallelize warm`, `analyze warm+keepalive` —
//!   content-addressed cache hits.
//! * `healthz soak` — probe latency while thousands of idle/churning
//!   connections are parked on the reactor.

use adds_serve::corpus;
use adds_serve::server::{ServeOptions, Server, ServerHandle};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const OUT_PATH: &str = "BENCH_serve.json";
const SCHEMA: &str = "adds.bench-serve/v5";
const JOBS: usize = 4;
const CLIENT_THREADS: usize = 4;
const WARM_REQUESTS: usize = 200;
const HEALTHZ_REQUESTS: usize = 400;
const REPS: usize = 3;

/// Open-loop arrival target, as a multiple of the measured close-mode
/// floor. The `--check` gate ([`MIN_OPEN_LOOP_RATIO`]) asks the achieved
/// rate to stay ≥ 10× the floor; targeting higher leaves headroom.
const OPEN_LOOP_TARGET_X: f64 = 16.0;
/// Cap on open-loop volley size so a fast host doesn't run forever.
const OPEN_LOOP_MAX_REQUESTS: usize = 60_000;
/// Paced keep-alive connections for the open-loop row.
const OPEN_LOOP_CONNS: usize = 16;

/// Full-run soak scale and duration (smoke mode shrinks via env).
const SOAK_CONNS: usize = 10_000;
const SOAK_SECS: u64 = 5;
/// Latency probers running during the soak.
const SOAK_PROBERS: usize = 4;
/// Per-prober pacing: one scheduled probe every 2ms (500/s/thread).
const PROBE_INTERVAL: Duration = Duration::from_millis(2);
/// Reconnect before the server's 256-requests-per-connection cap.
const KEEPALIVE_RECONNECT: usize = 250;

fn spawn_server() -> ServerHandle {
    spawn_server_jobs(JOBS)
}

/// A server at an explicit fan-out width (the serial-vs-parallel rows).
fn spawn_server_jobs(jobs: usize) -> ServerHandle {
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs,
        ..ServeOptions::default()
    };
    Server::bind(&opts)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn workers")
}

/// One close-mode request: sends `Connection: close` explicitly (the
/// server holds HTTP/1.1 sockets open by default, so EOF framing needs
/// the header) and reads the response to EOF. Panics on a non-2xx status
/// so a broken server can't "win" the benchmark by failing fast.
fn request(addr: SocketAddr, method: &str, target: &str, body: &[u8]) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes()).expect("write");
    conn.write_all(body).expect("write body");
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("read");
    let status = raw
        .get(9..12)
        .and_then(|s| std::str::from_utf8(s).ok())
        .unwrap_or("???");
    assert!(
        status.starts_with('2'),
        "{method} {target} answered {status}"
    );
}

/// One request over an existing keep-alive connection; reads exactly one
/// response framed by `Content-Length` so the socket stays reusable.
fn request_keepalive(
    conn: &mut std::io::BufReader<TcpStream>,
    method: &str,
    target: &str,
    body: &[u8],
) {
    use std::io::BufRead;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    conn.get_mut().write_all(head.as_bytes()).expect("write");
    conn.get_mut().write_all(body).expect("write body");
    let mut status_line = String::new();
    conn.read_line(&mut status_line).expect("status line");
    assert!(
        status_line
            .split_whitespace()
            .nth(1)
            .unwrap_or("???")
            .starts_with('2'),
        "{method} {target} answered {status_line}"
    );
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        conn.read_line(&mut line).expect("header");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(": ") {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.parse().expect("length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    conn.read_exact(&mut body).expect("body");
}

fn keepalive_conn(addr: SocketAddr) -> std::io::BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    // Requests are written as head + body; disable Nagle so the body
    // segment is not held for a delayed ACK.
    stream.set_nodelay(true).expect("nodelay");
    std::io::BufReader::new(stream)
}

/// Latency percentiles in microseconds, computed from a full sample set
/// (no histogram bucketing — the sample counts here are small enough to
/// sort exactly).
#[derive(Clone, Copy, Default)]
struct Latency {
    p50: u64,
    p99: u64,
    p999: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

impl Latency {
    fn from_samples(mut us: Vec<u64>) -> Latency {
        us.sort_unstable();
        Latency {
            p50: percentile(&us, 0.50),
            p99: percentile(&us, 0.99),
            p999: percentile(&us, 0.999),
        }
    }
}

/// Fan `total` identical requests over the client threads, each thread
/// holding ONE keep-alive connection; returns wall-clock nanoseconds and
/// per-request latencies (closed-loop: measured from the send).
fn volley_keepalive(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
    total: usize,
) -> (u64, Vec<u64>) {
    let body: Arc<Vec<u8>> = Arc::new(body.to_vec());
    let target = target.to_string();
    let method = method.to_string();
    let t0 = Instant::now();
    let handles: Vec<_> = (0..CLIENT_THREADS)
        .map(|i| {
            let n = total / CLIENT_THREADS + usize::from(i < total % CLIENT_THREADS);
            let (method, target, body) = (method.clone(), target.clone(), Arc::clone(&body));
            std::thread::spawn(move || {
                let mut conn = keepalive_conn(addr);
                let mut lat = Vec::with_capacity(n);
                for _ in 0..n {
                    let s = Instant::now();
                    request_keepalive(&mut conn, &method, &target, &body);
                    lat.push(s.elapsed().as_micros() as u64);
                }
                lat
            })
        })
        .collect();
    let mut lat = Vec::with_capacity(total);
    for h in handles {
        lat.extend(h.join().expect("client thread"));
    }
    (t0.elapsed().as_nanos() as u64, lat)
}

/// Fan `total` identical requests over the client threads, one fresh
/// connection per request; returns wall-clock nanoseconds and
/// per-request latencies.
fn volley(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
    total: usize,
) -> (u64, Vec<u64>) {
    let body: Arc<Vec<u8>> = Arc::new(body.to_vec());
    let target = target.to_string();
    let method = method.to_string();
    let t0 = Instant::now();
    let handles: Vec<_> = (0..CLIENT_THREADS)
        .map(|i| {
            let n = total / CLIENT_THREADS + usize::from(i < total % CLIENT_THREADS);
            let (method, target, body) = (method.clone(), target.clone(), Arc::clone(&body));
            std::thread::spawn(move || {
                let mut lat = Vec::with_capacity(n);
                for _ in 0..n {
                    let s = Instant::now();
                    request(addr, &method, &target, &body);
                    lat.push(s.elapsed().as_micros() as u64);
                }
                lat
            })
        })
        .collect();
    let mut lat = Vec::with_capacity(total);
    for h in handles {
        lat.extend(h.join().expect("client thread"));
    }
    (t0.elapsed().as_nanos() as u64, lat)
}

struct Row {
    endpoint: &'static str,
    mode: &'static str,
    requests: usize,
    threads: usize,
    total_ns: u64,
    lat: Latency,
}

impl Row {
    fn rps(&self) -> f64 {
        self.requests as f64 / (self.total_ns.max(1) as f64 / 1e9)
    }
}

/// The serial-vs-parallel cold-batch comparison, summarized so `--check`
/// can enforce the speedup without re-deriving it from rows.
struct Parallel {
    /// CPUs the measuring host exposed; a single-core host cannot show a
    /// wall-clock speedup no matter how well the executor scales, so
    /// `--check` only enforces the ratio when this is ≥ [`JOBS`].
    host_cpus: usize,
    serial_ns: u64,
    parallel_ns: u64,
}

impl Parallel {
    fn speedup(&self) -> f64 {
        self.serial_ns as f64 / self.parallel_ns.max(1) as f64
    }
}

/// The open-loop result: arrivals were *scheduled* at `target_rps`
/// regardless of completions, and each latency is measured from its
/// scheduled arrival time — a backed-up server accrues queueing delay
/// instead of silently slowing the offered load (no coordinated
/// omission).
struct OpenLoop {
    floor_rps: f64,
    target_rps: f64,
    requests: usize,
    total_ns: u64,
    lat: Latency,
}

impl OpenLoop {
    fn achieved_rps(&self) -> f64 {
        self.requests as f64 / (self.total_ns.max(1) as f64 / 1e9)
    }
    fn ratio_vs_floor(&self) -> f64 {
        self.achieved_rps() / self.floor_rps.max(1.0)
    }
}

/// The soak result: probe latency while `connections` keep-alive sockets
/// (mostly idle, a slice churning) are parked on the reactor.
struct Soak {
    connections: usize,
    peak_open: u64,
    churned: usize,
    probe_requests: usize,
    total_ns: u64,
    lat: Latency,
}

/// Min-of-reps wrapper keeping the latency samples of the fastest rep.
fn best_of(reps: usize, mut f: impl FnMut() -> (u64, Vec<u64>)) -> (u64, Vec<u64>) {
    let mut best: Option<(u64, Vec<u64>)> = None;
    for _ in 0..reps {
        let (ns, lat) = f();
        if best.as_ref().is_none_or(|(b, _)| ns < *b) {
            best = Some((ns, lat));
        }
    }
    best.expect("reps")
}

fn measure() -> Vec<Row> {
    let mut rows = Vec::new();

    // HTTP floor: no analysis, just accept/route/respond.
    let server = spawn_server();
    let (healthz_ns, lat) = best_of(REPS, || {
        volley(server.addr(), "GET", "/healthz", b"", HEALTHZ_REQUESTS)
    });
    rows.push(Row {
        endpoint: "healthz",
        mode: "floor",
        requests: HEALTHZ_REQUESTS,
        threads: CLIENT_THREADS,
        total_ns: healthz_ns,
        lat: Latency::from_samples(lat),
    });
    server.stop();

    // The same floor over persistent connections: one socket per client
    // thread, `Connection: keep-alive` framing.
    let server = spawn_server();
    let (keepalive_ns, lat) = best_of(REPS, || {
        volley_keepalive(server.addr(), "GET", "/healthz", b"", HEALTHZ_REQUESTS)
    });
    rows.push(Row {
        endpoint: "healthz",
        mode: "keepalive",
        requests: HEALTHZ_REQUESTS,
        threads: CLIENT_THREADS,
        total_ns: keepalive_ns,
        lat: Latency::from_samples(lat),
    });
    server.stop();

    // Cold: each corpus program once against an empty cache, at both
    // fan-out widths (per-function `effects` queries fan out within each
    // request). A fresh server per rep keeps every rep genuinely cold.
    for (jobs, mode) in [(1usize, "cold@jobs=1"), (JOBS, "cold@jobs=4")] {
        let (cold_ns, lat) = best_of(REPS, || {
            let server = spawn_server_jobs(jobs);
            let mut total = 0u64;
            let mut lat = Vec::new();
            for e in corpus::CORPUS {
                let t0 = Instant::now();
                request(server.addr(), "POST", "/v1/analyze", e.source.as_bytes());
                let ns = t0.elapsed().as_nanos() as u64;
                total += ns;
                lat.push(ns / 1_000);
            }
            server.stop();
            (total, lat)
        });
        rows.push(Row {
            endpoint: "analyze",
            mode,
            requests: corpus::CORPUS.len(),
            threads: 1,
            total_ns: cold_ns,
            lat: Latency::from_samples(lat),
        });
    }

    // Cold batch: ONE `/v1/batch` request carrying the whole corpus —
    // the parallel executor's headline number. Items fan out across the
    // session's workers and merge in input order; `jobs: 1` is the
    // serial baseline for the `parallel` section's speedup.
    let batch_body = {
        let items: Vec<String> = corpus::CORPUS
            .iter()
            .map(|e| format!(r#"{{"stage": "analyze", "program": "{}"}}"#, e.name))
            .collect();
        format!(r#"{{"items": [{}]}}"#, items.join(","))
    };
    for (jobs, mode) in [(1usize, "cold@jobs=1"), (JOBS, "cold@jobs=4")] {
        let (batch_ns, lat) = best_of(REPS, || {
            let server = spawn_server_jobs(jobs);
            let t0 = Instant::now();
            request(server.addr(), "POST", "/v1/batch", batch_body.as_bytes());
            let ns = t0.elapsed().as_nanos() as u64;
            server.stop();
            (ns, vec![ns / 1_000])
        });
        rows.push(Row {
            endpoint: "batch",
            mode,
            requests: corpus::CORPUS.len(),
            threads: jobs,
            total_ns: batch_ns,
            lat: Latency::from_samples(lat),
        });
    }

    // Warm: repeated identical requests served from the cache.
    for (endpoint, target) in [
        ("analyze", "/v1/analyze"),
        ("parallelize", "/v1/parallelize"),
    ] {
        let server = spawn_server();
        let src = corpus::find("barnes_hut").expect("corpus").source;
        request(server.addr(), "POST", target, src.as_bytes()); // prime
        let (warm_ns, lat) = best_of(REPS, || {
            volley(server.addr(), "POST", target, src.as_bytes(), WARM_REQUESTS)
        });
        let state = server.state();
        let stats = state.service.stats();
        assert_eq!(
            stats.get(&stats.misses),
            1,
            "warm volley must not recompute"
        );
        rows.push(Row {
            endpoint,
            mode: "warm",
            requests: WARM_REQUESTS,
            threads: CLIENT_THREADS,
            total_ns: warm_ns,
            lat: Latency::from_samples(lat),
        });
        server.stop();
    }

    // Warm hits over persistent connections: cache answer + framing, no
    // per-request TCP setup.
    let server = spawn_server();
    let src = corpus::find("barnes_hut").expect("corpus").source;
    request(server.addr(), "POST", "/v1/analyze", src.as_bytes()); // prime
    let (warm_ka_ns, lat) = best_of(REPS, || {
        volley_keepalive(
            server.addr(),
            "POST",
            "/v1/analyze",
            src.as_bytes(),
            WARM_REQUESTS,
        )
    });
    let state = server.state();
    let stats = state.service.stats();
    assert_eq!(
        stats.get(&stats.misses),
        1,
        "keep-alive warm volley must not recompute"
    );
    rows.push(Row {
        endpoint: "analyze",
        mode: "warm+keepalive",
        requests: WARM_REQUESTS,
        threads: CLIENT_THREADS,
        total_ns: warm_ka_ns,
        lat: Latency::from_samples(lat),
    });
    server.stop();

    rows
}

/// The open-loop volley: [`OPEN_LOOP_CONNS`] paced keep-alive
/// connections, arrival k scheduled at `t0 + k / target_rps` globally
/// (round-robin across connections). A thread that falls behind sends
/// immediately — the schedule never slows down — and each latency runs
/// from the scheduled time, so server backlog shows up as tail latency.
fn measure_open_loop(floor_rps: f64) -> OpenLoop {
    let target_rps = (floor_rps * OPEN_LOOP_TARGET_X).max(1000.0);
    // Two seconds of offered load, bounded.
    let total = ((target_rps * 2.0) as usize).clamp(1_000, OPEN_LOOP_MAX_REQUESTS);
    let server = spawn_server();
    let addr = server.addr();
    let interval_ns = 1e9 / target_rps;
    let t0 = Instant::now();
    let handles: Vec<_> = (0..OPEN_LOOP_CONNS)
        .map(|i| {
            let n = total / OPEN_LOOP_CONNS + usize::from(i < total % OPEN_LOOP_CONNS);
            std::thread::spawn(move || {
                let mut conn = keepalive_conn(addr);
                let mut served = 0usize;
                let mut lat = Vec::with_capacity(n);
                for k in 0..n {
                    let sched = t0
                        + Duration::from_nanos(
                            ((i + k * OPEN_LOOP_CONNS) as f64 * interval_ns) as u64,
                        );
                    if let Some(wait) = sched.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    if served == KEEPALIVE_RECONNECT {
                        conn = keepalive_conn(addr);
                        served = 0;
                    }
                    request_keepalive(&mut conn, "GET", "/healthz", b"");
                    served += 1;
                    lat.push(Instant::now().saturating_duration_since(sched).as_micros() as u64);
                }
                lat
            })
        })
        .collect();
    let mut lat = Vec::with_capacity(total);
    for h in handles {
        lat.extend(h.join().expect("open-loop thread"));
    }
    let total_ns = t0.elapsed().as_nanos() as u64;
    server.stop();
    OpenLoop {
        floor_rps,
        target_rps,
        requests: total,
        total_ns,
        lat: Latency::from_samples(lat),
    }
}

/// The soak: park `conns_target` (fd-clamped) keep-alive connections on
/// one reactor, churn a tenth of them continuously (connect + close),
/// and measure probe latency through the crowd. Returns the result; in
/// smoke mode the caller asserts on it instead of writing a file.
fn run_soak(conns_target: usize, secs: u64) -> Soak {
    // Every client connection costs 2 fds in this process (client end +
    // server end), plus headroom for everything else.
    let limit = adds_net::sys::raise_nofile_limit();
    let conns = conns_target
        .min(((limit.saturating_sub(200)) / 2) as usize)
        .max(16);
    let churn_pool = (conns / 10).max(1);
    let idle = conns.saturating_sub(churn_pool + SOAK_PROBERS);

    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs: JOBS,
        max_connections: conns + 64,
        // Parked connections must survive the whole soak: the deadlines
        // are what's *not* under test here.
        read_timeout: Duration::from_secs(600),
        idle_timeout: Duration::from_secs(600),
        ..ServeOptions::default()
    };
    let server = Server::bind(&opts).expect("bind").spawn().expect("spawn");
    let addr = server.addr();

    // Open the idle herd from a few threads (connect() blocks until the
    // kernel queues the connection, so this also paces the accept flood).
    const OPENERS: usize = 8;
    let opener_handles: Vec<_> = (0..OPENERS)
        .map(|i| {
            let n = idle / OPENERS + usize::from(i < idle % OPENERS);
            std::thread::spawn(move || {
                (0..n)
                    .map(|_| {
                        let c = TcpStream::connect(addr).expect("soak connect");
                        c.set_nodelay(true).unwrap();
                        c
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let idle_conns: Vec<Vec<TcpStream>> = opener_handles
        .into_iter()
        .map(|h| h.join().expect("opener"))
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let churned = Arc::new(AtomicUsize::new(0));

    // Churn: two threads each cycle a half of the churn pool — close the
    // oldest, open a fresh one — for the whole soak.
    let churn_handles: Vec<_> = (0..2)
        .map(|i| {
            let n = churn_pool / 2 + usize::from(i < churn_pool % 2);
            let (stop, churned) = (Arc::clone(&stop), Arc::clone(&churned));
            std::thread::spawn(move || {
                let mut pool: std::collections::VecDeque<TcpStream> = (0..n)
                    .map(|_| TcpStream::connect(addr).expect("churn connect"))
                    .collect();
                while !stop.load(Ordering::SeqCst) {
                    if let Ok(fresh) = TcpStream::connect(addr) {
                        pool.push_back(fresh);
                        drop(pool.pop_front());
                        churned.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        })
        .collect();

    // Probers: paced keep-alive healthz, latency from the scheduled time.
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(secs);
    let probe_handles: Vec<_> = (0..SOAK_PROBERS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut conn = keepalive_conn(addr);
                let mut served = 0usize;
                let mut lat = Vec::new();
                let mut k = 0u32;
                loop {
                    let sched = t0 + PROBE_INTERVAL * k;
                    k += 1;
                    if sched >= deadline {
                        break;
                    }
                    if let Some(wait) = sched.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    if served == KEEPALIVE_RECONNECT {
                        conn = keepalive_conn(addr);
                        served = 0;
                    }
                    request_keepalive(&mut conn, "GET", "/healthz", b"");
                    served += 1;
                    lat.push(Instant::now().saturating_duration_since(sched).as_micros() as u64);
                }
                lat
            })
        })
        .collect();

    // Sample the reactor's open-connection gauge while the soak runs.
    let mut peak_open = 0u64;
    while Instant::now() < deadline {
        peak_open = peak_open.max(server.state().net.snapshot().open);
        std::thread::sleep(Duration::from_millis(50));
    }

    let mut lat = Vec::new();
    for h in probe_handles {
        lat.extend(h.join().expect("prober"));
    }
    let total_ns = t0.elapsed().as_nanos() as u64;
    stop.store(true, Ordering::SeqCst);
    for h in churn_handles {
        let _ = h.join();
    }
    let probe_requests = lat.len();
    drop(idle_conns);
    server.stop();
    Soak {
        connections: conns,
        peak_open,
        churned: churned.load(Ordering::Relaxed),
        probe_requests,
        total_ns,
        lat: Latency::from_samples(lat),
    }
}

fn render(rows: &[Row], parallel: &Parallel, open_loop: &OpenLoop, soak: &Soak) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(s, "  \"engine\": \"reactor\",");
    let _ = writeln!(s, "  \"jobs\": {JOBS},");
    let _ = writeln!(s, "  \"host_cpus\": {},", parallel.host_cpus);
    let _ = writeln!(s, "  \"parallel\": {{");
    let _ = writeln!(s, "    \"endpoint\": \"batch\",");
    let _ = writeln!(s, "    \"items\": {},", corpus::CORPUS.len());
    let _ = writeln!(s, "    \"serial_ns\": {},", parallel.serial_ns);
    let _ = writeln!(s, "    \"parallel_ns\": {},", parallel.parallel_ns);
    let _ = writeln!(s, "    \"speedup\": {:.2}", parallel.speedup());
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"open_loop\": {{");
    let _ = writeln!(s, "    \"endpoint\": \"healthz\",");
    let _ = writeln!(s, "    \"connections\": {OPEN_LOOP_CONNS},");
    let _ = writeln!(s, "    \"floor_rps\": {:.0},", open_loop.floor_rps);
    let _ = writeln!(s, "    \"target_rps\": {:.0},", open_loop.target_rps);
    let _ = writeln!(s, "    \"achieved_rps\": {:.0},", open_loop.achieved_rps());
    let _ = writeln!(
        s,
        "    \"ratio_vs_floor\": {:.2}",
        open_loop.ratio_vs_floor()
    );
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"soak\": {{");
    let _ = writeln!(s, "    \"connections\": {},", soak.connections);
    let _ = writeln!(s, "    \"peak_open\": {},", soak.peak_open);
    let _ = writeln!(s, "    \"churned\": {},", soak.churned);
    let _ = writeln!(s, "    \"probe_requests\": {}", soak.probe_requests);
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"endpoint\": \"{}\",", r.endpoint);
        let _ = writeln!(s, "      \"mode\": \"{}\",", r.mode);
        let _ = writeln!(s, "      \"requests\": {},", r.requests);
        let _ = writeln!(s, "      \"threads\": {},", r.threads);
        let _ = writeln!(s, "      \"total_ns\": {},", r.total_ns);
        let _ = writeln!(s, "      \"requests_per_sec\": {:.0},", r.rps());
        let _ = writeln!(
            s,
            "      \"latency_us\": {{\"p50\": {}, \"p99\": {}, \"p999\": {}}}",
            r.lat.p50, r.lat.p99, r.lat.p999
        );
        let _ = write!(s, "    }}");
        let _ = writeln!(s, "{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// Keys every row must carry; `--check` fails on any miss.
const REQUIRED_KEYS: &[&str] = &[
    "\"endpoint\"",
    "\"mode\"",
    "\"requests\"",
    "\"threads\"",
    "\"total_ns\"",
    "\"requests_per_sec\"",
    "\"latency_us\"",
];

/// The cold-batch speedup floor at 4 workers. Only enforced when the
/// baseline was measured on a host with ≥ [`JOBS`] CPUs — a narrower box
/// cannot show the wall-clock win however well the executor scales, so
/// there `--check` validates the section's shape but not the ratio.
const MIN_BATCH_SPEEDUP: f64 = 2.0;

/// The open-loop floor: keep-alive event-driven serving must sustain at
/// least this multiple of the close-mode healthz floor. Like the batch
/// speedup, only enforced when the baseline host had ≥ 2 CPUs — with
/// client and server time-slicing one core, the achieved rate measures
/// the scheduler, not the reactor.
const MIN_OPEN_LOOP_RATIO: f64 = 10.0;

/// The soak row must have been measured over at least this many
/// concurrent connections for the baseline to mean anything.
const MIN_SOAK_CONNECTIONS: f64 = 256.0;

/// Extract the number following `"key": ` anywhere in `text`.
fn json_number(text: &str, key: &str) -> Option<f64> {
    text.split(&format!("\"{key}\": "))
        .nth(1)
        .and_then(|rest| rest.split(['\n', ',', '}']).next())
        .and_then(|v| v.trim().parse().ok())
}

/// Parse every row's `latency_us` block; returns (p50, p99, p999) per row.
fn latency_blocks(text: &str) -> Vec<(u64, u64, u64)> {
    text.split("\"latency_us\": {")
        .skip(1)
        .filter_map(|rest| {
            let block = rest.split('}').next()?;
            let field = |key: &str| -> Option<u64> {
                block
                    .split(&format!("\"{key}\": "))
                    .nth(1)?
                    .split([',', '}'])
                    .next()?
                    .trim()
                    .parse()
                    .ok()
            };
            Some((field("p50")?, field("p99")?, field("p999")?))
        })
        .collect()
}

fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    if !text.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!(
            "`{path}` does not carry schema `{SCHEMA}` — regenerate it with \
             `cargo run --release -p adds-bench --bin bench_serve`"
        ));
    }
    // One `latency_us` block per throughput row.
    let entries = text.matches("\"latency_us\"").count();
    if entries < 2 {
        return Err(format!("`{path}` has {entries} rows, need >= 2"));
    }
    for key in REQUIRED_KEYS {
        if text.matches(key).count() < entries {
            return Err(format!(
                "`{path}` is stale: key {key} missing from some rows"
            ));
        }
    }
    // Percentiles must be populated and ordered on at least two rows
    // (sub-microsecond p50s can legitimately floor to 0 on loopback
    // healthz, but a baseline where *nothing* resolved is broken).
    let populated = latency_blocks(&text)
        .iter()
        .filter(|(p50, p99, p999)| *p50 > 0 && p99 >= p50 && p999 >= p99)
        .count();
    if populated < 2 {
        return Err(format!(
            "`{path}` has {populated} rows with populated ordered percentiles, need >= 2 — \
             the latency capture is broken; regenerate"
        ));
    }
    // The `parallel` section: shape always, ratio only when the baseline
    // host actually had the cores to show it.
    for key in ["serial_ns", "parallel_ns", "speedup", "host_cpus"] {
        if !text.contains(&format!("\"{key}\": ")) {
            return Err(format!(
                "`{path}` is stale: `{key}` missing — regenerate it with \
                 `cargo run --release -p adds-bench --bin bench_serve`"
            ));
        }
    }
    let host_cpus = json_number(&text, "host_cpus").unwrap_or(0.0);
    let speedup =
        json_number(&text, "speedup").ok_or(format!("`{path}` carries no parseable speedup"))?;
    if host_cpus >= JOBS as f64 && speedup < MIN_BATCH_SPEEDUP {
        return Err(format!(
            "`{path}` pins cold-batch speedup at {speedup:.2}x < {MIN_BATCH_SPEEDUP}x on a \
             {host_cpus}-cpu host — the parallel executor regressed; profile before re-baselining"
        ));
    }
    // The `open_loop` section: shape always, the 10x-over-floor ratio
    // only on a host where client and server had separate cores.
    for key in ["floor_rps", "target_rps", "achieved_rps", "ratio_vs_floor"] {
        if !text.contains(&format!("\"{key}\": ")) {
            return Err(format!(
                "`{path}` is stale: open_loop `{key}` missing — regenerate"
            ));
        }
    }
    let ratio = json_number(&text, "ratio_vs_floor")
        .ok_or(format!("`{path}` carries no parseable ratio_vs_floor"))?;
    if host_cpus >= 2.0 && ratio < MIN_OPEN_LOOP_RATIO {
        return Err(format!(
            "`{path}` pins open-loop keep-alive throughput at {ratio:.2}x the close-mode floor \
             < {MIN_OPEN_LOOP_RATIO}x on a {host_cpus}-cpu host — the reactor regressed; \
             profile before re-baselining"
        ));
    }
    // The `soak` section: enough connections to mean anything. (Scoped
    // to the section — `open_loop` carries a `connections` key too.)
    let soak_text = text
        .split("\"soak\": {")
        .nth(1)
        .ok_or(format!("`{path}` is stale: `soak` section missing"))?;
    let soak_conns = json_number(soak_text, "connections")
        .ok_or(format!("`{path}` carries no parseable soak connections"))?;
    if soak_conns < MIN_SOAK_CONNECTIONS {
        return Err(format!(
            "`{path}` soaked only {soak_conns} connections, need >= {MIN_SOAK_CONNECTIONS}"
        ));
    }
    // Per-jobs cold rows present for both endpoints.
    for mode in ["cold@jobs=1", "cold@jobs=4"] {
        if text.matches(&format!("\"mode\": \"{mode}\"")).count() < 2 {
            return Err(format!(
                "`{path}` is stale: missing `{mode}` rows for analyze and batch"
            ));
        }
    }
    Ok(())
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The CI smoke: a reduced live soak (no file written). Fails unless the
/// reactor actually held the herd and every probe got an answer.
fn soak_smoke() {
    let conns = env_usize("ADDS_SOAK_CONNS", 512);
    let secs = env_usize("ADDS_SOAK_SECS", 2) as u64;
    let soak = run_soak(conns, secs);
    println!(
        "soak-smoke: {} connections (peak open {}), {} churned, {} probes, \
         p50 {}us p99 {}us p999 {}us",
        soak.connections,
        soak.peak_open,
        soak.churned,
        soak.probe_requests,
        soak.lat.p50,
        soak.lat.p99,
        soak.lat.p999
    );
    assert!(
        soak.peak_open as usize >= soak.connections * 9 / 10,
        "reactor held {} connections at peak, expected ~{}",
        soak.peak_open,
        soak.connections
    );
    assert!(soak.probe_requests > 0, "no probes completed");
    assert!(soak.churned > 0, "churn never cycled a connection");
    assert!(
        soak.lat.p999 >= soak.lat.p99 && soak.lat.p99 >= soak.lat.p50,
        "percentiles out of order"
    );
    println!("soak-smoke: ok");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        match check(OUT_PATH) {
            Ok(()) => println!("{OUT_PATH}: schema ok"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.iter().any(|a| a == "--soak-smoke") {
        soak_smoke();
        return;
    }
    let rows = measure();
    let floor_rps = rows
        .iter()
        .find(|r| r.endpoint == "healthz" && r.mode == "floor")
        .expect("floor row")
        .rps();
    let open_loop = measure_open_loop(floor_rps);
    let soak = run_soak(SOAK_CONNS, SOAK_SECS);
    let batch_ns = |mode: &str| {
        rows.iter()
            .find(|r| r.endpoint == "batch" && r.mode == mode)
            .expect("batch row")
            .total_ns
    };
    let parallel = Parallel {
        host_cpus: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        serial_ns: batch_ns("cold@jobs=1"),
        parallel_ns: batch_ns("cold@jobs=4"),
    };
    let mut rows = rows;
    rows.push(Row {
        endpoint: "healthz",
        mode: "open-loop",
        requests: open_loop.requests,
        threads: OPEN_LOOP_CONNS,
        total_ns: open_loop.total_ns,
        lat: open_loop.lat,
    });
    rows.push(Row {
        endpoint: "healthz",
        mode: "soak",
        requests: soak.probe_requests,
        threads: SOAK_PROBERS,
        total_ns: soak.total_ns,
        lat: soak.lat,
    });
    for r in &rows {
        println!(
            "{:<12} {:<14} {:>6} requests x{:<2} threads  {:>10.0} req/s  \
             p50 {:>6}us p99 {:>6}us p999 {:>6}us",
            r.endpoint,
            r.mode,
            r.requests,
            r.threads,
            r.rps(),
            r.lat.p50,
            r.lat.p99,
            r.lat.p999
        );
    }
    println!(
        "cold batch speedup at {JOBS} workers: {:.2}x on {} cpus (serial {} ns, parallel {} ns)",
        parallel.speedup(),
        parallel.host_cpus,
        parallel.serial_ns,
        parallel.parallel_ns
    );
    println!(
        "open-loop: offered {:.0} rps ({}x floor), achieved {:.0} rps ({:.2}x floor)",
        open_loop.target_rps,
        OPEN_LOOP_TARGET_X,
        open_loop.achieved_rps(),
        open_loop.ratio_vs_floor()
    );
    println!(
        "soak: {} connections (peak open {}), {} churned, {} probes",
        soak.connections, soak.peak_open, soak.churned, soak.probe_requests
    );
    let doc = render(&rows, &parallel, &open_loop, &soak);
    std::fs::write(OUT_PATH, &doc).expect("write BENCH_serve.json");
    println!("wrote {OUT_PATH}");
}
