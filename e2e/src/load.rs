//! The load generator. A closed loop has each client wait for its reply
//! before sending the next request; an open loop sends on a fixed schedule
//! and pipelines a request whose predecessor has not been answered yet.
//! Every client is one thread holding one keep-alive connection.

use crate::client::{self, Conn, Response, RECONNECT_AFTER};
use crate::gen::{Pass, ReqId};
use crate::oracle::{check, Request};
use crate::stats;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// How long an open loop waits for outstanding replies after the window.
const DRAIN: Duration = Duration::from_secs(30);

/// Failure messages kept for the report (all failures are counted).
const KEPT_FAILURES: usize = 8;

#[derive(Clone, Copy, Debug)]
pub enum Regime {
    /// `clients` threads, each sending its next request on the last reply.
    Closed { clients: usize },
    /// `conns` threads sharing a fixed total arrival `rate` (requests/s).
    Open { conns: usize, rate: f64 },
}

impl Regime {
    pub fn threads(self) -> usize {
        match self {
            Regime::Closed { clients } => clients,
            Regime::Open { conns, .. } => conns,
        }
    }
}

/// One answered request, kept for the traced pass.
pub struct Record {
    pub id: ReqId,
    /// Due time (open loop) or send time (closed loop).
    pub start: Instant,
    pub end: Instant,
    pub status: u16,
    pub cache: String,
    pub target: String,
}

/// One successful request: when it was due (open loop) or sent (closed
/// loop), and when its reply was complete.
#[derive(Clone, Copy)]
pub struct Sample {
    pub start: Instant,
    pub end: Instant,
}

/// Throughput and latency of a run, each the median over equal
/// sub-windows, so that one burst of host noise moves one sub-window's
/// value rather than the result.
pub struct Summary {
    pub throughput_rps: f64,
    pub p50_us: f64,
    pub tail_us: f64,
    /// Fewest samples in a sub-window.
    pub min_samples: usize,
}

#[derive(Default)]
pub struct LoadResult {
    /// When the load began.
    pub began: Option<Instant>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub samples: Vec<Sample>,
    /// Open loop: how late each request was written, µs.
    pub lags_us: Vec<f64>,
    pub reconnects: u64,
    /// Checked responses kept to be recomputed after the window.
    pub recompute: Vec<(Request, Vec<u8>)>,
    pub records: Vec<Record>,
}

impl LoadResult {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(msg);
        }
    }

    fn complete(
        &mut self,
        req: Request,
        resp: Response,
        start: Instant,
        end: Instant,
        record: bool,
    ) {
        if record {
            self.records.push(Record {
                id: req.id,
                start,
                end,
                status: resp.status,
                cache: resp.cache.clone(),
                target: req.target().to_string(),
            });
        }
        if !(200..300).contains(&resp.status) {
            let msg = String::from_utf8_lossy(&resp.body);
            self.fail(format!(
                "{} {} answered {}: {}",
                req.id.label(),
                req.target(),
                resp.status,
                msg.trim()
            ));
            return;
        }
        if let Err(msg) = check(&req, &resp.body) {
            self.fail(msg);
            return;
        }
        self.samples.push(Sample { start, end });
        if req.recomputed() {
            self.recompute.push((req, resp.body));
        }
    }

    /// Split `duration` into `parts` sub-windows by when each request
    /// started. A sub-window's throughput is its completions over the time
    /// they spanned.
    pub fn summarize(&self, duration: Duration, parts: usize, tail_q: f64) -> Summary {
        let began = self.began.expect("run() records when the load began");
        let part = duration.as_secs_f64() / parts as f64;
        let mut windows: Vec<Vec<&Sample>> = vec![Vec::new(); parts];
        for s in &self.samples {
            let i = (s.start.saturating_duration_since(began).as_secs_f64() / part) as usize;
            if let Some(w) = windows.get_mut(i) {
                w.push(s);
            }
        }
        let median_of = |f: &dyn Fn(&[&Sample]) -> f64| {
            stats::median(&windows.iter().map(|w| f(w)).collect::<Vec<_>>())
        };
        let latencies = |w: &[&Sample]| {
            w.iter()
                .map(|s| micros(s.end - s.start))
                .collect::<Vec<_>>()
        };
        Summary {
            throughput_rps: median_of(&|w| {
                let first = w.iter().map(|s| s.end).min();
                let last = w.iter().map(|s| s.end).max();
                match (first, last) {
                    (Some(a), Some(b)) if b > a => (w.len() - 1) as f64 / (b - a).as_secs_f64(),
                    _ => 0.0,
                }
            }),
            p50_us: median_of(&|w| stats::median(&latencies(w))),
            tail_us: median_of(&|w| stats::quantile(&latencies(w), tail_q)),
            min_samples: windows.iter().map(Vec::len).min().unwrap_or(0),
        }
    }

    fn merge(&mut self, other: LoadResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(f);
            }
        }
        self.samples.extend(other.samples);
        self.lags_us.extend(other.lags_us);
        self.reconnects += other.reconnects;
        self.recompute.extend(other.recompute);
        self.records.extend(other.records);
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Drive `make`'s requests against `addr` for `duration`. With `record`,
/// every answered request is kept as a [`Record`].
pub fn run(
    addr: SocketAddr,
    regime: Regime,
    pass: Pass,
    duration: Duration,
    record: bool,
    make: &(dyn Fn(ReqId) -> Request + Sync),
) -> LoadResult {
    let start = Instant::now();
    let end = start + duration;
    let parts: Vec<LoadResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..regime.threads())
            .map(|client| {
                s.spawn(move || match regime {
                    Regime::Closed { .. } => closed_client(addr, pass, client, end, record, make),
                    Regime::Open { conns, rate } => {
                        let interval = Duration::from_secs_f64(conns as f64 / rate);
                        let first = start + interval.mul_f64(client as f64 / conns as f64);
                        open_client(addr, pass, client, interval, first, end, record, make)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator threads do not panic"))
            .collect()
    });
    let mut total = LoadResult {
        began: Some(start),
        ..LoadResult::default()
    };
    for part in parts {
        total.merge(part);
    }
    total
}

fn closed_client(
    addr: SocketAddr,
    pass: Pass,
    client: usize,
    end: Instant,
    record: bool,
    make: &(dyn Fn(ReqId) -> Request + Sync),
) -> LoadResult {
    let mut out = LoadResult::default();
    let mut conn: Option<Conn> = None;
    let mut index = 0;
    while Instant::now() < end {
        let req = make(ReqId::new(pass, client, index));
        index += 1;
        out.attempted += 1;
        if conn.as_ref().is_some_and(|c| c.sent >= RECONNECT_AFTER) {
            conn = None;
            out.reconnects += 1;
        }
        let start = Instant::now();
        let c = match conn {
            Some(ref mut c) => c,
            None => match Conn::open(addr) {
                Ok(c) => conn.insert(c),
                Err(e) => {
                    out.fail(format!("{}: connect: {e}", req.id.label()));
                    continue;
                }
            },
        };
        match c.roundtrip(&req.wire) {
            Ok(resp) => {
                let done = Instant::now();
                if resp.close {
                    conn = None;
                    out.reconnects += 1;
                }
                out.complete(req, resp, start, done, record);
            }
            Err(e) => {
                conn = None;
                out.fail(format!("{} {}: {e}", req.id.label(), req.target()));
            }
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn open_client(
    addr: SocketAddr,
    pass: Pass,
    client: usize,
    interval: Duration,
    first: Instant,
    end: Instant,
    record: bool,
    make: &(dyn Fn(ReqId) -> Request + Sync),
) -> LoadResult {
    client::exact_timers();
    let mut out = LoadResult::default();
    let mut conn: Option<Conn> = None;
    // Sent and not yet answered, oldest first, with each one's due time.
    let mut inflight: VecDeque<(Request, Instant)> = VecDeque::new();
    let mut due = first;
    let mut index = 0;
    let drain_deadline = end + DRAIN;
    loop {
        let now = Instant::now();
        let sending = due < end;
        if !sending && (inflight.is_empty() || now >= drain_deadline) {
            for (req, _) in inflight.drain(..) {
                out.fail(format!(
                    "{}: no reply by the drain deadline",
                    req.id.label()
                ));
            }
            break;
        }
        let full = conn.as_ref().is_some_and(|c| c.sent >= RECONNECT_AFTER);
        if full && inflight.is_empty() {
            conn = None;
            out.reconnects += 1;
            continue;
        }
        if sending && now >= due && !full {
            let req = make(ReqId::new(pass, client, index));
            index += 1;
            out.attempted += 1;
            let this_due = due;
            due += interval;
            let c = match conn {
                Some(ref mut c) => c,
                None => match Conn::open(addr) {
                    Ok(c) => conn.insert(c),
                    Err(e) => {
                        out.fail(format!("{}: connect: {e}", req.id.label()));
                        continue;
                    }
                },
            };
            out.lags_us
                .push(micros(Instant::now().saturating_duration_since(this_due)));
            match c.send(&req.wire) {
                Ok(()) => inflight.push_back((req, this_due)),
                Err(e) => {
                    out.fail(format!("{}: send: {e}", req.id.label()));
                    lose(&mut out, &mut inflight, &e.to_string());
                    conn = None;
                }
            }
            continue;
        }
        let Some(c) = conn.as_mut().filter(|_| !inflight.is_empty()) else {
            sleep_until(due);
            continue;
        };
        let wake = if sending && !full {
            due
        } else {
            drain_deadline
        };
        match c.recv_until(wake) {
            Ok(Some(resp)) => {
                let done = Instant::now();
                let (req, req_due) = inflight.pop_front().expect("a reply answers a request");
                let close = resp.close;
                out.complete(req, resp, req_due, done, record);
                if close {
                    lose(&mut out, &mut inflight, "server closed the connection");
                    conn = None;
                    out.reconnects += 1;
                }
            }
            Ok(None) => {}
            Err(e) => {
                lose(&mut out, &mut inflight, &e.to_string());
                conn = None;
            }
        }
    }
    out
}

/// The connection died: every request still waiting on it has failed.
fn lose(out: &mut LoadResult, inflight: &mut VecDeque<(Request, Instant)>, why: &str) {
    for (req, _) in inflight.drain(..) {
        out.fail(format!("{} {}: {why}", req.id.label(), req.target()));
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}
