//! The four workloads: what each sends, how its server is configured, and
//! what set-up primes before the window opens.

use crate::client::{wire, Conn, Response, RECONNECT_AFTER};
use crate::gen::{self, Pass, ReqId, Rng, Zipf};
use crate::load::Regime;
use crate::oracle::{check, Expect, Request};
use adds_lang::programs::BARNES_HUT;
use adds_query::runner::RunOptions;
use adds_query::session::Stage;
use adds_serve::corpus::CORPUS;
use adds_serve::server::{ServeOptions, Server, ServerHandle};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Per-cache entry bound of every server except `warm_open`'s. Unbounded,
/// the caches grow by about 1.7 MB per distinct cold program.
pub const CACHE_CAP: usize = 64;

/// Procedure counts of `analyze_cold` programs: the spread exposes how
/// analysis cost grows with program size.
const COLD_PROCS: (usize, usize) = (2, 64);
/// Share of `analyze_cold` requests that are `analyze` (the rest are
/// `parallelize`).
const COLD_ANALYZE_SHARE: f64 = 0.6;
/// `analyze_cold` set-up warms the server with this many programs of
/// `WARMUP_PROCS` procedures (fixed size, so set-up time does not depend
/// on the seed's size draw).
const WARMUP_REQUESTS: u64 = 8;
const WARMUP_PROCS: usize = 32;

/// `warm_open` arrival rate: well below the server's warm capacity
/// (`BENCH_serve.json`: about 11.7k warm keep-alive `analyze` req/s on one
/// CPU), so latency is service time rather than queue length.
const WARM_RATE: f64 = 2000.0;
/// Stages primed and replayed by `warm_open`, for every corpus program.
const WARM_STAGES: [Stage; 4] = [
    Stage::Analyze,
    Stage::Parallelize,
    Stage::Check,
    Stage::Parse,
];

const RUN_PES: [usize; 4] = [1, 2, 4, 8];
/// Particle counts of `run_sim` requests: each request draws its count
/// uniformly from this range. Drawing only the two ends, half each, would
/// put the median latency on the gap between two latency modes, where it
/// flips from one mode to the other with the draw.
const RUN_BODIES: (usize, usize) = (128, 256);

/// `mixed_store`: fixed arrival rate, primed working set, and mix.
const MIXED_RATE: f64 = 600.0;
const MIXED_KEYS: u64 = 512;
const MIXED_COLD_SHARE: f64 = 0.15;
/// Assumed, not measured: the share of `mixed_store` reads sent as
/// `GET /v1/report/{sha}` (the rest are warm `POST`s).
const MIXED_GET_SHARE: f64 = 0.5;
/// Assumed, not measured: procedure counts of primed and cold
/// `mixed_store` programs. With `COLD_PROCS` the cold share alone
/// overloads a 2-CPU host at `MIXED_RATE`, and each set-up of 512 primed
/// reports takes seconds.
const MIXED_PROCS: (usize, usize) = (2, 8);

/// Assumed, not measured: the popularity skew of warm reads, the exponent
/// of Zipf's law in its original form (popularity ∝ 1/rank).
const ZIPF_EXPONENT: f64 = 1.0;

/// Which primed keys are hot is drawn once from this seed, not from the
/// run's: popularity is a property of the traffic, and the run's seed
/// draws the requests from it. Drawn from the run's seed, the hot keys of
/// `warm_open` (28 in all, the top one about a quarter of the reads) were
/// large programs for some seeds and small ones for others, and its
/// `latency_tail_ms` followed the seed: in three alternating pairs of runs,
/// 0.28–0.29 ms with seed 36 against 0.23–0.25 ms with seed 32.
const POPULARITY_SEED: u64 = 0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    AnalyzeCold,
    WarmOpen,
    RunSim,
    MixedStore,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AnalyzeCold,
        Workload::WarmOpen,
        Workload::RunSim,
        Workload::MixedStore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AnalyzeCold => "analyze_cold",
            Workload::WarmOpen => "warm_open",
            Workload::RunSim => "run_sim",
            Workload::MixedStore => "mixed_store",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// At most `nproc` generator threads, each with one connection.
    pub fn regime(self, nproc: usize) -> Regime {
        match self {
            Workload::AnalyzeCold => Regime::Closed {
                clients: nproc.min(2),
            },
            Workload::WarmOpen => Regime::Open {
                conns: nproc.min(2),
                rate: WARM_RATE,
            },
            Workload::RunSim => Regime::Closed { clients: 1 },
            Workload::MixedStore => Regime::Open {
                conns: nproc.min(2),
                rate: MIXED_RATE,
            },
        }
    }

    /// The tail percentile reported as `latency_tail_ms`: a high one with
    /// at least ten samples beyond it in a sub-window of a 2-CPU host's
    /// window (the window is split into fewer sub-windows where it must).
    /// `warm_open` uses p90: its p99 of a few hundred microseconds is set
    /// by scheduler noise and does not repeat within 10%.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::AnalyzeCold => 0.98,
            Workload::WarmOpen | Workload::RunSim => 0.90,
            Workload::MixedStore => 0.99,
        }
    }

    /// Whether the server runs with a persistent store under its caches.
    pub fn has_store(self) -> bool {
        self == Workload::MixedStore
    }

    pub fn cache_cap(self) -> usize {
        match self {
            Workload::WarmOpen => 0,
            _ => CACHE_CAP,
        }
    }

    /// Bind a fresh server and prime it. `scratch` holds the store
    /// directory; it is removed when the returned [`Env`] drops.
    pub fn setup(self, seed: u64, nproc: usize, scratch: &Path, n: usize) -> Result<Env, String> {
        let store_dir = self
            .has_store()
            .then(|| scratch.join(format!("store-{}-{n}", std::process::id())));
        let opts = ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            jobs: nproc,
            cache_capacity: self.cache_cap(),
            store_dir: store_dir.as_ref().map(|d| d.display().to_string()),
            ..ServeOptions::default()
        };
        let server = Server::bind(&opts)
            .and_then(Server::spawn)
            .map_err(|e| format!("start server: {e}"))?;
        let mut env = Env {
            server: Some(server),
            keys: Vec::new(),
            zipf: None,
            store_dir,
            seed,
        };
        let mut primer = Primer::new(env.addr());
        let setup_id = |index| ReqId::new(Pass::Setup, 0, index);
        match self {
            Workload::AnalyzeCold => {
                for i in 0..WARMUP_REQUESTS {
                    let mut rng = Rng::for_request(seed, setup_id(i));
                    primer.checked(&cold_request(
                        &mut rng,
                        seed,
                        setup_id(i),
                        WARMUP_PROCS,
                        true,
                    ))?;
                }
            }
            Workload::RunSim => {
                primer.checked(&run_request(seed, setup_id(0), RUN_BODIES.0))?;
            }
            Workload::WarmOpen => {
                for entry in CORPUS {
                    for stage in WARM_STAGES {
                        let post = wire(
                            "POST",
                            &format!("/v1/{}", stage.name()),
                            entry.source.as_bytes(),
                        );
                        let resp = primer.send(&post)?;
                        env.keys
                            .push(Key::new(entry.source.to_string(), post, &resp));
                    }
                }
            }
            Workload::MixedStore => {
                for i in 0..MIXED_KEYS {
                    let mut rng = Rng::for_request(seed, setup_id(i));
                    let procs = rng.range(MIXED_PROCS.0, MIXED_PROCS.1);
                    let req = cold_request(&mut rng, seed, setup_id(i), procs, true);
                    let resp = primer.checked(&req)?;
                    env.keys
                        .push(Key::new(req.body().to_string(), req.wire, &resp));
                }
            }
        }
        if !env.keys.is_empty() {
            let mut rng = Rng::for_request(POPULARITY_SEED, ReqId::new(Pass::Setup, 1, 0));
            env.zipf = Some(Zipf::new(env.keys.len(), ZIPF_EXPONENT, &mut rng));
        }
        Ok(env)
    }

    /// The request with id `id`: a pure function of the seed and the id.
    pub fn request(self, env: &Env, id: ReqId) -> Request {
        let mut rng = Rng::for_request(env.seed, id);
        match self {
            Workload::AnalyzeCold => {
                let procs = rng.range(COLD_PROCS.0, COLD_PROCS.1);
                let analyze = rng.unit() < COLD_ANALYZE_SHARE;
                cold_request(&mut rng, env.seed, id, procs, analyze)
            }
            Workload::WarmOpen => env.warm_read(&mut rng, id, false),
            Workload::RunSim => {
                let bodies = rng.range(RUN_BODIES.0, RUN_BODIES.1);
                run_request(env.seed, id, bodies)
            }
            Workload::MixedStore => {
                if rng.unit() < MIXED_COLD_SHARE {
                    let procs = rng.range(MIXED_PROCS.0, MIXED_PROCS.1);
                    cold_request(&mut rng, env.seed, id, procs, true)
                } else {
                    let by_sha = rng.unit() < MIXED_GET_SHARE;
                    env.warm_read(&mut rng, id, by_sha)
                }
            }
        }
    }
}

/// A primed request and the bytes it must keep answering with.
pub struct Key {
    pub source: String,
    /// `POST /v1/{stage}` with the source.
    pub post: Vec<u8>,
    /// The report's content address (`X-Adds-Sha256`).
    sha: String,
    body: Arc<Vec<u8>>,
}

impl Key {
    fn new(source: String, post: Vec<u8>, resp: &Response) -> Key {
        Key {
            source,
            post,
            sha: resp.sha.clone(),
            body: Arc::new(resp.body.clone()),
        }
    }
}

/// A bound, primed server and the workload's working set.
pub struct Env {
    server: Option<ServerHandle>,
    pub keys: Vec<Key>,
    zipf: Option<Zipf>,
    store_dir: Option<PathBuf>,
    pub seed: u64,
}

impl Env {
    pub fn server(&self) -> &ServerHandle {
        self.server
            .as_ref()
            .expect("the server lives as long as the env")
    }

    pub fn addr(&self) -> SocketAddr {
        self.server().addr()
    }

    /// A Zipf-chosen primed key, by `POST` or (`by_sha`) by report id
    /// (`analyze` keys only: `GET /v1/report` defaults to that stage).
    fn warm_read(&self, rng: &mut Rng, id: ReqId, by_sha: bool) -> Request {
        let zipf = self.zipf.as_ref().expect("warm workloads prime keys");
        let key = &self.keys[zipf.sample(rng)];
        let wire = match by_sha {
            true => wire("GET", &format!("/v1/report/{}", key.sha), b""),
            false => key.post.clone(),
        };
        Request {
            id,
            wire,
            expect: Expect::Body(Arc::clone(&key.body)),
        }
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        // Stop the server (its final store commit included) before its
        // directory goes away.
        drop(self.server.take());
        if let Some(dir) = &self.store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Set-up traffic over one connection, reconnecting before the server's
/// keep-alive cap.
struct Primer {
    addr: SocketAddr,
    conn: Option<Conn>,
}

impl Primer {
    fn new(addr: SocketAddr) -> Primer {
        Primer { addr, conn: None }
    }

    fn send(&mut self, wire: &[u8]) -> Result<Response, String> {
        if self
            .conn
            .as_ref()
            .is_some_and(|c| c.sent >= RECONNECT_AFTER)
        {
            self.conn = None;
        }
        let conn = match self.conn {
            Some(ref mut c) => c,
            None => self
                .conn
                .insert(Conn::open(self.addr).map_err(|e| format!("set-up connect: {e}"))?),
        };
        let resp = conn
            .roundtrip(wire)
            .map_err(|e| format!("set-up request: {e}"))?;
        if resp.close {
            self.conn = None;
        }
        if resp.status != 200 {
            return Err(format!("set-up request answered {}", resp.status));
        }
        Ok(resp)
    }

    fn checked(&mut self, req: &Request) -> Result<Response, String> {
        let resp = self.send(&req.wire)?;
        check(req, &resp.body).map_err(|e| format!("set-up: {e}"))?;
        Ok(resp)
    }
}

/// A cold `analyze` (or `parallelize`) of a freshly generated program.
fn cold_request(rng: &mut Rng, seed: u64, id: ReqId, procs: usize, analyze: bool) -> Request {
    let program = gen::program(rng, procs, &format!("seed {seed} {}", id.label()));
    let (path, expect) = if analyze {
        ("/v1/analyze", Expect::Analyze(program.verdicts))
    } else {
        ("/v1/parallelize", Expect::Parallelize(program.verdicts))
    };
    Request {
        id,
        wire: wire("POST", path, program.source.as_bytes()),
        expect,
    }
}

/// The §4 experiment on a uniquely commented copy of `barnes_hut`.
fn run_request(seed: u64, id: ReqId, bodies: usize) -> Request {
    let opts = RunOptions {
        pes: RUN_PES.to_vec(),
        steps: 1,
        bodies,
        ..RunOptions::default()
    };
    let pes: Vec<String> = opts.pes.iter().map(|p| p.to_string()).collect();
    let target = format!(
        "/v1/run?pes={}&steps={}&bodies={bodies}",
        pes.join(","),
        opts.steps
    );
    let source = format!("{BARNES_HUT}// seed {seed} {}\n", id.label());
    Request {
        id,
        wire: wire("POST", &target, source.as_bytes()),
        expect: Expect::Run(opts),
    }
}
