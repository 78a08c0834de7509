//! # adds — Abstract Description of Data Structures
//!
//! A reproduction of *"Applying an Abstract Data Structure Description
//! Approach to Parallelizing Scientific Pointer Programs"* (Hummel, Nicolau
//! & Hendren, ICPP 1992) as a Rust workspace. This umbrella crate re-exports
//! the pieces:
//!
//! * [`lang`] — the IL: a C-like pointer language with **ADDS shape
//!   declarations** (dimensions, forward/backward routes, uniqueness,
//!   independence), parser, type checker, pretty printer.
//! * [`core`] — **general path matrix analysis**: per-program-point path
//!   matrices, abstraction validation, alias queries, loop dependence
//!   testing, and the parallelizing transformations (strip-mining §4.3.3,
//!   unrolling, software pipelining).
//! * [`klimit`] — the §2.1 **prior-work baselines** (conservative blob,
//!   k-limited storage graphs, CWZ-style allocation sites) over the same
//!   IL.
//! * [`ladder`] — the runnable §2.1 **precision ladder**: each baseline
//!   and ADDS + general path matrix analysis judging the same walk loop,
//!   rendered by `adds-cli ladder`.
//! * [`machine`] — the execution substrate: IL interpreter with a simulated
//!   Sequent-class MIMD cost model, speculative traversability, and dynamic
//!   conflict detection.
//! * [`nbody`] — the paper's workload natively: Barnes–Hut octree N-body
//!   with the strip-mined parallel loops on real threads, plus the §4.2
//!   Water-style O(N²) array MD counterpoint.
//! * [`structures`] — the §3.1 example structures (one-way lists, bignums,
//!   polynomials, orthogonal lists, 2-D range trees, quadtrees) with
//!   run-time shape validators.
//! * [`query`] — the pipeline as a **demand-driven session**: memoized
//!   queries per layer (`parsed`, `typed`, `effects`, `loop_verdict`,
//!   `transformed`, `compiled`, `run`) under the `(sha256, fingerprint)`
//!   contract, shared by the CLI, the HTTP server, and — via [`api`] —
//!   library consumers.
//! * [`net`] — the **event-driven server core**: a dependency-free
//!   `poll(2)` reactor with nonblocking sockets, a connection budget with
//!   backpressure (503 + `Retry-After`), a coarse timer wheel for
//!   idle/read/write deadlines, and worker-pool execution handoff — the
//!   engine under the HTTP front end.
//! * [`obs`] — the observability substrate threaded through all of the
//!   above: lock-light span tracing with Chrome `trace_event` export
//!   (`--trace out.json`), plus atomic counters/gauges and log-scale
//!   latency histograms behind `GET /v1/metrics` and `/v1/stats`.
//!
//! ## Quickstart
//!
//! ```
//! // Declare a list shape, analyze the paper's scaling loop, and watch the
//! // analysis prove that iterations never alias:
//! let compiled = adds::core::compile(adds::lang::programs::LIST_SCALE_ADDS).unwrap();
//! let analysis = compiled.analysis("scale").unwrap();
//! let fixpoint = &analysis.loops[0].bottom;
//! assert!(!fixpoint.pm.get("p'", "p").may_alias());   // p moves every iteration
//! assert_eq!(fixpoint.pm.get("head", "p").display(), "next+");
//! ```

#![warn(missing_docs)]

pub use adds_core as core;
pub use adds_klimit as klimit;
pub use adds_lang as lang;
pub use adds_machine as machine;
pub use adds_nbody as nbody;
pub use adds_net as net;
pub use adds_obs as obs;
pub use adds_query as query;
pub use adds_store as store;
pub use adds_structures as structures;

pub mod ladder;

/// The **library API**: the same demand-driven [`Session`](api::Session)
/// the CLI and the HTTP server are frontends over, re-exported for
/// programmatic consumers.
///
/// A session memoizes every pipeline layer by content hash, so repeated
/// and dependent requests share work — `parallelize` after `analyze` of
/// the same bytes re-parses nothing, and identical concurrent requests
/// compute once (single flight):
///
/// ```
/// use adds::api::{Session, Stage, StageRequest};
///
/// let session = Session::new();
/// let src = adds::lang::programs::LIST_SCALE_ADDS;
///
/// // Typed request → shared, cached report (the CLI/server wire format).
/// let analyzed = session.stage(src, StageRequest::new(Stage::Analyze));
/// assert!(analyzed.report.ok);
///
/// // Artifact-level queries ride the same cache:
/// let verdict = session.db().loop_verdict(src, "scale", 0);
/// let verdict = verdict.as_ref().as_ref().unwrap().as_ref().unwrap();
/// assert!(verdict.parallelizable);
///
/// // The dependent stage starts from the cached analysis artifacts.
/// let parallelized = session.parallelize(src);
/// assert!(parallelized.report.ok);
/// let digest = adds::query::db::sha256(src.as_bytes());
/// assert_eq!(session.db().computes(adds::query::QueryKind::Parsed, &digest), 1);
/// ```
pub mod api {
    pub use adds_query::db::{AnalysisDb, Failure, QueryKind, QueryResult};
    pub use adds_query::session::{
        RunOutcome, RunRequest, Session, SessionConfig, Stage, StageOutcome, StageRequest,
    };
}
