//! # adds-query — the ADDS pipeline as a demand-driven session
//!
//! The paper's pipeline is inherently layered — parse → typecheck → ADDS
//! declarations → analysis fixpoints → per-loop dependence checks →
//! transform → machine compile → run — and this crate exposes it that
//! way: as a **query database** plus a typed **session** front door
//! shared by the CLI (`adds-cli`), the HTTP server (`adds-serve`), and
//! library consumers (`adds::api`).
//!
//! * [`db`] — [`db::AnalysisDb`]: each pipeline layer is a derived query.
//!   A layer is cached under the `(sha256(source), fingerprint)` contract
//!   when two queries read it — `parsed`, `typed`, `analyzed`,
//!   `transformed`, `compiled`, plus the rendered stage reports and `run`
//!   — and computed inside its one report otherwise (the round trip, the
//!   ADDS declaration summary, each function's loop checks). Dependent
//!   queries pull their inputs from upstream queries, so a warm
//!   `parallelize` after an `analyze` re-parses nothing.
//! * [`fingerprint`] — the composed fingerprint contract: every query's
//!   key embeds its own `layer/version` token plus the fingerprints of
//!   its dependencies, so schema bumps self-invalidate per layer.
//! * [`session`] — [`session::Session`] with typed request/response
//!   structs ([`session::StageRequest`], [`session::RunRequest`]), the
//!   document renderers, and the cache/compute counters.
//! * [`cache`] — the sharded, single-flight, optionally bounded
//!   (CLOCK-evicting) content-hash cache underneath every query.
//! * [`persist`] — the exact binary codec that carries request-level
//!   cache values (stage reports, run results) to and from the optional
//!   disk tier (`adds-store`) without perturbing a single output byte.
//! * [`par`] — the deterministic parallel executor: fans independent
//!   work (per-function loop checks, per-PE runs, batch items) over a
//!   bounded worker budget, merging results in canonical input order so
//!   parallelism never changes a single output byte.
//! * [`report`] / [`json`] / [`runner`] — the byte-stable report model
//!   shared verbatim by the CLI and the server (plus a small JSON reader
//!   for batch requests).
//! * [`sha`] — the self-contained SHA-256 content address.

#![warn(missing_docs)]

pub mod cache;
pub mod db;
pub mod fingerprint;
pub mod json;
pub mod par;
pub mod persist;
pub mod report;
pub mod runner;
pub mod session;
pub mod sha;

pub use db::{AnalysisDb, QueryKind};
pub use session::{
    RunOutcome, RunRequest, Session, SessionConfig, Stage, StageOutcome, StageRequest,
};
