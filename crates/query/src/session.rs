//! The **analysis session**: one typed, demand-driven front door shared
//! by the CLI, the HTTP server, and library consumers. A [`Session`]
//! wraps an [`AnalysisDb`] and answers typed requests
//! ([`StageRequest`], [`RunRequest`]) with shared, memoized responses
//! ([`StageOutcome`], [`RunOutcome`]) — a warm `parallelize` after an
//! `analyze` of the same bytes reuses the parse, typecheck, and analysis
//! artifacts instead of recomputing them.
//!
//! ```
//! use adds_query::session::{Session, StageRequest, Stage};
//!
//! let session = Session::new();
//! let src = adds_lang::programs::LIST_SCALE_ADDS;
//! let analyzed = session.stage(src, StageRequest::new(Stage::Analyze));
//! assert!(analyzed.report.ok);
//! // Same bytes again: answered from cache, same Arc.
//! let again = session.stage(src, StageRequest::new(Stage::Analyze));
//! assert_eq!(again.outcome.name(), "hit");
//! ```

use crate::cache::{CacheStats, Outcome};
use crate::db::{AnalysisDb, QueryKind};
use crate::fingerprint::Versions;
use crate::json::Json;
use crate::report::ProgramReport;
use crate::runner::{self, RunOptions, RunReport};
use crate::sha::Digest;
use std::sync::Arc;

/// A report-producing pipeline stage, as named in CLI commands and URL
/// paths. Dispatch goes through the typed [`StageRequest`]; this enum is
/// the stable *name* of the stage on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Parse and pretty-print, verifying the print→parse round trip.
    Parse,
    /// ADDS well-formedness + type check.
    Check,
    /// Path-matrix analysis with per-loop dependence verdicts.
    Analyze,
    /// Strip-mine parallelizable loops and emit transformed source.
    Parallelize,
}

impl Stage {
    /// The stage's lowercase name, as used in CLI commands and URL paths.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Check => "check",
            Stage::Analyze => "analyze",
            Stage::Parallelize => "parallelize",
        }
    }

    /// The JSON `schema` tag of the stage's report document.
    pub fn schema(self) -> &'static str {
        match self {
            Stage::Parse => "adds.parse/v1",
            Stage::Check => "adds.check/v1",
            Stage::Analyze => "adds.analyze/v2",
            Stage::Parallelize => "adds.parallelize/v2",
        }
    }

    /// Parse a stage name (`analyze`, …) as appearing in URLs and CLI
    /// arguments.
    pub fn parse_name(name: &str) -> Option<Stage> {
        Some(match name {
            "parse" => Stage::Parse,
            "check" => Stage::Check,
            "analyze" => Stage::Analyze,
            "parallelize" => Stage::Parallelize,
            _ => None?,
        })
    }
}

/// A typed stage request: which derived document, under which options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageRequest {
    /// The requested stage.
    pub stage: Stage,
    /// Include per-function exit path matrices (analyze only).
    pub matrices: bool,
}

impl StageRequest {
    /// A plain request for `stage`.
    pub fn new(stage: Stage) -> StageRequest {
        StageRequest {
            stage,
            matrices: false,
        }
    }

    /// Request `stage` with the `--matrices` option.
    pub fn with_matrices(stage: Stage, matrices: bool) -> StageRequest {
        StageRequest { stage, matrices }
    }
}

/// A typed run request (the §4 simulation experiment).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunRequest {
    /// Simulation parameters.
    pub opts: RunOptions,
}

/// The answer to a [`StageRequest`]: the content address, the shared
/// canonical report (named by its hash; clone-and-rename for display),
/// and how the cache satisfied the request.
#[derive(Clone)]
pub struct StageOutcome {
    /// sha256 of the request's source bytes.
    pub digest: Digest,
    /// The canonical report (name = content hash, origin `"file"`).
    pub report: Arc<ProgramReport>,
    /// Hit / miss / coalesced.
    pub outcome: Outcome,
}

impl StageOutcome {
    /// The report cloned with the caller's display name and origin.
    pub fn named(&self, name: &str, origin: &'static str) -> ProgramReport {
        let mut r = (*self.report).clone();
        r.name = name.to_string();
        r.origin = origin;
        r
    }
}

/// The answer to a [`RunRequest`].
#[derive(Clone)]
pub struct RunOutcome {
    /// sha256 of the request's source bytes.
    pub digest: Digest,
    /// The canonical run report or error (program named by content hash).
    pub result: Arc<Result<RunReport, String>>,
    /// Hit / miss / coalesced.
    pub outcome: Outcome,
}

/// Session construction knobs.
#[derive(Clone, Debug, Default)]
pub struct SessionConfig {
    /// Per-cache entry bound (0 = unbounded), evicting CLOCK-style.
    pub cache_capacity: usize,
    /// Fingerprint version table override (None = the live defaults).
    pub versions: Option<Versions>,
    /// Parallel fan-out worker budget (0 = one per core, 1 = serial).
    /// Only affects wall-clock — every report is byte-identical at every
    /// value, which the determinism tests pin.
    pub jobs: usize,
    /// Optional persistent second tier under the report/run caches: a
    /// miss probes it before recomputing, computes write behind into it,
    /// and a restart over the same directory serves warm, byte-identical
    /// answers. The frontend owns commit scheduling (see
    /// [`adds_store::Store::commit`]).
    pub store: Option<Arc<adds_store::Store>>,
}

/// One demand-driven analysis session over a shared [`AnalysisDb`].
/// Thread-safe and cheap to clone (clones share the database).
#[derive(Clone, Default)]
pub struct Session {
    db: AnalysisDb,
}

impl Session {
    /// An unbounded session under the live fingerprint versions.
    pub fn new() -> Session {
        Session {
            db: AnalysisDb::new(),
        }
    }

    /// A session with explicit capacity / fingerprint / parallelism
    /// configuration.
    pub fn with_config(config: &SessionConfig) -> Session {
        let db = AnalysisDb::with_store(config.cache_capacity, config.jobs, config.store.clone());
        let db = match &config.versions {
            Some(v) => db.fork_with_versions(v),
            None => db,
        };
        Session { db }
    }

    /// A session with an explicit fan-out worker budget (0 = one per
    /// core, 1 = serial) and default caches/fingerprints.
    pub fn with_jobs(jobs: usize) -> Session {
        Session::with_config(&SessionConfig {
            jobs,
            ..SessionConfig::default()
        })
    }

    /// The underlying query database (artifact-level queries:
    /// `parsed`, `typed`, `analyzed`, `transformed`, `compiled`).
    pub fn db(&self) -> &AnalysisDb {
        &self.db
    }

    /// Answer a typed stage request.
    pub fn stage(&self, source: &str, req: StageRequest) -> StageOutcome {
        let (digest, report, outcome) = self.db.stage_report(source, req.stage, req.matrices);
        StageOutcome {
            digest,
            report,
            outcome,
        }
    }

    /// `parse` convenience.
    pub fn parse(&self, source: &str) -> StageOutcome {
        self.stage(source, StageRequest::new(Stage::Parse))
    }

    /// `check` convenience.
    pub fn check(&self, source: &str) -> StageOutcome {
        self.stage(source, StageRequest::new(Stage::Check))
    }

    /// `analyze` convenience.
    pub fn analyze(&self, source: &str, matrices: bool) -> StageOutcome {
        self.stage(
            source,
            StageRequest::with_matrices(Stage::Analyze, matrices),
        )
    }

    /// `parallelize` convenience.
    pub fn parallelize(&self, source: &str) -> StageOutcome {
        self.stage(source, StageRequest::new(Stage::Parallelize))
    }

    /// Answer a run request. Errors (e.g. a program without a `simulate`
    /// entry) are cached too: the same bytes produce the same error.
    pub fn run(&self, source: &str, req: &RunRequest) -> RunOutcome {
        let (digest, result, outcome) = self.db.run(source, &req.opts);
        RunOutcome {
            digest,
            result,
            outcome,
        }
    }

    /// Look up an already-computed stage report by content hash, without
    /// computing (`GET /v1/report/{sha256}`).
    pub fn lookup(&self, digest: &Digest, req: StageRequest) -> Option<Arc<ProgramReport>> {
        self.db.lookup_report(digest, req.stage, req.matrices)
    }

    /// Request-level cache counters (reports + runs) — what `/v1/stats`
    /// has always surfaced as `cache`.
    pub fn stats(&self) -> &Arc<CacheStats> {
        self.db.report_stats()
    }

    /// Artifact-level cache counters (parse … compile queries).
    pub fn query_stats(&self) -> &Arc<CacheStats> {
        self.db.artifact_stats()
    }

    /// Parallel-executor counters (fan-outs, tasks, steals, worker
    /// utilization) — the `parallel` section of `/v1/stats`.
    pub fn par_stats(&self) -> &crate::par::ParCounters {
        self.db.par()
    }

    /// The session's fan-out worker budget (0 = one per core).
    pub fn jobs(&self) -> usize {
        self.db.jobs()
    }

    /// Map `f` over `items` on the session's worker budget, results in
    /// input order. Batch frontends use this to execute whole items
    /// concurrently through the shared database; determinism is the
    /// executor's contract (canonical merge order, single-flight
    /// coalescing underneath).
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.db.par_map(items, f)
    }

    /// Completed entries across the request-level caches.
    pub fn entries(&self) -> usize {
        self.db.report_entries()
    }

    /// The full response document for a stage request: the CLI's
    /// `{schema, ok, programs}` wrapper around the canonical report with
    /// the caller's display name restored. With `name = <digest hex>` and
    /// origin `"file"` this is byte-identical to
    /// `adds-cli <stage> <file> --format json`. The report is only cloned
    /// when a rename is actually requested — the default (canonical-name)
    /// path is a pure render, keeping warm cache hits cheap.
    pub fn stage_doc(stage: Stage, report: &ProgramReport, name: Option<&str>) -> Json {
        let program = match name {
            Some(n) if n != report.name => {
                let mut r = report.clone();
                r.name = n.to_string();
                r.to_json()
            }
            _ => report.to_json(),
        };
        Json::obj([
            ("schema", Json::str(stage.schema())),
            ("ok", Json::Bool(report.ok)),
            ("programs", Json::Arr(vec![program])),
        ])
    }

    /// The full response document for a `run` request, with the caller's
    /// display name restored (clones only when renaming).
    pub fn run_doc(report: &RunReport, name: Option<&str>) -> Json {
        match name {
            Some(n) if n != report.program => {
                let mut r = report.clone();
                r.program = n.to_string();
                runner::to_json(&r)
            }
            _ => runner::to_json(report),
        }
    }

    /// Total computes per query kind, for `/v1/stats`.
    pub fn query_computes(&self) -> Vec<(&'static str, u64)> {
        QueryKind::ALL
            .iter()
            .map(|&k| (k.name(), self.db.total_computes(k)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adds_lang::programs;

    #[test]
    fn repeated_stage_request_hits_cache() {
        let session = Session::new();
        let src = programs::LIST_SCALE_ADDS;
        let r1 = session.analyze(src, false);
        let r2 = session.analyze(src, false);
        assert_eq!(r1.digest, r2.digest);
        assert_eq!(r1.outcome, Outcome::Miss);
        assert_eq!(r2.outcome, Outcome::Hit);
        assert!(Arc::ptr_eq(&r1.report, &r2.report));
        assert_eq!(session.entries(), 1);
        assert!(session
            .lookup(&r1.digest, StageRequest::new(Stage::Analyze))
            .is_some());
        assert!(session
            .lookup(&r1.digest, StageRequest::new(Stage::Parallelize))
            .is_none());
    }

    #[test]
    fn canonical_report_is_named_by_content_hash() {
        let session = Session::new();
        let src = programs::LIST_SUM;
        let out = session.check(src);
        assert_eq!(out.report.name, out.digest.hex());
        assert_eq!(out.report.origin, "file");
        // Renaming through the doc wrapper restores the caller's view.
        let doc = Session::stage_doc(Stage::Check, &out.report, Some("lists/sum.il")).pretty();
        assert!(doc.contains("\"program\": \"lists/sum.il\""));
        assert!(doc.contains("\"schema\": \"adds.check/v1\""));
    }

    #[test]
    fn run_errors_are_cached() {
        let session = Session::new();
        let src = programs::LIST_SUM; // no `simulate` entry
        let r1 = session.run(src, &RunRequest::default());
        let r2 = session.run(src, &RunRequest::default());
        assert!(r1.result.is_err());
        assert_eq!(r1.outcome, Outcome::Miss);
        assert_eq!(r2.outcome, Outcome::Hit);
        assert!(Arc::ptr_eq(&r1.result, &r2.result));
    }

    /// One stage over one program through a throwaway session, under the
    /// caller's display name — what one CLI invocation over one file does.
    fn stage_named(name: &str, source: &str, stage: Stage, matrices: bool) -> ProgramReport {
        Session::new()
            .stage(source, StageRequest::with_matrices(stage, matrices))
            .named(name, "builtin")
    }

    #[test]
    fn analyze_list_scale_adds_parallelizes() {
        let r = stage_named(
            "list_scale_adds",
            programs::LIST_SCALE_ADDS,
            Stage::Analyze,
            false,
        );
        assert!(r.ok);
        assert_eq!(r.name, "list_scale_adds");
        assert_eq!(r.origin, "builtin");
        let a = r.analyze.unwrap();
        let scale = a.functions.iter().find(|f| f.name == "scale").unwrap();
        assert_eq!(scale.loops.len(), 1);
        assert!(scale.loops[0].parallelizable, "{:?}", scale.loops[0]);
        assert_eq!(scale.loops[0].pattern.as_deref(), Some("p via next"));
    }

    #[test]
    fn analyze_plain_list_stays_sequential() {
        let r = stage_named(
            "list_scale_plain",
            programs::LIST_SCALE_PLAIN,
            Stage::Analyze,
            false,
        );
        assert!(r.ok);
        let a = r.analyze.unwrap();
        let scale = a.functions.iter().find(|f| f.name == "scale").unwrap();
        assert!(!scale.loops[0].parallelizable);
        assert!(!scale.loops[0].reasons.is_empty());
    }

    #[test]
    fn parse_reports_roundtrip() {
        let r = stage_named("barnes_hut", programs::BARNES_HUT, Stage::Parse, false);
        assert!(r.ok);
        assert!(r.parse.unwrap().roundtrip_stable);
    }

    #[test]
    fn parallelize_barnes_hut_reports_decisions() {
        let r = stage_named(
            "barnes_hut",
            programs::BARNES_HUT,
            Stage::Parallelize,
            false,
        );
        assert!(r.ok);
        let t = r.transform.unwrap();
        assert!(t.reparses);
        let funcs: Vec<&str> = t.parallelized.iter().map(|d| d.func.as_str()).collect();
        assert!(
            funcs.contains(&"bhl1") && funcs.contains(&"bhl2"),
            "{funcs:?}"
        );
        assert!(t.source.contains("parfor"));
    }

    #[test]
    fn bad_source_fails_with_diagnostics() {
        let r = stage_named("broken", "type T {", Stage::Analyze, false);
        assert!(!r.ok);
        assert!(!r.diagnostics.is_empty());
    }

    #[test]
    fn matrices_flag_adds_exit_matrix() {
        let r = stage_named(
            "list_scale_adds",
            programs::LIST_SCALE_ADDS,
            Stage::Analyze,
            true,
        );
        let a = r.analyze.unwrap();
        assert!(a.functions[0].exit_matrix.is_some());
    }

    #[test]
    fn matrices_flag_separates_report_entries() {
        let session = Session::new();
        let src = programs::LIST_SCALE_ADDS;
        let plain = session.analyze(src, false);
        let with = session.analyze(src, true);
        assert_eq!(with.outcome, Outcome::Miss, "distinct fingerprint");
        let a = with.report.analyze.as_ref().unwrap();
        assert!(a.functions[0].exit_matrix.is_some());
        let a = plain.report.analyze.as_ref().unwrap();
        assert!(a.functions[0].exit_matrix.is_none());
    }
}
