//! The demand-driven **analysis database**: the pipeline — parse →
//! typecheck → ADDS declarations → analysis fixpoints → per-loop
//! dependence checks → transform → machine compile → run — as queries
//! over source bytes. A layer gets a cache, under the
//! `(sha256(source), fingerprint)` contract of [`crate::cache`], only when
//! two queries read it: `parsed`, `typed`, `analyzed`, `transformed` and
//! `compiled` are cached artifacts, and the stage reports and runs are
//! cached per request, over an optional disk tier. The leaves that one
//! report alone reads — the `parse` report's round trip, the `check`
//! report's ADDS declaration summary and each function's loop `effects`
//! in the `analyze` report — are computed inside that report.
//!
//! Queries pull their inputs from the queries they depend on (the
//! dependency graph is the fingerprint composition in
//! [`crate::fingerprint`]), so a warm `parallelize` after an `analyze`
//! reuses the parsed AST, the typed program, and the analysis fixpoints
//! instead of recomputing them. Every layer, cached or not, counts its
//! computes per digest ([`AnalysisDb::computes`]), which makes that
//! property testable, times them, and opens its `query.<layer>` span.
//!
//! Failed upstream computations are artifacts too: a parse error is
//! cached once as a [`Failure`] and every downstream query of the same
//! bytes shares it.

use crate::cache::{Cache, CacheStats, Outcome};
use crate::fingerprint::{Fingerprints, Versions};
use crate::par::ParCounters;
use crate::report::{
    CheckReport, FnReport, LoopEffectsReport, LoopReport, ParseReport, ProgramReport, ReasonEntry,
    SkippedLoop, TransformDecision, TransformReport, TypeSummary,
};
use crate::runner::{ParRun, RunOptions, RunReport, CLOUD_SEED};
use crate::session::Stage;
use adds_lang::adds::AddsFieldKind;
use adds_lang::ast::{Direction, Program};
use adds_lang::source::line_col;
use adds_lang::TypedProgram;
use adds_machine::compile::CompiledProgram;
use adds_machine::{uniform_cloud, CostModel};
use adds_obs::metrics::Histogram;
use adds_obs::trace;
use adds_store::Store;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

pub use crate::sha::{sha256, Digest};

/// A failed upstream computation (parse or type errors), cached and
/// shared by every downstream query of the same bytes.
#[derive(Clone, Debug)]
pub struct Failure {
    /// `Diagnostics::render` output (`line:col: message`, one per line) —
    /// exactly what stage reports carry in `diagnostics`.
    pub rendered: Vec<String>,
    /// `Diagnostics` `Display` output (byte offsets), used where error
    /// strings historically embedded `{d}` rather than a render.
    pub display: String,
}

impl Failure {
    fn of(d: &adds_lang::Diagnostics, src: &str) -> Failure {
        Failure {
            rendered: vec![d.render(src)],
            display: d.to_string(),
        }
    }

    fn of_one(d: &adds_lang::Diagnostic, src: &str) -> Failure {
        Failure {
            rendered: vec![d.render(src)],
            display: d.to_string(),
        }
    }
}

/// Shorthand for a cached artifact: shared, and either the value or the
/// upstream failure.
pub type QueryResult<T> = Arc<Result<T, Failure>>;

/// The analysis fixpoint artifact: `core::compile` output (typed program,
/// interprocedural summaries, per-function path-matrix analyses).
pub struct Analyzed(pub adds_core::Compiled);

/// Which query computed — the key of the per-digest compute counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// `parsed(src)`
    Parsed,
    /// The `parse` report's print→parse round trip (uncached).
    Roundtrip,
    /// `typed(src)`
    Typed,
    /// The `check` report's ADDS declaration summary (uncached).
    AddsDecls,
    /// `analyzed(src)`
    Analyzed,
    /// One function's loop checks in the `analyze` report (uncached: one
    /// compute per analyzed function).
    Effects,
    /// `transformed(src)`
    Transformed,
    /// `compiled(src)`
    Compiled,
    /// `run(src, opts)`
    Run,
    /// `report(src, stage, opts)`
    Report,
}

impl QueryKind {
    /// Every query kind, in pipeline order (stats rendering).
    pub const ALL: &'static [QueryKind] = &[
        QueryKind::Parsed,
        QueryKind::Roundtrip,
        QueryKind::Typed,
        QueryKind::AddsDecls,
        QueryKind::Analyzed,
        QueryKind::Effects,
        QueryKind::Transformed,
        QueryKind::Compiled,
        QueryKind::Run,
        QueryKind::Report,
    ];

    /// Stable snake_case name (used by `/v1/stats`).
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Parsed => "parsed",
            QueryKind::Roundtrip => "roundtrip",
            QueryKind::Typed => "typed",
            QueryKind::AddsDecls => "adds_decls",
            QueryKind::Analyzed => "analyzed",
            QueryKind::Effects => "effects",
            QueryKind::Transformed => "transformed",
            QueryKind::Compiled => "compiled",
            QueryKind::Run => "runs",
            QueryKind::Report => "reports",
        }
    }

    /// Trace span name for this query (`query.` + [`QueryKind::name`]),
    /// static so the recorder never allocates for it.
    pub fn span_name(self) -> &'static str {
        match self {
            QueryKind::Parsed => "query.parsed",
            QueryKind::Roundtrip => "query.roundtrip",
            QueryKind::Typed => "query.typed",
            QueryKind::AddsDecls => "query.adds_decls",
            QueryKind::Analyzed => "query.analyzed",
            QueryKind::Effects => "query.effects",
            QueryKind::Transformed => "query.transformed",
            QueryKind::Compiled => "query.compiled",
            QueryKind::Run => "query.runs",
            QueryKind::Report => "query.reports",
        }
    }
}

/// Per-digest entries kept in the diagnostic compute map. The map exists
/// for reuse assertions (tests, debugging); past this bound it resets
/// rather than growing with every distinct source a long-running server
/// ever sees. The per-kind totals (atomics) are exact regardless.
const MAX_TRACKED_DIGESTS: usize = 65_536;

/// Compute counts: exact per-kind totals on lock-free atomics (the
/// `/v1/stats` path reads only these), plus a bounded per-`(kind,
/// digest)` diagnostic map for reuse assertions. Computes are rare —
/// every one is a cache miss doing real analysis work — so a mutexed map
/// on the bump path is plenty.
#[derive(Default)]
struct ComputeCounters {
    totals: [std::sync::atomic::AtomicU64; QueryKind::ALL.len()],
    map: Mutex<HashMap<(QueryKind, Digest), u64>>,
    /// Diagnostic entries discarded by the bounded-map reset — surfaced
    /// in `/v1/stats` so operators can tell when per-digest reuse
    /// assertions are running on incomplete data.
    dropped: std::sync::atomic::AtomicU64,
}

impl ComputeCounters {
    fn bump(&self, kind: QueryKind, digest: Digest) {
        self.totals[kind as usize].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut map = self.map.lock().expect("compute counters");
        if map.len() >= MAX_TRACKED_DIGESTS && !map.contains_key(&(kind, digest)) {
            self.dropped
                .fetch_add(map.len() as u64, std::sync::atomic::Ordering::Relaxed);
            map.clear();
        }
        *map.entry((kind, digest)).or_insert(0) += 1;
    }

    fn get(&self, kind: QueryKind, digest: &Digest) -> u64 {
        *self
            .map
            .lock()
            .expect("compute counters")
            .get(&(kind, *digest))
            .unwrap_or(&0)
    }

    fn total(&self, kind: QueryKind) -> u64 {
        self.totals[kind as usize].load(std::sync::atomic::Ordering::Relaxed)
    }

    fn dropped(&self) -> u64 {
        self.dropped.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// How a request-level layer's values are written to and read back from
/// the persistent tier.
struct Codec<V> {
    encode: fn(&V) -> Vec<u8>,
    decode: fn(&[u8]) -> Option<V>,
}

const REPORT_CODEC: Codec<ProgramReport> = Codec {
    encode: crate::persist::encode_report,
    decode: crate::persist::decode_report,
};

const RUN_CODEC: Codec<Result<RunReport, String>> = Codec {
    encode: crate::persist::encode_run,
    decode: crate::persist::decode_run,
};

/// Where a cached layer keeps its values: its cache, the fingerprint that
/// keys it, and, for a request-level layer, the store codec.
struct Cached<'a, V> {
    cache: &'a Cache<V>,
    fingerprint: &'a str,
    codec: Option<&'a Codec<V>>,
}

/// The shared cache bank behind one or more databases (a forked database
/// with bumped [`Versions`] reuses the same bank; see
/// [`AnalysisDb::fork_with_versions`]).
struct Caches {
    artifact_stats: Arc<CacheStats>,
    report_stats: Arc<CacheStats>,
    counters: ComputeCounters,
    /// Parallel-executor counters (fan-outs, tasks, steals, worker
    /// utilization) — per cache bank, like every other counter here, so
    /// `/v1/stats` stays hermetic per server.
    par: ParCounters,
    /// Per-layer compute duration histograms (µs): every cache miss that
    /// runs real analysis work records how long the compute took, so
    /// `/v1/metrics` can rank layers by where time actually goes.
    durations: [Histogram; QueryKind::ALL.len()],
    parsed: Cache<Result<Program, Failure>>,
    typed: Cache<Result<TypedProgram, Failure>>,
    analyzed: Cache<Result<Analyzed, Failure>>,
    transformed: Cache<Result<TransformReport, Failure>>,
    compiled: Cache<Result<CompiledProgram, Failure>>,
    runs: Cache<Result<RunReport, String>>,
    reports: Cache<ProgramReport>,
    /// The optional persistent second tier under the request-level caches
    /// (reports + runs): misses probe it before recomputing, computes
    /// write behind into it, and evictions flush through it.
    store: Option<Arc<Store>>,
}

impl Caches {
    fn new(capacity: usize, store: Option<Arc<Store>>) -> Caches {
        let artifact_stats = Arc::new(CacheStats::default());
        let report_stats = Arc::new(CacheStats::default());
        fn make<V>(stats: &Arc<CacheStats>, capacity: usize) -> Cache<V> {
            Cache::bounded(Arc::clone(stats), capacity)
        }
        let mut runs: Cache<Result<RunReport, String>> = make(&report_stats, capacity);
        let mut reports: Cache<ProgramReport> = make(&report_stats, capacity);
        if let Some(store) = &store {
            // Write-behind on eviction: a value the CLOCK sweep drops is
            // persisted (a no-op when the compute already buffered it), so
            // a bounded RAM tier never costs a recompute that the disk
            // tier could have answered.
            let sink = Arc::clone(store);
            reports.set_evict_hook(Arc::new(move |digest, fp, value| {
                sink.put(&digest.0, fp, &(REPORT_CODEC.encode)(value));
            }));
            let sink = Arc::clone(store);
            runs.set_evict_hook(Arc::new(move |digest, fp, value| {
                sink.put(&digest.0, fp, &(RUN_CODEC.encode)(value));
            }));
        }
        Caches {
            parsed: make(&artifact_stats, capacity),
            typed: make(&artifact_stats, capacity),
            analyzed: make(&artifact_stats, capacity),
            transformed: make(&artifact_stats, capacity),
            compiled: make(&artifact_stats, capacity),
            runs,
            reports,
            counters: ComputeCounters::default(),
            par: ParCounters::new(),
            durations: std::array::from_fn(|_| Histogram::new()),
            artifact_stats,
            report_stats,
            store,
        }
    }
}

/// The demand-driven, memoized analysis database. Cheap to share
/// (`Clone` shares the cache bank) and safe to use from many threads —
/// every cache is sharded and single-flight.
#[derive(Clone)]
pub struct AnalysisDb {
    fp: Arc<Fingerprints>,
    caches: Arc<Caches>,
    /// Worker budget for internal query fan-outs (0 = one per core).
    /// Parallelism never changes an answer, so this deliberately does
    /// **not** participate in any fingerprint.
    jobs: usize,
}

impl Default for AnalysisDb {
    fn default() -> Self {
        Self::new()
    }
}

impl AnalysisDb {
    /// An unbounded database under the default fingerprint [`Versions`],
    /// with one fan-out worker per core and no persistent tier.
    pub fn new() -> AnalysisDb {
        AnalysisDb::with_store(0, 0, None)
    }

    /// A database whose caches hold at most ~`capacity` entries each
    /// (0 = unbounded), evicting CLOCK-style, with a fan-out worker budget
    /// (`jobs`; 0 = one per core, 1 = fully serial evaluation) and an
    /// optional persistent second tier under the request-level caches.
    /// The budget only affects wall-clock: reports are byte-identical at
    /// every value. With a store, a report/run miss probes disk before
    /// recomputing (and promotes the hit into RAM), every compute writes
    /// behind into the store's pending buffer, and evicted entries flush
    /// through it — so a restart serves warm, byte-identical answers.
    /// Persistence is invisible in report bytes: a disk hit and a
    /// recompute are indistinguishable except in the counters.
    pub fn with_store(capacity: usize, jobs: usize, store: Option<Arc<Store>>) -> AnalysisDb {
        AnalysisDb {
            fp: Arc::new(Fingerprints::default()),
            caches: Arc::new(Caches::new(capacity, store)),
            jobs,
        }
    }

    /// The persistent tier, when configured (commit scheduling and stats
    /// belong to the frontend).
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.caches.store.as_ref()
    }

    /// A database sharing this one's caches and counters but keyed under
    /// `versions`. Queries whose composed fingerprints are unchanged keep
    /// hitting the shared entries; bumped layers (and everything
    /// downstream of them) recompute under their new keys.
    pub fn fork_with_versions(&self, versions: &Versions) -> AnalysisDb {
        AnalysisDb {
            fp: Arc::new(Fingerprints::new(versions)),
            caches: Arc::clone(&self.caches),
            jobs: self.jobs,
        }
    }

    /// The configured fan-out worker budget (0 = one per core).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Parallel-executor counters (fan-outs, tasks, steals, worker
    /// utilization), shared with everything on this cache bank.
    pub fn par(&self) -> &ParCounters {
        &self.caches.par
    }

    /// Map `f` over `items` on this database's worker budget, results in
    /// input order — the fan-out batch frontends use for whole items.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.caches.par.map_ordered(self.jobs, items, f)
    }

    /// The composed fingerprint table this database keys under.
    pub fn fingerprints(&self) -> &Fingerprints {
        &self.fp
    }

    /// Cache counters of the artifact queries (parse … compile).
    pub fn artifact_stats(&self) -> &Arc<CacheStats> {
        &self.caches.artifact_stats
    }

    /// Cache counters of the request-level queries (reports + runs) —
    /// the counters `/v1/stats` has always surfaced.
    pub fn report_stats(&self) -> &Arc<CacheStats> {
        &self.caches.report_stats
    }

    /// Completed + in-flight entries in the request-level caches.
    pub fn report_entries(&self) -> usize {
        self.caches.reports.len() + self.caches.runs.len()
    }

    /// Completed + in-flight entries in the artifact caches.
    pub fn artifact_entries(&self) -> usize {
        let c = &self.caches;
        c.parsed.len() + c.typed.len() + c.analyzed.len() + c.transformed.len() + c.compiled.len()
    }

    /// How many times `kind` was *computed* (not served from cache) for
    /// the exact source bytes hashing to `digest`.
    pub fn computes(&self, kind: QueryKind, digest: &Digest) -> u64 {
        self.caches.counters.get(kind, digest)
    }

    /// Total computes of `kind` across all sources.
    pub fn total_computes(&self, kind: QueryKind) -> u64 {
        self.caches.counters.total(kind)
    }

    /// Diagnostic per-digest compute entries dropped by the bounded-map
    /// reset (see `MAX_TRACKED_DIGESTS`). Non-zero means
    /// [`AnalysisDb::computes`] answers are incomplete for old digests;
    /// the per-kind totals stay exact.
    pub fn dropped_digest_entries(&self) -> u64 {
        self.caches.counters.dropped()
    }

    /// The compute-duration histogram (µs) of one query layer.
    pub fn layer_duration(&self, kind: QueryKind) -> &Histogram {
        &self.caches.durations[kind as usize]
    }

    /// Answer one layer for `digest` inside its `query.<layer>` span,
    /// tagged with the outcome. A cached layer is answered from RAM, then
    /// from disk when it has a codec, before `f` runs; a layer with one
    /// reader passes `None` and always runs `f`. Only `f` is analysis
    /// work: it alone bumps the compute counters and the duration
    /// histogram.
    fn query<V>(
        &self,
        kind: QueryKind,
        digest: Digest,
        cached: Option<Cached<V>>,
        f: impl FnOnce() -> V,
    ) -> (Arc<V>, Outcome) {
        let mut span = trace::span(kind.span_name(), "query");
        let compute = || {
            self.caches.counters.bump(kind, digest);
            let started = std::time::Instant::now();
            let v = f();
            self.caches.durations[kind as usize].record(started.elapsed().as_micros() as u64);
            v
        };
        let (value, outcome) = match cached {
            Some(cached) => self.lookup(cached, digest, compute),
            None => (Arc::new(compute()), Outcome::Miss),
        };
        if let Some(s) = span.as_mut() {
            s.arg("layer", kind.name());
            s.arg("digest", &digest.hex()[..8]);
            s.arg("outcome", outcome.name());
        }
        (value, outcome)
    }

    /// The one cache lookup path: RAM, then the store when a `codec` is
    /// given and one is configured, and only then `compute`, whose value
    /// a tiered layer writes behind into the store's pending buffer. A
    /// disk load promotes into RAM and surfaces as [`Outcome::Disk`].
    fn lookup<V>(
        &self,
        cached: Cached<V>,
        digest: Digest,
        compute: impl FnOnce() -> V,
    ) -> (Arc<V>, Outcome) {
        let (cache, fingerprint) = (cached.cache, cached.fingerprint);
        let tier = self.caches.store.as_deref().zip(cached.codec);
        let from_disk = std::cell::Cell::new(false);
        let (value, outcome) = cache.get_or_compute(digest, fingerprint, || {
            if let Some((store, codec)) = tier {
                let stored = store.get(&digest.0, fingerprint);
                if let Some(v) = stored.and_then(|bytes| (codec.decode)(&bytes)) {
                    from_disk.set(true);
                    return v;
                }
            }
            let v = compute();
            if let Some((store, codec)) = tier {
                store.put(&digest.0, fingerprint, &(codec.encode)(&v));
            }
            v
        });
        if !from_disk.get() {
            return (value, outcome);
        }
        cache
            .stats()
            .disk_hits
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        (value, Outcome::Disk)
    }

    /// A cached artifact layer over the bytes of `src`.
    fn artifact<V>(
        &self,
        cache: &Cache<V>,
        kind: QueryKind,
        fingerprint: &str,
        src: &str,
        f: impl FnOnce() -> V,
    ) -> Arc<V> {
        let cached = Cached {
            cache,
            fingerprint,
            codec: None,
        };
        self.query(kind, sha256(src.as_bytes()), Some(cached), f).0
    }

    // ----------------------------------------------------- artifact queries

    /// `parsed(src)`: source → AST.
    pub fn parsed(&self, src: &str) -> QueryResult<Program> {
        let c = &self.caches;
        self.artifact(&c.parsed, QueryKind::Parsed, &self.fp.parsed, src, || {
            adds_lang::parse_program(src).map_err(|d| Failure::of_one(&d, src))
        })
    }

    /// `typed(src)`: ADDS resolution + type check over the parsed AST.
    pub fn typed(&self, src: &str) -> QueryResult<TypedProgram> {
        let c = &self.caches;
        self.artifact(&c.typed, QueryKind::Typed, &self.fp.typed, src, || {
            let parsed = self.parsed(src);
            match &*parsed {
                Ok(p) => adds_lang::check(p.clone()).map_err(|d| Failure::of(&d, src)),
                Err(f) => Err(f.clone()),
            }
        })
    }

    /// `analyzed(src)`: effect summaries + path-matrix fixpoints for every
    /// function (the `core::compile` artifact).
    pub fn analyzed(&self, src: &str) -> QueryResult<Analyzed> {
        let c = &self.caches;
        self.artifact(
            &c.analyzed,
            QueryKind::Analyzed,
            &self.fp.analyzed,
            src,
            || {
                let typed = self.typed(src);
                match &*typed {
                    Ok(tp) => Ok(Analyzed(adds_core::driver::compile_typed(tp.clone()))),
                    Err(f) => Err(f.clone()),
                }
            },
        )
    }

    /// `transformed(src)`: strip-mine every licensed loop and prove the
    /// emitted source re-checks (the `parallelize` report section).
    pub fn transformed(&self, src: &str) -> QueryResult<TransformReport> {
        let c = &self.caches;
        self.artifact(
            &c.transformed,
            QueryKind::Transformed,
            &self.fp.transformed,
            src,
            || {
                let analyzed = self.analyzed(src);
                let Analyzed(c) = match &*analyzed {
                    Ok(a) => a,
                    Err(f) => return Err(f.clone()),
                };
                let (prog, decisions) = adds_core::transform::stripmine::strip_mine_program(
                    &c.tp,
                    &c.summaries,
                    &c.analyses,
                );
                let source = adds_lang::pretty::program(&prog);
                // The re-check of the emitted source is itself a typed
                // query — of the *transformed* bytes — so a later
                // `compiled`/`run` over that text starts warm.
                let reparses = self.typed(&source).is_ok();
                let mut parallelized = Vec::new();
                let mut skipped = Vec::new();
                for d in &decisions {
                    for p in &d.parallelized {
                        parallelized.push(TransformDecision {
                            func: d.func.name.clone(),
                            var: p.var.clone(),
                            field: p.field.clone(),
                        });
                    }
                    for s in &d.skipped {
                        skipped.push(SkippedLoop {
                            func: d.func.name.clone(),
                            line: line_col(src, s.span.start).line,
                            reasons: crate::report::dedup_reasons(
                                s.reasons.iter().map(ReasonEntry::of),
                            ),
                        });
                    }
                }
                Ok(TransformReport {
                    parallelized,
                    skipped,
                    source,
                    reparses,
                })
            },
        )
    }

    /// `compiled(src)`: the typed program lowered once to slot-resolved
    /// machine bytecode, shared by every simulation of the same bytes.
    pub fn compiled(&self, src: &str) -> QueryResult<CompiledProgram> {
        let c = &self.caches;
        self.artifact(
            &c.compiled,
            QueryKind::Compiled,
            &self.fp.compiled,
            src,
            || {
                let typed = self.typed(src);
                match &*typed {
                    Ok(tp) => Ok(CompiledProgram::compile(tp)),
                    Err(f) => Err(f.clone()),
                }
            },
        )
    }

    // ------------------------------------------------ request-level queries

    /// `run(src, opts)`: the §4 experiment — sequential vs strip-mined
    /// execution on the simulated machine at each PE count — built from
    /// the `typed`/`transformed`/`compiled` artifacts. Errors are cached
    /// too: the same bytes produce the same error. The canonical report
    /// (and its error strings) name the program by its content hash;
    /// callers restore their display name.
    pub fn run(
        &self,
        src: &str,
        opts: &RunOptions,
    ) -> (Digest, Arc<Result<RunReport, String>>, Outcome) {
        let digest = sha256(src.as_bytes());
        let fingerprint = self.fp.run_report(opts);
        let cached = Cached {
            cache: &self.caches.runs,
            fingerprint: &fingerprint,
            codec: Some(&RUN_CODEC),
        };
        let (result, outcome) = self.query(QueryKind::Run, digest, Some(cached), || {
            self.run_uncached(src, &digest.hex(), opts)
        });
        (digest, result, outcome)
    }

    fn run_uncached(&self, src: &str, name: &str, opts: &RunOptions) -> Result<RunReport, String> {
        let tp_seq = self.typed(src);
        let tp_seq = match &*tp_seq {
            Ok(tp) => tp.clone(),
            Err(f) => return Err(format!("{name}: {}", f.rendered.join("\n"))),
        };
        if tp_seq.program.func("simulate").is_none() {
            return Err(format!(
                "{name}: `run` needs a Barnes-Hut-shaped program with a `simulate` \
                 procedure (try the built-in `barnes_hut`)"
            ));
        }
        let transformed = self.transformed(src);
        let transformed = match &*transformed {
            Ok(t) => t,
            Err(f) => return Err(format!("{name}: {}", f.rendered.join("\n"))),
        };
        let seq_prog = self.compiled(src);
        let seq_prog = match &*seq_prog {
            Ok(p) => p.clone(),
            Err(f) => return Err(format!("{name}: {}", f.rendered.join("\n"))),
        };
        let par_prog = self.compiled(&transformed.source);
        let par_prog = match &*par_prog {
            Ok(p) => p.clone(),
            Err(f) => {
                return Err(format!(
                    "{name}: transformed source fails to re-check: {}",
                    f.display
                ))
            }
        };

        let bodies = uniform_cloud(opts.bodies, CLOUD_SEED);
        let seq = adds_machine::run_barnes_hut_compiled(
            &seq_prog,
            &bodies,
            opts.steps,
            opts.theta,
            opts.dt,
            1,
            CostModel::sequent(),
            false,
        )
        .map_err(|e| format!("{name}: sequential run failed: {e:?}"))?;

        // Each PE count simulates independently; fan out and merge in
        // `opts.pes` order. Errors surface in index order, so the first
        // failing PE count reported matches the serial loop's.
        let runs: Vec<Result<ParRun, String>> = self.par_map(&opts.pes, |&pes| {
            let par = adds_machine::run_barnes_hut_compiled(
                &par_prog,
                &bodies,
                opts.steps,
                opts.theta,
                opts.dt,
                pes,
                CostModel::sequent(),
                true,
            )
            .map_err(|e| format!("{name}: parallel run at {pes} PEs failed: {e:?}"))?;
            let physics_matches = seq.bodies.iter().zip(&par.bodies).all(|(a, b)| {
                (0..3).all(|d| {
                    (a.pos[d] - b.pos[d]).abs() < 1e-9 && (a.vel[d] - b.vel[d]).abs() < 1e-9
                })
            });
            Ok(ParRun {
                pes,
                cycles: par.cycles,
                speedup: seq.cycles as f64 / par.cycles as f64,
                conflicts: par.conflict_count,
                parallel_rounds: par.parallel_rounds,
                physics_matches,
            })
        });
        let mut parallel = Vec::new();
        for run in runs {
            parallel.push(run?);
        }

        Ok(RunReport {
            program: name.to_string(),
            bodies: opts.bodies,
            steps: opts.steps,
            seq_cycles: seq.cycles,
            parallel,
        })
    }

    /// `report(src, stage, matrices)`: the rendered stage report, exactly
    /// as the CLI and `POST /v1/*` emit it. The canonical report carries
    /// the content hash as its display name (origin `"file"`); callers
    /// restore their own name/origin on the way out.
    pub fn stage_report(
        &self,
        src: &str,
        stage: Stage,
        matrices: bool,
    ) -> (Digest, Arc<ProgramReport>, Outcome) {
        let digest = sha256(src.as_bytes());
        let fingerprint = self.fp.stage_report(stage, matrices);
        let cached = Cached {
            cache: &self.caches.reports,
            fingerprint: &fingerprint,
            codec: Some(&REPORT_CODEC),
        };
        let (report, outcome) = self.query(QueryKind::Report, digest, Some(cached), || {
            self.compose_report(src, digest, stage, matrices)
        });
        (digest, report, outcome)
    }

    /// Look up an already-computed stage report by content hash, without
    /// computing (`GET /v1/report/{sha256}`). With a persistent tier, a
    /// RAM miss probes the store and promotes the decoded report into the
    /// in-memory cache — which is how a restarted server keeps serving
    /// reports it computed in a previous life.
    pub fn lookup_report(
        &self,
        digest: &Digest,
        stage: Stage,
        matrices: bool,
    ) -> Option<Arc<ProgramReport>> {
        let fingerprint = self.fp.stage_report(stage, matrices);
        if let Some(report) = self.caches.reports.peek(digest, &fingerprint) {
            return Some(report);
        }
        let store = self.caches.store.as_ref()?;
        let bytes = store.get(&digest.0, &fingerprint)?;
        let report = (REPORT_CODEC.decode)(&bytes)?;
        self.caches
            .report_stats
            .disk_hits
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Promote; if a concurrent request is computing the same key we
        // coalesce onto its (byte-identical) value instead.
        let (report, _) = self
            .caches
            .reports
            .get_or_compute(*digest, &fingerprint, || report);
        Some(report)
    }

    /// Build one stage report from the cached artifacts, computing the
    /// layers that only this report reads — the round trip, the ADDS
    /// declaration summary, each function's loop checks — under the
    /// digest the report query already computed.
    fn compose_report(
        &self,
        src: &str,
        digest: Digest,
        stage: Stage,
        matrices: bool,
    ) -> ProgramReport {
        let name = digest.hex();
        let failed = |f: &Failure| ProgramReport::failed(name.clone(), "file", f.rendered.clone());
        let mut report = ProgramReport {
            name: name.clone(),
            origin: "file",
            ok: true,
            diagnostics: Vec::new(),
            parse: None,
            check: None,
            analyze: None,
            transform: None,
        };
        match stage {
            Stage::Parse => {
                let (parse, _) = self.query(QueryKind::Roundtrip, digest, None, || {
                    match &*self.parsed(src) {
                        Ok(program) => Ok(roundtrip(program)),
                        Err(f) => Err(f.clone()),
                    }
                });
                match &*parse {
                    Ok(p) => {
                        report.ok = p.roundtrip_stable;
                        report.parse = Some(p.clone());
                    }
                    Err(f) => return failed(f),
                }
            }
            Stage::Check => {
                let (check, _) = self.query(QueryKind::AddsDecls, digest, None, || {
                    match &*self.typed(src) {
                        Ok(tp) => Ok(check_report(tp)),
                        Err(f) => Err(f.clone()),
                    }
                });
                match &*check {
                    Ok(c) => report.check = Some(c.clone()),
                    Err(f) => return failed(f),
                }
            }
            Stage::Analyze => {
                let analyzed = self.analyzed(src);
                let Analyzed(c) = match &*analyzed {
                    Ok(a) => a,
                    Err(f) => return failed(f),
                };
                // Each function's loop checks read only the shared
                // fixpoints; fan them out and merge in program order — the
                // serial output order.
                let per_func = self.par_map(&c.tp.program.funcs, |f| {
                    let an = c.analysis(&f.name)?;
                    let (checks, _) = self.query(QueryKind::Effects, digest, None, || {
                        adds_core::check_function(&c.tp, &c.summaries, an, &f.name)
                    });
                    let loops = checks
                        .iter()
                        .map(|c| LoopReport {
                            line: line_col(src, c.span.start).line,
                            pattern: c
                                .pattern
                                .as_ref()
                                .map(|p| format!("{} via {}", p.var, p.field)),
                            parallelizable: c.parallelizable,
                            reasons: crate::report::dedup_reasons(
                                c.reasons.iter().map(ReasonEntry::of),
                            ),
                            effects: c.effects.as_ref().map(|fx| {
                                let (writes, reads, ptr_writes, advances) =
                                    adds_core::depend::render_effects(fx);
                                LoopEffectsReport {
                                    writes,
                                    reads,
                                    ptr_writes,
                                    advances,
                                }
                            }),
                        })
                        .collect();
                    Some(FnReport {
                        name: f.name.clone(),
                        loops,
                        events: an.events.iter().map(|e| e.to_string()).collect(),
                        exit_valid: an.exit.fully_valid(),
                        exit_matrix: matrices
                            .then(|| an.exit.pm.render().lines().map(String::from).collect()),
                    })
                });
                let functions = per_func.into_iter().flatten().collect();
                report.analyze = Some(crate::report::AnalyzeReport { functions });
            }
            Stage::Parallelize => match &*self.transformed(src) {
                Ok(t) => {
                    report.ok = t.reparses;
                    report.transform = Some(t.clone());
                }
                Err(f) => return failed(f),
            },
        }
        report
    }
}

/// The `parse` report section: pretty-print the AST and verify the
/// print→parse→print fixpoint.
fn roundtrip(program: &Program) -> ParseReport {
    let pretty = adds_lang::pretty::program(program);
    let roundtrip_stable = match adds_lang::parse_program(&pretty) {
        Ok(p2) => adds_lang::pretty::program(&p2) == pretty,
        Err(_) => false,
    };
    ParseReport {
        pretty,
        roundtrip_stable,
    }
}

fn check_report(tp: &TypedProgram) -> CheckReport {
    let mut types = Vec::new();
    for t in tp.program.types.iter() {
        let Some(a) = tp.adds.get(&t.name) else {
            continue;
        };
        let mut routes = Vec::new();
        for f in &a.fields {
            if let AddsFieldKind::Pointer {
                target,
                array_len,
                route,
            } = &f.kind
            {
                let arr = array_len.map(|n| format!("[{n}]")).unwrap_or_default();
                let unique = if route.unique { "uniquely " } else { "" };
                let dir = match route.direction {
                    Direction::Forward => "forward",
                    Direction::Backward => "backward",
                    Direction::Unknown => "unknown-direction",
                };
                routes.push(format!(
                    "{}{arr}: {target}* {unique}{dir} along {}",
                    f.name, a.dims[route.dim]
                ));
            }
        }
        types.push(TypeSummary {
            name: a.name.clone(),
            dims: a.dims.clone(),
            routes,
        });
    }
    CheckReport {
        types,
        functions: tp.program.funcs.iter().map(|f| f.name.clone()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adds_lang::programs;

    #[test]
    fn queries_layer_and_memoize() {
        let db = AnalysisDb::new();
        let src = programs::LIST_SCALE_ADDS;
        let digest = sha256(src.as_bytes());

        let typed = db.typed(src);
        assert!(typed.is_ok());
        assert_eq!(db.computes(QueryKind::Parsed, &digest), 1);
        assert_eq!(db.computes(QueryKind::Typed, &digest), 1);

        // A dependent query reuses the parse/typecheck.
        let analyzed = db.analyzed(src);
        assert!(analyzed.is_ok());
        assert_eq!(db.computes(QueryKind::Parsed, &digest), 1);
        assert_eq!(db.computes(QueryKind::Typed, &digest), 1);
        assert_eq!(db.computes(QueryKind::Analyzed, &digest), 1);

        // Repeats are hits.
        let again = db.typed(src);
        assert!(Arc::ptr_eq(&typed, &again));
    }

    #[test]
    fn parse_errors_are_shared_failures() {
        let db = AnalysisDb::new();
        let src = "type T {";
        let digest = sha256(src.as_bytes());
        assert!(db.typed(src).is_err());
        assert!(db.analyzed(src).is_err());
        assert!(db.transformed(src).is_err());
        // One parse, every downstream layer shares the failure.
        assert_eq!(db.computes(QueryKind::Parsed, &digest), 1);
        let (_, report, _) = db.stage_report(src, Stage::Analyze, false);
        assert!(!report.ok);
        assert!(!report.diagnostics.is_empty());
    }

    #[test]
    fn computes_record_layer_durations() {
        let db = AnalysisDb::new();
        let src = programs::LIST_SCALE_ADDS;
        assert_eq!(db.layer_duration(QueryKind::Typed).count(), 0);
        let _ = db.typed(src);
        assert_eq!(db.layer_duration(QueryKind::Parsed).count(), 1);
        assert_eq!(db.layer_duration(QueryKind::Typed).count(), 1);
        // Hits don't re-record: the histogram tracks compute cost only.
        let _ = db.typed(src);
        assert_eq!(db.layer_duration(QueryKind::Typed).count(), 1);
    }

    #[test]
    fn bounded_compute_map_counts_dropped_entries() {
        let counters = ComputeCounters::default();
        for i in 0..MAX_TRACKED_DIGESTS {
            counters.bump(QueryKind::Parsed, sha256(&(i as u64).to_le_bytes()));
        }
        assert_eq!(counters.dropped(), 0);
        // One more distinct digest trips the reset and counts every
        // discarded entry.
        counters.bump(QueryKind::Parsed, sha256(b"one more"));
        assert_eq!(counters.dropped(), MAX_TRACKED_DIGESTS as u64);
        assert_eq!(counters.get(QueryKind::Parsed, &sha256(b"one more")), 1);
        // Totals stay exact across the reset.
        assert_eq!(
            counters.total(QueryKind::Parsed),
            MAX_TRACKED_DIGESTS as u64 + 1
        );
    }

    fn mem_store(io: &Arc<adds_store::FaultIo>) -> Arc<Store> {
        let io = Arc::clone(io) as Arc<dyn adds_store::StoreIo>;
        Arc::new(Store::open_with(io, adds_store::StoreOptions::default()).expect("open"))
    }

    #[test]
    fn store_tier_serves_reports_across_database_instances() {
        let io = Arc::new(adds_store::FaultIo::new());
        let db = AnalysisDb::with_store(0, 0, Some(mem_store(&io)));
        let src = programs::LIST_SCALE_ADDS;
        let digest = sha256(src.as_bytes());
        let (_, cold, o) = db.stage_report(src, Stage::Analyze, true);
        assert_eq!(o, Outcome::Miss);
        db.store().expect("store").commit().expect("commit");

        // A fresh database over the surviving bytes — the restart model.
        let io2 = Arc::new(io.surviving());
        let db2 = AnalysisDb::with_store(0, 0, Some(mem_store(&io2)));
        let (_, warm, o2) = db2.stage_report(src, Stage::Analyze, true);
        assert_eq!(o2, Outcome::Disk, "second life answers from disk");
        assert_eq!(cold.to_json().pretty(), warm.to_json().pretty());
        // No analysis work happened: the disk load is cache traffic.
        assert_eq!(db2.computes(QueryKind::Report, &digest), 0);
        assert_eq!(db2.computes(QueryKind::Parsed, &digest), 0);
        assert_eq!(db2.report_stats().get(&db2.report_stats().disk_hits), 1);
        // The disk hit promoted into RAM: the next request is a plain hit.
        let (_, _, o3) = db2.stage_report(src, Stage::Analyze, true);
        assert_eq!(o3, Outcome::Hit);

        // `lookup_report` (GET /v1/report/{sha}) promotes from disk too.
        let io3 = Arc::new(io.surviving());
        let db3 = AnalysisDb::with_store(0, 0, Some(mem_store(&io3)));
        let looked = db3
            .lookup_report(&digest, Stage::Analyze, true)
            .expect("on disk");
        assert_eq!(cold.to_json().pretty(), looked.to_json().pretty());
        assert!(db3.lookup_report(&digest, Stage::Check, false).is_none());
    }

    #[test]
    fn store_tier_serves_runs_across_database_instances() {
        let io = Arc::new(adds_store::FaultIo::new());
        let db = AnalysisDb::with_store(0, 0, Some(mem_store(&io)));
        let src = programs::BARNES_HUT;
        let opts = RunOptions {
            bodies: 16,
            steps: 1,
            pes: vec![2],
            ..RunOptions::default()
        };
        let (digest, cold, o) = db.run(src, &opts);
        assert_eq!(o, Outcome::Miss);
        db.store().expect("store").commit().expect("commit");

        let io2 = Arc::new(io.surviving());
        let db2 = AnalysisDb::with_store(0, 0, Some(mem_store(&io2)));
        let (_, warm, o2) = db2.run(src, &opts);
        assert_eq!(o2, Outcome::Disk);
        let (cold, warm) = (
            cold.as_ref().as_ref().unwrap(),
            warm.as_ref().as_ref().unwrap(),
        );
        assert_eq!(
            crate::runner::to_json(cold).pretty(),
            crate::runner::to_json(warm).pretty()
        );
        assert_eq!(db2.computes(QueryKind::Run, &digest), 0);
        assert_eq!(
            db2.computes(QueryKind::Compiled, &digest),
            0,
            "no simulation ran"
        );
    }

    #[test]
    fn evicted_report_is_a_disk_hit_not_a_recompute() {
        let io = Arc::new(adds_store::FaultIo::new());
        // Capacity 16 → one completed report per shard.
        let db = AnalysisDb::with_store(16, 0, Some(mem_store(&io)));
        let src = programs::LIST_SCALE_ADDS;
        let digest = sha256(src.as_bytes());
        // A second source whose digest lands in the same cache shard, so
        // computing its report evicts the first one.
        let rival = (0..)
            .map(|i| format!("{src}\n// shard probe {i}\n"))
            .find(|s| sha256(s.as_bytes()).0[0] % 16 == digest.0[0] % 16)
            .expect("a colliding pad exists");

        let (_, first, o1) = db.stage_report(src, Stage::Parse, false);
        assert_eq!(o1, Outcome::Miss);
        let (_, _, o2) = db.stage_report(&rival, Stage::Parse, false);
        assert_eq!(o2, Outcome::Miss);
        assert_eq!(
            db.report_stats().get(&db.report_stats().evicted),
            1,
            "the rival must evict the first report"
        );
        // Evicted from RAM — but the write-behind tier still has it (no
        // commit needed: pending entries are readable), so asking again
        // costs a disk load, not a recompute.
        let (_, again, o3) = db.stage_report(src, Stage::Parse, false);
        assert_eq!(o3, Outcome::Disk);
        assert_eq!(first.to_json().pretty(), again.to_json().pretty());
        assert_eq!(
            db.computes(QueryKind::Report, &digest),
            1,
            "never recomputed"
        );
    }

    #[test]
    fn run_reuses_compiled_artifacts() {
        let db = AnalysisDb::new();
        let src = programs::BARNES_HUT;
        let digest = sha256(src.as_bytes());
        let opts = RunOptions {
            bodies: 24,
            steps: 1,
            pes: vec![2],
            ..RunOptions::default()
        };
        let (_, result, o1) = db.run(src, &opts);
        assert_eq!(o1, Outcome::Miss);
        let report = result.as_ref().as_ref().expect("runs");
        assert_eq!(report.parallel.len(), 1);
        assert_eq!(report.parallel[0].conflicts, 0);
        assert!(report.parallel[0].physics_matches);
        assert_eq!(db.computes(QueryKind::Compiled, &digest), 1);
        // A second run with different PEs reuses every artifact.
        let opts2 = RunOptions {
            pes: vec![4],
            ..opts.clone()
        };
        let (_, _, o2) = db.run(src, &opts2);
        assert_eq!(o2, Outcome::Miss, "different fingerprint");
        assert_eq!(
            db.computes(QueryKind::Compiled, &digest),
            1,
            "bytecode reused"
        );
        assert_eq!(db.computes(QueryKind::Typed, &digest), 1);
        assert_eq!(db.computes(QueryKind::Transformed, &digest), 1);
    }
}
