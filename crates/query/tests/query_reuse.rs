//! The two load-bearing properties of the query layer, pinned:
//!
//! 1. **Reuse** — a warm `parallelize` after an `analyze` of the same
//!    bytes performs *zero* re-parses / re-checks / re-analyses of the
//!    input source (per-digest compute counters on the db prove it), and
//!    the `run` query reuses the transformed source's typecheck from the
//!    `parallelize` that produced it.
//! 2. **Scoped invalidation** — bumping one layer's fingerprint version
//!    invalidates exactly that layer and its downstream queries; upstream
//!    entries keep hitting.
//! 3. **Two readers or no cache** — a layer only one report reads (each
//!    function's loop checks) is computed inside that report, so a cold
//!    `analyze` makes as many cache lookups for one function as for many.

use adds_query::cache::Outcome;
use adds_query::db::{sha256, QueryKind};
use adds_query::fingerprint::Versions;
use adds_query::runner::RunOptions;
use adds_query::session::{RunRequest, Session, Stage, StageRequest};

const SRC: &str = adds_lang::programs::BARNES_HUT;

#[test]
fn warm_parallelize_after_analyze_reparses_nothing() {
    let session = Session::new();
    let db = session.db();
    let digest = sha256(SRC.as_bytes());

    let analyzed = session.analyze(SRC, false);
    assert!(analyzed.report.ok);
    assert_eq!(analyzed.outcome, Outcome::Miss);
    assert_eq!(db.computes(QueryKind::Parsed, &digest), 1);
    assert_eq!(db.computes(QueryKind::Typed, &digest), 1);
    assert_eq!(db.computes(QueryKind::Analyzed, &digest), 1);

    // The dependent stage: new document, zero upstream recomputation of
    // the input bytes.
    let parallelized = session.parallelize(SRC);
    assert!(parallelized.report.ok);
    assert_eq!(parallelized.outcome, Outcome::Miss, "different document");
    assert_eq!(db.computes(QueryKind::Parsed, &digest), 1, "zero re-parses");
    assert_eq!(db.computes(QueryKind::Typed, &digest), 1, "zero re-checks");
    assert_eq!(
        db.computes(QueryKind::Analyzed, &digest),
        1,
        "zero re-analyses"
    );
    assert_eq!(db.computes(QueryKind::Transformed, &digest), 1);

    // Repeating either stage is a pure cache hit.
    assert_eq!(session.analyze(SRC, false).outcome, Outcome::Hit);
    assert_eq!(session.parallelize(SRC).outcome, Outcome::Hit);
    assert_eq!(db.computes(QueryKind::Report, &digest), 2, "two documents");
}

#[test]
fn run_reuses_the_transform_chain() {
    let session = Session::new();
    let db = session.db();
    let digest = sha256(SRC.as_bytes());

    // Warm the analysis side first, as a client mixing endpoints would.
    session.parallelize(SRC);
    let transformed_src = session
        .db()
        .transformed(SRC)
        .as_ref()
        .as_ref()
        .expect("transforms")
        .source
        .clone();
    let t_digest = sha256(transformed_src.as_bytes());
    // The reparses proof already typechecked the emitted source.
    assert_eq!(db.computes(QueryKind::Typed, &t_digest), 1);

    let opts = RunOptions {
        bodies: 24,
        steps: 1,
        pes: vec![2],
        ..RunOptions::default()
    };
    let out = session.run(SRC, &RunRequest { opts });
    assert!(out.result.is_ok(), "{:?}", out.result);
    // run compiled both programs but re-derived nothing upstream.
    assert_eq!(db.computes(QueryKind::Parsed, &digest), 1);
    assert_eq!(db.computes(QueryKind::Typed, &digest), 1);
    assert_eq!(db.computes(QueryKind::Analyzed, &digest), 1);
    assert_eq!(db.computes(QueryKind::Transformed, &digest), 1);
    assert_eq!(db.computes(QueryKind::Typed, &t_digest), 1, "reused");
    assert_eq!(db.computes(QueryKind::Compiled, &digest), 1);
    assert_eq!(db.computes(QueryKind::Compiled, &t_digest), 1);
}

#[test]
fn bumping_one_layer_invalidates_only_downstream_queries() {
    let session = Session::new();
    let db = session.db();
    let digest = sha256(SRC.as_bytes());
    assert!(session.analyze(SRC, false).report.ok);
    assert_eq!(db.computes(QueryKind::Parsed, &digest), 1);
    assert_eq!(db.computes(QueryKind::Analyzed, &digest), 1);
    let effects_before = db.total_computes(QueryKind::Effects);
    assert!(effects_before > 0);

    // Fork the db under a bumped *analyzed* layer: same caches, new keys
    // for analyzed and everything downstream of it.
    let bumped = db.fork_with_versions(&Versions {
        analyzed: "analyzed/v2".into(),
        ..Versions::default()
    });
    let (_, report, outcome) = bumped.stage_report(SRC, Stage::Analyze, false);
    assert!(report.ok);
    assert_eq!(outcome, Outcome::Miss, "report fingerprint changed");
    // Upstream layers: still warm, not recomputed.
    assert_eq!(bumped.computes(QueryKind::Parsed, &digest), 1, "parse kept");
    assert_eq!(bumped.computes(QueryKind::Typed, &digest), 1, "check kept");
    // The bumped layer and its dependents: recomputed once each.
    assert_eq!(bumped.computes(QueryKind::Analyzed, &digest), 2);
    assert_eq!(
        bumped.total_computes(QueryKind::Effects),
        2 * effects_before
    );
    assert_eq!(bumped.computes(QueryKind::Report, &digest), 2);

    // Queries *upstream* of the bump resolve to the shared warm entries
    // from either handle.
    assert!(bumped
        .lookup_report(&digest, Stage::Analyze, false)
        .is_some());
    assert!(db.lookup_report(&digest, Stage::Analyze, false).is_some());
    // And the two handles' reports are byte-identical documents.
    let (_, old_report, _) = db.stage_report(SRC, Stage::Analyze, false);
    assert_eq!(
        Session::stage_doc(Stage::Analyze, &report, None).pretty(),
        Session::stage_doc(Stage::Analyze, &old_report, None).pretty()
    );
}

#[test]
fn session_request_structs_cover_the_stage_surface() {
    // The typed request path and the convenience methods answer
    // identically (same Arc out of the same cache).
    let session = Session::new();
    let a = session.stage(SRC, StageRequest::new(Stage::Check));
    let b = session.check(SRC);
    assert!(std::sync::Arc::ptr_eq(&a.report, &b.report));
    assert_eq!(b.outcome, Outcome::Hit);
}

#[test]
fn cold_analyze_lookups_do_not_grow_with_the_function_count() {
    // A cold analyze looks up the report, then the `analyzed`, `typed`
    // and `parsed` artifacts once each. Each function's loop checks are
    // read by this report alone, so they are computed in it, once per
    // analyzed function, without a lookup of their own.
    let cold = |src: &str| {
        let session = Session::new();
        let out = session.analyze(src, false);
        assert!(out.report.ok);
        assert_eq!(out.outcome, Outcome::Miss);
        let functions = out
            .report
            .analyze
            .as_ref()
            .expect("analyze")
            .functions
            .len() as u64;
        assert_eq!(
            session.db().computes(QueryKind::Effects, &out.digest),
            functions,
            "one loop-check compute per analyzed function"
        );
        let q = session.query_stats();
        let lookups = q.get(&q.hits) + q.get(&q.misses) + q.get(&q.coalesced);
        (lookups, functions)
    };
    let (many, many_functions) = cold(SRC);
    let (few, few_functions) = cold(adds_lang::programs::LIST_SUM);
    assert!(many_functions > few_functions);
    assert_eq!(many, few, "artifact lookups of a cold analyze");
}
