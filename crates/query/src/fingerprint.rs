//! The **query-fingerprint contract**: every cached query is addressed
//! by `(sha256(source), fingerprint)`, and a query's fingerprint embeds
//! its own `layer/version` token *plus the full fingerprints of the
//! layers it depends on*. Bumping one layer's version therefore rewrites
//! the keys of that layer and everything downstream of it — upstream
//! entries stay valid — so schema changes self-invalidate per layer
//! instead of flushing the whole cache.
//!
//! | query | fingerprint |
//! |---|---|
//! | `parsed` | `parsed/v1` |
//! | `typed` | `typed/v1(parsed/v1)` |
//! | `analyzed` | `analyzed/v1(typed/v1(parsed/v1))` |
//! | `transformed` | `transformed/v1(analyzed/…,typed/…)` |
//! | `compiled` | `machine-bytecode/v2(typed/…)` |
//! | report (`parse` …) | `parse/v1(roundtrip/…)` etc., version from [`Stage::schema`] |
//! | `run` | `run/v1(transformed/…,machine-bytecode/…):pes=…;bodies=…` |
//!
//! The layers that one report alone reads have no cache, but their tokens
//! still sit inside that report's fingerprint — `roundtrip/v1(parsed/v1)`
//! in `parse/v1(…)`, `adds-decls/v1(typed/…)` in `check/v1(…)`,
//! `effects/v1(analyzed/…)` in `analyze/v2(…)` — so bumping one
//! invalidates exactly the reports it shapes.
//!
//! Report-level versions are derived from the report schema tags
//! (`adds.analyze/v2` → `analyze/v2`), so bumping a report schema still
//! invalidates its cached documents with no second table to edit — the
//! same property the PR 4 flat fingerprints had, now compositional.

use crate::runner::{self, RunOptions};
use crate::session::Stage;

/// The per-layer schema-version tokens (`layer/vN`). [`Versions::default`]
/// is the live contract; tests (and staged rollouts) can bump a single
/// layer and get precisely scoped invalidation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Versions {
    /// Source → AST.
    pub parsed: String,
    /// Pretty-print + print→parse round-trip verdict.
    pub roundtrip: String,
    /// ADDS resolution + type check.
    pub typed: String,
    /// Resolved ADDS declaration summary.
    pub adds_decls: String,
    /// Effect summaries + path-matrix fixpoints (`core::compile`).
    pub analyzed: String,
    /// Per-function loop checks (`core::check_function`).
    pub effects: String,
    /// Strip-mined program + decisions.
    pub transformed: String,
    /// Machine bytecode artifact (tracks the VM's bytecode schema).
    pub machine: String,
}

impl Default for Versions {
    fn default() -> Self {
        Versions {
            parsed: "parsed/v1".into(),
            roundtrip: "roundtrip/v1".into(),
            typed: "typed/v1".into(),
            adds_decls: "adds-decls/v1".into(),
            analyzed: "analyzed/v1".into(),
            effects: "effects/v1".into(),
            transformed: "transformed/v1".into(),
            machine: adds_machine::compile::BYTECODE_SCHEMA.into(),
        }
    }
}

/// The composed fingerprints of every layer, precomputed once per database
/// from a [`Versions`] table.
#[derive(Clone, Debug)]
pub struct Fingerprints {
    /// `parsed/v1`
    pub parsed: String,
    /// `roundtrip/v1(parsed/v1)`, inside the `parse` report's fingerprint
    pub roundtrip: String,
    /// `typed/v1(parsed/v1)`
    pub typed: String,
    /// `adds-decls/v1(typed/…)`, inside the `check` report's fingerprint
    pub adds_decls: String,
    /// `analyzed/v1(typed/…)`
    pub analyzed: String,
    /// `transformed/v1(analyzed/…,typed/…)`
    pub transformed: String,
    /// `machine-bytecode/v2(typed/…)`
    pub compiled: String,
    parse_report: String,
    check_report: String,
    analyze_report: String,
    parallelize_report: String,
    run_base: String,
}

impl Default for Fingerprints {
    fn default() -> Self {
        Fingerprints::new(&Versions::default())
    }
}

impl Fingerprints {
    /// Compose the full fingerprint table from per-layer versions.
    pub fn new(v: &Versions) -> Fingerprints {
        let parsed = v.parsed.clone();
        let roundtrip = format!("{}({parsed})", v.roundtrip);
        let typed = format!("{}({parsed})", v.typed);
        let adds_decls = format!("{}({typed})", v.adds_decls);
        let analyzed = format!("{}({typed})", v.analyzed);
        let effects = format!("{}({analyzed})", v.effects);
        // The transform emits new source and proves it re-checks, so it
        // depends on the typed layer as well as the analysis.
        let transformed = format!("{}({analyzed},{typed})", v.transformed);
        let compiled = format!("{}({typed})", v.machine);
        let report = |stage: Stage, dep: &str| format!("{}({dep})", schema_version(stage.schema()));
        Fingerprints {
            parse_report: report(Stage::Parse, &roundtrip),
            check_report: report(Stage::Check, &adds_decls),
            analyze_report: report(Stage::Analyze, &effects),
            parallelize_report: report(Stage::Parallelize, &transformed),
            run_base: format!(
                "{}({transformed},{compiled})",
                schema_version(runner::RUN_SCHEMA)
            ),
            parsed,
            roundtrip,
            typed,
            adds_decls,
            analyzed,
            transformed,
            compiled,
        }
    }

    /// The fingerprint of a rendered stage report.
    pub fn stage_report(&self, stage: Stage, matrices: bool) -> String {
        let base = match stage {
            Stage::Parse => &self.parse_report,
            Stage::Check => &self.check_report,
            Stage::Analyze => &self.analyze_report,
            Stage::Parallelize => &self.parallelize_report,
        };
        if matrices && stage == Stage::Analyze {
            format!("{base}+matrices")
        } else {
            base.clone()
        }
    }

    /// The fingerprint of a `run` query: the composed dependency chain
    /// plus every parameter that shapes the simulation.
    pub fn run_report(&self, opts: &RunOptions) -> String {
        let pes: Vec<String> = opts.pes.iter().map(|p| p.to_string()).collect();
        format!(
            "{}:pes={};bodies={};steps={};theta={};dt={}",
            self.run_base,
            pes.join(","),
            opts.bodies,
            opts.steps,
            opts.theta,
            opts.dt
        )
    }
}

/// `adds.analyze/v2` → `analyze/v2`: the version segment of a report
/// schema tag, shared by fingerprints so a schema bump invalidates cached
/// documents automatically.
fn schema_version(schema: &str) -> &str {
    schema.strip_prefix("adds.").unwrap_or(schema)
}

/// The fingerprint of a stage request under the default [`Versions`]
/// (see the module table).
pub fn stage_fingerprint(stage: Stage, matrices: bool) -> String {
    Fingerprints::default().stage_report(stage, matrices)
}

/// The fingerprint of a `run` request under the default [`Versions`].
pub fn run_fingerprint(opts: &RunOptions) -> String {
    Fingerprints::default().run_report(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_compose_dependencies() {
        let fp = Fingerprints::default();
        assert_eq!(fp.parsed, "parsed/v1");
        assert_eq!(fp.typed, "typed/v1(parsed/v1)");
        assert_eq!(fp.analyzed, "analyzed/v1(typed/v1(parsed/v1))");
        assert_eq!(
            fp.stage_report(Stage::Analyze, false),
            "analyze/v2(effects/v1(analyzed/v1(typed/v1(parsed/v1))))"
        );
        assert_eq!(
            fp.stage_report(Stage::Analyze, true),
            "analyze/v2(effects/v1(analyzed/v1(typed/v1(parsed/v1))))+matrices"
        );
        assert_eq!(
            fp.stage_report(Stage::Parse, false),
            "parse/v1(roundtrip/v1(parsed/v1))"
        );
        // `--matrices` only affects analyze reports.
        assert_eq!(
            fp.stage_report(Stage::Check, true),
            fp.stage_report(Stage::Check, false)
        );
        let run = fp.run_report(&RunOptions::default());
        assert!(run.starts_with("run/v1("), "{run}");
        assert!(run.ends_with(":pes=4;bodies=64;steps=2;theta=0.7;dt=0.001"));
        // The free functions compose the same default table.
        assert_eq!(
            stage_fingerprint(Stage::Analyze, true),
            fp.stage_report(Stage::Analyze, true)
        );
        assert_eq!(run_fingerprint(&RunOptions::default()), run);
    }

    #[test]
    fn every_query_fingerprint_embeds_its_schema_version() {
        // The CI contract: each layer token appears as `name/vN` inside
        // its own fingerprint, and report fingerprints lead with the
        // version segment of their report schema tag.
        let fp = Fingerprints::default();
        let versioned = |s: &str, layer: &str| {
            let token = s
                .split(['(', ')', ',', '#', ':', '+'])
                .find(|t| t.starts_with(layer))
                .unwrap_or_else(|| panic!("`{s}` lacks a `{layer}` token"));
            let (name, version) = token
                .rsplit_once("/v")
                .unwrap_or_else(|| panic!("token `{token}` of `{s}` lacks a /vN schema version"));
            assert_eq!(name, layer, "{s}");
            assert!(
                !version.is_empty() && version.chars().all(|c| c.is_ascii_digit()),
                "`{token}` version must be numeric"
            );
        };
        versioned(&fp.parsed, "parsed");
        versioned(&fp.roundtrip, "roundtrip");
        versioned(&fp.typed, "typed");
        versioned(&fp.adds_decls, "adds-decls");
        versioned(&fp.analyzed, "analyzed");
        versioned(&fp.stage_report(Stage::Analyze, false), "effects");
        versioned(&fp.transformed, "transformed");
        versioned(&fp.compiled, "machine-bytecode");
        for stage in [
            Stage::Parse,
            Stage::Check,
            Stage::Analyze,
            Stage::Parallelize,
        ] {
            let f = fp.stage_report(stage, false);
            let version = schema_version(stage.schema());
            assert!(
                f.starts_with(&format!("{version}(")),
                "report fingerprint `{f}` must lead with `{version}`"
            );
            versioned(&f, stage.name());
        }
        versioned(&fp.run_report(&RunOptions::default()), "run");
    }

    #[test]
    fn bumping_one_layer_rewrites_exactly_the_downstream_fingerprints() {
        let base = Fingerprints::default();
        let bumped = Fingerprints::new(&Versions {
            typed: "typed/v2".into(),
            ..Versions::default()
        });
        // Upstream of the bump: unchanged.
        assert_eq!(base.parsed, bumped.parsed);
        assert_eq!(base.roundtrip, bumped.roundtrip);
        assert_eq!(
            base.stage_report(Stage::Parse, false),
            bumped.stage_report(Stage::Parse, false)
        );
        // The bumped layer and everything depending on it: rewritten.
        assert_ne!(base.typed, bumped.typed);
        assert_ne!(base.adds_decls, bumped.adds_decls);
        assert_ne!(base.analyzed, bumped.analyzed);
        assert_ne!(base.transformed, bumped.transformed);
        assert_ne!(base.compiled, bumped.compiled);
        assert_ne!(
            base.stage_report(Stage::Analyze, false),
            bumped.stage_report(Stage::Analyze, false)
        );
        assert_ne!(
            base.run_report(&RunOptions::default()),
            bumped.run_report(&RunOptions::default())
        );
    }
}
