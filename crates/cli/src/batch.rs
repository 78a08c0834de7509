//! Input collection and the parallel batch executor.
//!
//! Every selected program (built-in corpus entries and user files) becomes
//! an [`InputUnit`]; units fan out through one shared analysis
//! [`Session`] on the `--jobs` worker budget (the session's deterministic
//! executor — per-worker deques with stealing, results merged in input
//! order), so output (and exit code aggregation) is byte-identical
//! regardless of `--jobs`.
//!
//! Reports depend only on the source bytes plus the query fingerprint, so
//! the batch memoizes through the same demand-driven session the server
//! mode uses: repeated files in a batch are computed once — even when two
//! workers pick them up concurrently (single flight) — and their reports
//! are cloned with the per-input name restored.

use crate::args::Args;
use crate::corpus;
use crate::report::ProgramReport;
use adds::query::session::{Session, StageRequest};

/// One unit of work for the batch executor.
#[derive(Clone, Debug)]
pub struct InputUnit {
    /// Corpus name or file path.
    pub name: String,
    /// `"builtin"` or `"file"`.
    pub origin: &'static str,
    /// IL source text.
    pub source: String,
}

/// Resolve `--all`, `--program`, and file arguments into work units.
/// Order: corpus entries first (corpus order), then files (argument order).
pub fn collect_inputs(args: &Args) -> Result<Vec<InputUnit>, String> {
    let mut units = Vec::new();
    if args.all {
        for e in corpus::CORPUS {
            units.push(InputUnit {
                name: e.name.to_string(),
                origin: "builtin",
                source: e.source.to_string(),
            });
        }
    }
    for name in &args.programs {
        let Some(e) = corpus::find(name) else {
            return Err(format!(
                "unknown corpus program `{name}`; try --list for names"
            ));
        };
        // Skip entries already selected by --all or a repeated --program.
        if units
            .iter()
            .any(|u| u.origin == "builtin" && u.name == e.name)
        {
            continue;
        }
        units.push(InputUnit {
            name: e.name.to_string(),
            origin: "builtin",
            source: e.source.to_string(),
        });
    }
    for path in &args.files {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        units.push(InputUnit {
            name: path.clone(),
            origin: "file",
            source,
        });
    }
    if units.is_empty() {
        return Err("no inputs: pass --all, --program NAME, or one or more files".to_string());
    }
    Ok(units)
}

/// Run `units` through the session in parallel on the configured pool,
/// computing each distinct source once.
pub fn run_batch(units: &[InputUnit], args: &Args) -> Vec<ProgramReport> {
    run_batch_memo(units, args).0
}

/// [`run_batch`] exposing how many units were actually computed (the rest
/// were cache hits), for tests and diagnostics.
pub(crate) fn run_batch_memo(units: &[InputUnit], args: &Args) -> (Vec<ProgramReport>, usize) {
    let stage = args.command.stage().expect("batch command has a stage");
    let session = Session::with_jobs(args.jobs);
    let request = StageRequest {
        stage,
        matrices: args.matrices,
    };

    // The report cache key is (sha256(source), composed fingerprint); the
    // canonical cached report carries the content hash as its name, so
    // the display name/origin are restored per input below. Single flight
    // means two workers hitting the same source concurrently still
    // compute once.
    let reports = session.par_map(units, |u| {
        session.stage(&u.source, request).named(&u.name, u.origin)
    });
    let stats = session.stats();
    let computed = stats.get(&stats.misses) as usize;
    (reports, computed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{Args, Command};
    use adds::query::session::Stage;

    #[test]
    fn all_collects_whole_corpus_in_order() {
        let args = Args {
            all: true,
            ..Args::default()
        };
        let units = collect_inputs(&args).unwrap();
        assert_eq!(units.len(), corpus::CORPUS.len());
        assert_eq!(units[0].name, corpus::CORPUS[0].name);
    }

    #[test]
    fn unknown_program_is_an_error() {
        let args = Args {
            programs: vec!["nope".into()],
            ..Args::default()
        };
        assert!(collect_inputs(&args).is_err());
    }

    #[test]
    fn empty_selection_is_an_error() {
        assert!(collect_inputs(&Args::default()).is_err());
    }

    #[test]
    fn repeated_sources_are_computed_once() {
        let src = crate::corpus::find("list_scale_adds").unwrap().source;
        let unit = |name: &str, source: &str| InputUnit {
            name: name.into(),
            origin: "file",
            source: source.into(),
        };
        let units = vec![
            unit("a.il", src),
            unit("b.il", src),
            unit("c.il", crate::corpus::find("list_sum").unwrap().source),
            unit("d.il", src),
        ];
        let args = Args {
            command: Command::Analyze,
            ..Args::default()
        };
        let (reports, computed) = run_batch_memo(&units, &args);
        assert_eq!(computed, 2, "two distinct sources");
        assert_eq!(reports.len(), 4);
        // Names are per input; content is shared.
        assert_eq!(reports[0].name, "a.il");
        assert_eq!(reports[1].name, "b.il");
        assert_eq!(reports[3].name, "d.il");
        let mut renamed = reports[0].clone();
        renamed.name = "b.il".into();
        assert_eq!(renamed.to_json().pretty(), reports[1].to_json().pretty());
        // And cached output equals the uncached single-unit run.
        let direct = Session::new()
            .stage(&units[1].source, StageRequest::new(Stage::Analyze))
            .named(&units[1].name, units[1].origin);
        assert_eq!(direct.to_json().pretty(), reports[1].to_json().pretty());
    }

    #[test]
    fn batch_is_deterministic_across_jobs() {
        let mk = |jobs| Args {
            command: Command::Analyze,
            all: true,
            jobs,
            ..Args::default()
        };
        let units = collect_inputs(&mk(1)).unwrap();
        let seq = run_batch(&units, &mk(1));
        let par = run_batch(&units, &mk(4));
        let render = |rs: &[crate::report::ProgramReport]| {
            rs.iter().map(|r| r.to_json().pretty()).collect::<String>()
        };
        assert_eq!(render(&seq), render(&par));
    }
}
