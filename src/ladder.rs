//! The §2.1 **precision ladder**: which analyses license strip-mining the
//! §3.3.2 scaling walk when the list comes from different origins.
//!
//! Each rung is one [`Analysis`]: a declaration-free baseline from
//! [`crate::klimit`] (conservative blob, k-limited storage graphs,
//! CWZ-style allocation sites) run on the program as written, or the
//! paper's ADDS + general path matrix pipeline from [`crate::core`] run on
//! its ADDS-declared twin ([`programs::adds_twin`]). A ladder program may
//! build its list in a loop before walking it, and no analysis strip-mines
//! a shape-changing build loop, so each rung judges the *walk* loop alone:
//! the last loop whose chase pattern the analysis recognizes.
//!
//! [`walk_verdict`] is that rule for one `(program, function, analysis)`;
//! [`rows`] runs it over [`programs::ladder_programs`]. `adds-cli ladder`
//! renders the rows, and `tests/precision_ladder.rs` pins them to the
//! paper's matrix.
//!
//! ```
//! use adds::klimit::{programs, Mode};
//! use adds::ladder::{walk_verdict, Analysis};
//!
//! // A loop-built list defeats k-limiting; the declaration carries the shape.
//! let src = programs::LOOP_BUILT_SCALE;
//! let k3 = walk_verdict(src, "main", Analysis::Baseline(Mode::KLimit(3))).unwrap();
//! assert!(!k3.parallelizable);
//! assert!(walk_verdict(src, "main", Analysis::AddsGpm).unwrap().parallelizable);
//! ```

use crate::klimit::{self, programs, Mode};
use crate::query::report::dedup_reasons;

/// One rung of the ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Analysis {
    /// A declaration-free §2.1 baseline, run on the program as written.
    Baseline(Mode),
    /// ADDS + general path matrix analysis, run on the program's
    /// ADDS-declared twin.
    AddsGpm,
}

impl Analysis {
    /// The rung's column name: the baseline's [`Mode::name`], or
    /// `adds_gpm`.
    pub fn name(self) -> String {
        match self {
            Analysis::Baseline(mode) => mode.name(),
            Analysis::AddsGpm => "adds_gpm".to_string(),
        }
    }
}

/// One analysis's verdict on a program's walk loop.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The rung that judged.
    pub analysis: Analysis,
    /// The analysis licenses strip-mining the walk loop.
    pub parallelizable: bool,
    /// Why not, in the order the analysis gave them, without repeats.
    pub reasons: Vec<String>,
}

/// The verdict of `analysis` on the walk loop of `func` in `src`, a
/// program without ADDS declarations: the last `while` loop of `func`
/// whose chase pattern the analysis recognizes.
///
/// Errors when the program does not compile or no loop of `func` matches
/// the chase pattern.
pub fn walk_verdict(src: &str, func: &str, analysis: Analysis) -> Result<Verdict, String> {
    let no_walk = || format!("no loop of `{func}` matches the chase pattern");
    let (parallelizable, reasons) = match analysis {
        Analysis::Baseline(mode) => {
            let checks = klimit::check_source(src, func, mode).map_err(|d| d.to_string())?;
            let walk = checks
                .into_iter()
                .rfind(|c| c.pattern.is_some())
                .ok_or_else(no_walk)?;
            (walk.parallelizable, walk.reasons)
        }
        Analysis::AddsGpm => {
            let compiled =
                crate::core::compile(&programs::adds_twin(src)).map_err(|d| d.to_string())?;
            let an = compiled.analysis(func).ok_or_else(no_walk)?;
            let checks = crate::core::check_function(&compiled.tp, &compiled.summaries, an, func);
            let walk = checks
                .into_iter()
                .rfind(|c| c.pattern.is_some())
                .ok_or_else(no_walk)?;
            let reasons = walk.reasons.iter().map(ToString::to_string).collect();
            (walk.parallelizable, reasons)
        }
    };
    Ok(Verdict {
        analysis,
        parallelizable,
        reasons: dedup_reasons(reasons),
    })
}

/// One ladder program's verdicts.
#[derive(Clone, Debug)]
pub struct Row {
    /// The list's origin, as [`programs::ladder_programs`] names it.
    pub program: &'static str,
    /// The function whose walk loop is judged.
    pub function: &'static str,
    /// One verdict per rung, weakest first: conservative, one k-limited
    /// rung per `k`, allocation sites, and ADDS + GPM last.
    pub verdicts: Vec<Verdict>,
}

/// The ladder: [`walk_verdict`] on every ladder program, in
/// [`programs::ladder_programs`] order, for every rung, with one
/// k-limited rung per `klimits` value.
///
/// # Panics
///
/// If a built-in ladder program does not compile or has no walk loop,
/// which is a bug in [`programs`], not an input error.
pub fn rows(klimits: &[usize]) -> Vec<Row> {
    let baselines = std::iter::once(Mode::Blob)
        .chain(klimits.iter().map(|&k| Mode::KLimit(k)))
        .chain([Mode::AllocSite]);
    let rungs: Vec<Analysis> = baselines
        .map(Analysis::Baseline)
        .chain([Analysis::AddsGpm])
        .collect();
    programs::ladder_programs()
        .into_iter()
        .map(|(program, src, function)| Row {
            program,
            function,
            verdicts: rungs
                .iter()
                .map(|&rung| {
                    walk_verdict(src, function, rung)
                        .unwrap_or_else(|e| panic!("ladder program `{program}`: {e}"))
                })
                .collect(),
        })
        .collect()
}
