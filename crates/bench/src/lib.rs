//! # adds-bench — harness regenerating every table and figure of the paper
//!
//! Shared plumbing for the experiment binaries (the README's "Regenerating
//! the §4.4 tables" section shows how to run them):
//!
//! | binary            | artifacts |
//! |-------------------|-----------|
//! | `table_times`     | §4.4 TIMES + SPEEDUP, native threads (E1/E2) |
//! | `table_sequent`   | §4.4 TIMES + SPEEDUP, simulated Sequent (E1/E2) |
//! | `paper_matrices`  | §3.3.2 and §4.3.2 path matrices (PM1–PM4) |
//! | `figures`         | Figures 1–5 (F1–F5) |
//! | `validation_demo` | §3.3.1 / §4.3.2 validation episodes (V1/V2) |
//! | `transform_demo`  | §4.3.3 transformed code + equivalence run (T1) |
//! | `ablations`       | §4.4 caveats (A1–A4) |
//! | `water_vs_tree`   | §4.1/4.2 arrays-vs-pointers narrative (W1) |

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A paper-style table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Caption printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (same arity as headers).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table with the given caption and columns.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// Render with right-aligned, width-fitted columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut s = String::new();
        let _ = writeln!(s, "| {} |", self.title);
        let line = |s: &mut String, cells: &[String]| {
            s.push('|');
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, " {:>width$} |", c, width = widths[i]);
            }
            s.push('\n');
        };
        line(&mut s, &self.headers);
        let total: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
        let _ = writeln!(s, "{}", "-".repeat(total));
        for r in &self.rows {
            line(&mut s, r);
        }
        s
    }
}

/// Wall-clock a closure.
pub fn time_it<R>(mut f: impl FnMut() -> R) -> (Duration, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed(), r)
}

/// Median-of-`reps` wall-clock time.
pub fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut times: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            let _ = f();
            t0.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// seq / par as a ratio.
pub fn speedup(seq: Duration, par: Duration) -> f64 {
    seq.as_secs_f64() / par.as_secs_f64().max(1e-12)
}

/// Compact human-readable duration.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs_f64() >= 1.0 {
        format!("{:.2}s", d.as_secs_f64())
    } else {
        format!("{:.1}ms", d.as_secs_f64() * 1e3)
    }
}

/// The paper's experiment grid: N ∈ {128, 512, 1024}, 80 time steps,
/// sequential vs 4 vs 7 processors.
pub const PAPER_NS: [usize; 3] = [128, 512, 1024];
/// The paper's simulation length (§4.4: "simulation runs of 80 time steps").
pub const PAPER_STEPS: usize = 80;
/// The paper's processor counts.
pub const PAPER_PES: [usize; 2] = [4, 7];

/// The paper's reported numbers, for side-by-side comparison in the output.
pub struct PaperRow {
    /// Particle count.
    pub n: usize,
    /// Sequential seconds (paper).
    pub seq_s: f64,
    /// 4-processor seconds (paper).
    pub par4_s: f64,
    /// 7-processor seconds (paper).
    pub par7_s: f64,
}

/// The paper's §4.4 TIMES table, verbatim.
pub const PAPER_TIMES: [PaperRow; 3] = [
    PaperRow {
        n: 128,
        seq_s: 188.0,
        par4_s: 75.0,
        par7_s: 57.0,
    },
    PaperRow {
        n: 512,
        seq_s: 1496.0,
        par4_s: 548.0,
        par7_s: 369.0,
    },
    PaperRow {
        n: 1024,
        seq_s: 3768.0,
        par4_s: 1343.0,
        par7_s: 873.0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("TIMES", &["N", "seq", "par(4)"]);
        t.row(vec!["128".into(), "188".into(), "75".into()]);
        let s = t.render();
        assert!(s.contains("TIMES"));
        assert!(s.contains("128"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn wrong_arity_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn speedup_math() {
        assert!((speedup(Duration::from_secs(4), Duration::from_secs(1)) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn paper_speedups_match_reported() {
        // Sanity: the constants reproduce the paper's SPEEDUP table.
        let r = &PAPER_TIMES[0];
        assert!((r.seq_s / r.par4_s - 2.5).abs() < 0.02);
        assert!((r.seq_s / r.par7_s - 3.3).abs() < 0.02);
        let r = &PAPER_TIMES[2];
        assert!((r.seq_s / r.par4_s - 2.8).abs() < 0.02);
        assert!((r.seq_s / r.par7_s - 4.3).abs() < 0.02);
    }

    #[test]
    fn best_of_returns_a_measurement() {
        let d = best_of(3, || std::thread::sleep(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
    }
}
