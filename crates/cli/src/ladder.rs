//! The `ladder` subcommand: renders [`adds::ladder::rows`], the paper's
//! §2 motivation as a runnable experiment. Every ladder program's walk
//! loop is judged by each prior-work baseline (conservative blob,
//! k-limited storage graphs, allocation-site naming) and by the ADDS +
//! general-path-matrix pipeline; the table shows which analyses license
//! parallelizing it.

use crate::json::{str_arr, Json};
use adds::ladder::Row;

/// JSON document for `ladder --format json`.
pub fn to_json(rows: &[Row]) -> Json {
    Json::obj([
        ("schema", Json::str("adds.ladder/v1")),
        (
            "programs",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("program", Json::str(r.program)),
                            ("function", Json::str(r.function)),
                            (
                                "verdicts",
                                Json::Arr(
                                    r.verdicts
                                        .iter()
                                        .map(|c| {
                                            Json::obj([
                                                ("analysis", Json::str(c.analysis.name())),
                                                ("parallelizable", Json::Bool(c.parallelizable)),
                                                ("reasons", str_arr(&c.reasons)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Text table for `ladder`.
pub fn to_text(rows: &[Row]) -> String {
    let mut out = String::new();
    let Some(first) = rows.first() else {
        return "no ladder programs\n".to_string();
    };
    let analyses: Vec<String> = first.verdicts.iter().map(|c| c.analysis.name()).collect();
    let prog_w = rows
        .iter()
        .map(|r| r.program.len())
        .max()
        .unwrap_or(8)
        .max("program".len());
    out.push_str(&format!("{:<prog_w$}", "program"));
    for a in &analyses {
        out.push_str(&format!("  {a:^18}"));
    }
    out.push('\n');
    for r in rows {
        out.push_str(&format!("{:<prog_w$}", r.program));
        for c in &r.verdicts {
            let mark = if c.parallelizable {
                "parallel"
            } else {
                "serial"
            };
            out.push_str(&format!("  {mark:^18}"));
        }
        out.push('\n');
    }
    out.push_str("\n(parallel = the analysis proves the pointer-chasing loop dependence-free)\n");
    out
}
