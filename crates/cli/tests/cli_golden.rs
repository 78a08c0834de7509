//! Golden-file and smoke tests driving the `adds-cli` binary itself.
//!
//! The JSON reports are byte-stable by construction (fixed key order, no
//! timestamps), so `analyze --format json` output is compared verbatim
//! against checked-in goldens for three paper programs. Regenerate after an
//! intentional report change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p adds-cli --test cli_golden
//! ```
//!
//! With `UPDATE_GOLDEN=1` the golden assertions rewrite the files under
//! `crates/cli/tests/golden/` instead of comparing — review the diff before
//! committing.

use adds::query::json::Json;
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_adds-cli"))
}

fn run_ok(args: &[&str]) -> Output {
    let out = cli().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "adds-cli {args:?} failed (status {:?}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// `j[key]`, which must be present.
fn field<'a>(j: &'a Json, key: &str) -> &'a Json {
    j.get(key).unwrap_or_else(|| panic!("missing `{key}`"))
}

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn golden(name: &str) -> String {
    let path = golden_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path}: {e}"))
}

/// Compare `actual` against the checked-in golden, or rewrite the golden
/// when `UPDATE_GOLDEN=1` is set.
fn assert_golden(name: &str, actual: &str) {
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(golden_path(name), actual).expect("write golden");
        return;
    }
    assert_eq!(
        actual,
        golden(name),
        "golden {name} differs — regenerate with \
         `UPDATE_GOLDEN=1 cargo test -p adds-cli --test cli_golden` and review the diff"
    );
}

#[test]
fn analyze_json_matches_golden_barnes_hut() {
    let out = run_ok(&["analyze", "--program", "barnes_hut", "--format", "json"]);
    assert_golden(
        "analyze_barnes_hut.json",
        &String::from_utf8_lossy(&out.stdout),
    );
}

#[test]
fn analyze_json_matches_golden_one_way_list() {
    let out = run_ok(&[
        "analyze",
        "--program",
        "list_scale_adds",
        "--format",
        "json",
    ]);
    assert_golden(
        "analyze_list_scale_adds.json",
        &String::from_utf8_lossy(&out.stdout),
    );
}

#[test]
fn analyze_json_matches_golden_orthogonal_list() {
    let out = run_ok(&["analyze", "--program", "orth_row_scale", "--format", "json"]);
    assert_golden(
        "analyze_orth_row_scale.json",
        &String::from_utf8_lossy(&out.stdout),
    );
}

#[test]
fn analyze_all_jobs4_json_is_valid_and_covers_corpus() {
    let out = run_ok(&["analyze", "--all", "--jobs", "4", "--format", "json"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("{\n  \"schema\": \"adds.analyze/v2\""));
    // Every corpus program appears, and batch parallelism does not disturb
    // input order.
    let mut last = 0;
    for name in [
        "list_scale_plain",
        "list_scale_adds",
        "subtree_move",
        "orth_row_scale",
        "octree_decl",
        "barnes_hut",
        "list_sum",
    ] {
        let needle = format!("\"program\": \"{name}\"");
        let pos = text
            .find(&needle)
            .unwrap_or_else(|| panic!("missing {name}"));
        assert!(pos > last, "{name} out of order");
        last = pos;
    }
    // And `--jobs 1` produces byte-identical output.
    let seq = run_ok(&["analyze", "--all", "--jobs", "1", "--format", "json"]);
    assert_eq!(out.stdout, seq.stdout);
}

#[test]
fn parse_pretty_reparses_through_the_binary() {
    // parse emits the pretty-printed program (text mode); feeding that back
    // through the binary must succeed and be stable — the roundtrip smoke
    // test, through the real executable.
    let out = run_ok(&["parse", "--program", "barnes_hut"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("roundtrip: stable"), "{text}");

    // Extract the pretty source (everything after the roundtrip line, before
    // the trailing summary line) and re-feed it as a file.
    let body: String = text
        .lines()
        .skip_while(|l| !l.starts_with("  roundtrip:"))
        .skip(1)
        .take_while(|l| !l.ends_with("ms"))
        .collect::<Vec<_>>()
        .join("\n");
    let dir = std::env::temp_dir().join("adds_cli_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("barnes_hut_pretty.il");
    std::fs::write(&path, &body).unwrap();

    let again = run_ok(&["parse", path.to_str().unwrap()]);
    let again_text = String::from_utf8_lossy(&again.stdout);
    assert!(again_text.contains("roundtrip: stable"), "{again_text}");

    // The twice-pretty-printed program is identical to the once-printed one.
    let body2: String = again_text
        .lines()
        .skip_while(|l| !l.starts_with("  roundtrip:"))
        .skip(1)
        .take_while(|l| !l.ends_with("ms"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(body, body2);
}

#[test]
fn check_rejects_bad_source_with_exit_1() {
    let dir = std::env::temp_dir().join("adds_cli_bad");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.il");
    std::fs::write(&path, "type T { int v; T *next is sideways along Q; };").unwrap();
    let out = cli()
        .args(["check", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn usage_errors_exit_2() {
    let out = cli().arg("frobnicate").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = cli()
        .args(["analyze"]) // no inputs selected
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn ladder_json_has_all_rungs() {
    // The paper's §2.1 matrix at k = 1, 3, as `tests/precision_ladder.rs`
    // expects it. Each cell judges the walk loop alone, so a list-building
    // loop neither decides a cell nor lends it a reason.
    let columns = [
        "conservative",
        "k-limited(k=1)",
        "k-limited(k=3)",
        "alloc-site (CWZ)",
        "adds_gpm",
    ];
    let expected = [
        ("straight-line build", [false, false, true, true, true]),
        ("loop build (append)", [false, false, false, true, true]),
        ("loop build (prepend)", [false, false, false, false, true]),
        ("recursive build", [false, false, false, false, true]),
        ("list as parameter", [false, false, false, false, true]),
    ];
    let out = run_ok(&["ladder", "--klimit", "1,3", "--format", "json"]);
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("ladder JSON parses");
    assert_eq!(field(&doc, "schema").as_str(), Some("adds.ladder/v1"));
    let programs = field(&doc, "programs").as_arr().expect("programs array");
    assert_eq!(programs.len(), expected.len(), "one row per ladder program");
    for (row, (name, licensed)) in programs.iter().zip(expected) {
        assert_eq!(field(row, "program").as_str(), Some(name));
        let verdicts = field(row, "verdicts").as_arr().expect("verdicts array");
        let got: Vec<(&str, bool)> = verdicts
            .iter()
            .map(|v| {
                let analysis = field(v, "analysis").as_str().expect("analysis");
                let ok = field(v, "parallelizable").as_bool().expect("bool");
                (analysis, ok)
            })
            .collect();
        let want: Vec<(&str, bool)> = columns.into_iter().zip(licensed).collect();
        assert_eq!(got, want, "{name}");
        for v in verdicts {
            let reasons = field(v, "reasons").pretty();
            assert!(
                !reasons.contains("loop condition is not"),
                "{name}: {reasons}"
            );
        }
    }

    let out = run_ok(&["ladder", "--klimit", "1,3"]);
    let text = String::from_utf8_lossy(&out.stdout);
    let header = text.lines().next().expect("header line");
    assert!(header.starts_with("program"), "{text}");
    assert!(columns.iter().all(|c| header.contains(c)), "{text}");
}

#[test]
fn run_rejects_all_flag() {
    let out = cli().args(["run", "--all"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--all"));
}

#[test]
fn ladder_rejects_input_selection() {
    let out = cli()
        .args(["ladder", "--program", "barnes_hut"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn boolean_flags_reject_inline_values() {
    let out = cli()
        .args(["analyze", "--all=false"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("takes no value"));
}

#[test]
fn repeated_program_flags_dedupe() {
    let out = run_ok(&[
        "analyze",
        "--program",
        "list_sum",
        "--program",
        "list_sum",
        "--format",
        "json",
    ]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("\"program\": \"list_sum\"").count(), 1);
}
