//! Smoke test of the `e2e` benchmark: every workload runs for about a
//! second with all output checks on, and prints exactly the metrics that
//! `BENCHMARK.json` declares; the declaration keeps to its naming and
//! count limits. The workloads analyze real programs, so run it with
//! `cargo test --release --manifest-path e2e/Cargo.toml`.

use adds_query::json::Json;
use std::collections::BTreeSet;
use std::process::Command;

const SPEC: &str = include_str!("../../BENCHMARK.json");

fn spec() -> Json {
    Json::parse(SPEC).expect("BENCHMARK.json is JSON")
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("`{key}` is a list"))
}

fn str_of<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` is a string in {item:?}"))
}

fn keys(item: &Json) -> Vec<&str> {
    match item {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn names(doc: &Json, key: &str) -> BTreeSet<String> {
    list(doc, key)
        .iter()
        .map(|m| str_of(m, "name").to_string())
        .collect()
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn declaration_keeps_to_the_limits() {
    let doc = spec();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert!(SPEC.len() <= 64 * 1024);

    let command = list(&doc, "command");
    assert!((1..=32).contains(&command.len()));
    for part in command {
        let part = part.as_str().expect("command parts are strings");
        assert!(
            part.len() <= 200 && !part.starts_with('/') && !part.contains(".."),
            "{part}"
        );
    }
    let paths = list(&doc, "paths");
    assert!((1..=16).contains(&paths.len()));
    for p in paths {
        let p = p.as_str().expect("paths are strings");
        assert!(
            p.len() <= 200 && !p.starts_with('/') && !p.contains(".."),
            "{p}"
        );
        assert!(
            p.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)),
            "{p}"
        );
    }
    let secs = doc
        .get("run_seconds")
        .and_then(Json::as_usize)
        .expect("run_seconds");
    assert!((1..=60).contains(&secs));

    let workloads = list(&doc, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_of(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }

    let e2e = list(&doc, "end_to_end");
    let layer = list(&doc, "per_layer");
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layer.len()));
    let mut seen = BTreeSet::new();
    for (item, bounded) in e2e
        .iter()
        .map(|m| (m, true))
        .chain(layer.iter().map(|m| (m, false)))
    {
        let expected: &[&str] = if bounded {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(item), expected);
        let name = str_of(item, "name");
        assert!(
            is_name(name) && seen.insert(name),
            "bad or repeated name `{name}`"
        );
        assert!(is_unit(str_of(item, "unit")), "bad unit of `{name}`");
        assert!(
            ["higher", "lower"].contains(&str_of(item, "better")),
            "bad `better` of `{name}`"
        );
        if bounded {
            let bound = item.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound of `{name}`");
        }
    }
    for w in workloads {
        let name = str_of(w, "name");
        assert!(
            is_name(name) && seen.insert(name),
            "bad or repeated name `{name}`"
        );
    }

    let setup = e2e
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).expect("bound");
    assert!(
        e2e.iter().all(|m| bound(m) <= bound(setup)),
        "setup_s has the largest bound"
    );
}

/// Run one workload for a second; return whether it exited 0, and its
/// output lines.
fn launch(workload: &str, trace: &str, extra: &[&str]) -> (bool, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .args(extra)
        .output()
        .expect("run e2e");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let lines = stdout.lines().map(str::to_string).collect();
    (out.status.success(), lines)
}

/// Run one workload, which must succeed; return its output lines.
fn run(workload: &str, trace: &str) -> Vec<String> {
    let (ok, lines) = launch(workload, trace, &[]);
    assert!(ok, "{workload} failed:\n{}", lines.join("\n"));
    lines
}

/// The metric names of a `{"name": {"value": n, "unit": u}}` object, each
/// checked to hold a number.
fn metric_names(metrics: &Json) -> BTreeSet<String> {
    let Json::Obj(pairs) = metrics else {
        panic!("metrics is an object");
    };
    for (name, m) in pairs {
        assert_eq!(keys(m), ["value", "unit"]);
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{name} has no value"
        );
    }
    pairs.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn every_workload_runs_clean_and_prints_the_declared_metrics() {
    let doc = spec();
    let e2e = names(&doc, "end_to_end");
    let layer = names(&doc, "per_layer");
    for w in list(&doc, "workloads") {
        let workload = str_of(w, "name");
        let lines = run(workload, "1");
        let result =
            Json::parse(lines.last().expect("a result line")).expect("the last line is JSON");
        assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(true),
            "{workload}"
        );
        assert_eq!(
            result.get("failed").and_then(Json::as_usize),
            Some(0),
            "{workload}: error_rate must be 0"
        );
        assert!(
            result
                .get("attempted")
                .and_then(Json::as_usize)
                .unwrap_or(0)
                >= 1
        );
        assert_eq!(
            metric_names(result.get("metrics").expect("metrics")),
            layer,
            "{workload}"
        );

        let summary = lines
            .iter()
            .find_map(|l| l.strip_prefix("e2e-metrics "))
            .expect("an e2e-metrics line");
        let summary = Json::parse(summary).expect("the metrics line is JSON");
        let all: BTreeSet<String> = e2e.union(&layer).cloned().collect();
        assert_eq!(
            metric_names(summary.get("metrics").expect("metrics")),
            all,
            "{workload}"
        );
    }
    // Untraced, the result line carries the end-to-end metrics instead.
    let lines = run("warm_open", "0");
    let result = Json::parse(lines.last().expect("a result line")).expect("the last line is JSON");
    assert_eq!(metric_names(result.get("metrics").expect("metrics")), e2e);
}

#[test]
fn a_lagging_generator_invalidates_the_run() {
    // Any lag at all exceeds a limit of 0 ms: the run measured the
    // generator, so it may neither exit 0 nor read as correct.
    let (ok, lines) = launch("warm_open", "0", &["--max-lag-ms", "0"]);
    assert!(!ok, "an invalid run exited 0:\n{}", lines.join("\n"));
    assert!(lines.iter().any(|l| l.contains("INVALID")));
    let result = Json::parse(lines.last().expect("a result line")).expect("the last line is JSON");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
    assert_eq!(result.get("failed").and_then(Json::as_usize), Some(0));
}
