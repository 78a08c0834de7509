//! The §2.1 precision ladder as a cross-crate integration test: the prior
//! structure-estimation baselines (`adds-klimit`) vs the paper's ADDS +
//! general path matrix pipeline (`adds-core`) on the same scaling loop,
//! with the list arriving from four different origins. It pins
//! `adds::ladder`, which `adds-cli ladder` renders, to the expected
//! matrix, which *is* the paper's motivation section:
//!
//! | origin           | blob | k=1 | k=3 | CWZ | ADDS |
//! |------------------|------|-----|-----|-----|------|
//! | straight-line    |  ✗   |  ✗  |  ✓  |  ✓  |  ✓   |
//! | loop (append)    |  ✗   |  ✗  |  ✗  |  ✓  |  ✓   |
//! | loop (prepend)   |  ✗   |  ✗  |  ✗  |  ✗* |  ✓   |
//! | recursive build  |  ✗   |  ✗  |  ✗  |  ✗  |  ✓   |
//! | parameter        |  ✗   |  ✗  |  ✗  |  ✗  |  ✓   |
//!
//! *our simplified CWZ variant; full \[CWZ90\] handles prepend — see
//! `adds_klimit::programs::PREPEND_BUILT_SCALE`.

use adds::klimit::{programs, Mode};
use adds::ladder::{self, walk_verdict, Analysis};

/// The ladder's columns at `k = 1, 3`, in rung order.
const COLUMNS: [&str; 5] = [
    "conservative",
    "k-limited(k=1)",
    "k-limited(k=3)",
    "alloc-site (CWZ)",
    "adds_gpm",
];

#[test]
fn ladder_matrix_matches_the_papers_motivation() {
    // (origin, [blob, k1, k3, cwz, adds])
    let expected = [
        ("straight-line build", [false, false, true, true, true]),
        ("loop build (append)", [false, false, false, true, true]),
        ("loop build (prepend)", [false, false, false, false, true]),
        ("recursive build", [false, false, false, false, true]),
        ("list as parameter", [false, false, false, false, true]),
    ];
    let rows = ladder::rows(&[1, 3]);
    assert_eq!(rows.len(), expected.len(), "one row per ladder program");
    for (row, (name, licensed)) in rows.iter().zip(expected) {
        assert_eq!(row.program, name, "program order");
        let got: Vec<(String, bool)> = row
            .verdicts
            .iter()
            .map(|v| (v.analysis.name(), v.parallelizable))
            .collect();
        let want: Vec<(String, bool)> = COLUMNS
            .iter()
            .map(|c| c.to_string())
            .zip(licensed)
            .collect();
        assert_eq!(got, want, "{name}");
    }
}

#[test]
fn adds_dominates_every_baseline_on_the_ladder() {
    // The declared approach must never lose to a declaration-free one —
    // the paper's central claim, as a property of the implementations.
    for row in ladder::rows(&[1, 3]) {
        let (adds, baselines) = row.verdicts.split_last().expect("rungs");
        assert_eq!(adds.analysis, Analysis::AddsGpm);
        for prior in baselines {
            assert!(
                adds.parallelizable || !prior.parallelizable,
                "{}: {} proves what ADDS cannot",
                row.program,
                prior.analysis.name()
            );
        }
    }
}

#[test]
fn baselines_never_parallelize_the_papers_own_fragment() {
    // §3.3.2's `scale(head, c)` — the exact code the paper analyzes — is
    // out of reach for every declaration-free baseline (PARAM_SCALE is
    // that fragment), while the ADDS pipeline proves it (golden-tested in
    // tests/pipeline.rs). Belt and suspenders for the paper's PM1 claim:
    // "the compiler must assume that next is cyclic".
    for mode in [
        Mode::Blob,
        Mode::KLimit(1),
        Mode::KLimit(3),
        Mode::AllocSite,
    ] {
        let verdict = walk_verdict(programs::PARAM_SCALE, "scale", Analysis::Baseline(mode));
        assert!(!verdict.expect("walk loop judged").parallelizable);
    }
}

#[test]
fn bhl1_is_beyond_every_baseline_but_not_beyond_adds() {
    // The paper's §4.3 headline: BHL1 walks the leaf list while calling
    // compute_force. The call alone havocs every storage-graph analysis;
    // the ADDS pipeline proves it parallelizable (see tests/pipeline.rs).
    let tp = adds::lang::types::check_source(adds::lang::programs::BARNES_HUT).unwrap();
    for mode in [Mode::Blob, Mode::KLimit(3), Mode::AllocSite] {
        let checks = adds::klimit::check_function(&tp, "bhl1", mode);
        assert!(
            checks.iter().all(|c| !c.parallelizable),
            "{}: must not license BHL1",
            mode.name()
        );
    }
    let c = adds::core::compile(adds::lang::programs::BARNES_HUT).unwrap();
    let an = c.analysis("bhl1").unwrap();
    let checks = adds::core::check_function(&c.tp, &c.summaries, an, "bhl1");
    assert!(checks.iter().any(|c| c.parallelizable));
}
