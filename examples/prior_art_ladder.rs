//! The §2.1 precision ladder, interactively: run the declaration-free
//! baselines (conservative blob, k-limited storage graphs, CWZ-style
//! allocation sites) and the paper's ADDS pipeline on the same scaling
//! loop, and watch where each one gives up.
//!
//! Run with: `cargo run --example prior_art_ladder`

use adds::klimit::{analysis, programs, Mode};
use adds::ladder::{walk_verdict, Analysis};

fn main() {
    // The list is built by a loop and walked in the same function — the
    // simplest program on which the k-limit family already fails.
    let src = programs::LOOP_BUILT_SCALE;
    println!("=== program (no ADDS declaration) ===\n{src}");

    for mode in [Mode::Blob, Mode::KLimit(2), Mode::AllocSite] {
        println!("--- {} ---", mode.name());

        // The storage graph the baseline believes at the walk loop's head.
        let fg = analysis::analyze_source(src, "main", mode).expect("analyzes");
        let walk = fg.loops.values().next_back().expect("walk loop");
        println!(
            "storage graph at the walk-loop head:\n{}",
            walk.head.render()
        );

        // Its verdict on strip-mining the walk.
        let verdict = walk_verdict(src, "main", Analysis::Baseline(mode)).expect("walk judged");
        if verdict.parallelizable {
            println!("verdict: parallelizable\n");
        } else {
            let reasons = verdict.reasons.join("; ");
            println!("verdict: NOT parallelizable — {reasons}\n");
        }
    }

    // The same code with one changed line — the ADDS declaration — and the
    // paper's own pipeline.
    let twin = programs::adds_twin(src);
    println!("=== with the ADDS declaration ===");
    println!("type L [X] {{ int v; L *next is uniquely forward along X; }};\n");
    let walk = walk_verdict(src, "main", Analysis::AddsGpm).expect("walk judged");
    println!(
        "--- ADDS + general path matrix analysis ---\nverdict: {}",
        if walk.parallelizable {
            "parallelizable"
        } else {
            "NOT parallelizable"
        }
    );
    assert!(walk.parallelizable);

    // And the §4.3.3 transformation it licenses.
    let out = adds::core::parallelize_to_source(&twin).expect("transforms");
    let walk_fn = out
        .split("procedure")
        .find(|f| f.contains("parfor"))
        .expect("a parfor was emitted");
    println!("\n=== strip-mined walk (excerpt) ===\nprocedure{walk_fn}");
}
