//! E1/E2 — §4.4 TIMES and SPEEDUP tables on **native threads**.
//!
//! Runs the Barnes–Hut simulation (80 time steps; N = 128, 512, 1024)
//! sequentially and strip-mine-parallelized on 4 and 7 threads — the
//! paper's PE counts — and prints the same two tables, with the paper's
//! reported values alongside.
//!
//! Usage: `table_times [--quick]` (`--quick` shrinks to 8 steps for CI).

use adds_bench::{fmt_dur, speedup, Table, PAPER_NS, PAPER_PES, PAPER_STEPS, PAPER_TIMES};
use adds_nbody::{gen, SimParams, Simulation};
use std::time::Duration;

fn run(n: usize, steps: usize, threads: Option<usize>) -> Duration {
    let params = SimParams {
        theta: 0.7,
        dt: 0.001,
        eps: 1e-3,
    };
    let mut sim = Simulation::new(gen::plummer(n, 1992), params);
    let t0 = std::time::Instant::now();
    match threads {
        None => sim.run_sequential(steps),
        Some(t) => sim.run_parallel(steps, t),
    }
    t0.elapsed()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let steps = if quick { 8 } else { PAPER_STEPS };
    println!(
        "Barnes-Hut tree-code, {steps} time steps, Plummer model, theta=0.7 (native threads)\n"
    );

    let mut times = Table::new(
        "TIMES (measured | paper)",
        &["", "N = 128", "N = 512", "N = 1024"],
    );
    let mut speedups = Table::new(
        "SPEEDUP (measured | paper)",
        &["", "N = 128", "N = 512", "N = 1024"],
    );

    let mut seq_times = Vec::new();
    let mut row = vec!["seq".to_string()];
    for (i, n) in PAPER_NS.iter().enumerate() {
        let d = run(*n, steps, None);
        row.push(format!("{} | {}s", fmt_dur(d), PAPER_TIMES[i].seq_s));
        seq_times.push(d);
    }
    times.row(row);
    let mut srow = vec!["seq".to_string()];
    for _ in PAPER_NS {
        srow.push("1 | 1".to_string());
    }
    speedups.row(srow);

    for pes in PAPER_PES {
        let mut trow = vec![format!("par({pes})")];
        let mut srow = vec![format!("par({pes})")];
        for (i, n) in PAPER_NS.iter().enumerate() {
            let d = run(*n, steps, Some(pes));
            let paper = if pes == 4 {
                (
                    PAPER_TIMES[i].par4_s,
                    PAPER_TIMES[i].seq_s / PAPER_TIMES[i].par4_s,
                )
            } else {
                (
                    PAPER_TIMES[i].par7_s,
                    PAPER_TIMES[i].seq_s / PAPER_TIMES[i].par7_s,
                )
            };
            trow.push(format!("{} | {}s", fmt_dur(d), paper.0));
            srow.push(format!("{:.1} | {:.1}", speedup(seq_times[i], d), paper.1));
        }
        times.row(trow);
        speedups.row(srow);
    }

    println!("{}", times.render());
    println!("{}", speedups.render());
    println!(
        "Shape check: speedups must be sublinear, grow with N, and par(7) > par(4).\n\
         Absolute times differ from the paper's Sequent."
    );
}
