//! E1/E2 — §4.4 TIMES and SPEEDUP on the **simulated Sequent**.
//!
//! The original IL Barnes–Hut program is compiled, the §4.3.3 strip-mine
//! transformation applied by the analysis pipeline, and both versions run
//! on the cycle-accurate machine model (slow sync, static strip schedule,
//! 4 / 7 PEs). Cycle counts scale linearly in steps, so the default uses
//! fewer steps and reports the 80-step equivalent; pass `--full` for all
//! 80 interpreted steps.

use adds_bench::{Table, PAPER_NS, PAPER_PES, PAPER_STEPS, PAPER_TIMES};
use adds_lang::programs;
use adds_lang::types::check_source;
use adds_machine::{run_barnes_hut, uniform_cloud, CostModel};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let quick = std::env::args().any(|a| a == "--quick");
    let steps: i64 = if full {
        PAPER_STEPS as i64
    } else if quick {
        1
    } else {
        4
    };
    let scale = PAPER_STEPS as f64 / steps as f64;
    println!(
        "Simulated Sequent-class machine: IL Barnes-Hut, {steps} interpreted step(s) \
         scaled to the paper's {PAPER_STEPS} (cycles are linear in steps)\n"
    );

    let tp_seq = check_source(programs::BARNES_HUT).expect("sequential program");
    let (par_prog, _) =
        adds_core::parallelize_program(programs::BARNES_HUT).expect("parallelization");
    let tp_par = check_source(&adds_lang::pretty::program(&par_prog)).expect("parallel program");

    let mut times = Table::new(
        "TIMES, simulated Mcycles (measured | paper seconds)",
        &["", "N = 128", "N = 512", "N = 1024"],
    );
    let mut speedups = Table::new(
        "SPEEDUP (measured | paper)",
        &["", "N = 128", "N = 512", "N = 1024"],
    );

    let cost = CostModel::sequent();
    let mut seq_cycles = Vec::new();
    let mut row = vec!["seq".to_string()];
    for (i, n) in PAPER_NS.iter().enumerate() {
        let bodies = uniform_cloud(*n, 1992);
        let r = run_barnes_hut(&tp_seq, &bodies, steps, 0.7, 0.001, 1, cost, false)
            .expect("sequential run");
        let mc = r.cycles as f64 * scale / 1e6;
        row.push(format!("{mc:.0} | {}s", PAPER_TIMES[i].seq_s));
        seq_cycles.push(r.cycles as f64);
    }
    times.row(row);
    speedups.row(vec![
        "seq".into(),
        "1 | 1".into(),
        "1 | 1".into(),
        "1 | 1".into(),
    ]);

    for pes in PAPER_PES {
        let mut trow = vec![format!("par({pes})")];
        let mut srow = vec![format!("par({pes})")];
        for (i, n) in PAPER_NS.iter().enumerate() {
            let bodies = uniform_cloud(*n, 1992);
            let r = run_barnes_hut(&tp_par, &bodies, steps, 0.7, 0.001, pes, cost, false)
                .expect("parallel run");
            assert_eq!(r.conflict_count, 0);
            let mc = r.cycles as f64 * scale / 1e6;
            let sp = seq_cycles[i] / r.cycles as f64;
            let (paper_t, paper_s) = if pes == 4 {
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
            trow.push(format!("{mc:.0} | {paper_t}s"));
            srow.push(format!("{sp:.1} | {paper_s:.1}"));
        }
        times.row(trow);
        speedups.row(srow);
    }

    println!("{}", times.render());
    println!("{}", speedups.render());
    println!(
        "The parallel runs are the OUTPUT of the analysis+transformation pipeline\n\
         (no hand-parallelized code), executed with static strip scheduling and\n\
         Sequent-slow barriers — the paper's machine mechanisms."
    );
}
