//! The simulated Sequent-class multiprocessor: a convenience layer that runs
//! whole IL workloads (notably the Barnes–Hut tree-code of §4) under the
//! cycle model and reports simulated times.
//!
//! This is the substitute for the paper's Sequent hardware (its cycle
//! costs are in [`crate::cost`]): deterministic, parameterized by PE count
//! and synchronization cost, with static strip scheduling — the same
//! mechanisms that shaped the paper's measured speedups.

use crate::compile::CompiledProgram;
use crate::cost::CostModel;
use crate::exec::{Exec, MachineConfig, RuntimeError};
use crate::interp::Interp;
use crate::value::Value;
use crate::vm::Vm;
use adds_lang::types::TypedProgram;

/// A particle's initial condition for the simulated N-body runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BodyInit {
    /// Particle mass.
    pub mass: f64,
    /// Position vector.
    pub pos: [f64; 3],
    /// Velocity vector.
    pub vel: [f64; 3],
}

/// Result of one simulated run.
#[derive(Clone, Debug)]
pub struct SimRun {
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Number of parallel rounds executed (0 for sequential code).
    pub parallel_rounds: u64,
    /// Conflicts detected (must be empty for a correct parallelization).
    pub conflict_count: usize,
    /// Final particle states, for cross-checking runs against each other.
    pub bodies: Vec<BodyInit>,
}

/// Build the particle leaf list in the machine's heap and return the
/// head pointer. Particles are `Octree` records with `is_leaf = true`,
/// linked through `next` in order — Figure 5's leaves chain.
pub fn build_particles(m: &mut dyn Exec, bodies: &[BodyInit]) -> Value {
    let mut head = Value::Null;
    for b in bodies.iter().rev() {
        let n = m.host_alloc("Octree");
        m.host_store(n, "mass", 0, Value::Real(b.mass));
        m.host_store(n, "x", 0, Value::Real(b.pos[0]));
        m.host_store(n, "y", 0, Value::Real(b.pos[1]));
        m.host_store(n, "z", 0, Value::Real(b.pos[2]));
        m.host_store(n, "vx", 0, Value::Real(b.vel[0]));
        m.host_store(n, "vy", 0, Value::Real(b.vel[1]));
        m.host_store(n, "vz", 0, Value::Real(b.vel[2]));
        m.host_store(n, "is_leaf", 0, Value::Bool(true));
        m.host_store(n, "next", 0, head);
        head = Value::Ptr(n);
    }
    head
}

/// Read the particle states back out of the heap.
pub fn read_particles(m: &dyn Exec, mut head: Value) -> Vec<BodyInit> {
    let mut out = Vec::new();
    while let Value::Ptr(n) = head {
        out.push(BodyInit {
            mass: m.host_load(n, "mass", 0).as_real().unwrap(),
            pos: [
                m.host_load(n, "x", 0).as_real().unwrap(),
                m.host_load(n, "y", 0).as_real().unwrap(),
                m.host_load(n, "z", 0).as_real().unwrap(),
            ],
            vel: [
                m.host_load(n, "vx", 0).as_real().unwrap(),
                m.host_load(n, "vy", 0).as_real().unwrap(),
                m.host_load(n, "vz", 0).as_real().unwrap(),
            ],
        });
        head = m.host_load(n, "next", 0);
    }
    out
}

fn sim_config(pes: usize, cost: CostModel, detect_conflicts: bool) -> MachineConfig {
    MachineConfig {
        pes,
        speculative: true,
        detect_conflicts,
        check_shapes: false,
        strict_conflicts: false,
        cost,
        fuel: None,
    }
}

fn drive_sim(
    m: &mut dyn Exec,
    bodies: &[BodyInit],
    steps: i64,
    theta: f64,
    dt: f64,
) -> Result<SimRun, RuntimeError> {
    let head = build_particles(m, bodies);
    m.call(
        "simulate",
        &[head, Value::Int(steps), Value::Real(theta), Value::Real(dt)],
    )?;
    Ok(SimRun {
        cycles: m.clock(),
        parallel_rounds: m.stats().parallel_rounds,
        conflict_count: m.conflicts().len(),
        bodies: read_particles(m, head),
    })
}

/// Run `simulate(particles, steps, theta, dt)` from a (possibly transformed)
/// Barnes–Hut IL program on the simulated machine (the bytecode VM).
#[allow(clippy::too_many_arguments)]
pub fn run_barnes_hut(
    tp: &TypedProgram,
    bodies: &[BodyInit],
    steps: i64,
    theta: f64,
    dt: f64,
    pes: usize,
    cost: CostModel,
    detect_conflicts: bool,
) -> Result<SimRun, RuntimeError> {
    let compiled = CompiledProgram::compile(tp);
    run_barnes_hut_compiled(
        &compiled,
        bodies,
        steps,
        theta,
        dt,
        pes,
        cost,
        detect_conflicts,
    )
}

/// [`run_barnes_hut`] over an already-compiled program: the bytecode
/// artifact is immutable, so one compile can back any number of VMs —
/// different PE counts, repeated requests, cached artifacts (the query
/// layer memoizes [`CompiledProgram`]s by source hash and runs from here).
#[allow(clippy::too_many_arguments)]
pub fn run_barnes_hut_compiled(
    compiled: &CompiledProgram,
    bodies: &[BodyInit],
    steps: i64,
    theta: f64,
    dt: f64,
    pes: usize,
    cost: CostModel,
    detect_conflicts: bool,
) -> Result<SimRun, RuntimeError> {
    let mut vm = Vm::new(compiled, sim_config(pes, cost, detect_conflicts));
    drive_sim(&mut vm, bodies, steps, theta, dt)
}

/// [`run_barnes_hut`] on the tree-walking interpreter — kept for
/// differential validation of the VM (an order of magnitude slower).
#[allow(clippy::too_many_arguments)]
pub fn run_barnes_hut_interp(
    tp: &TypedProgram,
    bodies: &[BodyInit],
    steps: i64,
    theta: f64,
    dt: f64,
    pes: usize,
    cost: CostModel,
    detect_conflicts: bool,
) -> Result<SimRun, RuntimeError> {
    let mut it = Interp::new(tp, sim_config(pes, cost, detect_conflicts));
    drive_sim(&mut it, bodies, steps, theta, dt)
}

/// Deterministic pseudo-random particle cloud (no external RNG needed at
/// this layer; the bench harness uses `rand` for richer models).
pub fn uniform_cloud(n: usize, seed: u64) -> Vec<BodyInit> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let v = state.wrapping_mul(0x2545F4914F6CDD1D);
        (v >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| BodyInit {
            mass: 1.0 / n as f64,
            pos: [next() * 2.0 - 1.0, next() * 2.0 - 1.0, next() * 2.0 - 1.0],
            vel: [0.0, 0.0, 0.0],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adds_lang::programs;
    use adds_lang::types::check_source;

    fn tp_seq() -> TypedProgram {
        check_source(programs::BARNES_HUT).unwrap()
    }

    #[test]
    fn uniform_cloud_is_deterministic() {
        let a = uniform_cloud(16, 42);
        let b = uniform_cloud(16, 42);
        assert_eq!(a, b);
        let c = uniform_cloud(16, 43);
        assert_ne!(a, c);
        for p in &a {
            for d in 0..3 {
                assert!(p.pos[d] >= -1.0 && p.pos[d] <= 1.0);
            }
        }
    }

    #[test]
    fn sequential_barnes_hut_runs() {
        let tp = tp_seq();
        let bodies = uniform_cloud(24, 7);
        let run =
            run_barnes_hut(&tp, &bodies, 2, 0.7, 0.01, 1, CostModel::uniform(), false).unwrap();
        assert!(run.cycles > 0);
        assert_eq!(run.parallel_rounds, 0);
        assert_eq!(run.bodies.len(), 24);
        // Particles must have moved.
        assert!(run.bodies.iter().zip(&bodies).any(|(a, b)| a.pos != b.pos));
    }

    #[test]
    fn particles_round_trip_through_heap() {
        let tp = tp_seq();
        let bodies = uniform_cloud(5, 3);
        let mut it = Interp::new(&tp, MachineConfig::default());
        let head = build_particles(&mut it, &bodies);
        let back = read_particles(&it, head);
        assert_eq!(back, bodies);
    }

    #[test]
    fn transformed_parallel_run_matches_sequential() {
        // Parallelize BHL1/BHL2 via the core pipeline, then check the
        // simulated parallel execution computes identical trajectories and
        // detects no conflicts.
        let (prog, _) = adds_core::parallelize_program(programs::BARNES_HUT).unwrap();
        let par_src = adds_lang::pretty::program(&prog);
        let tp_par = check_source(&par_src).unwrap();
        let tp_seq = tp_seq();

        let bodies = uniform_cloud(20, 11);
        let seq = run_barnes_hut(
            &tp_seq,
            &bodies,
            2,
            0.7,
            0.01,
            1,
            CostModel::uniform(),
            false,
        )
        .unwrap();
        let par = run_barnes_hut(
            &tp_par,
            &bodies,
            2,
            0.7,
            0.01,
            4,
            CostModel::uniform(),
            true,
        )
        .unwrap();
        assert_eq!(
            par.conflict_count, 0,
            "parallel iterations must not conflict"
        );
        assert!(
            par.parallel_rounds > 0,
            "transformed code ran parallel rounds"
        );
        for (a, b) in seq.bodies.iter().zip(&par.bodies) {
            for d in 0..3 {
                assert!(
                    (a.pos[d] - b.pos[d]).abs() < 1e-9,
                    "trajectory mismatch: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn vm_run_matches_interpreter_run_exactly() {
        let tp = tp_seq();
        let bodies = uniform_cloud(16, 9);
        let vm = run_barnes_hut(&tp, &bodies, 1, 0.7, 0.01, 4, CostModel::sequent(), true).unwrap();
        let it = run_barnes_hut_interp(&tp, &bodies, 1, 0.7, 0.01, 4, CostModel::sequent(), true)
            .unwrap();
        assert_eq!(vm.cycles, it.cycles);
        assert_eq!(vm.parallel_rounds, it.parallel_rounds);
        assert_eq!(vm.conflict_count, it.conflict_count);
        assert_eq!(vm.bodies, it.bodies);
    }

    #[test]
    fn parallel_cycles_beat_sequential_for_large_enough_n() {
        let (prog, _) = adds_core::parallelize_program(programs::BARNES_HUT).unwrap();
        let par_src = adds_lang::pretty::program(&prog);
        let tp_par = check_source(&par_src).unwrap();
        let tp_s = tp_seq();
        let bodies = uniform_cloud(64, 5);
        let seq =
            run_barnes_hut(&tp_s, &bodies, 1, 0.7, 0.01, 1, CostModel::sequent(), false).unwrap();
        let par = run_barnes_hut(
            &tp_par,
            &bodies,
            1,
            0.7,
            0.01,
            4,
            CostModel::sequent(),
            false,
        )
        .unwrap();
        assert!(
            par.cycles < seq.cycles,
            "4-PE simulated run should be faster: {} vs {}",
            par.cycles,
            seq.cycles
        );
        // But not superlinear.
        assert!(par.cycles * 4 > seq.cycles, "speedup must be sublinear");
    }
}
