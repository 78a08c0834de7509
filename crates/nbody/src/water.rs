//! The §4.2 aside, made runnable: a SPLASH-Water-style O(N²) molecular
//! dynamics code over **arrays and iteration**.
//!
//! > "the Water benchmark from the SPLASH suite \[SWG91\] is a similar
//! > N-body simulator of water molecules. It is based however on a O(N²)
//! > algorithm using arrays and iteration, most likely for ease of
//! > parallelization."
//!
//! The point of this module is structural, not chemical: an array-based
//! all-pairs code parallelizes *trivially* — each thread owns a contiguous
//! slice of the force array, no alias analysis required — which is exactly
//! why (the paper argues) authors of scientific codes retreated from
//! pointer structures. The Barnes–Hut octree in the sibling modules is the
//! counterpoint: asymptotically better, but its parallelization needs the
//! shape knowledge ADDS provides.
//!
//! Simplifications relative to real SPLASH Water: point molecules with a
//! truncated-shifted Lennard-Jones pair potential and velocity-Verlet
//! integration, instead of rigid three-site molecules with a
//! predictor–corrector. The array layout, the
//! O(N²) doubly nested force loop, and the slice-parallel decomposition —
//! the properties the paper's aside concerns — are preserved.

use crate::vec3::Vec3;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One point molecule in the array-of-structs layout SPLASH-era codes used.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Molecule {
    /// Position.
    pub pos: Vec3,
    /// Velocity.
    pub vel: Vec3,
    /// Force accumulated by the last step.
    pub force: Vec3,
}

/// Parameters of the truncated-shifted Lennard-Jones potential.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WaterParams {
    /// LJ well depth ε.
    pub epsilon: f64,
    /// LJ length scale σ.
    pub sigma: f64,
    /// Interaction cutoff radius (potential shifted to 0 here).
    pub cutoff: f64,
    /// Integration step.
    pub dt: f64,
}

impl Default for WaterParams {
    fn default() -> WaterParams {
        WaterParams {
            epsilon: 1.0,
            sigma: 1.0,
            cutoff: 2.5,
            dt: 1e-4,
        }
    }
}

/// An O(N²) arrays-and-iteration MD simulation.
#[derive(Clone, Debug)]
pub struct WaterSim {
    /// Potential and integration parameters.
    pub params: WaterParams,
    mols: Vec<Molecule>,
}

/// Deterministic initial conditions: molecules on a cubic lattice at
/// roughly liquid density (spacing ≈ 1.1 σ), with a small seeded thermal
/// perturbation and zero net momentum.
pub fn lattice(n: usize, seed: u64, params: WaterParams) -> WaterSim {
    let mut rng = SmallRng::seed_from_u64(seed);
    let side = (n as f64).cbrt().ceil() as usize;
    let spacing = 1.1 * params.sigma;
    let mut mols = Vec::with_capacity(n);
    'fill: for ix in 0..side {
        for iy in 0..side {
            for iz in 0..side {
                if mols.len() == n {
                    break 'fill;
                }
                let mut jitter = || (rng_f(&mut rng) - 0.5) * 0.05 * spacing;
                let pos = Vec3::new(
                    ix as f64 * spacing + jitter(),
                    iy as f64 * spacing + jitter(),
                    iz as f64 * spacing + jitter(),
                );
                let vel = Vec3::new(
                    (rng_f(&mut rng) - 0.5) * 0.1,
                    (rng_f(&mut rng) - 0.5) * 0.1,
                    (rng_f(&mut rng) - 0.5) * 0.1,
                );
                mols.push(Molecule {
                    pos,
                    vel,
                    force: Vec3::default(),
                });
            }
        }
    }
    // Remove net drift so the box doesn't wander.
    if !mols.is_empty() {
        let mut p = Vec3::default();
        for m in &mols {
            p += m.vel;
        }
        let drift = p.scale(1.0 / mols.len() as f64);
        for m in &mut mols {
            m.vel -= drift;
        }
    }
    WaterSim { params, mols }
}

fn rng_f(rng: &mut SmallRng) -> f64 {
    rng.gen::<f64>()
}

/// LJ force on a molecule at separation `d` (pointing from the partner
/// toward the molecule), truncated at the cutoff.
fn lj_force(d: Vec3, p: &WaterParams) -> Vec3 {
    let r2 = d.norm_sq();
    if r2 == 0.0 || r2 > p.cutoff * p.cutoff {
        return Vec3::default();
    }
    let s2 = p.sigma * p.sigma / r2;
    let s6 = s2 * s2 * s2;
    let s12 = s6 * s6;
    // F = 24ε (2 σ¹²/r¹² − σ⁶/r⁶) / r² · d
    let mag = 24.0 * p.epsilon * (2.0 * s12 - s6) / r2;
    d.scale(mag)
}

/// LJ pair potential, shifted so it is 0 at the cutoff.
fn lj_potential(r2: f64, p: &WaterParams) -> f64 {
    if r2 == 0.0 || r2 > p.cutoff * p.cutoff {
        return 0.0;
    }
    let v = |r2: f64| {
        let s2 = p.sigma * p.sigma / r2;
        let s6 = s2 * s2 * s2;
        4.0 * p.epsilon * (s6 * s6 - s6)
    };
    v(r2) - v(p.cutoff * p.cutoff)
}

impl WaterSim {
    /// The molecule array.
    pub fn molecules(&self) -> &[Molecule] {
        &self.mols
    }

    /// Number of molecules.
    pub fn len(&self) -> usize {
        self.mols.len()
    }

    /// Whether the box is empty.
    pub fn is_empty(&self) -> bool {
        self.mols.is_empty()
    }

    /// Compute the force on molecule `i` by a full sweep over all
    /// partners. Both the sequential and the parallel drivers use this,
    /// in the same order, so they agree bitwise.
    fn force_on(&self, i: usize) -> Vec3 {
        let mut f = Vec3::default();
        let pi = self.mols[i].pos;
        for (j, mj) in self.mols.iter().enumerate() {
            if j != i {
                f += lj_force(pi - mj.pos, &self.params);
            }
        }
        f
    }

    /// One velocity-Verlet step with the O(N²) force loop, sequentially.
    ///
    /// This is the *array-and-iteration* structure of the paper's aside:
    /// two perfectly nested counted loops over indices — the kind of code
    /// 1990s parallelizing compilers already handled.
    pub fn step_sequential(&mut self) {
        let dt = self.params.dt;
        for i in 0..self.mols.len() {
            let a = self.mols[i].force; // force from the previous step
            self.mols[i].vel += a.scale(0.5 * dt);
            let v = self.mols[i].vel;
            self.mols[i].pos += v.scale(dt);
        }
        for i in 0..self.mols.len() {
            self.mols[i].force = self.force_on(i);
        }
        let dt = self.params.dt;
        for m in &mut self.mols {
            let f = m.force;
            m.vel += f.scale(0.5 * dt);
        }
    }

    /// The same step with the force loop cut into contiguous slices, one
    /// per thread. No shape analysis is needed to see this is safe: each
    /// thread writes `force[lo..hi]` and reads positions immutably —
    /// Rust's borrow checker proves what, for the pointer code, required
    /// the ADDS declaration. Bitwise-identical to [`Self::step_sequential`].
    pub fn step_parallel(&mut self, threads: usize) {
        let threads = threads.max(1);
        let dt = self.params.dt;
        for i in 0..self.mols.len() {
            let a = self.mols[i].force;
            self.mols[i].vel += a.scale(0.5 * dt);
            let v = self.mols[i].vel;
            self.mols[i].pos += v.scale(dt);
        }

        let n = self.mols.len();
        let mut forces = vec![Vec3::default(); n];
        let chunk = n.div_ceil(threads).max(1);
        // Immutable self-borrow for readers; disjoint chunks for writers.
        let me: &WaterSim = self;
        crossbeam::scope(|s| {
            for (t, out) in forces.chunks_mut(chunk).enumerate() {
                let lo = t * chunk;
                s.spawn(move |_| {
                    for (k, slot) in out.iter_mut().enumerate() {
                        *slot = me.force_on(lo + k);
                    }
                });
            }
        })
        .expect("force workers");

        for (m, f) in self.mols.iter_mut().zip(forces) {
            m.force = f;
            m.vel += f.scale(0.5 * dt);
        }
    }

    /// The classic sequential optimization: Newton's third law halves the
    /// pair work but makes the writes scatter (`force[i]` **and**
    /// `force[j]`), which is precisely what breaks the trivial slice
    /// decomposition. Kept for the ablation: fast sequential baseline,
    /// hostile to parallelization.
    pub fn step_sequential_newton3(&mut self) {
        let dt = self.params.dt;
        for i in 0..self.mols.len() {
            let a = self.mols[i].force;
            self.mols[i].vel += a.scale(0.5 * dt);
            let v = self.mols[i].vel;
            self.mols[i].pos += v.scale(dt);
        }
        let n = self.mols.len();
        let mut forces = vec![Vec3::default(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                let f = lj_force(self.mols[i].pos - self.mols[j].pos, &self.params);
                forces[i] += f;
                forces[j] -= f;
            }
        }
        for (m, f) in self.mols.iter_mut().zip(forces) {
            m.force = f;
            m.vel += f.scale(0.5 * dt);
        }
    }

    /// Run `steps` steps; `threads == 1` means sequential.
    pub fn run(&mut self, steps: usize, threads: usize) {
        // Prime forces so the first half-kick uses the true field.
        for i in 0..self.mols.len() {
            self.mols[i].force = self.force_on(i);
        }
        for _ in 0..steps {
            if threads <= 1 {
                self.step_sequential();
            } else {
                self.step_parallel(threads);
            }
        }
    }

    /// Total energy (kinetic + shifted-LJ potential); conserved up to
    /// integration error, used by the sanity tests.
    pub fn energy(&self) -> f64 {
        let mut e = 0.0;
        for m in &self.mols {
            e += 0.5 * m.vel.norm_sq();
        }
        for i in 0..self.mols.len() {
            for j in (i + 1)..self.mols.len() {
                let r2 = (self.mols[i].pos - self.mols[j].pos).norm_sq();
                e += lj_potential(r2, &self.params);
            }
        }
        e
    }

    /// Net momentum; conserved exactly by the pair forces (up to fp
    /// rounding) and ≈ 0 for [`lattice`] initial conditions.
    pub fn momentum(&self) -> Vec3 {
        let mut p = Vec3::default();
        for m in &self.mols {
            p += m.vel;
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(n: usize) -> WaterSim {
        lattice(n, 42, WaterParams::default())
    }

    #[test]
    fn lattice_is_deterministic_and_sized() {
        let a = sim(27);
        let b = sim(27);
        assert_eq!(a.len(), 27);
        assert_eq!(a.molecules(), b.molecules());
        let c = lattice(27, 43, WaterParams::default());
        assert_ne!(a.molecules(), c.molecules(), "seed must matter");
    }

    #[test]
    fn lattice_has_no_net_momentum() {
        let s = sim(64);
        assert!(s.momentum().norm() < 1e-12, "{:?}", s.momentum());
    }

    #[test]
    fn lattice_molecules_are_separated() {
        let s = sim(64);
        for i in 0..s.len() {
            for j in (i + 1)..s.len() {
                let d = (s.molecules()[i].pos - s.molecules()[j].pos).norm();
                assert!(d > 0.5, "molecules {i},{j} overlap: {d}");
            }
        }
    }

    #[test]
    fn parallel_equals_sequential_bitwise() {
        for threads in [2, 3, 7] {
            let mut a = sim(40);
            let mut b = sim(40);
            a.run(3, 1);
            b.run(3, threads);
            assert_eq!(a.molecules(), b.molecules(), "threads={threads}");
        }
    }

    #[test]
    fn newton3_agrees_with_full_sweep() {
        let mut a = sim(30);
        let mut b = sim(30);
        // Prime, then one step of each.
        a.run(1, 1);
        for i in 0..b.mols.len() {
            b.mols[i].force = b.force_on(i);
        }
        b.step_sequential_newton3();
        for (x, y) in a.molecules().iter().zip(b.molecules()) {
            assert!((x.pos - y.pos).norm() < 1e-9);
            assert!((x.vel - y.vel).norm() < 1e-9);
        }
    }

    #[test]
    fn energy_is_roughly_conserved() {
        let mut s = sim(27);
        for i in 0..s.mols.len() {
            s.mols[i].force = s.force_on(i);
        }
        let e0 = s.energy();
        for _ in 0..50 {
            s.step_sequential();
        }
        let e1 = s.energy();
        let scale = e0.abs().max(1.0);
        assert!(
            (e1 - e0).abs() / scale < 0.05,
            "energy drifted: {e0} -> {e1}"
        );
    }

    #[test]
    fn momentum_is_conserved_through_steps() {
        let mut s = sim(27);
        s.run(20, 1);
        assert!(s.momentum().norm() < 1e-9, "{:?}", s.momentum());
    }

    #[test]
    fn pair_forces_are_antisymmetric() {
        let p = WaterParams::default();
        let d = Vec3::new(0.9, 0.3, -0.2);
        let f = lj_force(d, &p);
        let g = lj_force(d.scale(-1.0), &p);
        assert!((f + g).norm() < 1e-12);
    }

    #[test]
    fn cutoff_truncates_force_and_potential() {
        let p = WaterParams::default();
        let far = Vec3::new(p.cutoff + 0.1, 0.0, 0.0);
        assert_eq!(lj_force(far, &p), Vec3::default());
        assert_eq!(lj_potential(far.norm_sq(), &p), 0.0);
        // The shift makes the potential continuous at the cutoff.
        let eps = 1e-6;
        let just_in = (p.cutoff - eps) * (p.cutoff - eps);
        assert!(lj_potential(just_in, &p).abs() < 1e-4);
    }

    #[test]
    fn degenerate_sizes_do_not_panic() {
        for n in [0, 1, 2] {
            let mut s = sim(n);
            s.run(2, 1);
            let mut t = sim(n);
            t.run(2, 4);
            assert_eq!(s.molecules(), t.molecules());
        }
    }
}
