//! Transient-path regression smoke for CI: deterministic gates on the
//! warm-seeded, pool-parallel backward-Euler stepping (mirrors
//! `solver_smoke`, which gates the steady path).
//!
//! Timing is useless on shared runners, so everything asserted here is
//! exact for a given matrix and solver:
//!
//! * a power-step transient on the 0.25 mm liquid grid (9200 nodes —
//!   above `PAR_MIN_LEN`, so the pooled matvecs, reductions and
//!   multigrid transfers genuinely run multi-threaded) lands
//!   bit-identical temperatures and iteration counts on 1-, 2- and
//!   4-thread kernel pools (the determinism-by-partitioning contract);
//! * the per-sample Krylov iteration total stays inside a budget a
//!   regressed solver or preconditioner would blow through;
//! * the `M⁻¹r` warm seed never costs iterations versus the plain warm
//!   start, and saves some over the run;
//! * stepping from a converged state short-circuits at zero iterations
//!   without touching a single bit of the state;
//! * the index-free stencil backend reproduces the CSR reference **bit
//!   for bit** over the full scenario (the operator-parity gate);
//! * the multigrid-preconditioned scenario honours the same thread and
//!   backend parity contracts, beats ILU(0) on total Krylov iterations
//!   and stays inside its own fixed budget;
//! * the cheap asymmetric V(0,1) cycle with sub-step Krylov recycling
//!   (`transient_bench`'s `mgfast` configuration) honours the same
//!   parity contracts, stays inside its own budget, and converges to
//!   the symmetric cycle's temperatures within solver tolerance — the
//!   observable fact behind keeping cycle shape and recycling depth
//!   out of simulation cache keys;
//! * an ILU(0) apply never wakes the kernel pool: on a 2-thread pool it
//!   adds zero broadcasts (the sweeps run on the calling thread), while
//!   a pooled matvec on the same pool and matrix does broadcast.

use vfc::floorplan::{ultrasparc, GridSpec};
use vfc::num::{KernelPool, MgCycleConfig, OperatorBackend, PreconditionerKind, PAR_MIN_LEN};
use vfc::thermal::{StackThermalBuilder, ThermalConfig, ThermalModel};
use vfc::units::{Length, Seconds, VolumetricFlow, Watts};

const SAMPLES: usize = 20;
const SUBSTEPS: usize = 5;

/// Runs the power-step scenario; returns per-sample iteration counts and
/// the final state.
fn run_scenario(model: &mut ThermalModel) -> (Vec<usize>, Vec<f64>) {
    let stack = ultrasparc::two_layer_liquid();
    let p_low = model.uniform_block_power(&stack, |b| {
        if b.is_core() {
            Watts::new(1.2)
        } else {
            Watts::new(0.4)
        }
    });
    let p_high = model.uniform_block_power(&stack, |b| {
        if b.is_core() {
            Watts::new(3.2)
        } else {
            Watts::new(0.6)
        }
    });
    let mut temps = model.steady_state(&p_low, None).expect("steady start");
    let mut iters = Vec::with_capacity(SAMPLES);
    for s in 0..SAMPLES {
        // Step up, hold, step down, hold — exercises both the hard
        // (power jump) and easy (converging tail) sample shapes.
        let p = if (s / 5) % 2 == 0 { &p_high } else { &p_low };
        model
            .step(&mut temps, p, Seconds::from_millis(100.0), SUBSTEPS)
            .expect("step");
        iters.push(model.last_step_iterations());
    }
    (iters, temps)
}

fn build_model(threads: usize) -> ThermalModel {
    build_model_with(threads, OperatorBackend::Stencil, PreconditionerKind::Ilu0)
}

fn build_model_with(
    threads: usize,
    backend: OperatorBackend,
    preconditioner: PreconditionerKind,
) -> ThermalModel {
    let stack = ultrasparc::two_layer_liquid();
    let grid =
        GridSpec::from_cell_size(stack.tiers()[0].floorplan(), Length::from_millimeters(0.25));
    let mut cfg = ThermalConfig::default();
    cfg.solver.backend = backend;
    cfg.solver.preconditioner = preconditioner;
    let mut model = StackThermalBuilder::new(&stack, grid, cfg)
        .build(Some(VolumetricFlow::from_ml_per_minute(600.0)))
        .expect("build");
    model.set_kernel_pool(KernelPool::new(threads));
    model
}

fn main() {
    let mut reference: Option<(Vec<usize>, Vec<f64>)> = None;
    println!("transient smoke: liquid 0.25 mm grid, {SAMPLES} samples x {SUBSTEPS} sub-steps");
    for threads in [1usize, 2, 4] {
        let mut model = build_model(threads);
        let n = model.node_count();
        // The parallel kernels only engage at PAR_MIN_LEN and above; a
        // smaller grid would compare serial runs against serial runs
        // and gate nothing.
        assert!(
            n >= PAR_MIN_LEN,
            "smoke grid must engage the parallel paths, got {n} nodes"
        );
        let (iters, temps) = run_scenario(&mut model);
        let total: usize = iters.iter().sum();
        println!(
            "{threads} thread(s): {total:>4} Krylov iterations, per-sample {:?}",
            &iters[..6.min(iters.len())]
        );
        match &reference {
            None => {
                // Deterministic budget: the scenario measures 560
                // iterations with ILU(0) + warm seed; the headroom
                // only lets a real regression (lost preconditioner,
                // broken warm start) trip it.
                assert!(
                    total <= 900,
                    "transient iteration budget regressed: {total} > 900"
                );
                assert!(total > 0, "scenario must exercise the solver");
                reference = Some((iters, temps));
            }
            Some((ref_iters, ref_temps)) => {
                assert_eq!(
                    &iters, ref_iters,
                    "iteration counts changed at {threads} threads"
                );
                let identical = temps
                    .iter()
                    .zip(ref_temps)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(identical, "temperatures diverged at {threads} threads");
            }
        }
    }

    // Operator-backend parity: the CSR reference must reproduce the
    // stencil run bit for bit (same scenario, 2-thread pool).
    {
        let mut csr = build_model_with(2, OperatorBackend::Csr, PreconditionerKind::Ilu0);
        if OperatorBackend::env_override().is_none() {
            assert_eq!(csr.operator_backend(), OperatorBackend::Csr);
            assert_eq!(
                build_model(2).operator_backend(),
                OperatorBackend::Stencil,
                "the 0.25 mm stacked grid must decompose into a stencil"
            );
        }
        let (csr_iters, csr_temps) = run_scenario(&mut csr);
        let (ref_iters, ref_temps) = reference.as_ref().expect("reference recorded");
        assert_eq!(&csr_iters, ref_iters, "backends disagree on iterations");
        assert!(
            csr_temps
                .iter()
                .zip(ref_temps)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "stencil and CSR backends diverged"
        );
        println!("backend parity: stencil and CSR bit-identical over the scenario");
    }

    // Multigrid transient gates: the V-cycle-preconditioned scenario is
    // bit-identical at 1, 2 and 4 threads and on both operator
    // backends, saves iterations over ILU(0), and stays inside its own
    // fixed budget.
    {
        let mut mg_ref: Option<(Vec<usize>, Vec<f64>)> = None;
        for threads in [1usize, 2, 4] {
            let mut model = build_model_with(
                threads,
                OperatorBackend::Stencil,
                PreconditionerKind::Multigrid,
            );
            let (iters, temps) = run_scenario(&mut model);
            let total: usize = iters.iter().sum();
            match &mg_ref {
                None => {
                    println!(
                        "multigrid: {total:>4} Krylov iterations, per-sample {:?}",
                        &iters[..6.min(iters.len())]
                    );
                    // The scenario measures far fewer iterations than
                    // the 560 ILU(0) takes; the budget only lets a real
                    // regression (lost hierarchy, broken Galerkin
                    // re-fold) trip it.
                    assert!(
                        total <= 300,
                        "multigrid transient iteration budget regressed: {total} > 300"
                    );
                    assert!(total > 0, "scenario must exercise the solver");
                    let (ilu_iters, _) = reference.as_ref().expect("reference recorded");
                    let ilu_total: usize = ilu_iters.iter().sum();
                    assert!(
                        total < ilu_total,
                        "multigrid saved nothing over ILU(0): {total} vs {ilu_total}"
                    );
                    mg_ref = Some((iters, temps));
                }
                Some((ref_iters, ref_temps)) => {
                    assert_eq!(
                        &iters, ref_iters,
                        "multigrid iteration counts changed at {threads} threads"
                    );
                    assert!(
                        temps
                            .iter()
                            .zip(ref_temps)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "multigrid temperatures diverged at {threads} threads"
                    );
                }
            }
        }
        let mut csr = build_model_with(2, OperatorBackend::Csr, PreconditionerKind::Multigrid);
        let (csr_iters, csr_temps) = run_scenario(&mut csr);
        let (ref_iters, ref_temps) = mg_ref.as_ref().expect("multigrid reference recorded");
        assert_eq!(
            &csr_iters, ref_iters,
            "backends disagree on multigrid iterations"
        );
        assert!(
            csr_temps
                .iter()
                .zip(ref_temps)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "stencil and CSR backends diverged under multigrid"
        );
        println!("multigrid parity: thread counts and backends bit-identical");

        // The cheap-cycle + recycling configuration `transient_bench`
        // gates as `mgfast`: asymmetric V(0,1) cycles with a 2-vector
        // deflation ring recycled across sub-steps. Same contracts as
        // the symmetric cycle — bit-identical across 1/2/4 threads and
        // both backends, a fixed iteration budget — plus the
        // solver-tolerance equivalence that justifies keeping the cycle
        // shape and recycling depth out of simulation cache keys: the
        // converged temperatures match the V(1,1) run to well under a
        // millikelvin.
        let build_fast = |threads: usize, backend: OperatorBackend| {
            let stack = ultrasparc::two_layer_liquid();
            let grid = GridSpec::from_cell_size(
                stack.tiers()[0].floorplan(),
                Length::from_millimeters(0.25),
            );
            let mut cfg = ThermalConfig::default();
            cfg.solver.backend = backend;
            cfg.solver.preconditioner = PreconditionerKind::Multigrid;
            cfg.solver.mg_cycle = MgCycleConfig::cheap();
            cfg.solver.recycle = 2;
            let mut model = StackThermalBuilder::new(&stack, grid, cfg)
                .build(Some(VolumetricFlow::from_ml_per_minute(600.0)))
                .expect("build");
            model.set_kernel_pool(KernelPool::new(threads));
            model
        };
        let mut fast_ref: Option<(Vec<usize>, Vec<f64>)> = None;
        for threads in [1usize, 2, 4] {
            let (iters, temps) = run_scenario(&mut build_fast(threads, OperatorBackend::Stencil));
            let total: usize = iters.iter().sum();
            match &fast_ref {
                None => {
                    println!(
                        "mg cheap cycle + recycling: {total:>4} Krylov iterations, \
                         per-sample {:?}",
                        &iters[..6.min(iters.len())]
                    );
                    // The V(0,1) cycle trades iterations for cheaper
                    // applies; the budget holds the premium over the
                    // symmetric cycle to what a healthy solver measures
                    // (headroom included), so a broken coarse chain or
                    // recycling projection trips it.
                    assert!(
                        total <= 300,
                        "cheap-cycle iteration budget regressed: {total} > 300"
                    );
                    assert!(total > 0, "scenario must exercise the solver");
                    let (mg_iters, mg_temps) = mg_ref.as_ref().expect("multigrid reference");
                    let mg_total: usize = mg_iters.iter().sum();
                    let max_dev = temps
                        .iter()
                        .zip(mg_temps)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0f64, f64::max);
                    assert!(
                        max_dev < 1e-6,
                        "cycle shape moved converged temperatures by {max_dev} K"
                    );
                    println!(
                        "  vs symmetric V(1,1): {total} vs {mg_total} iterations, \
                         max |dT| {max_dev:.2e} K"
                    );
                    fast_ref = Some((iters, temps));
                }
                Some((ref_iters, ref_temps)) => {
                    assert_eq!(
                        &iters, ref_iters,
                        "cheap-cycle iteration counts changed at {threads} threads"
                    );
                    assert!(
                        temps
                            .iter()
                            .zip(ref_temps)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "cheap-cycle temperatures diverged at {threads} threads"
                    );
                }
            }
        }
        let (csr_iters, csr_temps) = run_scenario(&mut build_fast(2, OperatorBackend::Csr));
        let (ref_iters, ref_temps) = fast_ref.as_ref().expect("cheap-cycle reference recorded");
        assert_eq!(
            &csr_iters, ref_iters,
            "backends disagree on cheap-cycle iterations"
        );
        assert!(
            csr_temps
                .iter()
                .zip(ref_temps)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "stencil and CSR backends diverged under the cheap cycle"
        );
        println!("cheap-cycle parity: thread counts and backends bit-identical");
    }

    // ILU(0) sweeps stay on the calling thread: an apply on a 2-thread
    // pool adds zero broadcasts. The pooled matvec on the same pool and
    // matrix is the positive control — it must broadcast, or the pool
    // never engaged and the zero shows nothing. (A multigrid apply still
    // broadcasts for its restriction and prolongation passes, so it is
    // not gated here.)
    {
        let model = build_model(1);
        let a = model.conductance_matrix();
        let pool = KernelPool::new(2);
        let ilu = PreconditionerKind::Ilu0
            .build_on(
                a,
                std::sync::Arc::clone(&pool),
                Some(model.skeleton().schedules()),
            )
            .expect("factorization");
        let r = vec![1.0; a.order()];
        let mut z = vec![0.0; a.order()];
        let before = pool.counters().broadcasts;
        ilu.apply(&r, &mut z);
        let ilu_broadcasts = pool.counters().broadcasts - before;
        assert_eq!(
            ilu_broadcasts, 0,
            "an ILU(0) apply must not wake the kernel pool"
        );
        let before = pool.counters().broadcasts;
        a.matvec_into_on(&pool, &r, &mut z);
        let matvec_broadcasts = pool.counters().broadcasts - before;
        assert!(
            matvec_broadcasts > 0,
            "the pooled matvec must broadcast on a 2-thread pool ({} nodes)",
            a.order()
        );
        println!("pool broadcasts per apply: ILU(0) {ilu_broadcasts}, matvec {matvec_broadcasts}");
    }

    // Warm seed: never worse per sample, strictly better over the run.
    let mut plain = build_model(2);
    plain.set_transient_warm_seed(false);
    let (plain_iters, plain_temps) = run_scenario(&mut plain);
    let (seeded_iters, seeded_temps) = reference.expect("reference recorded");
    assert!(
        seeded_iters.iter().zip(&plain_iters).all(|(s, p)| s <= p),
        "warm seed cost iterations somewhere: {seeded_iters:?} vs {plain_iters:?}"
    );
    let (seeded_total, plain_total): (usize, usize) =
        (seeded_iters.iter().sum(), plain_iters.iter().sum());
    assert!(
        seeded_total < plain_total,
        "warm seed saved nothing: {seeded_total} vs {plain_total}"
    );
    assert_eq!(seeded_temps.len(), plain_temps.len());
    let max_dev = seeded_temps
        .iter()
        .zip(&plain_temps)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_dev < 1e-6,
        "warm seed moved converged temperatures by {max_dev} K"
    );
    println!(
        "warm seed: {seeded_total} vs {plain_total} iterations (plain), max |dT| {max_dev:.2e} K"
    );

    // Short-circuit: stepping from the converged state is a bit-exact
    // no-op at zero iterations.
    let mut model = build_model(2);
    let stack = ultrasparc::two_layer_liquid();
    let p = model.uniform_block_power(&stack, |b| {
        if b.is_core() {
            Watts::new(2.0)
        } else {
            Watts::new(0.5)
        }
    });
    let steady = model.steady_state(&p, None).expect("steady");
    let mut temps = steady.clone();
    model
        .step(&mut temps, &p, Seconds::from_millis(100.0), SUBSTEPS)
        .expect("step");
    assert_eq!(
        model.last_step_iterations(),
        0,
        "converged sample must short-circuit"
    );
    assert!(
        temps
            .iter()
            .zip(&steady)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "short-circuit touched the state"
    );
    println!("ok: thread determinism, iteration budget, warm-seed savings and short-circuit hold");
}
