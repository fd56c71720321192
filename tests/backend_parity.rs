//! Operator-backend parity at the outermost observable surface: a full
//! simulation must produce an **identical** `SimReport` on the
//! index-free stencil backend and the CSR reference — across every
//! preconditioner (ILU(0), geometric multigrid) and
//! thread count — and the backend must not perturb cache keys, since
//! bit-identical results make it a pure execution knob.

use proptest::prelude::*;
use vfc::num::{KernelPool, OperatorBackend, PreconditionerKind};
use vfc::prelude::*;
use vfc::workload::Benchmark;

fn config(backend: OperatorBackend, policy: PolicyKind, cooling: CoolingKind) -> SimConfig {
    let mut cfg = SimConfig::new(
        SystemKind::TwoLayer,
        cooling,
        policy,
        Benchmark::by_name("Web-med").expect("table II"),
    );
    cfg.duration = Seconds::new(3.0);
    cfg.grid_cell = Length::from_millimeters(1.0);
    cfg.thermal.solver.backend = backend;
    cfg
}

#[test]
fn full_reports_are_identical_across_backends() {
    // VFC_OPERATOR_BACKEND would force both runs onto one backend and
    // make this test vacuous; it is an escape hatch for operators, not
    // for CI.
    assert!(
        OperatorBackend::env_override().is_none(),
        "unset VFC_OPERATOR_BACKEND when running the parity suite"
    );
    for (policy, cooling) in [
        (PolicyKind::Talb, CoolingKind::LiquidVariable),
        (
            PolicyKind::LoadBalancing,
            CoolingKind::LiquidFixed(FlowSetting::from_index(2)),
        ),
    ] {
        let stencil = Simulation::new(config(OperatorBackend::Stencil, policy, cooling))
            .expect("build")
            .run()
            .expect("run");
        let csr = Simulation::new(config(OperatorBackend::Csr, policy, cooling))
            .expect("build")
            .run()
            .expect("run");
        assert_eq!(
            stencil, csr,
            "{policy:?}/{cooling:?}: backends must agree on every report field"
        );
    }
}

/// One cell of the parity matrix: a full run with an explicit
/// preconditioner, backend and kernel-pool thread count.
fn run_matrix_cell(
    kind: PreconditionerKind,
    backend: OperatorBackend,
    threads: usize,
    cooling: CoolingKind,
) -> SimReport {
    let mut cfg = config(backend, PolicyKind::Talb, cooling);
    cfg.duration = Seconds::new(2.0);
    cfg.grid_cell = Length::from_millimeters(2.0);
    cfg.thermal.solver.preconditioner = kind;
    let mut sim = Simulation::new(cfg).expect("build");
    sim.set_kernel_pool(&KernelPool::new(threads));
    sim.run().expect("run")
}

#[test]
fn multigrid_reports_match_across_backends_and_thread_counts() {
    // The new preconditioner joins the same contract the backends
    // already honour: every (backend, threads) cell of the matrix is
    // bit-identical, so Multigrid is an execution-quality knob, not a
    // result knob.
    assert!(OperatorBackend::env_override().is_none());
    let cooling = CoolingKind::LiquidVariable;
    let reference = run_matrix_cell(
        PreconditionerKind::Multigrid,
        OperatorBackend::Stencil,
        1,
        cooling,
    );
    for backend in [OperatorBackend::Stencil, OperatorBackend::Csr] {
        for threads in [1usize, 2, 4] {
            let got = run_matrix_cell(PreconditionerKind::Multigrid, backend, threads, cooling);
            assert_eq!(
                got, reference,
                "multigrid/{backend:?}/{threads} threads diverged from stencil/1"
            );
        }
    }
}

/// The fault-replay trace every determinism cell replays: a pump sag,
/// a clogging cavity and noisy sensors, all seeded.
fn fault_timeline() -> vfc::sim::FaultTimeline {
    use vfc::sim::{ChannelClog, FaultTimeline, PumpFault, SensorFault};
    FaultTimeline::new(9)
        .with_pump(PumpFault::Degradation {
            start_s: 0.5,
            end_s: 1.5,
            level: 0.4,
        })
        .with_clog(ChannelClog {
            cavity: 0,
            start_s: 1.0,
            ramp_s: 0.25,
            derate: 0.5,
        })
        .with_sensor(SensorFault::Noise { sigma: 0.3 })
}

#[test]
fn faulted_reports_match_across_backends_and_thread_counts() {
    // Injected faults join the determinism contract: the seeded
    // timeline is configuration, so every (backend, threads) cell of
    // the matrix replays the identical degraded run bit for bit.
    assert!(OperatorBackend::env_override().is_none());
    let cooling = CoolingKind::LiquidVariable;
    let cell = |backend, threads, faulted: bool| {
        let mut cfg = config(backend, PolicyKind::Talb, cooling);
        cfg.duration = Seconds::new(2.0);
        cfg.grid_cell = Length::from_millimeters(2.0);
        if faulted {
            cfg.faults = fault_timeline();
        }
        let mut sim = Simulation::new(cfg).expect("build");
        sim.set_kernel_pool(&KernelPool::new(threads));
        sim.run().expect("run")
    };
    let reference = cell(OperatorBackend::Stencil, 1, true);
    let healthy = cell(OperatorBackend::Stencil, 1, false);
    assert_ne!(reference, healthy, "the fault trace must perturb the run");
    for backend in [OperatorBackend::Stencil, OperatorBackend::Csr] {
        for threads in [1usize, 2, 4] {
            let got = cell(backend, threads, true);
            assert_eq!(
                got, reference,
                "faulted {backend:?}/{threads} threads diverged from stencil/1"
            );
        }
    }
}

#[test]
fn fault_timelines_enter_cache_keys_but_empty_ones_are_free() {
    let healthy = config(
        OperatorBackend::Stencil,
        PolicyKind::Talb,
        CoolingKind::LiquidVariable,
    );
    let mut faulted = healthy.clone();
    faulted.faults = fault_timeline();
    let mut empty = healthy.clone();
    empty.faults = vfc::sim::FaultTimeline::new(7);
    assert_ne!(
        healthy.cache_key(),
        faulted.cache_key(),
        "a fault timeline changes the physics and must invalidate cached results"
    );
    assert_eq!(
        healthy.cache_key(),
        empty.cache_key(),
        "an empty timeline (any seed) must leave healthy cache keys untouched"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        .. ProptestConfig::default()
    })]

    /// The full preconditioner × backend × thread-count matrix, sampled:
    /// whichever preconditioner and flow regime come up, Stencil and CSR
    /// must agree bit-for-bit at 1, 2 and 4 threads.
    #[test]
    fn preconditioner_backend_thread_matrix(
        kind in prop_oneof![
            Just(PreconditionerKind::Ilu0),
            Just(PreconditionerKind::Multigrid),
        ],
        flow_idx in 0usize..5,
    ) {
        let cooling = CoolingKind::LiquidFixed(FlowSetting::from_index(flow_idx));
        let reference = run_matrix_cell(kind, OperatorBackend::Stencil, 1, cooling);
        for backend in [OperatorBackend::Stencil, OperatorBackend::Csr] {
            for threads in [1usize, 2, 4] {
                let got = run_matrix_cell(kind, backend, threads, cooling);
                prop_assert_eq!(
                    &got,
                    &reference,
                    "{:?}/{:?}/{} threads diverged",
                    kind,
                    backend,
                    threads
                );
            }
        }
    }
}

#[test]
fn backend_choice_does_not_shift_cache_keys() {
    let a = config(
        OperatorBackend::Stencil,
        PolicyKind::Talb,
        CoolingKind::LiquidVariable,
    );
    let b = config(
        OperatorBackend::Csr,
        PolicyKind::Talb,
        CoolingKind::LiquidVariable,
    );
    assert_eq!(
        a.cache_key(),
        b.cache_key(),
        "a bit-identical execution knob must not invalidate cached results"
    );
}

#[test]
fn engine_reports_the_effective_backend() {
    let sim = Simulation::new(config(
        OperatorBackend::Stencil,
        PolicyKind::LoadBalancing,
        CoolingKind::LiquidFixed(FlowSetting::from_index(2)),
    ))
    .expect("build");
    if OperatorBackend::env_override().is_none() {
        // The 1 mm stacked grid is regular: the stencil decomposition
        // must engage.
        assert_eq!(sim.operator_backend(), OperatorBackend::Stencil);
    }
}
