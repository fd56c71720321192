//! Per-layer measurements for the traced run: counters read from
//! `vfc_obs`, timed calls into each crate's public functions, the span
//! trees and their coverage.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use vfc::control::characterize_skeleton;
use vfc::floorplan::{BlockKind, GridSpec, Stack3d};
use vfc::num::{KernelPool, LinearOperator, OperatorBackend, PreconditionerKind, StencilOp};
use vfc::obs::Snapshot;
use vfc::prelude::*;
use vfc::runner::json::{number, JsonValue};
use vfc::thermal::{StackThermalBuilder, ThermalModel, ThermalModelFamily};

use crate::report::{cache_sizes, Outcome};
use crate::trace::{covered_ns, tree, tree_from_totals, NodeRow};
use crate::Ctx;

/// Every per-layer metric, in output order. A workload that does not
/// reach a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("num.nodes", "count"),
    ("num.solves", "count"),
    ("num.iters_per_solve", "iter"),
    ("num.precond_applies", "count"),
    ("num.matvec_us", "us"),
    ("num.precond_apply_us", "us"),
    ("num.matvec_bytes_computed", "B"),
    ("num.precond_bytes_computed", "B"),
    ("num.matvec_gbps_computed", "GB/s"),
    ("num.precond_gbps_computed", "GB/s"),
    ("num.pool_efficiency", "ratio"),
    ("host.l2_bytes", "B"),
    ("host.llc_bytes", "B"),
    ("thermal.step_ms", "ms"),
    ("thermal.steps", "count"),
    ("thermal.substeps", "count"),
    ("thermal.short_circuits", "count"),
    ("thermal.steady_ms", "ms"),
    ("thermal.steady_solves", "count"),
    ("thermal.build_ms", "ms"),
    ("control.characterize_ms", "ms"),
    ("sim.new_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.samples", "count"),
    ("sim.thermal_pct", "%"),
    ("sched.tick_ns", "ns"),
    ("forecast.ms", "ms"),
    ("runner.cache_get_us", "us"),
    ("runner.cache_insert_us", "us"),
    ("runner.hit_rate", "ratio"),
    ("runner.queue_wait_ms", "ms"),
    ("runner.executed", "count"),
    ("runner.dedup_joins", "count"),
    ("runner.job_retries", "count"),
    ("serve.journal_submit_us", "us"),
    ("serve.frame_encode_us", "us"),
    ("serve.frame_decode_us", "us"),
    ("serve.ping_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.sheds", "count"),
    ("serve.deadline_aborts", "count"),
    ("serve.requests", "count"),
    ("serve.req_ms.p50", "ms"),
    ("serve.req_ms.p99", "ms"),
    ("obs.overhead_pct", "%"),
    ("obs.coverage.bench", "ratio"),
    ("obs.coverage.cell", "ratio"),
    ("obs.coverage.engine_thermal", "ratio"),
    ("obs.min_coverage", "ratio"),
    ("obs.nodes_below_95pct", "count"),
];

/// `vfc_obs` counters that repeat exactly for a seed, under the
/// per-layer names they are reported as.
const EXACT: &[(&str, &str)] = &[
    ("num.solves", "solver.solves"),
    ("num.iterations", "solver.iterations"),
    ("num.precond_applies", "precond.applies"),
    ("thermal.steps", "thermal.steps"),
    ("thermal.substeps", "thermal.substeps"),
    ("thermal.short_circuits", "thermal.substep_short_circuits"),
    ("thermal.steady_solves", "thermal.steady_solves"),
    ("sim.samples", "engine.samples"),
];

/// Minimum measured time behind each timed per-layer figure.
pub const PROBE_SECONDS: f64 = 1.0;

/// Per-layer values collected during a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// Emits every per-layer metric into `out`, 0 where unset.
    pub fn emit(&self, out: &mut Outcome) {
        for &(name, unit) in PER_LAYER {
            out.metric(name, self.values.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// The change in `vfc_obs` counters and span statistics over a stretch
/// of work.
#[derive(Debug, Default, Clone)]
pub struct ObsDelta {
    counters: BTreeMap<String, u64>,
    /// Span path (without the `span.` prefix) → (count, total ns).
    spans: BTreeMap<String, (u64, u64)>,
    /// Other statistics → (count, total ns).
    stats: BTreeMap<String, (u64, u64)>,
}

impl ObsDelta {
    /// Runs `f` and returns its result with the telemetry it recorded.
    pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Self) {
        let before = vfc::obs::snapshot();
        let r = f();
        (r, Self::between(&before, &vfc::obs::snapshot()))
    }

    fn between(before: &Snapshot, after: &Snapshot) -> Self {
        let mut d = Self::default();
        for (name, v) in &after.counters {
            let delta = v - before.counter(name).unwrap_or(0);
            if delta > 0 {
                d.counters.insert(name.clone(), delta);
            }
        }
        for (name, s) in &after.stats {
            let (c0, n0) = before.stat(name).map_or((0, 0), |b| (b.count, b.sum_ns));
            if s.count > c0 {
                let entry = (s.count - c0, s.sum_ns - n0);
                match name.strip_prefix("span.") {
                    Some(path) => d.spans.insert(path.to_string(), entry),
                    None => d.stats.insert(name.clone(), entry),
                };
            }
        }
        d
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (mine, theirs) in [
            (&mut self.spans, &other.spans),
            (&mut self.stats, &other.stats),
        ] {
            for (k, (c, n)) in theirs {
                let e = mine.entry(k.clone()).or_default();
                e.0 += c;
                e.1 += n;
            }
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// (count, total ns) over every span path ending in `leaf`.
    pub fn leaf(&self, leaf: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|(p, _)| p.rsplit('/').next() == Some(leaf))
            .fold((0, 0), |(c, n), (_, &(c2, n2))| (c + c2, n + n2))
    }

    /// Mean duration of the spans ending in `leaf`, in ns (0 if none).
    pub fn leaf_mean_ns(&self, leaf: &str) -> f64 {
        let (c, n) = self.leaf(leaf);
        if c == 0 {
            0.0
        } else {
            n as f64 / c as f64
        }
    }

    pub fn stat_mean_ns(&self, name: &str) -> f64 {
        self.stats.get(name).map_or(
            0.0,
            |&(c, n)| if c == 0 { 0.0 } else { n as f64 / c as f64 },
        )
    }

    /// The exact work counts under their per-layer names.
    pub fn exact_counts(&self) -> Vec<(&'static str, u64)> {
        EXACT
            .iter()
            .map(|&(name, counter)| (name, self.counter(counter)))
            .collect()
    }

    /// Records the counter-derived layer metrics.
    pub fn record(&self, layers: &mut Layers) {
        for (name, v) in self.exact_counts() {
            if name != "num.iterations" {
                layers.set(name, v as f64);
            }
        }
        let solves = self.counter("solver.solves");
        if solves > 0 {
            layers.set(
                "num.iters_per_solve",
                self.counter("solver.iterations") as f64 / solves as f64,
            );
        }
        layers.set(
            "thermal.steady_ms",
            self.leaf_mean_ns("thermal.steady") / 1e6,
        );
        layers.set("sched.tick_ns", self.leaf_mean_ns("engine.workload"));
        layers.set("forecast.ms", self.leaf_mean_ns("engine.forecast") / 1e6);
    }

    /// The program's span tree (thread time, aggregated per path).
    pub fn nodes(&self) -> Vec<NodeRow> {
        let totals: Vec<(String, u64, u64)> = self
            .spans
            .iter()
            .map(|(p, &(c, n))| (p.clone(), c, n))
            .collect();
        tree_from_totals(&totals)
    }
}

/// Seconds per call of `f`: calls run in batches of at least 5 ms,
/// until [`PROBE_SECONDS`] and 5 batches have passed; the result is the
/// median batch's per-call time. A call that alone takes
/// [`PROBE_SECONDS`] is timed once.
pub fn time_per_call(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let first = t.elapsed().as_secs_f64();
    if first >= PROBE_SECONDS {
        return first;
    }
    let mut batch = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed().as_secs_f64() >= 0.005 {
            break;
        }
        batch *= 2;
    }
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 5 || start.elapsed().as_secs_f64() < PROBE_SECONDS {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    crate::stats::median(&per_call)
}

/// Power at a uniform demand in `[0, 1]`, built the way the engine
/// characterizes flow settings: dynamic power at `demand` plus leakage
/// at the control target, a memory-heavy crossbar mix.
fn demand_power(cfg: &SimConfig, stack: &Stack3d, model: &ThermalModel, demand: f64) -> Vec<f64> {
    let mut p = model.zero_power();
    for (t, tier) in stack.tiers().iter().enumerate() {
        for (b, blk) in tier.floorplan().blocks().iter().enumerate() {
            let dynamic = match blk.kind() {
                BlockKind::Core => cfg.power.core_power(demand, false).value(),
                BlockKind::L2Cache => cfg.power.l2_power(demand).value(),
                BlockKind::Crossbar => cfg.power.crossbar_power(demand, 0.8).value() * 0.5,
                kind => cfg.power.fixed_block_power(kind).value(),
            };
            let leak = cfg
                .leakage
                .block_leakage(blk, cfg.target_temperature)
                .value();
            model.add_block_power(&mut p, t, b, Watts::new(dynamic + leak));
        }
    }
    p
}

/// Times the solver kernels, one thermal step, the model build and the
/// flow characterization on `cfg`'s grid (a 2-layer liquid stack).
pub fn probe_thermal_stack(ctx: &Ctx, cfg: &SimConfig, layers: &mut Layers) {
    let span = ctx.tracer.span("probe.thermal_stack", None, 0);
    let stack = cfg.system.stack(true);
    let grid = GridSpec::from_cell_size(stack.tiers()[0].floorplan(), cfg.grid_cell);
    let builder = StackThermalBuilder::new(&stack, grid, cfg.thermal);
    let cavities = stack.cavity_count();
    let flows: Vec<_> = cfg
        .pump
        .flow_settings()
        .map(|s| cfg.pump.per_cavity_flow(s, cavities))
        .collect();

    let family = {
        let _s = ctx.tracer.span("thermal.for_flows", Some(&span), 0);
        let build = || ThermalModelFamily::for_flows(&builder, &flows).expect("thermal build");
        let per_call = time_per_call(|| {
            std::hint::black_box(build());
        });
        layers.set("thermal.build_ms", per_call * 1e3);
        build()
    };
    let mut model = family.model(family.len() / 2).clone();
    let n = model.node_count();
    layers.set("num.nodes", n as f64);

    // Solver kernels on the conductance operator, on the default pool.
    {
        let _s = ctx.tracer.span("num.kernels", Some(&span), 0);
        let pool = Arc::clone(KernelPool::global());
        let a = model.conductance_matrix().clone();
        let nnz = a.nnz() as f64;
        let nf = n as f64;
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.01).collect();
        let mut y = vec![0.0; n];
        let stencil = model.skeleton().stencil().cloned();
        let (matvec_s, matvec_bytes) = match (model.operator_backend(), &stencil) {
            (OperatorBackend::Stencil, Some(pat)) => {
                let op = StencilOp::new(pat, a.values());
                let s = time_per_call(|| op.matvec_into_on(&pool, &x, &mut y));
                (s, nnz * 8.0 + 2.0 * nf * 8.0)
            }
            _ => {
                let s = time_per_call(|| a.matvec_into_on(&pool, &x, &mut y));
                (s, nnz * 12.0 + (nf + 1.0) * 4.0 + 2.0 * nf * 8.0)
            }
        };
        let ilu = PreconditionerKind::Ilu0
            .build_on(&a, Arc::clone(&pool), Some(model.skeleton().schedules()))
            .expect("ilu0 factorization");
        let mut z = vec![0.0; n];
        let precond_s = time_per_call(|| ilu.apply(&x, &mut z));
        let precond_bytes = nnz * 12.0 + 2.0 * (nf + 1.0) * 4.0 + nf * 4.0 + 3.0 * nf * 8.0;
        layers.set("num.matvec_us", matvec_s * 1e6);
        layers.set("num.precond_apply_us", precond_s * 1e6);
        layers.set("num.matvec_bytes_computed", matvec_bytes);
        layers.set("num.precond_bytes_computed", precond_bytes);
        layers.set("num.matvec_gbps_computed", matvec_bytes / matvec_s / 1e9);
        layers.set("num.precond_gbps_computed", precond_bytes / precond_s / 1e9);
        let (l2, llc) = cache_sizes();
        layers.set("host.l2_bytes", l2);
        layers.set("host.llc_bytes", llc);
    }

    // One 100 ms sample (the engine's sub-step count), from the same
    // state each time, on one thread and on the default pool.
    {
        let _s = ctx.tracer.span("thermal.step", Some(&span), 0);
        let p0 = demand_power(cfg, &stack, &model, 0.5);
        let start = model.steady_state(&p0, None).expect("steady state");
        let p1 = demand_power(cfg, &stack, &model, 0.9);
        let dt = cfg.sampling_interval;
        let substeps = cfg.thermal_substeps;
        let mut step_on = |pool: Arc<KernelPool>| {
            model.set_kernel_pool(pool);
            let mut temps = start.clone();
            time_per_call(|| {
                temps.copy_from_slice(&start);
                model
                    .step(&mut temps, &p1, dt, substeps)
                    .expect("thermal step");
            })
        };
        let one = step_on(KernelPool::new(1));
        let pool = Arc::clone(KernelPool::global());
        let threads = pool.threads();
        let many = step_on(pool);
        layers.set("thermal.step_ms", many * 1e3);
        if threads > 1 {
            layers.set("num.pool_efficiency", one / (threads as f64 * many));
        }
    }

    // The flow-setting characterization that builds the controller LUT.
    {
        let _s = ctx.tracer.span("control.characterize", Some(&span), 0);
        let characterize = || {
            characterize_skeleton(
                family.skeleton(),
                &cfg.pump,
                cavities,
                cfg.target_temperature - cfg.control_margin,
                7,
                &|demand, model| demand_power(cfg, &stack, model, demand),
            )
            .expect("characterization")
        };
        let per_call = time_per_call(|| {
            std::hint::black_box(characterize());
        });
        layers.set("control.characterize_ms", per_call * 1e3);
    }
}

/// Times `Simulation::new` and `Simulation::run` of `cfg` over at least
/// [`PROBE_SECONDS`], and the share of `run` spent in thermal steps.
pub fn probe_simulation(ctx: &Ctx, cfg: &SimConfig, layers: &mut Layers) {
    let span = ctx.tracer.span("probe.simulation", None, 0);
    let (mut new_s, mut run_s, mut calls) = (0.0, 0.0, 0u32);
    let mut obs = ObsDelta::default();
    let start = Instant::now();
    while calls < 3 || start.elapsed().as_secs_f64() < PROBE_SECONDS {
        let t = Instant::now();
        let sim = Simulation::new(cfg.clone()).expect("simulation set-up");
        new_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (report, delta) = ObsDelta::capture(|| sim.run());
        run_s += t.elapsed().as_secs_f64();
        report.expect("simulation run");
        obs.merge(&delta);
        calls += 1;
    }
    drop(span);
    let calls = f64::from(calls);
    layers.set("sim.new_ms", new_s / calls * 1e3);
    layers.set("sim.run_ms", run_s / calls * 1e3);
    let (_, thermal_ns) = obs.leaf("engine.thermal");
    layers.set("sim.thermal_pct", 100.0 * thermal_ns as f64 * 1e-9 / run_s);
}

/// Records the coverage metrics, prints every span node and writes the
/// trace file: the benchmark's spans, its node rows and the program's.
///
/// `sim_cell` is, for a workload whose cells run outside the runner,
/// the share of a cell's wall time that the program's own spans cover;
/// where cells run as runner jobs, the `runner.job` node gives it.
pub fn finish(ctx: &Ctx, obs: &ObsDelta, sim_cell: Option<f64>, layers: &mut Layers) {
    let spans = ctx.tracer.records();
    let bench = tree(&spans);
    let program = obs.nodes();
    let coverage_of = |leaf: &str| {
        let (total, child) = program
            .iter()
            .filter(|r| r.has_children && r.path.rsplit('/').next() == Some(leaf))
            .fold((0, 0), |(t, c), r| (t + r.total_ns, c + r.child_ns));
        (total > 0).then(|| child as f64 / total as f64)
    };
    let run_ns = ctx.tracer.elapsed_ns();
    let roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let bench_cov = covered_ns(0, run_ns, &roots) as f64 / run_ns.max(1) as f64;
    layers.set("obs.coverage.bench", bench_cov);
    let job = coverage_of("runner.job");
    if let Some(c) = job.or(sim_cell) {
        layers.set("obs.coverage.cell", c);
    }
    if let Some(c) = coverage_of("engine.thermal") {
        layers.set("obs.coverage.engine_thermal", c);
    }

    println!(
        "{:<64} {:>9} {:>12} {:>12} {:>9}",
        "span node", "count", "total ms", "self ms", "coverage"
    );
    let mut low = Vec::new();
    let mut min_cov = f64::INFINITY;
    for (tree_name, rows) in [("bench", &bench), ("program", &program)] {
        for r in rows.iter() {
            let cov = r.coverage();
            if let Some(c) = cov {
                min_cov = min_cov.min(c);
                if c < 0.95 {
                    low.push(format!("{tree_name}:{}", r.path));
                }
            }
            println!(
                "{:<64} {:>9} {:>12.3} {:>12.3} {:>9}",
                format!("{tree_name}:{}", r.path),
                r.count,
                r.total_ns as f64 / 1e6,
                r.self_ns() as f64 / 1e6,
                cov.map_or("-".into(), |c| format!("{:.1}%", 100.0 * c))
            );
        }
    }
    let extra = [
        ("bench:(whole run)", Some(bench_cov)),
        (
            "program:(cell wall time)",
            if job.is_none() { sim_cell } else { None },
        ),
    ];
    for (name, cov) in extra {
        if let Some(c) = cov {
            println!(
                "{name:<64} {:>9} {:>12} {:>12} {:>8.1}%",
                "",
                "",
                "",
                100.0 * c
            );
            min_cov = min_cov.min(c);
            if c < 0.95 {
                low.push(name.to_string());
            }
        }
    }
    println!("span nodes below 95% coverage: {}", low.join(", "));
    if min_cov.is_finite() {
        layers.set("obs.min_coverage", min_cov);
    }
    layers.set("obs.nodes_below_95pct", low.len() as f64);

    let path =
        Path::new(".bench_out").join(format!("trace-{}-seed{}.json", ctx.workload, ctx.seed));
    if let Err(e) = write_trace(&path, &spans, &bench, &program) {
        eprintln!("perfbench: writing {} failed: {e}", path.display());
    }
}

fn write_trace(
    path: &Path,
    spans: &[crate::trace::SpanRecord],
    bench: &[NodeRow],
    program: &[NodeRow],
) -> std::io::Result<()> {
    let rows = |rows: &[NodeRow]| {
        JsonValue::Array(
            rows.iter()
                .map(|r| {
                    JsonValue::Object(vec![
                        ("path".into(), JsonValue::String(r.path.clone())),
                        ("count".into(), number(r.count as f64)),
                        ("total_ns".into(), number(r.total_ns as f64)),
                        ("self_ns".into(), number(r.self_ns() as f64)),
                        (
                            "coverage".into(),
                            r.coverage().map_or(JsonValue::Null, number),
                        ),
                    ])
                })
                .collect(),
        )
    };
    let spans = JsonValue::Array(
        spans
            .iter()
            .map(|s| {
                JsonValue::Object(vec![
                    ("id".into(), number(s.id as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(JsonValue::Null, |p| number(p as f64)),
                    ),
                    ("trace".into(), number(s.trace as f64)),
                    ("name".into(), JsonValue::String(s.name.into())),
                    ("start_ns".into(), number(s.start_ns as f64)),
                    ("end_ns".into(), number(s.end_ns as f64)),
                ])
            })
            .collect(),
    );
    let doc = JsonValue::Object(vec![
        ("spans".into(), spans),
        ("bench_nodes".into(), rows(bench)),
        ("program_nodes".into(), rows(program)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.encode())
}
