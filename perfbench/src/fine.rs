//! `fine_100um`: one 2-layer TALB (Var) Web-med cell at the paper's
//! 0.1 mm grid (about 60k thermal nodes), `Simulation::new` then
//! `Simulation::run` on the default kernel pool. No runner, cache or
//! service is involved.
//!
//! A run makes [`RUNS`] set-up/run pairs; `setup_s` is the median
//! `Simulation::new`, and the run length follows `--seconds` only, never
//! the measured speed, so the work is the same on every host.

use std::time::Instant;

use vfc::prelude::*;
use vfc::sim::SimError;

use crate::layers::{self, Layers, ObsDelta};
use crate::report::{digest, report_bytes, Outcome};
use crate::stats::median;
use crate::{expected, Ctx};

/// Set-up/run pairs per run.
pub const RUNS: usize = 3;
/// Thermal grid cell, mm (the paper's resolution).
pub const CELL_MM: f64 = 0.1;

/// 100 ms samples per `Simulation::run`: one per two seconds of
/// `--seconds`, at least one.
pub fn samples_per_run(seconds: f64) -> usize {
    ((seconds / 2.0).round() as usize).max(1)
}

pub fn config(seed: u64, samples: usize) -> SimConfig {
    SimConfig::new(
        SystemKind::TwoLayer,
        CoolingKind::LiquidVariable,
        PolicyKind::Talb,
        Benchmark::by_name("Web-med").expect("Web-med is a Table II workload"),
    )
    .with_grid_cell(Length::from_millimeters(CELL_MM))
    .with_duration(Seconds::new(samples as f64 * 0.1))
    .with_seed(seed)
}

/// One set-up/run pair: `(new seconds, run seconds, report)`.
fn pair(ctx: &Ctx, cfg: &SimConfig, trace: u64) -> Result<(f64, f64, SimReport), SimError> {
    let span = ctx.tracer.span("cell", None, trace);
    let t = Instant::now();
    let sim = {
        let _s = ctx.tracer.span("sim.new", Some(&span), trace);
        Simulation::new(cfg.clone())?
    };
    let new_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = {
        let _s = ctx.tracer.span("sim.run", Some(&span), trace);
        sim.run()?
    };
    Ok((new_s, t.elapsed().as_secs_f64(), report))
}

pub fn run(ctx: &Ctx) -> Outcome {
    if ctx.trace {
        return traced(ctx);
    }
    let samples = samples_per_run(ctx.seconds);
    let cfg = config(ctx.seed, samples);
    let mut out = Outcome::default();
    let (mut new_s, mut run_s, mut reports) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..RUNS {
        out.attempted += 1;
        match pair(ctx, &cfg, i as u64) {
            Ok((n, r, report)) => {
                new_s.push(n);
                run_s.push(r);
                reports.push(report);
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("cell failed: {e}"));
            }
        }
    }
    if reports.is_empty() {
        return out;
    }
    let first = report_bytes(&reports[0]);
    out.check(reports.iter().all(|r| report_bytes(r) == first), || {
        "repeated runs of one cell differ".into()
    });
    out.check(reports[0].samples == samples, || {
        format!("{} samples, expected {samples}", reports[0].samples)
    });
    expected::check_digest(
        &mut out,
        ctx,
        "fine_100um",
        "reports",
        &digest(&reports[..1]),
    );

    let total_run: f64 = run_s.iter().sum();
    let per_sample: Vec<f64> = run_s.iter().map(|r| r / samples as f64).collect();
    println!(
        "fine_100um: Simulation::new median {:.3} s of {:?}; run {} samples each, \
         {:.1} ms/sample median, sim_speed {:.4} sim-s/host-s",
        median(&new_s),
        new_s,
        samples,
        median(&per_sample) * 1e3,
        (reports.len() * samples) as f64 * 0.1 / total_run
    );
    out.end_to_end(median(&new_s), median(&per_sample) * 1e3);
    out
}

/// The traced run: one pair untraced, one traced (the overhead pair
/// and the exact counts), then the layer probes on the 0.1 mm grid.
fn traced(ctx: &Ctx) -> Outcome {
    let samples = samples_per_run(ctx.seconds);
    let cfg = config(ctx.seed, samples);
    let mut out = Outcome::default();
    let mut layers = Layers::default();

    vfc::obs::set_level(vfc::obs::TelemetryLevel::Off);
    out.attempted += 2;
    let off = pair(ctx, &cfg, 0);
    vfc::obs::set_level(vfc::obs::TelemetryLevel::Spans);
    let (on, obs) = ObsDelta::capture(|| pair(ctx, &cfg, 1));
    let (Ok(off), Ok(on)) = (off, on) else {
        out.failed += 1;
        out.check(false, || "cell failed".into());
        layers.emit(&mut out);
        return out;
    };
    out.check(report_bytes(&off.2) == report_bytes(&on.2), || {
        "traced and untraced runs differ".into()
    });
    layers.set(
        "obs.overhead_pct",
        100.0 * ((on.0 + on.1) - (off.0 + off.1)) / (off.0 + off.1),
    );
    let counts = obs.exact_counts();
    expected::check_counts(&mut out, ctx, "fine_100um", &counts);
    println!("fine_100um exact counts (one set-up and run): {counts:?}");
    obs.record(&mut layers);
    layers.set("sim.new_ms", on.0 * 1e3);
    layers.set("sim.run_ms", on.1 * 1e3);
    let (_, thermal_ns) = obs.leaf("engine.thermal");
    layers.set("sim.thermal_pct", 100.0 * thermal_ns as f64 * 1e-9 / on.1);

    layers::probe_thermal_stack(ctx, &cfg, &mut layers);

    // Engine phases and set-up solves as a share of the cell's wall
    // time: the spans the program itself opens on this thread.
    let covered: u64 = obs
        .nodes()
        .iter()
        .filter(|r| !r.path.contains('/'))
        .map(|r| r.total_ns)
        .sum();
    let cell = covered as f64 * 1e-9 / (on.0 + on.1);
    layers::finish(ctx, &obs, Some(cell), &mut layers);
    layers.emit(&mut out);
    out
}
