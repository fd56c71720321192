//! `fig6_sweep`: the 56 cells of the paper's Fig. 6 (the seven
//! policy/cooling pairs × the eight Table II workloads, 2-layer stack,
//! 1 mm grid) on a 2-worker `SweepRunner` over an on-disk cache.
//!
//! Set-up is the cold sweep: each of [`COLD_PASSES`] passes simulates
//! every cell into a fresh cache directory, and `setup_s` is their
//! median. The measured phase then repeats warm passes, each through a
//! fresh runner over the first pass's cache, as a warm `all_figures`
//! does.
//!
//! The warm passes run on [`WARM_WORKERS`] worker. `Executor`'s work
//! stealing holds a worker's own deque lock while it locks a
//! neighbour's, so two workers that drain their deques at the same
//! moment deadlock. Warm jobs are short enough that a few hundred
//! 2-worker passes hit it; the cold passes' jobs, 100 ms apart, do not
//! in practice.

use std::path::Path;
use std::time::Instant;

use vfc::prelude::*;
use vfc::runner::SweepStats;

use crate::layers::{self, Layers, ObsDelta};
use crate::report::{digest, report_bytes, Outcome};
use crate::stats::{median, Summary};
use crate::{expected, Ctx};

/// Simulated seconds per cell: the figure binaries' default length.
pub const DURATION_S: f64 = 30.0;
/// Cold passes made during set-up.
pub const COLD_PASSES: usize = 3;
/// Cold-pass workers, one per CPU of the 2-CPU reference host.
pub const WORKERS: usize = 2;
/// Warm-pass workers (see the module note on the executor deadlock).
pub const WARM_WORKERS: usize = 1;

/// The Fig. 6 cells, in figure order, for workload seed `seed`.
pub fn cells(seed: u64) -> Vec<SimConfig> {
    let mut cells = Vec::with_capacity(56);
    for (policy, cooling) in vfc::paper_policy_matrix() {
        for bench in Benchmark::table_ii() {
            cells.push(
                SimConfig::new(SystemKind::TwoLayer, cooling, policy, bench)
                    .with_duration(Seconds::new(DURATION_S))
                    .with_seed(seed),
            );
        }
    }
    cells
}

fn runner(dir: &Path, workers: usize) -> SweepRunner {
    SweepRunner::with_parts(Executor::with_threads(workers), ResultCache::on_disk(dir))
}

/// One pass: its wall time, reports (failed cells dropped) and counters.
struct Pass {
    seconds: f64,
    reports: Vec<SimReport>,
    failed: u64,
    stats: SweepStats,
}

fn cold_pass(ctx: &Ctx, cells: &[SimConfig], dir: &Path, name: &'static str, trace: u64) -> Pass {
    pass(ctx, cells, dir, WORKERS, name, trace)
}

fn warm_pass(ctx: &Ctx, cells: &[SimConfig], dir: &Path, trace: u64) -> Pass {
    pass(ctx, cells, dir, WARM_WORKERS, "warm_pass", trace)
}

fn pass(
    ctx: &Ctx,
    cells: &[SimConfig],
    dir: &Path,
    workers: usize,
    name: &'static str,
    trace: u64,
) -> Pass {
    let _span = ctx.tracer.span(name, None, trace);
    let t = Instant::now();
    let r = runner(dir, workers);
    let results = r.try_run(cells.to_vec());
    let seconds = t.elapsed().as_secs_f64();
    let failed = results.iter().filter(|r| r.is_err()).count() as u64;
    Pass {
        seconds,
        reports: results.into_iter().filter_map(Result::ok).collect(),
        failed,
        stats: r.stats(),
    }
}

/// Checks a pass's reports against the reference, byte for byte when
/// `bytes`, else by value.
fn check_pass(out: &mut Outcome, what: &str, p: &Pass, reference: &[SimReport], bytes: bool) {
    out.attempted += reference.len() as u64;
    out.failed += p.failed;
    let same = p.reports.len() == reference.len()
        && p.reports.iter().zip(reference).all(|(a, b)| {
            if bytes {
                report_bytes(a) == report_bytes(b)
            } else {
                a == b
            }
        });
    out.check(same, || {
        format!("{what}: reports differ from the first cold pass")
    });
}

pub fn run(ctx: &Ctx) -> Outcome {
    if ctx.trace {
        return traced(ctx);
    }
    let cells = cells(ctx.seed);
    let n = cells.len() as u64;
    let mut out = Outcome::default();

    let cache = ctx.fresh_dir("cold0");
    let first = cold_pass(ctx, &cells, &cache, "cold_pass", 0);
    out.attempted += n;
    out.failed += first.failed;
    out.check(first.failed == 0, || {
        format!("{} cells failed", first.failed)
    });
    out.check(first.stats.executed == n, || {
        format!("cold pass executed {} of {n} cells", first.stats.executed)
    });
    let reference = first.reports;
    let mut cold_s = vec![first.seconds];
    for i in 1..COLD_PASSES {
        let p = cold_pass(
            ctx,
            &cells,
            &ctx.fresh_dir(&format!("cold{i}")),
            "cold_pass",
            i as u64,
        );
        check_pass(&mut out, "repeated cold pass", &p, &reference, true);
        cold_s.push(p.seconds);
    }
    expected::check_digest(&mut out, ctx, "fig6_sweep", "reports", &digest(&reference));

    let mut warm_s = Vec::new();
    let mut measured = 0.0;
    while measured < ctx.seconds {
        let p = warm_pass(ctx, &cells, &cache, warm_s.len() as u64);
        // Byte comparison on the first pass, value comparison after it.
        check_pass(&mut out, "warm pass", &p, &reference, warm_s.is_empty());
        out.check(p.stats.cache_hits == n && p.stats.executed == 0, || {
            format!("warm pass missed the cache: {:?}", p.stats)
        });
        measured += p.seconds;
        warm_s.push(p.seconds);
    }

    let warm = Summary::of(&warm_s);
    println!(
        "fig6_sweep: cold pass median {:.3} s over {} passes ({:.1} cells/s); \
         warm {:.0} cells/s (mean), pass {}",
        median(&cold_s),
        cold_s.len(),
        n as f64 / median(&cold_s),
        n as f64 * warm_s.len() as f64 / measured,
        warm.describe_ms(),
    );
    out.end_to_end(median(&cold_s), warm.p50 * 1e3);
    out
}

/// The traced run: a cold pass untraced and one traced (the overhead
/// pair and the exact counts), warm passes traced, then the layer
/// probes on the 1 mm grid.
fn traced(ctx: &Ctx) -> Outcome {
    let cells = cells(ctx.seed);
    let n = cells.len() as u64;
    let mut out = Outcome::default();
    let mut layers = Layers::default();

    vfc::obs::set_level(vfc::obs::TelemetryLevel::Off);
    let off = cold_pass(ctx, &cells, &ctx.fresh_dir("off"), "cold_pass.untraced", 0);
    vfc::obs::set_level(vfc::obs::TelemetryLevel::Spans);
    let cache = ctx.fresh_dir("cold");
    let (on, obs) = ObsDelta::capture(|| cold_pass(ctx, &cells, &cache, "cold_pass.traced", 1));
    out.attempted += n;
    out.failed += off.failed;
    check_pass(&mut out, "traced cold pass", &on, &off.reports, true);
    layers.set(
        "obs.overhead_pct",
        100.0 * (on.seconds - off.seconds) / off.seconds,
    );

    let mut counts = obs.exact_counts();
    counts.push(("runner.executed", on.stats.executed));
    expected::check_counts(&mut out, ctx, "fig6_sweep", &counts);
    println!("fig6_sweep exact counts (one cold pass): {counts:?}");
    obs.record(&mut layers);
    layers.set("runner.executed", on.stats.executed as f64);
    layers.set("runner.dedup_joins", on.stats.dedup_joins as f64);
    layers.set("runner.job_retries", on.stats.job_retries as f64);
    layers.set(
        "runner.queue_wait_ms",
        obs.stat_mean_ns("runner.queue_wait") / 1e6,
    );

    let (mut jobs, mut hits) = (0, 0);
    let start = Instant::now();
    let mut passes = 0;
    while passes < 5 || start.elapsed().as_secs_f64() < layers::PROBE_SECONDS {
        let p = warm_pass(ctx, &cells, &cache, 2 + passes);
        check_pass(&mut out, "traced warm pass", &p, &off.reports, false);
        jobs += p.stats.jobs;
        hits += p.stats.cache_hits;
        passes += 1;
    }
    layers.set("runner.hit_rate", hits as f64 / jobs as f64);

    {
        let _span = ctx.tracer.span("probe.result_cache", None, 0);
        let keys: Vec<u64> = cells.iter().map(SimConfig::cache_key).collect();
        let per_pass = layers::time_per_call(|| {
            let fresh = ResultCache::on_disk(&cache);
            for &k in &keys {
                std::hint::black_box(fresh.get(k));
            }
        });
        layers.set("runner.cache_get_us", per_pass / keys.len() as f64 * 1e6);
        let store = ResultCache::on_disk(ctx.fresh_dir("insert"));
        let mut i = 0u64;
        let per_insert = layers::time_per_call(|| {
            let report = &off.reports[(i % n) as usize];
            store.insert(i % 512, report).expect("cache insert");
            i += 1;
        });
        layers.set("runner.cache_insert_us", per_insert * 1e6);
    }

    let probe_cell = cells
        .iter()
        .find(|c| c.policy == PolicyKind::Talb && c.cooling == CoolingKind::LiquidVariable)
        .expect("the matrix has TALB (Var)")
        .clone();
    layers::probe_thermal_stack(ctx, &probe_cell, &mut layers);
    layers::probe_simulation(ctx, &probe_cell, &mut layers);

    layers::finish(ctx, &obs, None, &mut layers);
    layers.emit(&mut out);
    out
}
