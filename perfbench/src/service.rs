//! `service_mix`: an in-process sweep `Server` with 2 executor threads,
//! its cache and journal in a fresh directory on disk, driven by a
//! closed loop of 2 `ServeClient`s (each sends its next request when the
//! previous one is `Done`). The clients meet at every cold cell and
//! submit it together, so no warm request runs beside an executor that
//! is simulating: on 2 CPUs that overlap made the warm requests' median
//! follow load from outside the process.
//!
//! Set-up starts the server and pre-fills its cache with the 56 Fig. 6
//! cells at a short length; `setup_s` is the median of [`SETUPS`] such
//! set-ups, each in a fresh directory. After each set-up the clients
//! spend an equal share of the measured time on that server, sending a seeded
//! mix: mostly warm 8-cell and 1-cell submits over the pre-filled cells,
//! and a few cold cells that both clients request at once, at the same
//! position of their sequences, so each executes once and the other
//! request joins it in flight or hits the cache.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use vfc::prelude::*;
use vfc::serve::protocol::{read_response, write_response};
use vfc::serve::{Journal, Response, ServeClient, ServeConfig, Server, WireSpec};

use crate::layers::{self, Layers, ObsDelta};
use crate::report::{digest, report_bytes, Outcome};
use crate::stats::{median, Summary};
use crate::{expected, Ctx};

/// Simulated seconds per cell, pre-filled and cold alike.
pub const CELL_DURATION_S: f64 = 2.0;
/// Server set-ups per run. Each takes about 0.3 s, so the median of
/// many keeps one slow set-up from moving `setup_s`.
pub const SETUPS: usize = 9;
/// Server executor threads and client connections.
pub const EXECUTORS: usize = 2;
pub const CLIENTS: usize = 2;
/// Share of request positions, per mille, that carry a cold cell.
pub const COLD_PER_MILLE: u64 = 30;
/// Share of warm requests, per mille, that submit a whole 8-cell row.
/// Most do, so the median request carries eight cells of serving work
/// (cache reads, frames) against one connection's fixed cost, whose
/// wake-ups and fsync vary most from run to run.
pub const ROW_PER_MILLE: u64 = 800;

/// The splitmix64 finalizer: a bijective 64-bit mix.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The workload seed of the pre-filled cells. Seeds travel as JSON
/// numbers, so they are kept below 2^40.
pub fn pool_seed(seed: u64) -> u64 {
    seed & ((1 << 40) - 1)
}

/// The workload seed of cold cell `j`: at least 2^48, so never a
/// pre-filled seed, and distinct for distinct `j` below 2^16.
pub fn cold_seed(seed: u64, j: u64) -> u64 {
    assert!(j < 1 << 16, "cold cell index {j} out of range");
    (1 << 48) + ((mix(seed) & 0xffff_ffff) << 16) + j
}

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// Row `r` of the policy matrix over all eight workloads.
    Row(usize),
    /// One pre-filled cell: matrix row, workload index.
    Cell(usize, usize),
    /// Cold cell `j`.
    Cold(u64),
}

/// A client's request sequence. Whether a position is cold depends on
/// the seed and the position only, so both clients meet cold cell `j`
/// at the same position of their sequences.
#[derive(Debug, Clone)]
pub struct Schedule {
    seed: u64,
    client: u64,
    pos: u64,
    cold: u64,
}

impl Schedule {
    pub fn new(seed: u64, client: u64) -> Self {
        Self {
            seed,
            client,
            pos: 0,
            cold: 0,
        }
    }
}

impl Iterator for Schedule {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        let h = mix(self.seed ^ mix(self.pos));
        self.pos += 1;
        if h % 1000 < COLD_PER_MILLE {
            self.cold += 1;
            return Some(Req::Cold(self.cold - 1));
        }
        let h = mix(h ^ mix(self.client + 1));
        let row = ((h >> 10) % 7) as usize;
        Some(if h % 1000 < ROW_PER_MILLE {
            Req::Row(row)
        } else {
            Req::Cell(row, ((h >> 20) % 8) as usize)
        })
    }
}

fn tokens(row: usize) -> (&'static str, &'static str) {
    let (policy, cooling) = vfc::paper_policy_matrix()[row];
    let p = match policy {
        PolicyKind::LoadBalancing => "lb",
        PolicyKind::ReactiveMigration => "mig",
        PolicyKind::Talb => "talb",
    };
    let c = match cooling {
        CoolingKind::Air => "air",
        CoolingKind::LiquidMax => "max",
        CoolingKind::LiquidVariable => "var",
        CoolingKind::LiquidFixed(_) => unreachable!("the matrix has no fixed-flow row"),
    };
    (p, c)
}

/// The wire spec of `req`.
pub fn spec(seed: u64, req: Req) -> WireSpec {
    let names: Vec<String> = Benchmark::table_ii()
        .into_iter()
        .map(|b| b.name.to_string())
        .collect();
    let (row, workloads, s) = match req {
        Req::Row(r) => (r, names, pool_seed(seed)),
        Req::Cell(r, w) => (r, vec![names[w].clone()], pool_seed(seed)),
        Req::Cold(j) => (
            6,
            vec![names[(mix(seed ^ j) % 8) as usize].clone()],
            cold_seed(seed, j),
        ),
    };
    let (p, c) = tokens(row);
    WireSpec {
        systems: vec!["2".into()],
        coolings: vec![c.into()],
        policies: vec![p.into()],
        workloads,
        seeds: vec![s],
        grid_mm: vec![1.0],
        duration_s: CELL_DURATION_S,
        dpm: false,
    }
}

/// Every pre-filled cell's spec, one per matrix row.
fn pool_specs(seed: u64) -> Vec<WireSpec> {
    (0..7).map(|r| spec(seed, Req::Row(r))).collect()
}

/// Served reports by cache key, and any key served twice differently.
#[derive(Debug, Default)]
struct Served {
    reports: BTreeMap<u64, SimReport>,
    mismatches: u64,
}

impl Served {
    fn add(&mut self, key: u64, report: &SimReport) {
        match self.reports.get(&key) {
            Some(seen) => self.mismatches += u64::from(seen != report),
            None => {
                self.reports.insert(key, report.clone());
            }
        }
    }

    fn merge(&mut self, other: Served) {
        self.mismatches += other.mismatches;
        for (k, r) in other.reports {
            self.add(k, &r);
        }
    }
}

/// One request: its latency, or why it failed.
fn request(client: &ServeClient, spec: &WireSpec, served: &mut Served) -> Result<f64, String> {
    let t = Instant::now();
    let outcome = client.run_sweep(spec).map_err(|e| e.to_string())?;
    let latency = t.elapsed().as_secs_f64();
    for cell in &outcome.cells {
        match &cell.result {
            Ok(report) => served.add(cell.key, report),
            Err(e) => return Err(format!("cell {:016x} failed: {e}", cell.key)),
        }
    }
    if outcome.reconnects > 0 {
        return Err(format!("needed {} reconnects", outcome.reconnects));
    }
    Ok(latency)
}

struct Setup {
    server: Server,
    dir: PathBuf,
    seconds: f64,
}

fn set_up(ctx: &Ctx, i: usize, served: &mut Served, out: &mut Outcome) -> Setup {
    let span = ctx.tracer.span("setup", None, i as u64);
    let dir = ctx.fresh_dir(&format!("serve{i}"));
    let t = Instant::now();
    let server = {
        let _s = ctx.tracer.span("server.start", Some(&span), i as u64);
        Server::start(ServeConfig {
            threads: EXECUTORS,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .expect("start the sweep server")
    };
    let client = ServeClient::new(server.addr().to_string());
    for spec in pool_specs(ctx.seed) {
        let _s = ctx.tracer.span("prefill", Some(&span), i as u64);
        out.attempted += 1;
        if let Err(e) = request(&client, &spec, served) {
            out.failed += 1;
            out.check(false, || format!("pre-fill request failed: {e}"));
        }
    }
    Setup {
        server,
        dir,
        seconds: t.elapsed().as_secs_f64(),
    }
}

/// What one stretch of the closed loop served and how long it took.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    latencies: Vec<f64>,
    cold_latencies: Vec<f64>,
    failures: Vec<String>,
    cold_cells: BTreeSet<u64>,
    served: Served,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.wall_s += other.wall_s;
        self.latencies.extend(other.latencies);
        self.cold_latencies.extend(other.cold_latencies);
        self.failures.extend(other.failures);
        self.cold_cells.extend(other.cold_cells);
        self.served.merge(other.served);
    }
}

/// The closed loop. Both clients wait for each other at every cold
/// position, then submit the cold cell together; once `seconds` have
/// passed, they stop together at the next one.
fn closed_loop(ctx: &Ctx, addr: &str, seconds: f64, schedules: &mut [Schedule]) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let meet = Barrier::new(schedules.len());
    let stop = AtomicBool::new(false);
    let results: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter_mut()
            .enumerate()
            .map(|(k, schedule)| {
                let (meet, stop) = (&meet, &stop);
                scope.spawn(move || {
                    let client = ServeClient::new(addr);
                    let mut part = Phase::default();
                    loop {
                        let req = schedule.next().expect("schedules never end");
                        if let Req::Cold(_) = req {
                            if meet.wait().is_leader() {
                                stop.store(Instant::now() >= deadline, Ordering::Relaxed);
                            }
                            // The second wait publishes the leader's decision.
                            meet.wait();
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                        let trace = ((k as u64) << 32) | schedule.pos;
                        let _span = ctx.tracer.span("request", None, trace);
                        match request(&client, &spec(ctx.seed, req), &mut part.served) {
                            Ok(l) => {
                                part.latencies.push(l);
                                if let Req::Cold(j) = req {
                                    part.cold_cells.insert(j);
                                    part.cold_latencies.push(l);
                                }
                            }
                            Err(e) => part.failures.push(e),
                        }
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        wall_s: start.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for part in results {
        phase.merge(part);
    }
    phase
}

/// Checks that a server executed its pre-fill plus each distinct cold
/// cell requested from it exactly once, however many requests named it.
fn check_executed(out: &mut Outcome, seed: u64, executed: u64, cold_cells: usize) {
    let pool: usize = pool_specs(seed).iter().map(WireSpec::cell_count).sum();
    let want = (pool + cold_cells) as u64;
    out.check(executed == want, || {
        format!("server executed {executed} cells; pre-fill plus distinct cold cells is {want}")
    });
}

/// Checks every served report against a local `SweepRunner` run of the
/// same cells.
fn verify(ctx: &Ctx, out: &mut Outcome, served: &Served, cold_cells: &BTreeSet<u64>) {
    let _span = ctx.tracer.span("verify", None, 0);
    let mut configs: Vec<SimConfig> = Vec::new();
    for s in pool_specs(ctx.seed) {
        configs.extend(s.expand().expect("pool spec expands"));
    }
    let pool = configs.len() as u64;
    for &j in cold_cells {
        configs.extend(
            spec(ctx.seed, Req::Cold(j))
                .expand()
                .expect("cold spec expands"),
        );
    }
    let keys: Vec<u64> = configs.iter().map(SimConfig::cache_key).collect();
    let local =
        SweepRunner::with_parts(Executor::with_threads(EXECUTORS), ResultCache::in_memory())
            .run(configs)
            .expect("local reference run");
    let reference: BTreeMap<u64, &SimReport> = keys.iter().copied().zip(&local).collect();
    out.check(served.mismatches == 0, || {
        format!(
            "{} cells were served with differing reports",
            served.mismatches
        )
    });
    let differing = served
        .reports
        .iter()
        .filter(|(k, r)| reference.get(k).map(|l| report_bytes(l)) != Some(report_bytes(r)))
        .count();
    out.check(differing == 0, || {
        format!("{differing} served reports differ from a local SweepRunner")
    });
    out.check(served.reports.len() == keys.len(), || {
        format!(
            "served {} distinct cells, requested {}",
            served.reports.len(),
            keys.len()
        )
    });
    expected::check_digest(
        out,
        ctx,
        "service_mix",
        "reports",
        &digest(&local[..pool as usize]),
    );
}

pub fn run(ctx: &Ctx) -> Outcome {
    if ctx.trace {
        return traced(ctx);
    }
    let mut out = Outcome::default();
    let mut served = Served::default();
    let mut schedules: Vec<Schedule> = (0..CLIENTS as u64)
        .map(|k| Schedule::new(ctx.seed, k))
        .collect();
    let (mut setup_s, mut phase_p50) = (Vec::new(), Vec::new());
    let mut dedup_joins = 0;
    let mut phase = Phase::default();
    for i in 0..SETUPS {
        let setup = set_up(ctx, i, &mut served, &mut out);
        setup_s.push(setup.seconds);
        let addr = setup.server.addr().to_string();
        let part = closed_loop(ctx, &addr, ctx.seconds / SETUPS as f64, &mut schedules);
        let stats = setup.server.stats();
        setup.server.shutdown();
        check_executed(&mut out, ctx.seed, stats.executed, part.cold_cells.len());
        dedup_joins += stats.dedup_joins;
        phase_p50.push(median(&part.latencies) * 1e3);
        phase.merge(part);
    }

    out.attempted += (phase.latencies.len() + phase.failures.len()) as u64;
    out.failed += phase.failures.len() as u64;
    for f in phase.failures.iter().take(5) {
        println!("request failed: {f}");
    }
    served.merge(phase.served);
    verify(ctx, &mut out, &served, &phase.cold_cells);

    let all = Summary::of(&phase.latencies);
    let cold = Summary::of(&phase.cold_latencies);
    println!(
        "service_mix: {:.1} req/s (mean over {:.2} s), request {}; \
         {} cold requests over {} cold cells (cold p50 {:.3} ms), {} dedup joins; \
         set-ups {:?} s; p50 per server {:?} ms",
        all.n as f64 / phase.wall_s,
        phase.wall_s,
        all.describe_ms(),
        cold.n,
        phase.cold_cells.len(),
        cold.p50 * 1e3,
        dedup_joins,
        setup_s,
        phase_p50
    );
    out.end_to_end(median(&setup_s), all.p50 * 1e3);
    out
}

/// The traced run: one traced set-up (the exact counts), half the
/// closed loop untraced and half traced (the overhead pair), then the
/// layer probes.
fn traced(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let mut served = Served::default();
    let (setup, prefill) = ObsDelta::capture(|| set_up(ctx, 0, &mut served, &mut out));
    let counts = prefill.exact_counts();
    expected::check_counts(&mut out, ctx, "service_mix", &counts);
    println!("service_mix exact counts (pre-fill): {counts:?}");
    prefill.record(&mut layers);

    let addr = setup.server.addr().to_string();
    let mut schedules: Vec<Schedule> = (0..CLIENTS as u64)
        .map(|k| Schedule::new(ctx.seed, k))
        .collect();
    vfc::obs::set_level(vfc::obs::TelemetryLevel::Off);
    let off = closed_loop(ctx, &addr, ctx.seconds / 2.0, &mut schedules);
    vfc::obs::set_level(vfc::obs::TelemetryLevel::Spans);
    let (on, phase_obs) =
        ObsDelta::capture(|| closed_loop(ctx, &addr, ctx.seconds / 2.0, &mut schedules));
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    layers.set(
        "obs.overhead_pct",
        100.0 * (mean(&on.latencies) - mean(&off.latencies)) / mean(&off.latencies),
    );

    let client = ServeClient::new(addr.clone());
    {
        let _span = ctx.tracer.span("probe.ping", None, 0);
        let ping = layers::time_per_call(|| {
            client.ping().expect("ping");
        });
        layers.set("serve.ping_ms", ping * 1e3);
    }
    let stats = setup.server.stats();
    setup.server.shutdown();

    let mut phase = off;
    phase.merge(on);
    out.attempted += (phase.latencies.len() + phase.failures.len()) as u64;
    out.failed += phase.failures.len() as u64;
    served.merge(phase.served);
    check_executed(&mut out, ctx.seed, stats.executed, phase.cold_cells.len());
    verify(ctx, &mut out, &served, &phase.cold_cells);

    let latencies = phase.latencies;
    layers.set("serve.requests", latencies.len() as f64);
    layers.set("serve.req_ms.p50", median(&latencies) * 1e3);
    if let Some(p99) = Summary::supported(&latencies, 0.99) {
        layers.set("serve.req_ms.p99", p99 * 1e3);
    }
    layers.set("serve.cache_hits", stats.cache_hits as f64);
    layers.set("serve.sheds", stats.sheds as f64);
    layers.set("serve.deadline_aborts", stats.deadline_aborts as f64);
    layers.set("runner.executed", stats.executed as f64);
    layers.set("runner.dedup_joins", stats.dedup_joins as f64);
    layers.set(
        "runner.hit_rate",
        stats.cache_hits as f64 / stats.jobs.max(1) as f64,
    );

    let report = served
        .reports
        .values()
        .next()
        .expect("a served report")
        .clone();
    probe_serving(ctx, &setup.dir, &served, &report, &mut layers);
    let cold_cfg = spec(ctx.seed, Req::Cold(0))
        .expand()
        .expect("cold spec expands")
        .remove(0);
    layers::probe_thermal_stack(ctx, &cold_cfg, &mut layers);
    layers::probe_simulation(ctx, &cold_cfg, &mut layers);

    let mut obs = prefill;
    obs.merge(&phase_obs);
    layers::finish(ctx, &obs, None, &mut layers);
    layers.emit(&mut out);
    out
}

/// The journal append, the frame codec and the disk cache, each timed
/// through its public functions.
fn probe_serving(
    ctx: &Ctx,
    cache_dir: &std::path::Path,
    served: &Served,
    report: &SimReport,
    layers: &mut Layers,
) {
    let span = ctx.tracer.span("probe.serving", None, 0);
    {
        let _s = ctx.tracer.span("journal.record_submit", Some(&span), 0);
        let (journal, _) = Journal::open(&ctx.fresh_dir("journal")).expect("open journal");
        let row = spec(ctx.seed, Req::Row(6));
        let per = layers::time_per_call(|| {
            journal.record_submit(&row).expect("journal append");
        });
        layers.set("serve.journal_submit_us", per * 1e6);
    }
    {
        let _s = ctx.tracer.span("protocol.frames", Some(&span), 0);
        let frame = Response::Cell {
            index: 0,
            key: 1,
            cached: true,
            report: report.clone(),
        };
        let mut buf = Vec::new();
        let encode = layers::time_per_call(|| {
            buf.clear();
            write_response(&mut buf, &frame).expect("encode frame");
        });
        let decode = layers::time_per_call(|| {
            let decoded = read_response(&mut buf.as_slice()).expect("decode frame");
            std::hint::black_box(decoded);
        });
        layers.set("serve.frame_encode_us", encode * 1e6);
        layers.set("serve.frame_decode_us", decode * 1e6);
    }
    {
        let _s = ctx.tracer.span("result_cache", Some(&span), 0);
        let keys: Vec<u64> = served.reports.keys().copied().collect();
        let per_pass = layers::time_per_call(|| {
            let fresh = ResultCache::on_disk(cache_dir);
            for &k in &keys {
                std::hint::black_box(fresh.get(k));
            }
        });
        layers.set("runner.cache_get_us", per_pass / keys.len() as f64 * 1e6);
        let store = ResultCache::on_disk(ctx.fresh_dir("insert"));
        let mut i = 0u64;
        let per_insert = layers::time_per_call(|| {
            store.insert(i % 512, report).expect("cache insert");
            i += 1;
        });
        layers.set("runner.cache_insert_us", per_insert * 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_cells_are_unique_and_never_prefilled() {
        for seed in [0, 1, 42, 7_777, u64::MAX] {
            let mut pool = BTreeSet::new();
            for s in pool_specs(seed) {
                for cfg in s.expand().unwrap() {
                    assert!(pool.insert(cfg.cache_key()));
                }
            }
            assert_eq!(pool.len(), 56);
            let mut cold = BTreeSet::new();
            for j in 0..2000 {
                let cfgs = spec(seed, Req::Cold(j)).expand().unwrap();
                assert_eq!(cfgs.len(), 1);
                let key = cfgs[0].cache_key();
                assert!(
                    !pool.contains(&key),
                    "seed {seed}: cold cell {j} is pre-filled"
                );
                assert!(cold.insert(key), "seed {seed}: cold cell {j} repeats");
            }
        }
    }

    #[test]
    fn seeds_survive_the_wire() {
        // Seeds travel as JSON numbers (f64): they must stay exact.
        for seed in [0, 42, u64::MAX] {
            assert!(pool_seed(seed) < 1 << 53);
            assert!(cold_seed(seed, (1 << 16) - 1) < 1 << 53);
        }
    }

    #[test]
    fn both_clients_meet_each_cold_cell_at_the_same_position() {
        let a: Vec<Req> = Schedule::new(5, 0).take(5000).collect();
        let b: Vec<Req> = Schedule::new(5, 1).take(5000).collect();
        let cold_positions = |v: &[Req]| -> Vec<(usize, u64)> {
            v.iter()
                .enumerate()
                .filter_map(|(i, r)| match r {
                    Req::Cold(j) => Some((i, *j)),
                    _ => None,
                })
                .collect()
        };
        let (ca, cb) = (cold_positions(&a), cold_positions(&b));
        assert_eq!(ca, cb);
        // A few percent of positions are cold, numbered in order.
        assert!((100..=200).contains(&ca.len()), "{} cold of 5000", ca.len());
        assert!(ca.iter().enumerate().all(|(n, &(_, j))| j == n as u64));
        // The warm requests differ between clients.
        assert_ne!(a, b);
    }
}
