//! End-to-end and per-layer benchmark of the vfc workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig6_sweep|fine_100um|service_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the workload with telemetry off and
//! prints the end-to-end metrics; with `--trace 1` it turns on the
//! `vfc_obs` counters and spans plus the benchmark's own spans, and
//! prints the per-layer metrics. Either way it checks the simulated
//! results and prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `BENCHMARK.json` at the
//! repository root records why each workload and metric was chosen.

mod expected;
mod fig6;
mod fine;
mod layers;
mod report;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;
use trace::Tracer;

/// The seed whose report digests and work counts are recorded in
/// `expected.json`.
pub const DEFAULT_SEED: u64 = 42;

/// Everything a workload needs from the command line.
#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tracer: Tracer,
    /// Scratch directory for caches, journals and the trace file; it is
    /// removed when the run ends (the trace file is kept).
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Whether this run's seed and length are the ones `expected.json`
    /// was recorded at.
    pub fn is_default(&self) -> bool {
        self.seed == DEFAULT_SEED && self.seconds == expected::DEFAULT_SECONDS
    }

    /// A fresh, empty directory under the run's scratch directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.out_dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = expected::DEFAULT_SECONDS;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Ctx) -> Outcome = match args.workload.as_str() {
        "fig6_sweep" => fig6::run,
        "fine_100um" => fine::run,
        "service_mix" => service::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    // Telemetry is read once at first use; pin it before any work so an
    // inherited VFC_TELEMETRY cannot turn tracing on in a timed run.
    vfc::obs::set_level(if args.trace {
        vfc::obs::TelemetryLevel::Spans
    } else {
        vfc::obs::TelemetryLevel::Off
    });
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tracer: Tracer::new(args.trace),
        out_dir: PathBuf::from(".bench_out").join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        )),
    };
    let _ = std::fs::remove_dir_all(&ctx.out_dir);
    let outcome = run(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.out_dir);
    for failure in &outcome.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    println!(
        "{}: {} attempted, {} failed ({:.3}% failed), checks {}",
        args.workload,
        outcome.attempted,
        outcome.failed,
        100.0 * outcome.failed as f64 / outcome.attempted.max(1) as f64,
        if outcome.correct() {
            "passed"
        } else {
            "FAILED"
        }
    );
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use vfc::runner::json::JsonValue;

    /// `(name, unit)` of every entry in one list of `BENCHMARK.json`.
    fn listed(key: &str) -> Vec<(String, String)> {
        let doc = JsonValue::parse(include_str!("../../BENCHMARK.json")).unwrap();
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        assert_eq!(listed("end_to_end"), owned(crate::report::END_TO_END));
        assert_eq!(listed("per_layer"), owned(crate::layers::PER_LAYER));
        let doc = JsonValue::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(JsonValue::as_f64),
            Some(crate::expected::DEFAULT_SECONDS)
        );
    }
}
