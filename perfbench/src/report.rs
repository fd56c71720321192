//! What one run reports: the result line, report digests and the
//! host facts read at run time.

use vfc::runner::json::{number, JsonValue};
use vfc::serve::protocol::write_response;
use vfc::serve::Response;
use vfc::sim::SimReport;

/// Operations attempted and failed, the correctness verdict and the
/// metrics of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every failed output check, in the order found.
    pub check_failures: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// The end-to-end metrics every workload reports, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
];

impl Outcome {
    /// Records the end-to-end metrics: the median set-up, the measured
    /// phase's median latency and the peak RSS.
    pub fn end_to_end(&mut self, setup_s: f64, latency_ms: f64) {
        let values = [setup_s, latency_ms, peak_rss_mb()];
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            self.metric(name, value, unit);
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The single-line JSON result. The counts are written as integers;
    /// the JSON codec would write every number as a float.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    JsonValue::Object(vec![
                        ("value".into(), number(*value)),
                        ("unit".into(), JsonValue::String((*unit).into())),
                    ]),
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            JsonValue::Object(metrics).encode()
        )
    }
}

/// The wire bytes of `report` as the service streams it (a `Cell`
/// frame), so "identical" means identical on the wire.
pub fn report_bytes(report: &SimReport) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_response(
        &mut bytes,
        &Response::Cell {
            index: 0,
            key: 0,
            cached: false,
            report: report.clone(),
        },
    )
    .expect("encoding into memory cannot fail");
    bytes
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One digest over a sequence of reports, in the given order.
pub fn digest<'a>(reports: impl IntoIterator<Item = &'a SimReport>) -> String {
    let hash = reports
        .into_iter()
        .fold(FNV_OFFSET, |h, r| fnv1a(h, &report_bytes(r)));
    format!("{hash:016x}")
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// `(L2 bytes, last-level cache bytes)` of CPU 0, from sysfs; 0 when
/// the host does not expose them.
pub fn cache_sizes() -> (f64, f64) {
    let mut l2 = 0.0;
    let mut llc = (0, 0.0);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size), Some(kind)) = (read("level"), read("size"), read("type"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = parse_size(size.trim());
        if level == 2 {
            l2 = size;
        }
        if level >= llc.0 {
            llc = (level, size);
        }
    }
    (l2, llc.1)
}

/// Parses sysfs cache sizes such as `4096K` or `32M` into bytes.
pub fn parse_size(s: &str) -> f64 {
    let (digits, scale) = match s.chars().last() {
        Some('K') => (&s[..s.len() - 1], 1024.0),
        Some('M') => (&s[..s.len() - 1], 1024.0 * 1024.0),
        Some('G') => (&s[..s.len() - 1], 1024.0 * 1024.0 * 1024.0),
        _ => (s, 1.0),
    };
    digits.parse::<f64>().map_or(0.0, |v| v * scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("4096K"), 4096.0 * 1024.0);
        assert_eq!(parse_size("32M"), 32.0 * 1024.0 * 1024.0);
        assert_eq!(parse_size("512"), 512.0);
        assert_eq!(parse_size("junk"), 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("setup_s", 1.25, "s");
        let line = o.result_line();
        assert!(line.starts_with(r#"{"correct":true,"attempted":3,"failed":0,"#));
        let v = JsonValue::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(3));
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some("s"));
        o.check(false, || "mismatch".into());
        assert!(!o.correct());
    }
}
