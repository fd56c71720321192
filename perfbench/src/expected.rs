//! Report digests and exact work counts recorded for the default seed
//! and run length, in `expected.json`. A run at those settings must
//! reproduce them; a change that only makes the program faster leaves
//! every one of them unchanged.

use vfc::runner::json::JsonValue;

use crate::report::Outcome;
use crate::Ctx;

/// The run length `expected.json` was recorded at (the
/// `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;

fn recorded(workload: &str, section: &str, key: &str) -> Option<JsonValue> {
    let doc = JsonValue::parse(include_str!("../expected.json")).expect("expected.json parses");
    doc.get(workload)?.get(section)?.get(key).cloned()
}

/// Checks a report digest against the recorded one (default seed and
/// length only).
pub fn check_digest(out: &mut Outcome, ctx: &Ctx, workload: &str, key: &str, observed: &str) {
    if !ctx.is_default() {
        return;
    }
    let want = recorded(workload, "digests", key);
    let ok = want.as_ref().and_then(JsonValue::as_str) == Some(observed);
    out.check(ok, || {
        format!("{workload} digest {key}: observed {observed}, recorded {want:?}")
    });
}

/// Checks exact work counts against the recorded ones (default seed and
/// length only).
pub fn check_counts(out: &mut Outcome, ctx: &Ctx, workload: &str, counts: &[(&str, u64)]) {
    if !ctx.is_default() {
        return;
    }
    for &(name, observed) in counts {
        let want = recorded(workload, "counts", name);
        let ok = want.as_ref().and_then(JsonValue::as_u64) == Some(observed);
        out.check(ok, || {
            format!("{workload} count {name}: observed {observed}, recorded {want:?}")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_at_the_default_seed_and_length() {
        let doc = JsonValue::parse(include_str!("../expected.json")).unwrap();
        assert_eq!(
            doc.get("seed").and_then(JsonValue::as_u64),
            Some(crate::DEFAULT_SEED)
        );
        assert_eq!(
            doc.get("seconds").and_then(JsonValue::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn recorded_file_covers_every_workload() {
        for w in ["fig6_sweep", "fine_100um", "service_mix"] {
            assert!(
                recorded(w, "digests", "reports").is_some(),
                "{w} has no digest"
            );
        }
    }
}
