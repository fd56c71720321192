//! The benchmark's own span recorder and the span-tree arithmetic.
//!
//! Spans are opened around each public call the benchmark makes into
//! the workspace crates. Each records its name, start, end, parent span
//! and a trace id that ties together the spans of one request or cell.
//! They stay in memory and are written out when the run ends. With
//! tracing off, opening a span reads no clock and records nothing.
//!
//! Self time is a span's duration minus the part of it its children
//! cover (overlapping children count once); coverage is the covered
//! part over the duration. Both are aggregated per node, where a node
//! is the path of span names from the root.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// An open span; records itself when dropped.
#[must_use = "a span records when dropped"]
#[derive(Debug)]
pub struct Span<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    trace: u64,
    name: &'static str,
    start_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent` (a root when `None`) in trace `trace`.
    pub fn span(&self, name: &'static str, parent: Option<&Span<'_>>, trace: u64) -> Span<'_> {
        let (id, start_ns) = if self.enabled {
            (
                self.next_id.fetch_add(1, Ordering::Relaxed),
                self.elapsed_ns(),
            )
        } else {
            (0, 0)
        };
        Span {
            tracer: self,
            id,
            parent: parent.map(|p| p.id),
            trace,
            name,
            start_ns,
        }
    }

    /// Every span recorded so far, in the order they ended.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            trace: self.trace,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.elapsed_ns(),
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(record);
        }
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
pub fn covered_ns(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// One node of the aggregated span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRow {
    /// Span names from the root, joined by `/`.
    pub path: String,
    pub count: u64,
    pub total_ns: u64,
    /// Duration covered by child spans.
    pub child_ns: u64,
    /// Whether any span of this node had children.
    pub has_children: bool,
}

impl NodeRow {
    pub fn self_ns(&self) -> u64 {
        self.total_ns - self.child_ns
    }

    /// Children ÷ parent; `None` for a leaf, whose coverage is undefined.
    pub fn coverage(&self) -> Option<f64> {
        (self.has_children && self.total_ns > 0)
            .then(|| self.child_ns as f64 / self.total_ns as f64)
    }
}

/// Aggregates recorded spans into per-path nodes, sorted by path.
pub fn tree(spans: &[SpanRecord]) -> Vec<NodeRow> {
    let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut nodes: BTreeMap<String, NodeRow> = BTreeMap::new();
    for s in spans {
        let mut names = vec![s.name];
        let mut at = s;
        while let Some(&p) = at.parent.and_then(|p| by_id.get(&p)) {
            names.push(p.name);
            at = p;
        }
        names.reverse();
        let path = names.join("/");
        let kids = children.get(&s.id);
        let child_ns = kids.map_or(0, |k| covered_ns(s.start_ns, s.end_ns, k));
        let node = nodes.entry(path.clone()).or_insert(NodeRow {
            path,
            count: 0,
            total_ns: 0,
            child_ns: 0,
            has_children: false,
        });
        node.count += 1;
        node.total_ns += s.duration_ns();
        node.child_ns += child_ns;
        node.has_children |= kids.is_some();
    }
    nodes.into_values().collect()
}

/// Builds nodes from path-aggregated totals (`a/b/c` → total), where the
/// children's share is the sum of their totals: the form `vfc_obs` span
/// statistics take. Children of one parent run one after another on the
/// same thread, so summing them cannot double count.
pub fn tree_from_totals(totals: &[(String, u64, u64)]) -> Vec<NodeRow> {
    let mut nodes: BTreeMap<String, NodeRow> = totals
        .iter()
        .map(|(path, count, total_ns)| {
            (
                path.clone(),
                NodeRow {
                    path: path.clone(),
                    count: *count,
                    total_ns: *total_ns,
                    child_ns: 0,
                    has_children: false,
                },
            )
        })
        .collect();
    for (path, _, total_ns) in totals {
        if let Some((parent, _)) = path.rsplit_once('/') {
            if let Some(p) = nodes.get_mut(parent) {
                p.child_ns += total_ns;
                p.has_children = true;
            }
        }
    }
    for node in nodes.values_mut() {
        node.child_ns = node.child_ns.min(node.total_ns);
    }
    nodes.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            trace: 1,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn union_counts_overlap_once_and_clips() {
        assert_eq!(covered_ns(0, 100, &[]), 0);
        assert_eq!(covered_ns(0, 100, &[(10, 20), (15, 30)]), 20);
        assert_eq!(covered_ns(0, 100, &[(10, 20), (40, 50)]), 20);
        assert_eq!(covered_ns(10, 20, &[(0, 15), (18, 40)]), 7);
        assert_eq!(covered_ns(0, 100, &[(20, 30), (0, 100)]), 100);
    }

    #[test]
    fn self_time_and_coverage_per_node() {
        // root [0,100): children a [0,40) and a [30,70) overlap; b [80,90).
        // a[0,40) has one child c [0,40) (full coverage).
        let spans = vec![
            rec(1, None, "root", 0, 100),
            rec(2, Some(1), "a", 0, 40),
            rec(3, Some(1), "a", 30, 70),
            rec(4, Some(1), "b", 80, 90),
            rec(5, Some(2), "c", 0, 40),
        ];
        let rows = tree(&spans);
        let get = |p: &str| rows.iter().find(|r| r.path == p).unwrap().clone();
        let root = get("root");
        assert_eq!(root.total_ns, 100);
        assert_eq!(root.child_ns, 80);
        assert_eq!(root.self_ns(), 20);
        assert_eq!(root.coverage(), Some(0.8));
        let a = get("root/a");
        assert_eq!((a.count, a.total_ns, a.child_ns), (2, 80, 40));
        assert_eq!(a.coverage(), Some(0.5));
        assert_eq!(get("root/b").coverage(), None);
        assert_eq!(get("root/a/c").self_ns(), 40);
    }

    #[test]
    fn totals_tree_sums_direct_children_only() {
        let rows = tree_from_totals(&[
            ("job".into(), 2, 1000),
            ("job/thermal".into(), 100, 700),
            ("job/thermal/step".into(), 100, 690),
            ("job/workload".into(), 2000, 200),
        ]);
        let job = rows.iter().find(|r| r.path == "job").unwrap();
        assert_eq!(job.child_ns, 900);
        assert_eq!(job.coverage(), Some(0.9));
        let thermal = rows.iter().find(|r| r.path == "job/thermal").unwrap();
        assert!((thermal.coverage().unwrap() - 690.0 / 700.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let root = t.span("root", None, 0);
            let _child = t.span("child", Some(&root), 0);
        }
        assert!(t.records().is_empty());
        let t = Tracer::new(true);
        {
            let root = t.span("root", None, 7);
            let _child = t.span("child", Some(&root), 7);
        }
        let r = t.records();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].name, "child");
        assert_eq!(r[0].parent, Some(r[1].id));
        assert!(r.iter().all(|s| s.trace == 7 && s.end_ns >= s.start_ns));
    }
}
