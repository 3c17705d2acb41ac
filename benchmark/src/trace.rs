//! Benchmark-side spans around the calls into each layer.
//!
//! The traced run wraps every call into a layer's public functions in
//! [`Tracer::span`]. Spans are kept in memory and written out when the
//! run ends. All spans are opened on the benchmark's main thread, so a
//! stack gives each span its parent, and siblings never overlap: a span's
//! self time is its duration minus the durations of its direct children.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use locec_obs::json::Value;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl SpanRec {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    on: Cell<bool>,
    run_id: u64,
    origin: Instant,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_on`].
    pub fn new(run_id: u64) -> Self {
        Tracer {
            on: Cell::new(false),
            run_id,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Runs `f`, recording it as a span named `name` when tracing is on.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on.get() {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(SpanRec {
                name,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Total seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::seconds)
            .sum()
    }

    /// How many spans named `name` were recorded.
    pub fn count(&self, name: &str) -> usize {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .count()
    }

    /// Mean seconds of the spans named `name` (0 when there are none).
    pub fn mean(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total(name) / n as f64,
        }
    }

    pub fn snapshot(&self) -> Vec<SpanRec> {
        self.spans.borrow().clone()
    }

    /// `{run_id, workload, spans: [{id, name, start_ns, end_ns, parent}]}`.
    pub fn to_value(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .borrow()
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::Object(vec![
                    ("id".to_owned(), Value::Uint(id as u64)),
                    ("name".to_owned(), Value::Str(s.name.to_owned())),
                    ("start_ns".to_owned(), Value::Uint(s.start_ns)),
                    ("end_ns".to_owned(), Value::Uint(s.end_ns)),
                    (
                        "parent".to_owned(),
                        s.parent.map_or(Value::Null, |p| Value::Uint(p as u64)),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("run_id".to_owned(), Value::Uint(self.run_id)),
            ("workload".to_owned(), Value::Str(workload.to_owned())),
            ("spans".to_owned(), Value::Array(spans)),
        ])
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Indexed like `spans`.
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Self seconds summed per span name over the descendants of every span
/// named `root` (the roots' own self time is keyed by `root` itself), so
/// the values add up to the roots' total duration.
pub fn self_seconds_under(spans: &[SpanRec], root: &str) -> BTreeMap<&'static str, f64> {
    let own = self_times_ns(spans);
    let mut under = vec![false; spans.len()];
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        // Parents are pushed before their children, so `under[p]` is final.
        under[i] = s.name == root || s.parent.is_some_and(|p| under[p]);
        if under[i] {
            *out.entry(s.name).or_insert(0.0) += own[i] as f64 / 1e9;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100] > a [10,40] > a1 [15,25]; root > b [50,90]
        let spans = vec![
            rec("root", 0, 100, None),
            rec("a", 10, 40, Some(0)),
            rec("a1", 15, 25, Some(1)),
            rec("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root's duration");
    }

    #[test]
    fn self_seconds_under_sums_by_name_and_ignores_other_roots() {
        let spans = vec![
            rec("pipeline", 0, 1_000, None),
            rec("x", 100, 400, Some(0)),
            rec("other", 2_000, 3_000, None),
            rec("x", 2_100, 2_200, Some(2)),
            rec("pipeline", 4_000, 5_000, None),
            rec("x", 4_500, 5_000, Some(4)),
        ];
        let by_name = self_seconds_under(&spans, "pipeline");
        assert_eq!(by_name.len(), 2);
        assert!((by_name["x"] - 800e-9).abs() < 1e-15);
        assert!((by_name["pipeline"] - 1_200e-9).abs() < 1e-15);
        let sum: f64 = by_name.values().sum();
        assert!((sum - 2_000e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_spans_and_is_silent_when_off() {
        let t = Tracer::new(9);
        assert_eq!(t.span("ignored", || 1), 1);
        assert!(t.snapshot().is_empty());
        t.set_on(true);
        let v = t.span("outer", || t.span("inner", || 5) + t.span("inner", || 6));
        assert_eq!(v, 11);
        let spans = t.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(t.count("inner"), 2);
        let json = t.to_value("w");
        assert_eq!(json.get("run_id").and_then(Value::as_u64), Some(9));
        assert_eq!(
            json.get("spans").and_then(Value::as_array).map(<[_]>::len),
            Some(3)
        );
    }
}
