//! The benchmark's own tracer: spans recorded in memory around calls into
//! each layer's public functions, written out when the run ends. No
//! product crate gains a span, counter or knob for this.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Op id of spans recorded during set-up.
pub const SETUP_OP: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer call the span wraps (`jit.translate`, `core.wire.decode`…).
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The op that caused it ([`SETUP_OP`] during set-up).
    pub op: u32,
}

/// Handle returned by [`Recorder::begin`]; pass it to [`Recorder::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<u32>);

/// In-memory span recorder. Disabled (the untraced pass) it records
/// nothing and costs one branch per call.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Recorder {
    /// Creates a recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: SETUP_OP,
        }
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in whichever span is currently open.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Recorder::begin`].
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order (a bug in the benchmark).
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end_ns = self.now_ns();
            assert_eq!(
                self.stack.pop(),
                Some(idx),
                "spans must close innermost first"
            );
            self.spans[idx as usize].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Every recorded span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in ns: its duration minus the part its
    /// direct children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let p = p as usize;
                out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        out
    }

    /// Self time of the spans named `name`, summed per op, in ms — one
    /// value per op that opened at least one such span, in op order.
    pub fn self_ms_per_op(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u32, u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            if s.name == name && s.op != SETUP_OP {
                *by_op.entry(s.op).or_default() += ns;
            }
        }
        by_op.into_values().map(|ns| ns as f64 / 1e6).collect()
    }

    /// Self time in ms of each span named `name` recorded during set-up.
    pub fn setup_self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name && s.op == SETUP_OP)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// The spans as one JSON array (id, name, start, end, parent, op).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == SETUP_OP {
                "\"setup\"".to_string()
            } else {
                s.op.to_string()
            };
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_sums_per_op() {
        let mut rec = Recorder::new(true);
        for op in 0..2 {
            rec.set_op(op);
            let outer = rec.begin("outer");
            rec.time("inner", || std::thread::sleep(Duration::from_millis(2)));
            rec.time("inner", || std::thread::sleep(Duration::from_millis(2)));
            rec.end(outer);
        }
        let inner = rec.self_ms_per_op("inner");
        let outer = rec.self_ms_per_op("outer");
        assert_eq!((inner.len(), outer.len()), (2, 2));
        assert!(inner.iter().all(|&ms| ms >= 4.0));
        // The outer spans did nothing themselves.
        assert!(outer.iter().all(|&ms| ms < 2.0), "{outer:?}");
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert!(telemetry::json::parse(&rec.to_json()).is_ok());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.time("x", || 7), 7);
        assert!(rec.spans().is_empty());
    }
}
