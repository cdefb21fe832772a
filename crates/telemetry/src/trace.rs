//! Drained traces and post-hoc span-tree assembly.
//!
//! The recorder ([`mod@crate::span`]) writes flat begin/end/instant events to
//! per-thread buffers; nothing maintains parent pointers at runtime. This
//! module reassembles those flat streams into proper span trees — each
//! track independently, by running a stack over its (chronologically
//! ordered, single-writer) events.

use crate::span::{AttrValue, Event, EventKind};

/// Everything one track recorded, with its identity.
#[derive(Clone, Debug, PartialEq)]
pub struct TrackDump {
    /// Stable track id (tie-breaker and Chrome `tid`).
    pub id: u64,
    /// Process id for grouping (Chrome `pid`; fleet: one per server).
    pub pid: u32,
    /// Track (thread) display name.
    pub name: String,
    /// Optional process display name (first non-`None` per pid wins).
    pub process_name: Option<String>,
    /// Events in recording order.
    pub events: Vec<Event>,
}

/// A drained trace: every track's events plus the overflow count.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Per-track event streams.
    pub tracks: Vec<TrackDump>,
    /// Events lost to ring-buffer overflow across all tracks.
    pub dropped: u64,
}

/// One assembled span with its children.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Begin timestamp (ns since tracer epoch).
    pub start_ns: u64,
    /// End timestamp. Instants have `end_ns == start_ns`.
    pub end_ns: u64,
    /// Attributes from the begin (or instant) event.
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// Nested spans and instants, in start order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration not covered by any direct child (own time).
    pub fn self_ns(&self) -> u64 {
        let child: u64 = self.children.iter().map(SpanNode::duration_ns).sum();
        self.duration_ns().saturating_sub(child)
    }
}

/// Why a track's event stream is not a well-formed span tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// An End arrived with no span open.
    UnmatchedEnd {
        /// Name on the stray End event.
        name: String,
    },
    /// An End's name differs from the innermost open span.
    MismatchedEnd {
        /// Name the End carried.
        got: String,
        /// Name of the open span it should have closed.
        expected: String,
    },
    /// Spans still open when the stream ended.
    UnclosedSpans {
        /// How many.
        open: usize,
    },
    /// Timestamps went backwards within one track.
    NonMonotonic {
        /// Index of the offending event.
        at: usize,
    },
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::UnmatchedEnd { name } => write!(f, "end `{name}` with no open span"),
            TreeError::MismatchedEnd { got, expected } => {
                write!(f, "end `{got}` does not close open span `{expected}`")
            }
            TreeError::UnclosedSpans { open } => write!(f, "{open} spans left open"),
            TreeError::NonMonotonic { at } => write!(f, "timestamp regressed at event {at}"),
        }
    }
}

impl std::error::Error for TreeError {}

impl TrackDump {
    /// Assembles this track's flat events into root spans.
    ///
    /// # Errors
    ///
    /// Returns a [`TreeError`] when the stream is not well formed.
    pub fn tree(&self) -> Result<Vec<SpanNode>, TreeError> {
        let mut roots: Vec<SpanNode> = Vec::new();
        let mut stack: Vec<SpanNode> = Vec::new();
        let mut last_ts = 0u64;
        for (i, ev) in self.events.iter().enumerate() {
            if ev.ts_ns < last_ts {
                return Err(TreeError::NonMonotonic { at: i });
            }
            last_ts = ev.ts_ns;
            match &ev.kind {
                EventKind::Begin => stack.push(SpanNode {
                    name: ev.name.to_string(),
                    start_ns: ev.ts_ns,
                    end_ns: ev.ts_ns,
                    attrs: ev.attrs.clone(),
                    children: Vec::new(),
                }),
                EventKind::End => {
                    let Some(mut node) = stack.pop() else {
                        return Err(TreeError::UnmatchedEnd {
                            name: ev.name.to_string(),
                        });
                    };
                    if node.name != ev.name.as_ref() {
                        return Err(TreeError::MismatchedEnd {
                            got: ev.name.to_string(),
                            expected: node.name,
                        });
                    }
                    node.end_ns = ev.ts_ns;
                    node.attrs.extend(ev.attrs.iter().cloned());
                    match stack.last_mut() {
                        Some(parent) => parent.children.push(node),
                        None => roots.push(node),
                    }
                }
                EventKind::Instant => {
                    let node = SpanNode {
                        name: ev.name.to_string(),
                        start_ns: ev.ts_ns,
                        end_ns: ev.ts_ns,
                        attrs: ev.attrs.clone(),
                        children: Vec::new(),
                    };
                    match stack.last_mut() {
                        Some(parent) => parent.children.push(node),
                        None => roots.push(node),
                    }
                }
                EventKind::Counter(_) => {}
            }
        }
        if !stack.is_empty() {
            return Err(TreeError::UnclosedSpans { open: stack.len() });
        }
        Ok(roots)
    }
}

impl Trace {
    /// Assembles every track's tree, returning `(track, roots)` pairs.
    ///
    /// # Errors
    ///
    /// Returns the first track's [`TreeError`], if any.
    pub fn trees(&self) -> Result<Vec<(&TrackDump, Vec<SpanNode>)>, TreeError> {
        self.tracks.iter().map(|t| Ok((t, t.tree()?))).collect()
    }

    /// Total recorded events across all tracks.
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Iterator over every span in every track, flattened (depth-first).
    pub fn all_spans(&self) -> Result<Vec<(String, SpanNode)>, TreeError> {
        let mut out = Vec::new();
        for (track, roots) in self.trees()? {
            let mut work: Vec<SpanNode> = roots;
            while let Some(node) = work.pop() {
                work.extend(node.children.iter().cloned());
                out.push((track.name.clone(), node));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn ev(kind: EventKind, name: &'static str, ts: u64) -> Event {
        Event {
            kind,
            name: Cow::Borrowed(name),
            ts_ns: ts,
            attrs: Vec::new(),
        }
    }

    fn track(events: Vec<Event>) -> TrackDump {
        TrackDump {
            id: 1,
            pid: 1,
            name: "t".into(),
            process_name: None,
            events,
        }
    }

    #[test]
    fn nested_spans_assemble() {
        let t = track(vec![
            ev(EventKind::Begin, "outer", 0),
            ev(EventKind::Begin, "inner", 10),
            ev(EventKind::Instant, "mark", 15),
            ev(EventKind::End, "inner", 20),
            ev(EventKind::End, "outer", 30),
        ]);
        let roots = t.tree().unwrap();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "outer");
        assert_eq!(roots[0].duration_ns(), 30);
        assert_eq!(roots[0].children.len(), 1);
        assert_eq!(roots[0].children[0].children[0].name, "mark");
        assert_eq!(roots[0].self_ns(), 20);
    }

    #[test]
    fn malformed_streams_are_rejected() {
        let stray = track(vec![ev(EventKind::End, "x", 0)]);
        assert!(matches!(stray.tree(), Err(TreeError::UnmatchedEnd { .. })));

        let crossed = track(vec![
            ev(EventKind::Begin, "a", 0),
            ev(EventKind::Begin, "b", 1),
            ev(EventKind::End, "a", 2),
        ]);
        assert!(matches!(
            crossed.tree(),
            Err(TreeError::MismatchedEnd { .. })
        ));

        let open = track(vec![ev(EventKind::Begin, "a", 0)]);
        assert_eq!(open.tree(), Err(TreeError::UnclosedSpans { open: 1 }));

        let backwards = track(vec![
            ev(EventKind::Begin, "a", 10),
            ev(EventKind::End, "a", 5),
        ]);
        assert_eq!(backwards.tree(), Err(TreeError::NonMonotonic { at: 1 }));
    }
}
