//! The span tracer: lock-cheap structured tracing for the whole stack.
//!
//! Recording is organized around **per-thread ring buffers**: every thread
//! (or explicitly pushed track, see [`track`]) owns a bounded buffer of
//! begin/end/instant events that only it writes. The hot path is one
//! relaxed atomic load (the global on/off switch) when tracing is
//! disabled, and an uncontended mutex acquire on the thread's own buffer
//! when enabled — no cross-thread synchronization until [`drain`]
//! assembles the buffers into a [`Trace`].
//!
//! Spans are RAII: [`span`] records the begin event and the returned
//! [`SpanGuard`] records the end event on drop, so a span can never be
//! left open by an early return. Attributes are typed ([`AttrValue`]);
//! the [`span!`](crate::span!) / [`instant!`](crate::instant!) macros
//! skip attribute construction entirely while tracing is off.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::trace::{Trace, TrackDump};

/// Per-track ring-buffer capacity (events).
const DEFAULT_TRACK_CAPACITY: usize = 1 << 17;

/// A typed span/instant attribute value.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// What kind of trace event this is.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// Span opened.
    Begin,
    /// Span closed (matches the innermost open Begin on its track).
    End,
    /// A point-in-time marker (e.g. a lifecycle point).
    Instant,
    /// A sampled counter value (renders as a counter track in Perfetto).
    Counter(f64),
}

/// One recorded event on one track.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Event kind.
    pub kind: EventKind,
    /// Event name (span name, instant name, or counter series name).
    pub name: Cow<'static, str>,
    /// Nanoseconds since the tracer epoch.
    pub ts_ns: u64,
    /// Typed attributes.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// Bounded single-writer event buffer: oldest events are dropped (and
/// counted) once capacity is reached, so a runaway trace degrades instead
/// of exhausting memory.
#[derive(Default)]
struct Ring {
    events: std::collections::VecDeque<Event>,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: Event) {
        if self.events.len() >= DEFAULT_TRACK_CAPACITY {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    fn take(&mut self) -> (Vec<Event>, u64) {
        let dropped = self.dropped;
        self.dropped = 0;
        (std::mem::take(&mut self.events).into(), dropped)
    }
}

/// One thread-owned (or explicitly pushed) event buffer. Every live track
/// belongs to process 1.
struct TrackBuf {
    id: u64,
    name: String,
    ring: Mutex<Ring>,
}

struct Shared {
    enabled: AtomicBool,
    tracks: Mutex<Vec<Arc<TrackBuf>>>,
    next_track: AtomicU64,
    /// Serializes tracing sessions ([`capture`] / [`session_lock`]): the
    /// tracer is process-global, so concurrent sessions would interleave.
    session: Mutex<()>,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        enabled: AtomicBool::new(false),
        tracks: Mutex::new(Vec::new()),
        next_track: AtomicU64::new(1),
        session: Mutex::new(()),
    })
}

/// Recover from a poisoned std lock: a worker that panicked mid-record
/// (e.g. the simulated JIT compiler bug) must not wedge the tracer.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    /// Stack of tracks for this thread; the top receives this thread's
    /// events. Lazily seeded with a default track named after the thread.
    static TRACK_STACK: RefCell<Vec<Arc<TrackBuf>>> = const { RefCell::new(Vec::new()) };
}

fn new_track(name: String) -> Arc<TrackBuf> {
    let sh = shared();
    let buf = Arc::new(TrackBuf {
        id: sh.next_track.fetch_add(1, Ordering::Relaxed),
        name,
        ring: Mutex::new(Ring::default()),
    });
    lock(&sh.tracks).push(buf.clone());
    buf
}

fn with_current_track(f: impl FnOnce(&TrackBuf)) {
    TRACK_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        if stack.is_empty() {
            let name = std::thread::current()
                .name()
                .map(ToString::to_string)
                .unwrap_or_else(|| format!("thread {:?}", std::thread::current().id()));
            stack.push(new_track(name));
        }
        f(stack.last().expect("seeded above"));
    });
}

fn record(kind: EventKind, name: Cow<'static, str>, attrs: Vec<(&'static str, AttrValue)>) {
    let ts_ns = now_ns();
    with_current_track(|track| {
        lock(&track.ring).push(Event {
            kind,
            name,
            ts_ns,
            attrs,
        });
    });
}

/// Whether tracing is currently on. One relaxed atomic load — this is the
/// entire disabled-path cost of every instrumentation point.
#[inline]
pub fn enabled() -> bool {
    shared().enabled.load(Ordering::Relaxed)
}

/// Turns tracing on. Prefer [`capture`], which also serializes sessions
/// and drains the result.
pub fn enable() {
    epoch(); // pin the epoch before the first event
    shared().enabled.store(true, Ordering::SeqCst);
}

/// Turns tracing off. In-flight [`SpanGuard`]s stop recording their end
/// events; the assembler closes any such span at the trace end.
pub fn disable() {
    shared().enabled.store(false, Ordering::SeqCst);
}

/// RAII span: records End on drop. Inert guards (tracing disabled at
/// creation) record nothing.
#[must_use = "a span ends when its guard drops"]
pub struct SpanGuard {
    name: Option<Cow<'static, str>>,
}

impl SpanGuard {
    /// A guard that records nothing — the disabled-tracing path.
    pub fn inert() -> SpanGuard {
        SpanGuard { name: None }
    }

    /// Ends the span now, attaching `attrs` known only at its end (they
    /// join the begin event's attributes in the assembled span).
    pub fn end_with(mut self, attrs: Vec<(&'static str, AttrValue)>) {
        if let Some(name) = self.name.take() {
            if enabled() {
                record(EventKind::End, name, attrs);
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            if enabled() {
                record(EventKind::End, name, Vec::new());
            }
        }
    }
}

/// Opens a span on the current thread's track. Near-free when tracing is
/// disabled (one atomic load, no allocation for `&'static str` names).
pub fn span(name: impl Into<Cow<'static, str>>) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    let name = name.into();
    record(EventKind::Begin, name.clone(), Vec::new());
    SpanGuard { name: Some(name) }
}

/// [`span`] with attributes attached to the begin event. Use the
/// [`span!`](crate::span!) macro to avoid building `attrs` while disabled.
pub fn span_attrs(
    name: impl Into<Cow<'static, str>>,
    attrs: Vec<(&'static str, AttrValue)>,
) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    let name = name.into();
    record(EventKind::Begin, name.clone(), attrs);
    SpanGuard { name: Some(name) }
}

/// Records a point-in-time marker on the current thread's track.
pub fn instant(name: impl Into<Cow<'static, str>>) {
    if enabled() {
        record(EventKind::Instant, name.into(), Vec::new());
    }
}

/// [`instant`] with attributes. Use the [`instant!`](crate::instant!)
/// macro to avoid building `attrs` while disabled.
pub fn instant_attrs(name: impl Into<Cow<'static, str>>, attrs: Vec<(&'static str, AttrValue)>) {
    if enabled() {
        record(EventKind::Instant, name.into(), attrs);
    }
}

/// RAII handle for an explicitly pushed track (see [`track`]).
#[must_use = "the track pops when its guard drops"]
pub struct TrackGuard {
    armed: bool,
}

impl Drop for TrackGuard {
    fn drop(&mut self) {
        if self.armed {
            TRACK_STACK.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
}

/// Pushes a named track for the current thread: subsequent events on this
/// thread land on it until the guard drops. Used for pipeline workers
/// (`worker 3`) so each gets its own timeline row.
pub fn track(name: impl Into<String>) -> TrackGuard {
    if !enabled() {
        return TrackGuard { armed: false };
    }
    let buf = new_track(name.into());
    TRACK_STACK.with(|stack| stack.borrow_mut().push(buf));
    TrackGuard { armed: true }
}

/// Collects every track's buffered events into a [`Trace`], clearing the
/// buffers. Tracks no longer referenced by any live thread are pruned from
/// the registry afterwards.
pub fn drain() -> Trace {
    let sh = shared();
    let mut tracks = lock(&sh.tracks);
    let mut dumps = Vec::new();
    let mut dropped = 0u64;
    for track in tracks.iter() {
        let (events, d) = lock(&track.ring).take();
        dropped += d;
        if events.is_empty() {
            continue;
        }
        dumps.push(TrackDump {
            id: track.id,
            pid: 1,
            name: track.name.clone(),
            process_name: None,
            events,
        });
    }
    // A track's thread holds one Arc via TLS; registry holds the other.
    // strong_count == 1 means the owning thread (or TrackGuard) is gone.
    tracks.retain(|t| Arc::strong_count(t) > 1);
    dumps.sort_by_key(|d| d.id);
    Trace {
        tracks: dumps,
        dropped,
    }
}

/// Guard holding the process-wide tracing session lock.
pub struct SessionGuard {
    _guard: MutexGuard<'static, ()>,
}

/// Acquires the tracing session lock without enabling tracing. Tests that
/// assert on the *absence* of events take this to keep a concurrent
/// [`capture`] from turning tracing on under them.
pub fn session_lock() -> SessionGuard {
    SessionGuard {
        _guard: lock(&shared().session),
    }
}

/// Runs `f` with tracing enabled and returns its result plus the trace:
/// takes the session lock, discards stale events, enables, runs, disables,
/// drains. All threads `f` spawns and joins are captured.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Trace) {
    let _session = session_lock();
    drop(drain()); // discard anything left from an interrupted session
    enable();
    let result = f();
    disable();
    (result, drain())
}
