//! # mnv-trace — cycle-timestamped tracing for the Mini-NOVA reproduction
//!
//! A lightweight observability layer for the simulated kernel:
//!
//! * a fixed-capacity wrap-around [`TraceRing`] of typed, `Copy`,
//!   cycle-timestamped [`TraceEvent`]s;
//! * log-bucketed latency histograms ([`Hist`]) with p50/p90/p99/max;
//! * exporters: Chrome trace-event JSON loadable in Perfetto
//!   ([`chrome::export`]) and a plain-text top-N summary
//!   ([`summary::summarize`]).
//!
//! ## One probe, two rings
//!
//! [`Tracer::emit`] is the only way an event is recorded. It writes the
//! trace ring when tracing is on, and the small always-on flight-recorder
//! ring (the post-mortem buffer, see `mnv-profile`) when that is on and the
//! event kind routes there — the routing table is [`TraceEvent::route`].
//! A disabled handle holds `None` and `emit` is one branch: no
//! allocation, no formatting.
//!
//! The simulator is single-threaded, so the rings live behind one
//! `Rc<RefCell<_>>` — cloning a [`Tracer`] shares them (including a ring
//! started after the clone), which is how the kernel, the CPU simulator
//! and the FPGA model all append to one merged timeline.

#![warn(missing_docs)]

pub mod acc;
pub mod chrome;
pub mod event;
pub mod hist;
pub mod json;
pub mod ring;
pub mod span;
pub mod summary;
pub mod waterfall;

pub use acc::Acc;
pub use event::{MgrPhase, Route, TraceEvent, TrapKind};
pub use hist::Hist;
pub use ring::TraceRing;
pub use span::{PairedTrace, Span, Track};
pub use waterfall::ReqWaterfall;

use mnv_hal::Cycles;
use std::cell::RefCell;
use std::rc::Rc;

/// Default flight-recorder retention (events).
pub const DEFAULT_FLIGHT_CAP: usize = 512;

/// The rings one live handle (and all its clones) records into.
#[derive(Default)]
struct Rings {
    trace: Option<TraceRing>,
    flight: Option<TraceRing>,
}

/// A handle to a (possibly shared, possibly absent) trace ring and flight
/// recorder.
///
/// Cloning shares the underlying rings. The disabled handle is free to copy
/// around and free to `emit` into. The trace-ring queries (`len`, `total`,
/// `dropped`, `snapshot`, the exporters) never see the flight ring; its
/// own queries are the `flight_*` methods.
#[derive(Clone, Default)]
pub struct Tracer {
    rings: Option<Rc<RefCell<Rings>>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A tracer recording into a fresh ring retaining `cap` events.
    pub fn enabled(cap: usize) -> Self {
        let mut t = Self::default();
        t.start_trace(cap);
        t
    }

    fn rings_mut(&mut self) -> std::cell::RefMut<'_, Rings> {
        self.rings.get_or_insert_with(Default::default).borrow_mut()
    }

    /// Start a fresh trace ring retaining `cap` events (replacing any
    /// earlier one). Clones already sharing this handle's rings see it; a
    /// disabled handle becomes live and shares nothing yet.
    pub fn start_trace(&mut self, cap: usize) {
        self.rings_mut().trace = Some(TraceRing::new(cap));
    }

    /// Start a fresh flight recorder retaining `cap` events, shared like
    /// [`Tracer::start_trace`].
    pub fn start_flight(&mut self, cap: usize) {
        self.rings_mut().flight = Some(TraceRing::new(cap));
    }

    /// True when the trace ring is recording.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.with_trace(|_| ()).is_some()
    }

    /// Record `ev` at time `now` into every ring its kind routes to. One
    /// branch when disabled.
    #[inline]
    pub fn emit(&self, now: Cycles, ev: TraceEvent) {
        if let Some(rings) = &self.rings {
            let route = ev.route();
            let mut r = rings.borrow_mut();
            if let Some(t) = r.trace.as_mut().filter(|_| route.traced()) {
                t.push(now, ev);
            }
            if let Some(f) = r.flight.as_mut().filter(|_| route.flight()) {
                f.push(now, ev);
            }
        }
    }

    fn with_trace<R>(&self, f: impl FnOnce(&TraceRing) -> R) -> Option<R> {
        let rings = self.rings.as_ref()?.borrow();
        rings.trace.as_ref().map(f)
    }

    fn with_flight<R>(&self, f: impl FnOnce(&TraceRing) -> R) -> Option<R> {
        let rings = self.rings.as_ref()?.borrow();
        rings.flight.as_ref().map(f)
    }

    /// Events lost to trace-ring wraparound (0 when disabled): everything
    /// ever traced beyond what the ring still retains.
    pub fn dropped(&self) -> u64 {
        self.with_trace(TraceRing::dropped).unwrap_or(0)
    }

    /// Number of retained trace events (0 when disabled).
    pub fn len(&self) -> usize {
        self.with_trace(TraceRing::len).unwrap_or(0)
    }

    /// True when no trace events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever traced, including ones lost to wraparound
    /// (0 when disabled).
    pub fn total(&self) -> u64 {
        self.with_trace(TraceRing::total).unwrap_or(0)
    }

    /// Copy the retained trace events oldest-first (empty when disabled).
    pub fn snapshot(&self) -> Vec<(Cycles, TraceEvent)> {
        self.with_trace(TraceRing::snapshot).unwrap_or_default()
    }

    /// True when the flight recorder holds at least one event — the gate
    /// every post-mortem dump site checks ("is there anything to dump?").
    pub fn has_flight_events(&self) -> bool {
        self.with_flight(|f| !f.is_empty()).unwrap_or(false)
    }

    /// Copy the retained flight-recorder events oldest-first (empty when
    /// the recorder is off).
    pub fn flight_snapshot(&self) -> Vec<(Cycles, TraceEvent)> {
        self.with_flight(TraceRing::snapshot).unwrap_or_default()
    }

    /// Flight-recorder events lost to wraparound (0 when off).
    pub fn flight_dropped(&self) -> u64 {
        self.with_flight(TraceRing::dropped).unwrap_or(0)
    }

    /// Export the retained trace events as Chrome trace-event JSON.
    pub fn export_chrome(&self) -> String {
        chrome::export_with_drops(&self.snapshot(), self.dropped())
    }

    /// Render a top-`n` text summary of the retained trace events.
    pub fn summary(&self, n: usize) -> String {
        summary::summarize_with_drops(&self.snapshot(), n, self.dropped())
    }
}

impl core::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("events", &self.len())
            .field("flight", &self.with_flight(TraceRing::len).is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        for i in 0..100u64 {
            t.emit(Cycles::new(i), TraceEvent::TlbFlush);
        }
        assert!(!t.is_enabled());
        assert!(t.is_empty());
        assert_eq!(t.total(), 0);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn clones_share_one_ring() {
        let a = Tracer::enabled(8);
        let b = a.clone();
        a.emit(Cycles::new(1), TraceEvent::TlbFlush);
        b.emit(Cycles::new(2), TraceEvent::TrapExit);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        let snap = a.snapshot();
        assert_eq!(snap[0].1, TraceEvent::TlbFlush);
        assert_eq!(snap[1].1, TraceEvent::TrapExit);
    }

    #[test]
    fn span_pairing_survives_wraparound() {
        // Ring of 6: push 3 full trap spans (2 events each) plus a stray
        // leading pair that wraps out, leaving an orphan TrapExit first.
        let t = Tracer::enabled(6);
        t.emit(
            Cycles::new(0),
            TraceEvent::TrapEnter {
                kind: TrapKind::Irq,
            },
        );
        t.emit(Cycles::new(5), TraceEvent::TrapExit);
        for i in 0..3u64 {
            let t0 = 100 + i * 100;
            t.emit(
                Cycles::new(t0),
                TraceEvent::TrapEnter {
                    kind: TrapKind::Svc,
                },
            );
            t.emit(Cycles::new(t0 + 50), TraceEvent::TrapExit);
        }
        assert_eq!(t.len(), 6);
        assert_eq!(t.total(), 8);
        let paired = span::pair(&t.snapshot());
        // The wrapped-out pair is gone; three clean 50-cycle spans remain.
        assert_eq!(paired.spans.len(), 3);
        assert!(paired.spans.iter().all(|s| s.cycles() == 50));
    }

    #[test]
    fn dropped_events_surface_in_both_exporters() {
        let t = Tracer::enabled(2);
        for i in 0..5u64 {
            t.emit(Cycles::new(i * 100), TraceEvent::TlbFlush);
        }
        assert_eq!(t.dropped(), 3);
        let text = t.summary(10);
        assert!(
            text.contains("3 earlier events lost to ring wraparound"),
            "{text}"
        );
        let doc = json::parse(&t.export_chrome()).expect("valid JSON");
        let meta = doc.get("otherData").expect("metadata object");
        assert_eq!(
            meta.get("events_dropped").and_then(json::Json::as_num),
            Some(3.0)
        );
        // A ring that never wrapped reports a clean capture.
        let clean = Tracer::enabled(8);
        clean.emit(Cycles::new(0), TraceEvent::TlbFlush);
        assert_eq!(clean.dropped(), 0);
        assert!(!clean.summary(10).contains("wraparound"));
    }

    #[test]
    fn chrome_export_round_trips_through_parser() {
        let t = Tracer::enabled(32);
        t.emit(Cycles::new(0), TraceEvent::VmSwitch { from: 0, to: 1 });
        t.emit(Cycles::new(660), TraceEvent::Hypercall { nr: 0, vm: 1 });
        t.emit(Cycles::new(1320), TraceEvent::VmSwitch { from: 1, to: 0 });
        let doc = json::parse(&t.export_chrome()).expect("valid JSON");
        assert!(doc.get("traceEvents").unwrap().as_arr().unwrap().len() >= 4);
    }
}
