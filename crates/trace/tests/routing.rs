//! The routing table behind `Tracer::emit`: which event kinds reach the
//! trace ring, the flight recorder, or both.

use mnv_hal::Cycles;
use mnv_trace::{MgrPhase, Route, TraceEvent, Tracer, TrapKind};

/// One event of every kind (payloads are irrelevant to routing).
fn every_kind() -> Vec<TraceEvent> {
    use TraceEvent as E;
    vec![
        E::TrapEnter {
            kind: TrapKind::Svc,
        },
        E::TrapExit,
        E::Hypercall { nr: 0, vm: 1 },
        E::VmSwitch { from: 0, to: 1 },
        E::SchedPick { vm: 1 },
        E::VirqInject { vm: 1, irq: 0 },
        E::HwMgrPhase {
            phase: MgrPhase::Entry,
            end: false,
            vm: 1,
        },
        E::PcapDma {
            bytes: 0,
            end: false,
        },
        E::PrrReconfig { prr: 0, task: 0 },
        E::TlbFlush,
        E::FaultForwarded { vm: 1 },
        E::FaultInjected { site: 0 },
        E::PcapRetry { prr: 0, attempt: 1 },
        E::PrrQuarantine { prr: 0 },
        E::SwFallback { vm: 1, task: 0 },
        E::VmKilled { vm: 1 },
        E::DprStage { stage: 1 },
        E::VmRestart { vm: 1, attempt: 1 },
        E::PrrScrub { prr: 0, pass: true },
        E::PrrReinstate { prr: 0 },
        E::PrrRetire { prr: 0 },
        E::Repromote {
            vm: 1,
            task: 0,
            prr: 0,
        },
        E::HwTaskEscalate { prr: 0, rung: 1 },
        E::ReqSpan {
            req: 1,
            vm: 1,
            end: false,
        },
        E::ReqStage { req: 1, stage: 1 },
        E::SloBurn {
            iface: 0,
            violations: 2,
        },
    ]
}

#[test]
fn flight_routing_is_pinned() {
    let kinds = |pred: fn(Route) -> bool| -> Vec<&'static str> {
        let mut v: Vec<_> = every_kind()
            .iter()
            .filter(|e| pred(e.route()))
            .map(|e| e.kind_name())
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(
        kinds(Route::flight),
        [
            "DprStage",
            "FaultInjected",
            "HwTaskEscalate",
            "Hypercall",
            "PcapDma",
            "PcapRetry",
            "PrrQuarantine",
            "PrrReconfig",
            "PrrReinstate",
            "PrrRetire",
            "PrrScrub",
            "Repromote",
            "SloBurn",
            "VirqInject",
            "VmKilled",
            "VmRestart",
            "VmSwitch",
        ]
    );
    // DprStage is the one flight-only kind; everything else is traced.
    assert_eq!(
        kinds(|r| !r.traced()),
        ["DprStage"],
        "only DprStage may skip the trace ring"
    );
}

#[test]
fn emit_routes_each_kind_to_its_rings() {
    let mut t = Tracer::enabled(8);
    let shared = t.clone();
    t.start_flight(8); // started after the clone: still shared
    let trace_only = Tracer::enabled(8);
    let mut flight_only = Tracer::disabled();
    flight_only.start_flight(8);
    for h in [&t, &trace_only, &flight_only] {
        h.emit(Cycles::new(1), TraceEvent::TlbFlush); // trace only
        h.emit(Cycles::new(2), TraceEvent::DprStage { stage: 1 }); // flight only
        h.emit(Cycles::new(3), TraceEvent::VmKilled { vm: 1 }); // both
    }
    let kinds = |v: Vec<(Cycles, TraceEvent)>| -> Vec<&'static str> {
        v.iter().map(|(_, e)| e.kind_name()).collect()
    };
    assert_eq!(kinds(shared.snapshot()), ["TlbFlush", "VmKilled"]);
    assert_eq!(kinds(shared.flight_snapshot()), ["DprStage", "VmKilled"]);
    assert_eq!(t.total(), 2, "trace queries never count flight events");
    assert_eq!(kinds(trace_only.snapshot()), ["TlbFlush", "VmKilled"]);
    assert!(!trace_only.has_flight_events());
    assert!(!flight_only.is_enabled() && flight_only.total() == 0);
    assert_eq!(
        kinds(flight_only.flight_snapshot()),
        ["DprStage", "VmKilled"]
    );
    // Restarting the trace ring keeps the flight recorder.
    t.start_trace(4);
    assert_eq!(shared.total(), 0);
    assert_eq!(shared.flight_snapshot().len(), 2);
}
