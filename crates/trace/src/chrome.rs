//! Chrome trace-event (Perfetto-loadable) exporter.
//!
//! Produces the JSON object format (`{"traceEvents": [...]}`) understood by
//! `chrome://tracing` and <https://ui.perfetto.dev>. One process (pid 1)
//! carries one thread track per VM plus dedicated kernel, HW-Manager and
//! PCAP tracks. Timestamps are microseconds on the *simulated* 660 MHz
//! cycle clock, so a 33 ms guest time slice renders as 33 ms in the UI.

use crate::event::TraceEvent;
use crate::json::Json;
use crate::span::{pair, Track};
use mnv_hal::Cycles;
use std::collections::BTreeSet;

/// The Chrome-trace process id all tracks live under.
const PID: f64 = 1.0;

fn us(ts: Cycles) -> f64 {
    ts.as_micros()
}

fn meta_thread_name(track: Track) -> Json {
    Json::obj([
        ("name", Json::str("thread_name")),
        ("ph", Json::str("M")),
        ("pid", Json::num(PID)),
        ("tid", Json::num(track.tid() as f64)),
        ("args", Json::obj([("name", Json::str(track.name()))])),
    ])
}

fn meta_sort_index(track: Track) -> Json {
    Json::obj([
        ("name", Json::str("thread_sort_index")),
        ("ph", Json::str("M")),
        ("pid", Json::num(PID)),
        ("tid", Json::num(track.tid() as f64)),
        (
            "args",
            Json::obj([("sort_index", Json::num(track.tid() as f64))]),
        ),
    ])
}

/// Render an oldest-first event stream as a Chrome trace-event JSON
/// document string.
pub fn export(events: &[(Cycles, TraceEvent)]) -> String {
    export_with_drops(events, 0)
}

/// Like [`export`], recording in the document metadata how many events
/// the source ring lost to wraparound before this snapshot — a consumer
/// reading the timeline can tell a complete capture from a truncated one.
pub fn export_with_drops(events: &[(Cycles, TraceEvent)], dropped: u64) -> String {
    let paired = pair(events);
    let mut tracks: BTreeSet<Track> = [Track::Kernel, Track::HwMgr, Track::Pcap].into();
    for s in &paired.spans {
        tracks.insert(s.track);
    }
    for i in &paired.instants {
        tracks.insert(i.track);
    }

    let mut out: Vec<Json> = Vec::new();
    out.push(Json::obj([
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::num(PID)),
        ("args", Json::obj([("name", Json::str("mini-nova"))])),
    ]));
    for &t in &tracks {
        out.push(meta_thread_name(t));
        out.push(meta_sort_index(t));
    }

    // Complete ("X") events need no B/E ordering care in the viewer.
    for s in &paired.spans {
        let dur = (s.cycles() as f64) * 1e6 / mnv_hal::cycles::CPU_HZ as f64;
        out.push(Json::obj([
            ("name", Json::str(s.name.clone())),
            ("ph", Json::str("X")),
            ("ts", Json::num(us(s.start))),
            ("dur", Json::num(dur)),
            ("pid", Json::num(PID)),
            ("tid", Json::num(s.track.tid() as f64)),
        ]));
    }
    for i in &paired.instants {
        out.push(Json::obj([
            ("name", Json::str(i.name.clone())),
            ("ph", Json::str("i")),
            ("s", Json::str("t")),
            ("ts", Json::num(us(i.ts))),
            ("pid", Json::num(PID)),
            ("tid", Json::num(i.track.tid() as f64)),
        ]));
    }

    // Flow events: chain every request's hops ("s" at the first stamp,
    // "t" steps after) under one flow id so Perfetto renders each request
    // as a single connected arrow chain across tracks.
    let mut hops: Vec<(u32, Cycles, Track)> = Vec::new();
    for s in &paired.spans {
        if s.req != 0 {
            hops.push((s.req, s.start, s.track));
        }
    }
    for i in &paired.instants {
        if i.req != 0 {
            hops.push((i.req, i.ts, i.track));
        }
    }
    hops.sort_by_key(|&(req, ts, track)| (req, ts, track.tid()));
    let mut prev_req = 0u32;
    for (req, ts, track) in hops {
        let ph = if req == prev_req { "t" } else { "s" };
        prev_req = req;
        out.push(Json::obj([
            ("name", Json::str(format!("r{req}"))),
            ("cat", Json::str("req")),
            ("ph", Json::str(ph)),
            ("id", Json::num(req as f64)),
            ("ts", Json::num(us(ts))),
            ("pid", Json::num(PID)),
            ("tid", Json::num(track.tid() as f64)),
        ]));
    }

    Json::obj([
        ("traceEvents", Json::Arr(out)),
        ("displayTimeUnit", Json::str("ms")),
        (
            "otherData",
            Json::obj([
                ("clock", Json::str("simulated 660 MHz cycle counter")),
                ("events_dropped", Json::num(dropped as f64)),
                ("orphan_spans", Json::num(paired.orphan_spans as f64)),
                ("source", Json::str("mnv-trace")),
            ]),
        ),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MgrPhase, TraceEvent as E, TrapKind};
    use crate::json;

    fn sample_events() -> Vec<(Cycles, E)> {
        vec![
            (Cycles::new(0), E::VmSwitch { from: 0, to: 1 }),
            (
                Cycles::new(660),
                E::TrapEnter {
                    kind: TrapKind::Svc,
                },
            ),
            (Cycles::new(700), E::Hypercall { nr: 17, vm: 1 }),
            (
                Cycles::new(800),
                E::HwMgrPhase {
                    phase: MgrPhase::Entry,
                    end: false,
                    vm: 1,
                },
            ),
            (
                Cycles::new(1200),
                E::HwMgrPhase {
                    phase: MgrPhase::Entry,
                    end: true,
                    vm: 1,
                },
            ),
            (Cycles::new(1500), E::TrapExit),
            (Cycles::new(2000), E::VmSwitch { from: 1, to: 0 }),
        ]
    }

    #[test]
    fn export_parses_and_has_tracks() {
        let text = export(&sample_events());
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // Metadata (process + per-track name/sort) plus spans and instants.
        assert!(events.len() >= 10, "{}", events.len());

        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"trap:svc"));
        assert!(names.contains(&"mgr:entry"));
        assert!(names.contains(&"running"));
        assert!(names.contains(&"hc:HwTaskRequest"));
        assert!(names.contains(&"thread_name"));
    }

    #[test]
    fn timestamps_are_simulated_microseconds() {
        let text = export(&sample_events());
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let svc = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("trap:svc"))
            .unwrap();
        // 660 cycles at 660 MHz is exactly 1 us.
        assert!((svc.get("ts").unwrap().as_num().unwrap() - 1.0).abs() < 1e-9);
        let dur = svc.get("dur").unwrap().as_num().unwrap();
        assert!((dur - (1500.0 - 660.0) / 660.0).abs() < 1e-9);
    }

    #[test]
    fn request_hops_export_as_flow_events() {
        let events = vec![
            (
                Cycles::new(0),
                E::ReqSpan {
                    req: 7,
                    vm: 1,
                    end: false,
                },
            ),
            (Cycles::new(100), E::ReqStage { req: 7, stage: 2 }),
            (
                Cycles::new(660),
                E::ReqSpan {
                    req: 7,
                    vm: 1,
                    end: true,
                },
            ),
        ];
        let text = export(&events);
        let doc = json::parse(&text).unwrap();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let flows: Vec<_> = evs
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("req"))
            .collect();
        // One "s" start then "t" steps, all under flow id 7.
        assert!(flows.len() >= 2, "{}", text);
        assert_eq!(flows[0].get("ph").and_then(Json::as_str), Some("s"));
        assert!(flows[1..]
            .iter()
            .all(|e| e.get("ph").and_then(Json::as_str) == Some("t")));
        assert!(flows
            .iter()
            .all(|e| e.get("id").and_then(Json::as_num) == Some(7.0)));
        let orphans = doc
            .get("otherData")
            .and_then(|o| o.get("orphan_spans"))
            .and_then(Json::as_num);
        assert_eq!(orphans, Some(0.0));
    }

    #[test]
    fn vm_track_is_named() {
        let text = export(&sample_events());
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let vm1 = events.iter().find(|e| {
            e.get("name").and_then(Json::as_str) == Some("thread_name")
                && e.get("tid").and_then(|t| t.as_num()) == Some(11.0)
        });
        let name = vm1
            .and_then(|e| e.get("args"))
            .and_then(|a| a.get("name"))
            .and_then(Json::as_str);
        assert_eq!(name, Some("vm1"));
    }
}
