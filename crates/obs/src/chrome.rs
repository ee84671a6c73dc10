//! Chrome trace-event export (`trace.chrome.json`, Perfetto-viewable).
//!
//! Converts a [`RunReplay`] into the Chrome
//! trace-event JSON format (the `{"traceEvents": [...]}` object form):
//! one complete `X` event per finished span, `C` counter tracks for the
//! `phv` / `archive_size` gauges, and instant `i` events for markers.
//! Load the file at <https://ui.perfetto.dev> or `chrome://tracing`.
//!
//! Lanes: the driver emits every span from one thread, with `evaluate`
//! spans wrapping whole candidate batches that fan out over the
//! configured worker pool. The exporter keeps the nested flame view on
//! the driver lane (`tid 0`) and additionally distributes the
//! `evaluate` batch stream round-robin across one lane per evaluation
//! worker (`tid 1..=workers`), so a parallel run shows its batch
//! cadence per worker slot. A resumed run's legs arrive pre-stitched
//! on one global timeline with a visible gap between processes.

use crate::replay::RunReplay;
use moela_persist::Value;

/// The `pid` every event carries (one process per trace file).
const PID: u64 = 1;

/// Builds the trace-event JSON document for a replayed run. `workers`
/// sizes the per-worker `evaluate` lanes (clamped to at least 1).
pub fn chrome_trace(replay: &RunReplay, workers: usize) -> Value {
    let workers = workers.max(1) as u64;
    let mut events: Vec<Value> = Vec::new();

    events.push(metadata("process_name", PID, 0, "moela-dse run"));
    events.push(metadata("thread_name", PID, 0, "driver"));
    for worker in 1..=workers {
        events.push(metadata("thread_name", PID, worker, &format!("eval worker {worker}")));
    }

    let mut eval_seq = 0u64;
    for span in &replay.spans {
        let tid = if span.name == "evaluate" {
            let lane = 1 + eval_seq % workers;
            eval_seq += 1;
            lane
        } else {
            0
        };
        events.push(Value::object(vec![
            ("name", Value::Str(span.name.clone())),
            ("cat", Value::Str("phase".to_owned())),
            ("ph", Value::Str("X".to_owned())),
            ("pid", Value::U64(PID)),
            ("tid", Value::U64(tid)),
            ("ts", Value::U64(span.start_us)),
            ("dur", Value::U64(span.dur_us)),
            (
                "args",
                Value::object(vec![
                    ("leg", Value::U64(span.leg as u64)),
                    ("depth", Value::U64(span.depth as u64)),
                ]),
            ),
        ]));
        // Mirror worker-lane evaluate batches onto the driver flame so
        // nesting stays visible in both views.
        if tid != 0 {
            events.push(Value::object(vec![
                ("name", Value::Str(span.name.clone())),
                ("cat", Value::Str("phase".to_owned())),
                ("ph", Value::Str("X".to_owned())),
                ("pid", Value::U64(PID)),
                ("tid", Value::U64(0)),
                ("ts", Value::U64(span.start_us)),
                ("dur", Value::U64(span.dur_us)),
                ("args", Value::object(vec![("worker_lane", Value::U64(tid))])),
            ]));
        }
    }

    for (name, t_us, value) in &replay.gauge_events {
        events.push(Value::object(vec![
            ("name", Value::Str(name.clone())),
            ("cat", Value::Str("gauge".to_owned())),
            ("ph", Value::Str("C".to_owned())),
            ("pid", Value::U64(PID)),
            ("tid", Value::U64(0)),
            ("ts", Value::U64(*t_us)),
            ("args", Value::object(vec![(name.as_str(), Value::F64(*value))])),
        ]));
    }

    for (name, detail, t_us) in &replay.markers {
        events.push(Value::object(vec![
            ("name", Value::Str(name.clone())),
            ("cat", Value::Str("marker".to_owned())),
            ("ph", Value::Str("i".to_owned())),
            ("s", Value::Str("g".to_owned())),
            ("pid", Value::U64(PID)),
            ("tid", Value::U64(0)),
            ("ts", Value::U64(*t_us)),
            ("args", Value::object(vec![("detail", Value::Str(detail.clone()))])),
        ]));
    }

    Value::object(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ms".to_owned())),
    ])
}

fn metadata(name: &str, pid: u64, tid: u64, value: &str) -> Value {
    Value::object(vec![
        ("name", Value::Str(name.to_owned())),
        ("ph", Value::Str("M".to_owned())),
        ("pid", Value::U64(pid)),
        ("tid", Value::U64(tid)),
        ("args", Value::object(vec![("name", Value::Str(value.to_owned()))])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay;
    use moela_persist::{decode, encode};
    use std::io::Cursor;

    fn sample_replay() -> RunReplay {
        let log = [
            "{\"type\":\"marker\",\"name\":\"run_start\",\"detail\":\"seed 7\",\"t_us\":0}",
            "{\"type\":\"enter\",\"span\":\"step\",\"id\":1,\"depth\":1,\"t_us\":1}",
            "{\"type\":\"enter\",\"span\":\"evaluate\",\"id\":2,\"depth\":2,\"t_us\":2}",
            "{\"type\":\"exit\",\"span\":\"evaluate\",\"id\":2,\"depth\":2,\"t_us\":10,\"dur_us\":8}",
            "{\"type\":\"enter\",\"span\":\"evaluate\",\"id\":3,\"depth\":2,\"t_us\":11}",
            "{\"type\":\"exit\",\"span\":\"evaluate\",\"id\":3,\"depth\":2,\"t_us\":20,\"dur_us\":9}",
            "{\"type\":\"gauge\",\"name\":\"phv\",\"value\":0.5,\"t_us\":21}",
            "{\"type\":\"exit\",\"span\":\"step\",\"id\":1,\"depth\":1,\"t_us\":22,\"dur_us\":21}",
        ]
        .join("\n");
        replay(Cursor::new(format!("{log}\n").into_bytes())).expect("sample replays")
    }

    #[test]
    fn exports_complete_x_events_on_per_worker_lanes() {
        let trace = chrome_trace(&sample_replay(), 2);
        let events = trace.field("traceEvents").unwrap().as_array().unwrap();
        let x_events: Vec<_> =
            events.iter().filter(|e| e.field("ph").unwrap().as_str().unwrap() == "X").collect();
        // 3 spans + 2 driver mirrors of the worker-lane evaluates.
        assert_eq!(x_events.len(), 5);
        for event in &x_events {
            assert!(event.field("ts").unwrap().as_u64().is_ok());
            assert!(event.field("dur").unwrap().as_u64().is_ok());
        }
        let eval_lanes: Vec<u64> = x_events
            .iter()
            .filter(|e| {
                e.field("name").unwrap().as_str().unwrap() == "evaluate"
                    && e.field("tid").unwrap().as_u64().unwrap() != 0
            })
            .map(|e| e.field("tid").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(eval_lanes, vec![1, 2], "evaluate batches round-robin across worker lanes");
        let thread_names = events
            .iter()
            .filter(|e| e.field("name").unwrap().as_str().unwrap() == "thread_name")
            .count();
        assert_eq!(thread_names, 3, "driver plus one lane per worker");
    }

    #[test]
    fn gauges_and_markers_become_counter_and_instant_events() {
        let trace = chrome_trace(&sample_replay(), 1);
        let events = trace.field("traceEvents").unwrap().as_array().unwrap();
        assert!(events.iter().any(|e| e.field("ph").unwrap().as_str().unwrap() == "C"
            && e.field("name").unwrap().as_str().unwrap() == "phv"));
        assert!(events.iter().any(|e| e.field("ph").unwrap().as_str().unwrap() == "i"
            && e.field("name").unwrap().as_str().unwrap() == "run_start"));
    }

    #[test]
    fn the_document_round_trips_through_json() {
        let trace = chrome_trace(&sample_replay(), 4);
        let text = encode::to_string(&trace);
        let back = decode::from_str(&text).expect("well-formed JSON");
        assert_eq!(
            back.field("displayTimeUnit").unwrap().as_str().unwrap(),
            "ms",
            "object-form trace document"
        );
        assert!(!back.field("traceEvents").unwrap().as_array().unwrap().is_empty());
    }
}
