//! Both folds of the event stream on one awkward stream.
//!
//! The live [`MetricsAggregator`] renders `metrics.json`; the offline
//! replay of `events.jsonl` feeds `report.json`. Fed the same events —
//! nested spans, an exit whose id does not match, exits on an empty
//! stack, spans left open, repeated counters, and gauges including
//! `phv` — they must agree on every phase (in order, with count, total,
//! self and max), every counter and gauge, and the nesting violations.
//! The rendered `metrics.json` body is pinned byte for byte.

use std::io::Cursor;

use moela_obs::replay::{replay, RunReplay};
use moela_obs::{event_value, Event, MetricsAggregator, Sink};
use moela_persist::{encode, Value};

fn awkward_stream() -> Vec<Event> {
    let enter = |id, name, depth, t_us| Event::SpanEnter { id, name, depth, t_us };
    let exit = |id, name, depth, t_us, dur_us| Event::SpanExit { id, name, depth, t_us, dur_us };
    let counter = |name, delta, t_us| Event::Counter { name, delta, t_us };
    let gauge = |name, value, t_us| Event::Gauge { name, value, t_us };
    vec![
        Event::Marker { name: "run_start", detail: "seed 7".to_owned(), t_us: 0 },
        enter(1, "step", 1, 1),
        enter(2, "evaluate", 2, 2),
        exit(2, "evaluate", 2, 10, 8),
        counter("evaluations", 8, 11),
        gauge("phv", 0.25, 12),
        enter(3, "evaluate", 2, 13),
        exit(3, "evaluate", 2, 20, 7),
        counter("evaluations", 8, 21),
        exit(1, "step", 1, 22, 21),
        gauge("archive_size", 5.0, 23),
        enter(4, "step", 1, 24),
        enter(5, "select", 2, 25),
        // The id does not match the innermost open span: a violation
        // that clears the stack, so the next exit finds it empty.
        exit(99, "select", 2, 30, 5),
        exit(4, "step", 1, 40, 16),
        counter("eval_faults", 1, 41),
        gauge("phv", 0.5, 42),
        counter("evaluations", 4, 43),
        // Left open: the stream ends inside both spans.
        enter(6, "step", 1, 44),
        enter(7, "evaluate", 2, 45),
        gauge("phv", 0.75, 50),
        counter("generations", 1, 51),
    ]
}

/// The stream as `events.jsonl` text, written by the sink's own encoder.
fn jsonl(events: &[Event]) -> String {
    events.iter().map(|e| encode::to_string(&event_value(e)) + "\n").collect()
}

/// The replay side's phases as `(name, [count, total, self, max])`.
fn replayed_phases(r: &RunReplay) -> Vec<(String, [u64; 4])> {
    r.tally
        .phases
        .iter()
        .map(|(name, p)| (name.clone(), [p.count, p.total_us, p.self_us, p.max_us]))
        .collect()
}

/// The live side's phases as `(name, [count, total, self, max])`.
fn rendered_phases(rendered: &Value) -> Vec<(String, [u64; 4])> {
    let Value::Object(phases) = rendered.field("phases").expect("phases") else {
        panic!("phases is an object")
    };
    let num = |p: &Value, key: &str| p.field(key).expect(key).as_u64().expect(key);
    phases
        .iter()
        .map(|(name, p)| {
            let stat = [num(p, "count"), num(p, "total_us"), num(p, "self_us"), num(p, "max_us")];
            (name.clone(), stat)
        })
        .collect()
}

fn live_render(events: &[Event]) -> (MetricsAggregator, Value) {
    let mut agg = MetricsAggregator::new();
    for event in events {
        agg.record(event);
    }
    let rendered = agg.render();
    (agg, rendered)
}

#[test]
fn the_live_render_is_pinned() {
    let (agg, rendered) = live_render(&awkward_stream());
    let expected = concat!(
        "{\"wall_us\":51,\"evals_per_sec\":392156.8627450981,\"phases\":{",
        "\"evaluate\":{\"count\":2,\"total_us\":15,\"self_us\":15,\"max_us\":8,",
        "\"latency_hist\":{\"total\":2,\"sum_us\":15,\"max_us\":8,",
        "\"buckets\":[{\"lo_us\":4,\"hi_us\":8,\"count\":1},{\"lo_us\":8,\"hi_us\":16,\"count\":1}]}},",
        "\"step\":{\"count\":2,\"total_us\":37,\"self_us\":22,\"max_us\":21,",
        "\"latency_hist\":{\"total\":2,\"sum_us\":37,\"max_us\":21,",
        "\"buckets\":[{\"lo_us\":16,\"hi_us\":32,\"count\":2}]}},",
        "\"select\":{\"count\":1,\"total_us\":5,\"self_us\":5,\"max_us\":5,",
        "\"latency_hist\":{\"total\":1,\"sum_us\":5,\"max_us\":5,",
        "\"buckets\":[{\"lo_us\":4,\"hi_us\":8,\"count\":1}]}}},",
        "\"counters\":{\"evaluations\":20,\"eval_faults\":1,\"generations\":1},",
        "\"gauges\":{\"phv\":0.75,\"archive_size\":5.0},",
        "\"phv_per_generation\":[0.25,0.5,0.75],",
        "\"nesting_violations\":2}",
    );
    assert_eq!(encode::to_string(&rendered), expected);
    assert_eq!(agg.counter("evaluations"), 20);
    assert_eq!(agg.gauge("archive_size"), Some(5.0));
    assert_eq!(agg.wall_us(), 51);
    assert_eq!(agg.nesting_violations(), 2);
}

#[test]
fn the_live_and_replayed_folds_agree() {
    let events = awkward_stream();
    let (agg, rendered) = live_render(&events);
    let r = replay(Cursor::new(jsonl(&events).into_bytes())).expect("the stream replays");
    assert_eq!((r.lines, r.legs, r.torn_tail), (events.len() as u64, 1, false));

    let phases = replayed_phases(&r);
    assert_eq!(phases, rendered_phases(&rendered));
    let names: Vec<&str> = phases.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["evaluate", "step", "select"], "phases appear at their first exit");

    for name in ["evaluations", "eval_faults", "generations", "never_counted"] {
        assert_eq!(r.tally.counter(name), agg.counter(name), "counter {name}");
    }
    for name in ["phv", "archive_size", "never_set"] {
        assert_eq!(r.tally.gauge(name), agg.gauge(name), "gauge {name}");
    }
    let counters: Vec<(String, Value)> =
        r.tally.counters.iter().map(|(n, v)| (n.clone(), Value::U64(*v))).collect();
    assert_eq!(&Value::Object(counters), rendered.field("counters").expect("counters"));
    let gauges: Vec<(String, Value)> =
        r.tally.gauges.iter().map(|(n, v)| (n.clone(), Value::F64(*v))).collect();
    assert_eq!(&Value::Object(gauges), rendered.field("gauges").expect("gauges"));

    assert_eq!(r.tally.nesting_violations, agg.nesting_violations());
    assert_eq!(r.tally.unclosed_spans, 2, "the two spans the stream leaves open");
}
