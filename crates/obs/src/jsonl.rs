//! The `events.jsonl` line format — [`event_value`] writes a line and
//! [`parse_line`] reads it back — and the sink that appends the lines to
//! the run store.

use crate::{Event, Sink};
use moela_persist::{decode, encode, Value};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Render one event as the JSON object written per `events.jsonl` line.
/// Exposed so tests can assert the schema without string matching.
pub fn event_value<N: AsRef<str>>(event: &Event<N>) -> Value {
    let text = |s: &str| Value::Str(s.to_owned());
    match event {
        Event::SpanEnter { id, name, depth, t_us } => Value::object(vec![
            ("type", text("enter")),
            ("span", text(name.as_ref())),
            ("id", Value::U64(*id)),
            ("depth", Value::U64(u64::from(*depth))),
            ("t_us", Value::U64(*t_us)),
        ]),
        Event::SpanExit { id, name, depth, t_us, dur_us } => Value::object(vec![
            ("type", text("exit")),
            ("span", text(name.as_ref())),
            ("id", Value::U64(*id)),
            ("depth", Value::U64(u64::from(*depth))),
            ("t_us", Value::U64(*t_us)),
            ("dur_us", Value::U64(*dur_us)),
        ]),
        Event::Counter { name, delta, t_us } => Value::object(vec![
            ("type", text("counter")),
            ("name", text(name.as_ref())),
            ("delta", Value::U64(*delta)),
            ("t_us", Value::U64(*t_us)),
        ]),
        Event::Gauge { name, value, t_us } => Value::object(vec![
            ("type", text("gauge")),
            ("name", text(name.as_ref())),
            ("value", Value::F64(*value)),
            ("t_us", Value::U64(*t_us)),
        ]),
        Event::Marker { name, detail, t_us } => Value::object(vec![
            ("type", text("marker")),
            ("name", text(name.as_ref())),
            ("detail", text(detail)),
            ("t_us", Value::U64(*t_us)),
        ]),
    }
}

/// Decodes one `events.jsonl` line, validating the schema
/// [`event_value`] writes. A reader gets whatever name the file holds,
/// so the event owns it.
pub fn parse_line(line: &str) -> Result<Event<String>, String> {
    let v = decode::from_str(line).map_err(|e| e.to_string())?;
    let text = |key: &str| {
        v.field(key).and_then(Value::as_str).map(str::to_owned).map_err(|e| e.to_string())
    };
    let num = |key: &str| v.field(key).and_then(Value::as_u64).map_err(|e| e.to_string());
    let ty = text("type")?;
    let t_us = num("t_us")?;
    match ty.as_str() {
        "enter" => Ok(Event::SpanEnter {
            id: num("id")?,
            name: text("span")?,
            depth: num("depth")? as u32,
            t_us,
        }),
        "exit" => Ok(Event::SpanExit {
            id: num("id")?,
            name: text("span")?,
            depth: num("depth")? as u32,
            t_us,
            dur_us: num("dur_us")?,
        }),
        "counter" => Ok(Event::Counter { name: text("name")?, delta: num("delta")?, t_us }),
        "gauge" => {
            let value = v.field("value").and_then(Value::as_f64).map_err(|e| e.to_string())?;
            Ok(Event::Gauge { name: text("name")?, value, t_us })
        }
        "marker" => Ok(Event::Marker { name: text("name")?, detail: text("detail")?, t_us }),
        other => Err(format!("unknown event type {other:?}")),
    }
}

/// Appends one JSON object per event to a file. The file is opened in
/// append mode so a resumed run extends the original log rather than
/// truncating it; the event stream is buffered and flushed at checkpoint
/// boundaries and at the end of the run. Write errors are swallowed —
/// observability must never abort a run.
#[derive(Debug)]
pub struct JsonlSink {
    out: BufWriter<File>,
}

impl JsonlSink {
    /// Open `path` for appending, creating it if absent.
    pub fn append(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JsonlSink { out: BufWriter::new(file) })
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, event: &Event) {
        let line = encode::to_string(&event_value(event));
        let _ = writeln!(self.out, "{line}");
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_line_reads_back_every_event_variant() {
        let events = [
            Event::SpanEnter { id: 3, name: "evaluate", depth: 2, t_us: 17 },
            Event::SpanExit { id: 3, name: "evaluate", depth: 2, t_us: 42, dur_us: 25 },
            Event::Counter { name: "evaluations", delta: 8, t_us: 43 },
            Event::Gauge { name: "phv", value: 0.625, t_us: 44 },
            Event::Marker { name: "run_start", detail: "seed 7".to_owned(), t_us: 1 },
        ];
        for event in &events {
            let line = encode::to_string(&event_value(event));
            let read = parse_line(&line).expect("round trip");
            assert_eq!(event_value(&read), event_value(event), "{line}");
            assert_eq!(read.t_us(), event.t_us());
        }
    }

    #[test]
    fn unknown_or_incomplete_lines_are_rejected() {
        assert!(parse_line("{\"type\":\"mystery\",\"t_us\":1}").is_err());
        assert!(parse_line("{\"span\":\"evaluate\"}").is_err());
        assert!(parse_line("{\"type\":\"exit\",\"span\":\"a\",\"id\":1,\"t_us\":1}").is_err());
    }

    #[test]
    fn append_extends_an_existing_log() {
        let dir = std::env::temp_dir().join(format!("moela-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let _ = std::fs::remove_file(&path);
        for round in 0..2u64 {
            let mut sink = JsonlSink::append(&path).unwrap();
            sink.record(&Event::Marker { name: "run_start", detail: round.to_string(), t_us: 0 });
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "append mode must not truncate");
        let _ = std::fs::remove_file(&path);
    }
}
