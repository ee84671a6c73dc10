//! Offline replay of `events.jsonl` — the read side of the event log.
//!
//! [`JsonlSink`](crate::JsonlSink) writes one JSON object per event;
//! this module streams those lines back through [`parse_line`] and
//! folds them into a [`RunReplay`]. The phases, counters, gauges and span pairing are a
//! [`Tally`] — the same fold the live `metrics.json` aggregator uses —
//! kept with every duration, so reports get exact p50/p90/p99, not
//! histogram-bucket interpolation. On top of it come the counter, gauge
//! and marker series, completed spans for the Chrome trace exporter,
//! and the log's shape: lines, legs and a torn tail.
//!
//! Two realities of the log shape this reader must absorb:
//!
//! * **Torn tails.** A SIGKILL can land mid-flush, truncating the final
//!   line. A truncated *tail* is expected damage — the reader stops
//!   there and flags [`RunReplay::torn_tail`] instead of erroring.
//!   Garbage anywhere *before* the tail is real corruption and fails
//!   the replay with the offending line number.
//! * **Legs.** `resume` appends to `events.jsonl`, and each process
//!   restarts the event clock at its own epoch, so a resumed run's log
//!   is several monotone "legs" separated by timestamp resets. The
//!   reader detects resets, validates monotonicity per leg, and lays
//!   legs end-to-end on one global timeline (`leg` gaps of
//!   [`LEG_GAP_US`]) so downstream exporters see a single axis.

use std::fmt;
use std::io::BufRead;
use std::path::Path;

use crate::jsonl::parse_line;
use crate::tally::{Phase, Tally};
use crate::Event;

/// Cosmetic gap inserted between legs on the stitched global timeline,
/// so a resumed run's legs render as visibly separate bursts.
pub const LEG_GAP_US: u64 = 1_000;

/// Why a replay failed: a malformed line *before* the tail (torn tails
/// are tolerated, not errors) or an unreadable file.
#[derive(Debug)]
pub struct ReplayError {
    /// 1-based line number of the offending line (0 for I/O errors).
    pub line: u64,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "events.jsonl line {}: {}", self.line, self.message)
        } else {
            write!(f, "events.jsonl: {}", self.message)
        }
    }
}

impl std::error::Error for ReplayError {}

/// Replayed statistics for one phase, with every span duration kept.
pub type PhaseReplay = Phase<Vec<u64>>;

impl PhaseReplay {
    /// Exact nearest-rank quantiles over the recorded durations, one
    /// per `q` in `(0, 1]`, from one sort; all 0 when the phase never
    /// completed a span.
    pub fn quantiles_us<const N: usize>(&self, qs: [f64; N]) -> [u64; N] {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        qs.map(|q| match sorted.len() {
            0 => 0,
            len => sorted[((q * len as f64).ceil() as usize).clamp(1, len) - 1],
        })
    }
}

/// One completed span on the stitched global timeline (for the Chrome
/// trace exporter).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Phase name.
    pub name: String,
    /// 1-based leg index (fresh run = all leg 1).
    pub leg: u32,
    /// Start on the global timeline (legs laid end-to-end).
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Nesting depth (outermost is 1).
    pub depth: u32,
}

/// The folded result of replaying a full `events.jsonl`.
#[derive(Debug, Default)]
pub struct RunReplay {
    /// Event lines successfully decoded.
    pub lines: u64,
    /// Process legs seen (1 for a fresh run, +1 per resume).
    pub legs: u32,
    /// The final line was truncated (SIGKILL mid-flush) and skipped.
    pub torn_tail: bool,
    /// Phases, counters, gauges and span pairing over every leg. Its
    /// `unclosed_spans` counts spans still open when their leg ended
    /// (events lost to a crash between flushes, or cut off by the torn
    /// tail).
    pub tally: Tally<String, Vec<u64>>,
    /// Every gauge sample as `(name, global t, value)`, in file order.
    pub gauge_events: Vec<(String, u64, f64)>,
    /// Every counter increment as `(name, global t, delta)`, in file
    /// order.
    pub counter_events: Vec<(String, u64, u64)>,
    /// Every marker as `(name, detail, global t)`, in file order.
    pub markers: Vec<(String, String, u64)>,
    /// Every completed span, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Total stitched wall-clock extent across legs (excluding the
    /// cosmetic inter-leg gaps).
    pub wall_us: u64,
}

/// Streams `events.jsonl` lines from `reader` and folds them into a
/// [`RunReplay`]. Lines are processed one at a time — the whole file is
/// never held in memory. A truncated final line sets
/// [`RunReplay::torn_tail`]; a malformed line with valid lines after it
/// is an error.
pub fn replay<R: BufRead>(mut reader: R) -> Result<RunReplay, ReplayError> {
    let mut out = RunReplay::default();
    let mut last_t_us = 0u64;
    let mut leg_offset_us = 0u64;
    let mut leg_max_t_us = 0u64;
    let mut line_no = 0u64;
    // A line that failed to parse; fatal unless it turns out to be last.
    let mut pending_failure: Option<(u64, String)> = None;

    let mut buf = Vec::new();
    loop {
        buf.clear();
        let read = reader
            .read_until(b'\n', &mut buf)
            .map_err(|e| ReplayError { line: 0, message: format!("read failed: {e}") })?;
        if read == 0 {
            break;
        }
        let raw = String::from_utf8_lossy(&buf);
        let line = raw.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() {
            continue;
        }
        line_no += 1;
        if let Some((failed_line, message)) = pending_failure.take() {
            // The malformed line was not the tail after all.
            return Err(ReplayError { line: failed_line, message });
        }
        let event = match parse_line(line) {
            Ok(event) => event,
            Err(message) => {
                pending_failure = Some((line_no, message));
                continue;
            }
        };
        out.lines += 1;

        let t_us = event.t_us();
        if out.legs == 0 {
            out.legs = 1;
        } else if t_us < last_t_us {
            // The event clock reset: a resumed process appended a new
            // leg. Within one leg the writer's clock is monotonic by
            // construction, so any regression marks a process boundary
            // — which is also why a fresh run replaying to `legs == 1`
            // *is* the monotone-`t_us` guarantee.
            out.tally.close_open();
            leg_offset_us += leg_max_t_us + LEG_GAP_US;
            out.legs += 1;
            leg_max_t_us = 0;
        }
        last_t_us = t_us;
        leg_max_t_us = leg_max_t_us.max(t_us);
        let global_t_us = leg_offset_us + t_us;

        let opened_at = out.tally.record(&event);
        match event {
            Event::SpanEnter { .. } => {}
            Event::SpanExit { name, dur_us, depth, .. } => {
                let start_us = opened_at
                    .map_or(global_t_us.saturating_sub(dur_us), |t_us| leg_offset_us + t_us);
                out.spans.push(SpanRecord { name, leg: out.legs, start_us, dur_us, depth });
            }
            Event::Counter { name, delta, .. } => {
                out.counter_events.push((name, global_t_us, delta))
            }
            Event::Gauge { name, value, .. } => out.gauge_events.push((name, global_t_us, value)),
            Event::Marker { name, detail, .. } => out.markers.push((name, detail, global_t_us)),
        }
    }

    if pending_failure.is_some() {
        // SIGKILL landed mid-flush: the tail line is torn. Everything
        // before it already validated, so the replay stands — flagged.
        out.torn_tail = true;
    }
    out.tally.close_open();
    out.wall_us = leg_offset_us.saturating_sub(LEG_GAP_US * (out.legs.saturating_sub(1)) as u64)
        + leg_max_t_us;
    Ok(out)
}

/// Replays `events.jsonl` inside a run directory.
pub fn replay_run_dir(dir: &Path) -> Result<RunReplay, ReplayError> {
    let path = dir.join("events.jsonl");
    let file = std::fs::File::open(&path).map_err(|e| ReplayError {
        line: 0,
        message: format!("cannot open {}: {e}", path.display()),
    })?;
    replay(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn enter(id: u64, span: &str, depth: u32, t: u64) -> String {
        format!(
            "{{\"type\":\"enter\",\"span\":\"{span}\",\"id\":{id},\"depth\":{depth},\"t_us\":{t}}}"
        )
    }

    fn exit(id: u64, span: &str, depth: u32, t: u64, dur: u64) -> String {
        format!(
            "{{\"type\":\"exit\",\"span\":\"{span}\",\"id\":{id},\"depth\":{depth},\"t_us\":{t},\"dur_us\":{dur}}}"
        )
    }

    fn counter(name: &str, delta: u64, t: u64) -> String {
        format!("{{\"type\":\"counter\",\"name\":\"{name}\",\"delta\":{delta},\"t_us\":{t}}}")
    }

    fn gauge(name: &str, value: f64, t: u64) -> String {
        format!("{{\"type\":\"gauge\",\"name\":\"{name}\",\"value\":{value},\"t_us\":{t}}}")
    }

    fn replay_text(text: &str) -> Result<RunReplay, ReplayError> {
        replay(Cursor::new(text.as_bytes().to_vec()))
    }

    #[test]
    fn replays_nested_spans_with_exact_self_time() {
        let log = [
            enter(1, "step", 1, 0),
            enter(2, "evaluate", 2, 10),
            exit(2, "evaluate", 2, 40, 30),
            exit(1, "step", 1, 100, 100),
            counter("evaluations", 8, 100),
            gauge("phv", 0.5, 101),
        ]
        .join("\n");
        let r = replay_text(&format!("{log}\n")).expect("clean replay");
        assert_eq!(r.lines, 6);
        assert_eq!(r.legs, 1);
        assert_eq!((r.tally.unclosed_spans, r.tally.nesting_violations), (0, 0));
        assert!(!r.torn_tail);
        let step = r.tally.phase("step").expect("step phase");
        assert_eq!((step.count, step.total_us, step.self_us, step.max_us), (1, 100, 70, 100));
        let eval = r.tally.phase("evaluate").expect("evaluate phase");
        assert_eq!((eval.count, eval.total_us, eval.self_us), (1, 30, 30));
        assert_eq!(r.tally.counter("evaluations"), 8);
        assert_eq!(r.tally.gauge("phv"), Some(0.5));
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[0].name, "evaluate");
        assert_eq!(r.spans[0].start_us, 10);
        assert_eq!(r.wall_us, 101);
    }

    #[test]
    fn torn_tail_is_flagged_not_fatal() {
        let log = format!(
            "{}\n{}\n{}",
            enter(1, "step", 1, 0),
            exit(1, "step", 1, 50, 50),
            "{\"type\":\"counter\",\"name\":\"evalu" // cut mid-flush
        );
        let r = replay_text(&log).expect("torn tail tolerated");
        assert!(r.torn_tail);
        assert_eq!(r.lines, 2);
        assert_eq!(r.tally.phase("step").expect("step phase").count, 1);
        assert_eq!((r.tally.unclosed_spans, r.tally.nesting_violations), (0, 0));
    }

    #[test]
    fn malformed_line_before_the_tail_is_an_error() {
        let log = format!("{}\nnot json at all\n{}\n", enter(1, "step", 1, 0), counter("c", 1, 5));
        let err = replay_text(&log).expect_err("mid-file corruption must fail");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn timestamp_resets_split_legs_and_stitch_one_timeline() {
        let log = [
            enter(1, "step", 1, 100),
            exit(1, "step", 1, 900, 800),
            // Leg 2: the resumed process restarts the clock.
            enter(1, "step", 1, 5),
            exit(1, "step", 1, 105, 100),
        ]
        .join("\n");
        let r = replay_text(&format!("{log}\n")).expect("clean replay");
        assert_eq!(r.legs, 2);
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[0].leg, 1);
        assert_eq!(r.spans[1].leg, 2);
        // Leg 2 is laid after leg 1's extent plus the gap.
        assert_eq!(r.spans[1].start_us, 900 + LEG_GAP_US + 5);
        assert_eq!(r.wall_us, 900 + 105);
    }

    #[test]
    fn unclosed_spans_at_a_crash_boundary_are_counted() {
        let log = [
            enter(1, "step", 1, 0),
            enter(2, "evaluate", 2, 5),
            // Crash: no exits ever flushed. New leg follows.
            enter(1, "step", 1, 2),
            exit(1, "step", 1, 50, 48),
        ]
        .join("\n");
        let r = replay_text(&format!("{log}\n")).expect("replay");
        assert_eq!(r.legs, 2);
        assert_eq!(r.tally.unclosed_spans, 2);
        assert_eq!(r.tally.phase("step").expect("step").count, 1);
    }

    #[test]
    fn mismatched_exit_counts_a_nesting_violation() {
        let log = [enter(1, "a", 1, 0), exit(9, "a", 1, 10, 10)].join("\n");
        let r = replay_text(&format!("{log}\n")).expect("replay");
        assert_eq!(r.tally.nesting_violations, 1);
        assert_eq!(r.tally.phase("a").expect("a").count, 1, "the exit still counts its phase");
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let p = PhaseReplay { samples: (1..=100).collect(), ..Default::default() };
        assert_eq!(p.quantiles_us([0.50, 0.90, 0.99, 1.0]), [50, 90, 99, 100]);
        assert_eq!(PhaseReplay::default().quantiles_us([0.5]), [0]);
    }
}
