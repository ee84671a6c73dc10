//! The one fold of the event stream that both outputs build on.
//!
//! A [`Tally`] pairs span enters with exits on a stack, charges each
//! closed span's duration to its parent as child time, and keeps
//! per-phase count, total, self and max time, counter totals and the
//! latest gauge values, each table in first-seen order. The live
//! [`MetricsAggregator`](crate::MetricsAggregator) behind
//! `metrics.json` and the offline [`replay`](crate::replay) behind
//! `report.json` each hold one, so the two can only differ in what they
//! add on top.

use crate::hist::LogHistogram;
use crate::Event;

/// The per-span durations a fold keeps for each phase beyond its sums.
pub trait Samples: Default {
    /// Keeps one closed span's duration.
    fn push(&mut self, dur_us: u64);
}

/// Live: a fixed log-scale histogram, so recording never allocates.
impl Samples for LogHistogram {
    fn push(&mut self, dur_us: u64) {
        self.record(dur_us);
    }
}

/// Offline: every duration, for exact quantiles.
impl Samples for Vec<u64> {
    fn push(&mut self, dur_us: u64) {
        Vec::push(self, dur_us);
    }
}

/// One phase's closed spans.
#[derive(Debug, Default, Clone)]
pub struct Phase<S> {
    /// Closed spans.
    pub count: u64,
    /// Summed span durations, child spans included.
    pub total_us: u64,
    /// Summed durations minus the time of directly nested spans.
    pub self_us: u64,
    /// Longest single span.
    pub max_us: u64,
    /// Every duration, as the fold keeps them.
    pub samples: S,
}

#[derive(Debug)]
struct Frame<N> {
    id: u64,
    name: N,
    start_us: u64,
    child_us: u64,
}

/// Phases, counters and gauges folded from one event stream, keyed by
/// name type `N` (`&'static str` live, `String` when read back).
#[derive(Debug, Default)]
pub struct Tally<N, S> {
    /// Per-phase statistics, each phase added at its first span exit.
    pub phases: Vec<(N, Phase<S>)>,
    /// Counter totals, in first-seen order.
    pub counters: Vec<(N, u64)>,
    /// Latest gauge values, in first-seen order.
    pub gauges: Vec<(N, f64)>,
    /// Span exits that did not close the innermost open span (same id
    /// and name); each one also forgets every open span.
    pub nesting_violations: u64,
    /// Spans still open when [`Tally::close_open`] was called.
    pub unclosed_spans: u64,
    stack: Vec<Frame<N>>,
}

impl<N: Clone + PartialEq + AsRef<str>, S: Samples> Tally<N, S> {
    /// Folds one event in. For a span exit that closes the innermost
    /// open span, returns that span's enter time.
    pub fn record(&mut self, event: &Event<N>) -> Option<u64> {
        match event {
            Event::SpanEnter { id, name, t_us, .. } => {
                let frame = Frame { id: *id, name: name.clone(), start_us: *t_us, child_us: 0 };
                self.stack.push(frame);
                None
            }
            Event::SpanExit { id, name, dur_us, .. } => {
                let open = self.stack.pop().filter(|f| f.id == *id && f.name == *name);
                if open.is_none() {
                    self.nesting_violations += 1;
                    self.stack.clear();
                }
                if let Some(parent) = self.stack.last_mut() {
                    parent.child_us = parent.child_us.saturating_add(*dur_us);
                }
                let child_us = open.as_ref().map_or(0, |f| f.child_us);
                let phase = entry(&mut self.phases, name);
                phase.count += 1;
                phase.total_us = phase.total_us.saturating_add(*dur_us);
                phase.self_us = phase.self_us.saturating_add(dur_us.saturating_sub(child_us));
                phase.max_us = phase.max_us.max(*dur_us);
                phase.samples.push(*dur_us);
                open.map(|f| f.start_us)
            }
            Event::Counter { name, delta, .. } => {
                let total = entry(&mut self.counters, name);
                *total = total.saturating_add(*delta);
                None
            }
            Event::Gauge { name, value, .. } => {
                *entry(&mut self.gauges, name) = *value;
                None
            }
            Event::Marker { .. } => None,
        }
    }

    /// Counts every open span as left open and forgets them: the end of
    /// a process's events.
    pub fn close_open(&mut self) {
        self.unclosed_spans += self.stack.len() as u64;
        self.stack.clear();
    }

    /// Counter total (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        lookup(&self.counters, name).copied().unwrap_or(0)
    }

    /// Latest gauge value (`None` when never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        lookup(&self.gauges, name).copied()
    }

    /// Phase statistics by name.
    pub fn phase(&self, name: &str) -> Option<&Phase<S>> {
        lookup(&self.phases, name)
    }
}

/// The value filed under `name`, appended as `V::default()` on first
/// sight.
fn entry<'a, N: Clone + PartialEq, V: Default>(table: &'a mut Vec<(N, V)>, name: &N) -> &'a mut V {
    let idx = match table.iter().position(|(n, _)| n == name) {
        Some(idx) => idx,
        None => {
            table.push((name.clone(), V::default()));
            table.len() - 1
        }
    };
    &mut table[idx].1
}

fn lookup<'a, N: AsRef<str>, V>(table: &'a [(N, V)], name: &str) -> Option<&'a V> {
    table.iter().find(|(n, _)| n.as_ref() == name).map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enter(id: u64, name: &'static str, t_us: u64) -> Event {
        Event::SpanEnter { id, name, depth: 0, t_us }
    }

    fn exit(id: u64, name: &'static str, t_us: u64, dur_us: u64) -> Event {
        Event::SpanExit { id, name, depth: 0, t_us, dur_us }
    }

    #[test]
    fn self_time_excludes_nested_children() {
        let mut tally = Tally::<&str, Vec<u64>>::default();
        assert_eq!(tally.record(&enter(1, "step", 0)), None);
        tally.record(&enter(2, "evaluate", 10));
        assert_eq!(tally.record(&exit(2, "evaluate", 40, 30)), Some(10));
        assert_eq!(tally.record(&exit(1, "step", 100, 100)), Some(0));
        let step = tally.phase("step").expect("step");
        assert_eq!((step.count, step.total_us, step.self_us, step.max_us), (1, 100, 70, 100));
        assert_eq!(tally.phase("evaluate").expect("evaluate").samples, [30]);
        assert_eq!(tally.nesting_violations, 0);
    }

    #[test]
    fn an_exit_must_match_both_id_and_name() {
        for bad in [exit(9, "a", 10, 10), exit(1, "b", 10, 10)] {
            let mut tally = Tally::<&str, Vec<u64>>::default();
            tally.record(&enter(1, "a", 0));
            assert_eq!(tally.record(&bad), None);
            assert_eq!(tally.nesting_violations, 1);
            tally.close_open();
            assert_eq!(tally.unclosed_spans, 0, "a violation forgets the open spans");
        }
    }

    #[test]
    fn counters_sum_and_gauges_keep_the_last_value_in_first_seen_order() {
        let mut tally = Tally::<&str, LogHistogram>::default();
        for (name, delta) in [("b", 5), ("a", 1), ("b", 7)] {
            tally.record(&Event::Counter { name, delta, t_us: 0 });
        }
        tally.record(&Event::Gauge { name: "phv", value: 0.25, t_us: 1 });
        tally.record(&Event::Gauge { name: "phv", value: 0.75, t_us: 2 });
        assert_eq!(tally.counters, [("b", 12), ("a", 1)]);
        assert_eq!((tally.counter("b"), tally.counter("never")), (12, 0));
        assert_eq!((tally.gauge("phv"), tally.gauge("never")), (Some(0.75), None));
    }
}
