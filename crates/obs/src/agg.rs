//! In-memory aggregation of the event stream into `metrics.json`.

use crate::hist::LogHistogram;
use crate::tally::Tally;
use crate::{Event, Sink};
use moela_persist::Value;

/// Folds the event stream into per-phase wall-clock statistics (self and
/// total time via the span stack), counters, gauges, a per-generation
/// hypervolume series, and per-phase latency histograms. Render the
/// result with [`MetricsAggregator::render`].
///
/// The spans, counters and gauges are a [`Tally`], the same fold the
/// offline replay uses; this adds the histograms, the `phv` series and
/// the event-time window. Recording an event allocates only to grow a
/// table (a new name or a deeper nesting) or the `phv` series.
///
/// Everything here is process-local: after a resume only post-resume
/// events are aggregated, so rates never pretend restored work happened
/// in this process.
#[derive(Debug, Default)]
pub struct MetricsAggregator {
    tally: Tally<&'static str, LogHistogram>,
    phv_series: Vec<f64>,
    first_t_us: Option<u64>,
    last_t_us: u64,
}

impl MetricsAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.tally.counter(name)
    }

    /// Span enter/exit pairs seen out of order (0 in a well-formed run).
    pub fn nesting_violations(&self) -> u64 {
        self.tally.nesting_violations
    }

    /// Wall-clock span of the aggregated events in microseconds.
    pub fn wall_us(&self) -> u64 {
        self.last_t_us.saturating_sub(self.first_t_us.unwrap_or(0))
    }

    /// Current value of a gauge (`None` when never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.tally.gauge(name)
    }

    /// Evaluations per second over the event-time window.
    fn evals_per_sec(&self) -> f64 {
        match self.wall_us() {
            0 => 0.0,
            wall_us => self.counter("evaluations") as f64 / (wall_us as f64 / 1e6),
        }
    }

    /// A cheap live snapshot for polling while a run is still in flight
    /// (the job server's `GET /jobs/{id}`): evaluation/generation
    /// counters, throughput over the process wall-clock window, and the
    /// latest PHV gauge — no histograms, no per-phase breakdown. Safe to
    /// call at any event boundary; [`MetricsAggregator::render`] remains
    /// the full end-of-run report.
    pub fn summary(&self) -> Value {
        let mut fields = vec![
            ("wall_us", Value::U64(self.wall_us())),
            ("evaluations", Value::U64(self.counter("evaluations"))),
            ("generations", Value::U64(self.counter("generations"))),
            ("evals_per_sec", Value::F64(self.evals_per_sec())),
        ];
        if let Some(phv) = self.gauge("phv") {
            fields.push(("phv", Value::F64(phv)));
        }
        Value::object(fields)
    }

    /// Render the aggregate as the body of `metrics.json`.
    pub fn render(&self) -> Value {
        let phases = self.tally.phases.iter().map(|(name, phase)| {
            let stat = Value::object(vec![
                ("count", Value::U64(phase.count)),
                ("total_us", Value::U64(phase.total_us)),
                ("self_us", Value::U64(phase.self_us)),
                ("max_us", Value::U64(phase.max_us)),
                ("latency_hist", phase.samples.to_value()),
            ]);
            (name.to_string(), stat)
        });
        let counters = self.tally.counters.iter().map(|(n, v)| (n.to_string(), Value::U64(*v)));
        let gauges = self.tally.gauges.iter().map(|(n, v)| (n.to_string(), Value::F64(*v)));
        Value::object(vec![
            ("wall_us", Value::U64(self.wall_us())),
            ("evals_per_sec", Value::F64(self.evals_per_sec())),
            ("phases", Value::Object(phases.collect())),
            ("counters", Value::Object(counters.collect())),
            ("gauges", Value::Object(gauges.collect())),
            (
                "phv_per_generation",
                Value::Array(self.phv_series.iter().map(|&v| Value::F64(v)).collect()),
            ),
            ("nesting_violations", Value::U64(self.tally.nesting_violations)),
        ])
    }
}

impl Sink for MetricsAggregator {
    fn record(&mut self, event: &Event) {
        let t_us = event.t_us();
        self.first_t_us.get_or_insert(t_us);
        self.last_t_us = self.last_t_us.max(t_us);
        self.tally.record(event);
        if let Event::Gauge { name: "phv", value, .. } = event {
            self.phv_series.push(*value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_keep_last_value() {
        let mut agg = MetricsAggregator::new();
        agg.record(&Event::Counter { name: "evaluations", delta: 5, t_us: 0 });
        agg.record(&Event::Counter { name: "evaluations", delta: 7, t_us: 1 });
        agg.record(&Event::Gauge { name: "phv", value: 0.25, t_us: 2 });
        agg.record(&Event::Gauge { name: "phv", value: 0.75, t_us: 3 });
        assert_eq!(agg.counter("evaluations"), 12);
        let v = agg.render();
        let phv = v.field("gauges").unwrap().field("phv").unwrap().as_f64().unwrap();
        assert!((phv - 0.75).abs() < 1e-12);
        let series = v.field("phv_per_generation").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 2);
    }

    #[test]
    fn evals_per_sec_uses_process_wall_clock_window() {
        let mut agg = MetricsAggregator::new();
        // Window opens at 1_000_000us; a resumed process must not count
        // time before its first event.
        agg.record(&Event::Counter { name: "evaluations", delta: 100, t_us: 1_000_000 });
        agg.record(&Event::Counter { name: "evaluations", delta: 100, t_us: 2_000_000 });
        let v = agg.render();
        let rate = v.field("evals_per_sec").unwrap().as_f64().unwrap();
        assert!((rate - 200.0).abs() < 1e-9, "rate {rate}");
    }

    #[test]
    fn summary_is_a_cheap_live_subset() {
        let mut agg = MetricsAggregator::new();
        let v = agg.summary();
        assert_eq!(v.field("evaluations").unwrap().as_u64().unwrap(), 0);
        assert!(v.field_opt("phv").is_none());
        agg.record(&Event::Counter { name: "evaluations", delta: 50, t_us: 0 });
        agg.record(&Event::Counter { name: "generations", delta: 2, t_us: 100 });
        agg.record(&Event::Gauge { name: "phv", value: 0.5, t_us: 1_000_000 });
        let v = agg.summary();
        assert_eq!(v.field("evaluations").unwrap().as_u64().unwrap(), 50);
        assert_eq!(v.field("generations").unwrap().as_u64().unwrap(), 2);
        let rate = v.field("evals_per_sec").unwrap().as_f64().unwrap();
        assert!((rate - 50.0).abs() < 1e-9, "rate {rate}");
        assert_eq!(v.field("phv").unwrap().as_f64().unwrap(), 0.5);
        assert!(v.field_opt("phases").is_none(), "summary must stay lightweight");
    }
}
