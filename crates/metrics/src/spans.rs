//! Per-phase latency histograms in simulation time.
//!
//! A *span* is an interval in an entity's lifecycle — a job sitting in a
//! wait queue, a job held suspended. The observer layer decides when a
//! span opens and closes; [`SpanCollector`] aggregates the closed span
//! lengths into per-phase [`LogHistogram`]s, which is exactly the
//! per-phase latency signal (time-in-queue, time-suspended,
//! restart-wasted-work) the paper's tables summarize.
//!
//! Phases are keyed through a `BTreeMap`, so iteration order — and any
//! rendering built on it — is deterministic.

use std::collections::BTreeMap;

use netbatch_sim_engine::time::SimDuration;

use crate::histogram::LogHistogram;

/// Aggregates span lengths (in minutes) into one decade [`LogHistogram`]
/// per phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanCollector {
    hists: BTreeMap<&'static str, LogHistogram>,
}

impl SpanCollector {
    /// An empty collector.
    pub fn new() -> Self {
        SpanCollector::default()
    }

    /// Records one closed span's length into its phase histogram.
    pub fn observe(&mut self, phase: &'static str, len: SimDuration) {
        self.hists
            .entry(phase)
            .or_insert_with(LogHistogram::decades)
            .record(len.as_minutes() as f64);
    }

    /// Per-phase histograms of closed span lengths, in phase-name order.
    pub fn phases(&self) -> &BTreeMap<&'static str, LogHistogram> {
        &self.hists
    }

    /// The histogram for one phase, if any span of it closed.
    pub fn phase(&self, phase: &'static str) -> Option<&LogHistogram> {
        self.hists.get(phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_feed_their_phase_histogram() {
        let mut c = SpanCollector::new();
        c.observe("restart_waste", SimDuration::from_minutes(40));
        c.observe("restart_waste", SimDuration::from_minutes(60));
        c.observe("queue_wait", SimDuration::from_minutes(5));
        let h = c.phase("restart_waste").unwrap();
        assert_eq!(h.count(), 2);
        assert!((h.mean() - 50.0).abs() < 1e-12);
        assert_eq!(c.phase("queue_wait").unwrap().count(), 1);
        assert!(c.phase("suspended").is_none());
        let phases: Vec<_> = c.phases().keys().copied().collect();
        assert_eq!(phases, ["queue_wait", "restart_waste"]);
    }
}
