//! Periodic sampling support.
//!
//! ASCA "samples at each minute the current states of all NetBatch
//! components". [`PeriodicSampler`] generates that cadence of sampling
//! instants; the model schedules a sampling event at each one and records
//! whatever state it wants into the metrics crate.

use crate::time::{SimDuration, SimTime};

/// Generates an arithmetic sequence of sampling instants.
///
/// # Examples
///
/// ```
/// use netbatch_sim_engine::sampler::PeriodicSampler;
/// use netbatch_sim_engine::time::{SimDuration, SimTime};
///
/// let mut s = PeriodicSampler::new(SimTime::ZERO, SimDuration::from_minutes(10));
/// assert_eq!(s.next_tick().as_minutes(), 0);
/// assert_eq!(s.next_tick().as_minutes(), 10);
/// assert_eq!(s.next_tick().as_minutes(), 20);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeriodicSampler {
    next: SimTime,
    interval: SimDuration,
}

impl PeriodicSampler {
    /// Creates a sampler whose first tick is at `start` and which then ticks
    /// every `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(start: SimTime, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        PeriodicSampler {
            next: start,
            interval,
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Returns the upcoming tick without consuming it.
    pub fn peek_tick(&self) -> SimTime {
        self.next
    }

    /// Consumes and returns the next sampling instant.
    pub fn next_tick(&mut self) -> SimTime {
        let t = self.next;
        self.next = self.next.saturating_add(self.interval);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_advance_by_interval() {
        let mut s = PeriodicSampler::new(SimTime::from_minutes(5), SimDuration::from_minutes(3));
        assert_eq!(s.next_tick().as_minutes(), 5);
        assert_eq!(s.next_tick().as_minutes(), 8);
        assert_eq!(s.next_tick().as_minutes(), 11);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut s = PeriodicSampler::new(SimTime::ZERO, SimDuration::MINUTE);
        assert_eq!(s.peek_tick(), SimTime::ZERO);
        assert_eq!(s.peek_tick(), SimTime::ZERO);
        s.next_tick();
        assert_eq!(s.peek_tick(), SimTime::from_minutes(1));
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        PeriodicSampler::new(SimTime::ZERO, SimDuration::ZERO);
    }
}
