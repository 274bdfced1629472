//! A [`SimObserver`] wrapper that delegates to one observer and times its
//! callbacks, so the traced run can split observer fan-out per observer.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use netbatch_core::observer::{ObsCtx, ObsEvent, SimObserver};
use netbatch_sim_engine::time::SimTime;

/// Callback time and count shared between a [`Timed`] wrapper riding a
/// run and the benchmark that reads it afterwards.
#[derive(Debug, Default)]
pub struct CallStats {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl CallStats {
    fn add(&self, since: Instant) {
        self.nanos
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
pub struct Timed {
    inner: Box<dyn SimObserver>,
    stats: Arc<CallStats>,
}

impl Timed {
    pub fn new(inner: Box<dyn SimObserver>, stats: Arc<CallStats>) -> Self {
        Timed { inner, stats }
    }
}

impl SimObserver for Timed {
    fn on_event(&mut self, now: SimTime, event: &ObsEvent, ctx: &ObsCtx<'_>) {
        let t = Instant::now();
        self.inner.on_event(now, event, ctx);
        self.stats.add(t);
    }

    fn on_run_end(&mut self, now: SimTime, ctx: &ObsCtx<'_>) {
        let t = Instant::now();
        self.inner.on_run_end(now, ctx);
        self.stats.add(t);
    }

    fn on_replayed_event(&mut self, now: SimTime, event: &ObsEvent, ctx: &ObsCtx<'_>) {
        let t = Instant::now();
        self.inner.on_replayed_event(now, event, ctx);
        self.stats.add(t);
    }

    fn on_settle(&mut self, now: SimTime, ctx: &ObsCtx<'_>) {
        let t = Instant::now();
        self.inner.on_settle(now, ctx);
        self.stats.add(t);
    }

    /// Downcasts see the wrapped observer, so `SimOutput::observer::<T>()`
    /// finds it exactly as if it were attached directly.
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}
