//! Per-layer replays for the traced run. Each one drives a single crate's
//! public API with a cell's own inputs, so the layer's cost can be read
//! without the rest of the simulator around it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use netbatch_cluster::ids::{JobId, PoolId};
use netbatch_cluster::index::AvailabilityIndex;
use netbatch_cluster::job::{JobSpec, Resources};
use netbatch_cluster::machine::Machine;
use netbatch_cluster::pool::PhysicalPool;
use netbatch_cluster::priority::Priority;
use netbatch_cluster::snapshot::ClusterSnapshot;
use netbatch_core::policy::StrategyKind;
use netbatch_sim_engine::queue::EventQueue;
use netbatch_sim_engine::rng::DetRng;
use netbatch_sim_engine::time::{SimDuration, SimTime};
use netbatch_workload::scenarios::SiteSpec;
use netbatch_workload::trace::Trace;

/// Work count and wall time of one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Replay {
    pub ops: u64,
    pub secs: f64,
}

impl Replay {
    pub fn add(&mut self, other: Replay) {
        self.ops += other.ops;
        self.secs += other.secs;
    }

    /// Nanoseconds per operation (0 when nothing ran).
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.secs * 1e9 / self.ops as f64
        }
    }
}

/// The trace's timer stream through `EventQueue::schedule`/`pop`: every
/// submission is scheduled up front at its arrival, and popping it
/// schedules its completion at arrival plus runtime.
pub fn queue(trace: &Trace) -> Replay {
    let records = trace.records();
    let start = Instant::now();
    let mut q: EventQueue<u64> = EventQueue::with_capacity(records.len() * 2 + 64);
    for (i, r) in records.iter().enumerate() {
        q.schedule(SimTime::from_minutes(r.submit_minute), (i as u64) << 1);
    }
    let mut ops = records.len() as u64;
    while let Some((at, ev)) = q.pop() {
        ops += 1;
        if ev & 1 == 0 {
            let r = &records[(ev >> 1) as usize];
            let done = at.saturating_add(SimDuration::from_minutes(r.runtime_minutes));
            q.schedule(done, ev | 1);
            ops += 1;
        }
        black_box(at);
    }
    Replay {
        ops,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Round-robin pool choice over a record's affinity (empty = any pool).
fn route(affinity: &[u16], pools: usize, cursor: &mut usize) -> usize {
    *cursor += 1;
    if affinity.is_empty() {
        *cursor % pools
    } else {
        usize::from(affinity[*cursor % affinity.len()]) % pools
    }
}

enum IndexOp {
    Place { pool: usize, res: Resources },
    Release { pool: usize, job: usize },
}

/// The trace's resource requests through `AvailabilityIndex::first_fit`
/// and `sync` over the site's machines: each job is placed first-fit in
/// its round-robin pool (or dropped when nothing fits) and released at
/// arrival plus runtime. A first untimed pass fixes the operation order;
/// the timed pass replays it, so `ops` counts placements and the time
/// covers `first_fit`, the machine update and both `sync`s per job.
pub fn index(site: &SiteSpec, trace: &Trace) -> Replay {
    let fresh = || -> Vec<(Vec<Machine>, AvailabilityIndex)> {
        site.pools
            .iter()
            .map(|p| {
                let machines: Vec<Machine> = p.machines.iter().cloned().map(Machine::new).collect();
                let index = AvailabilityIndex::new(&machines);
                (machines, index)
            })
            .collect()
    };
    let pools = site.pools.len();
    // Untimed planning pass.
    let mut state = fresh();
    let mut ops = Vec::with_capacity(trace.len() * 2);
    let mut releases: BinaryHeap<Reverse<(u64, usize, usize, usize)>> = BinaryHeap::new();
    let mut cursor = 0;
    for (job, r) in trace.iter().enumerate() {
        while let Some(&Reverse((end, pool, machine, done))) = releases.peek() {
            if end > r.submit_minute {
                break;
            }
            releases.pop();
            let (machines, index) = &mut state[pool];
            machines[machine].release(JobId(done as u64));
            index.sync(machine, &machines[machine]);
            ops.push(IndexOp::Release { pool, job: done });
        }
        let pool = route(&r.affinity, pools, &mut cursor);
        let res = Resources {
            cores: r.cores,
            memory_mb: r.memory_mb,
        };
        let (machines, index) = &mut state[pool];
        ops.push(IndexOp::Place { pool, res });
        if let Some(m) = index.first_fit(res) {
            machines[m].start(SimTime::ZERO, JobId(job as u64), res, Priority::LOW);
            index.sync(m, &machines[m]);
            releases.push(Reverse((
                r.submit_minute + r.runtime_minutes.max(1),
                pool,
                m,
                job,
            )));
        }
    }
    // Timed pass over the same operations.
    let mut state = fresh();
    let mut placed_on = vec![usize::MAX; trace.len()];
    let mut job = 0;
    let mut placements = 0;
    let start = Instant::now();
    for op in &ops {
        match *op {
            IndexOp::Place { pool, res } => {
                let (machines, index) = &mut state[pool];
                if let Some(m) = index.first_fit(res) {
                    machines[m].start(SimTime::ZERO, JobId(job as u64), res, Priority::LOW);
                    index.sync(m, &machines[m]);
                    placed_on[job] = m;
                }
                job += 1;
                placements += 1;
            }
            IndexOp::Release { pool, job: done } => {
                let (machines, index) = &mut state[pool];
                let m = placed_on[done];
                machines[m].release(JobId(done as u64));
                index.sync(m, &machines[m]);
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    black_box(&state);
    Replay {
        ops: placements,
        secs,
    }
}

/// Pools loaded with the trace's first jobs (one per core of the site,
/// round-robin over each job's affinity), so snapshots and policies see
/// busy pools with queues and suspensions rather than an idle site.
pub fn loaded_pools(site: &SiteSpec, trace: &Trace) -> Vec<PhysicalPool> {
    let mut pools: Vec<PhysicalPool> = site.pools.iter().cloned().map(PhysicalPool::new).collect();
    let count = pools.len();
    let mut cursor = 0;
    let prefix = (site.total_cores() as usize).min(trace.len());
    for (i, r) in trace.iter().take(prefix).enumerate() {
        let pool = route(&r.affinity, count, &mut cursor);
        let spec = r.to_spec(JobId(i as u64));
        black_box(pools[pool].submit(SimTime::from_minutes(r.submit_minute), &spec));
    }
    pools
}

/// `ClusterSnapshot::capture_into` over every pool, `reps` times.
pub fn capture(pools: &[PhysicalPool], reps: u64) -> Replay {
    let mut snap = ClusterSnapshot::default();
    let start = Instant::now();
    for _ in 0..reps {
        snap.capture_into(pools.iter());
        black_box(&snap);
    }
    Replay {
        ops: reps,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// The strategy's selection (`ReschedPolicy::on_suspended`, plus
/// `on_waiting` for wait-rescheduling strategies) for the trace's first
/// `calls` jobs on a snapshot of `pools`, each job's candidates being its
/// affinity set and its current pool the first of them.
pub fn policy(
    strategy: StrategyKind,
    pools: &[PhysicalPool],
    trace: &Trace,
    calls: usize,
    seed: u64,
) -> Replay {
    let view = ClusterSnapshot::capture(pools.iter());
    let count = pools.len() as u16;
    let jobs: Vec<(JobSpec, Vec<PoolId>)> = trace
        .iter()
        .take(calls)
        .enumerate()
        .map(|(i, r)| {
            let spec = r.to_spec(JobId(i as u64));
            let candidates = spec.affinity.candidates(count);
            (spec, candidates)
        })
        .collect();
    let mut policy = strategy.build();
    let waits = policy.wait_threshold().is_some();
    let mut rng = DetRng::from_seed_u64(seed).stream("policy");
    let mut ops = 0;
    let start = Instant::now();
    for (spec, candidates) in &jobs {
        let current = candidates[0];
        black_box(policy.on_suspended(spec, current, candidates, &view, &mut rng));
        ops += 1;
        if waits {
            black_box(policy.on_waiting(spec, current, candidates, &view, &mut rng));
            ops += 1;
        }
    }
    Replay {
        ops,
        secs: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbatch_workload::scenarios::ScenarioParams;

    #[test]
    fn replays_do_work_on_a_small_site() {
        let params = ScenarioParams::normal_week(0.01);
        let site = params.build_site();
        let trace = params.generate_trace();
        let q = queue(&trace);
        assert_eq!(q.ops, 4 * trace.len() as u64);
        assert_eq!(index(&site, &trace).ops, trace.len() as u64);
        let pools = loaded_pools(&site, &trace);
        assert!(pools.iter().any(|p| p.busy_cores() > 0));
        assert_eq!(capture(&pools, 5).ops, 5);
        let p = policy(StrategyKind::ResSusWaitUtil, &pools, &trace, 50, 1);
        assert_eq!(p.ops, 100);
    }
}
