//! Host-speed calibration.
//!
//! The benchmark shares its host with other tenants, and the host's speed
//! drifts in phases that last from seconds to minutes: on the 2-core
//! Intel Xeon (2.0 GHz) the benchmark was written on, the same iteration
//! ran 0.85 s in one phase and 1.40 s in the next. A 25-second run cannot
//! average that out. The tenants slow the benchmark down in two ways:
//!
//! * they share the cores' caches and execution units, so the same work
//!   takes longer. The timed runs bracket every iteration with a fixed
//!   kernel that depends on no netbatch code, and scale the iteration's
//!   times by how fast that kernel ran next to it;
//! * the hypervisor hands a virtual CPU to another tenant for a while
//!   (steal time). A kernel scaled by its own wall time corrects this only
//!   for one thread: on the multi-threaded kernels, a stall of either
//!   worker holds up the barrier both wait on, so the iteration loses more
//!   than a calibration thread does. So steal is taken out of both: the
//!   kernel's time excludes its thread's steal, and the iteration's times
//!   lose the share of its wall time that the host's CPUs spent stolen.
//!
//! The reported times are seconds at the reference host speed, the speed
//! at which the kernel takes [`REFERENCE_S`], with no CPU stolen.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host, in seconds.
pub const REFERENCE_S: f64 = 0.080;

/// Runs the calibration kernel once and returns its time in seconds: the
/// time its thread ran or waited to run, which is its wall time less
/// steal. It is a fixed mix of the work the simulator does most:
/// priority-queue pushes and pops, hash-map inserts and lookups over a
/// working set of a few MiB, and a sort.
pub fn kernel_s() -> f64 {
    let busy = thread_busy_s();
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap = BinaryHeap::new();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0u64;
    for i in 0..300_000u64 {
        heap.push(next() % 1_000_000);
        map.insert(next() % 500_000, i);
        if i % 2 == 1 {
            acc = acc.wrapping_add(heap.pop().unwrap_or(0));
        }
        if let Some(v) = map.get(&(next() % 500_000)) {
            acc = acc.wrapping_add(*v);
        }
    }
    let mut v: Vec<u64> = (0..500_000).map(|_| next()).collect();
    v.sort_unstable();
    black_box(acc.wrapping_add(v[v.len() / 2]));
    let wall = start.elapsed().as_secs_f64();
    match (busy, thread_busy_s()) {
        (Some(before), Some(after)) if after > before => after - before,
        _ => wall,
    }
}

/// Seconds the calling thread has run plus waited on a run queue, from
/// `/proc/thread-self/schedstat`. Steal is in neither: Linux charges
/// a thread only for the time its virtual CPU really ran. `None` where
/// the file cannot be read.
fn thread_busy_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = stat.split_whitespace().map(|f| f.parse::<u64>().ok());
    let ran = fields.next()??;
    let waited = fields.next()??;
    Some((ran + waited) as f64 * 1e-9)
}

/// Steal time of all the host's CPUs so far, in seconds: the `steal`
/// column of the `cpu` line of `/proc/stat`, in units of 10 ms. 0 where
/// the file cannot be read.
pub fn steal_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    stat.lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .and_then(|l| l.split_whitespace().nth(7))
        .and_then(|f| f.parse::<u64>().ok())
        .map_or(0.0, |ticks| ticks as f64 / 100.0)
}

/// The factor that scales an iteration's host times to the reference
/// speed with no CPU stolen. `kernel` is the mean time of the calibration
/// runs around the iteration, `wall` its wall time and `stolen` the steal
/// over all CPUs while it ran. An iteration loses at most the steal of
/// the CPUs it kept busy, and a CPU with no runnable thread accrues none,
/// so all of `stolen` is taken out of `wall`. The share taken out is
/// capped at a half against a steal reading that outgrows the wall time.
pub fn speed_factor(kernel: f64, wall: f64, stolen: f64) -> f64 {
    let kept = 1.0 - (stolen / wall.max(1e-9)).clamp(0.0, 0.5);
    REFERENCE_S / kernel.max(1e-9) * kept
}

/// Runs the kernel on `threads` threads at once and returns their mean
/// time in seconds. A workload whose kernels keep several cores busy is
/// scaled by the speed of all those cores: the tenants that slow the host
/// down do not load its cores evenly, so one core's speed can miss a
/// slowdown that the parallel kernels feel.
pub fn kernel_on_s(threads: usize) -> f64 {
    if threads <= 1 {
        return kernel_s();
    }
    std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(kernel_s)).collect();
        let mine = kernel_s();
        let total: f64 = others
            .into_iter()
            .map(|h| h.join().expect("calibration kernel panicked"))
            .sum();
        (mine + total) / threads as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_factor_takes_out_kernel_speed_and_steal() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(speed_factor(REFERENCE_S, 1.0, 0.0), 1.0));
        assert!(close(speed_factor(2.0 * REFERENCE_S, 1.0, 0.0), 0.5));
        assert!(close(speed_factor(REFERENCE_S, 2.0, 0.5), 0.75));
        assert!(close(speed_factor(REFERENCE_S, 1.0, 3.0), 0.5));
    }

    #[test]
    fn kernel_time_is_positive_on_any_thread_count() {
        assert!(kernel_s() > 0.0);
        assert!(kernel_on_s(2) > 0.0);
        assert!(steal_s() >= 0.0);
    }
}
