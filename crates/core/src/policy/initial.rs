//! Initial schedulers: how the virtual pool manager picks the pool a newly
//! submitted job is sent to (§3.2.1 of the paper).
//!
//! The scheduler has a *preference order* over the job's candidate pools;
//! the job lands in the first pool of that order with any eligible machine
//! (pools with none bounce it back). Schedulers pick that pool directly
//! instead of materializing the order.

use netbatch_cluster::ids::PoolId;
use netbatch_cluster::job::JobSpec;
use netbatch_cluster::snapshot::ClusterSnapshot;

/// A virtual-pool-manager scheduling discipline.
pub trait InitialScheduler: std::fmt::Debug + Send {
    /// Human-readable name (appears in reports).
    fn name(&self) -> &'static str;

    /// Picks the pool one job is sent to: the first pool of the
    /// scheduler's preference order over `candidates` that passes
    /// `eligible`, or `None` when no candidate does.
    ///
    /// `candidates` is the job's affinity-filtered pool set; `view` is the
    /// current cluster snapshot. `eligible` is the VPM's bounce test (a
    /// pool with no machine that could ever run the job sends it back),
    /// so picking the first eligible pool is exactly what trying the
    /// order pool by pool would do — without materializing the order.
    fn pick(
        &mut self,
        job: &JobSpec,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
        eligible: &dyn Fn(PoolId) -> bool,
    ) -> Option<PoolId>;

    /// Switches the scheduler into health-aware mode: pool ordering
    /// weights candidates by pool health (effective capacity). Default:
    /// no-op — round-robin is a pure cursor and stays health-blind (the
    /// streaming kernel and the view-capture skip both depend on it
    /// consulting no pool state).
    fn set_health_aware(&mut self, _aware: bool) {}

    /// Downcast hook: round-robin is the one scheduler whose choice can be
    /// computed without the cluster view (it is a pure cursor rotation).
    /// The simulator skips the view capture for it at zero staleness, and
    /// the streaming kernel requires it.
    #[doc(hidden)]
    fn as_round_robin_mut(&mut self) -> Option<&mut RoundRobin> {
        None
    }
}

/// NetBatch's default: distribute jobs across candidate pools in sequential
/// order, advancing one position per job.
///
/// "The virtual pool managers also need not maintain any statistics of
/// their physical pools" — the whole state is one cursor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// Creates a round-robin scheduler starting at the first pool.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl InitialScheduler for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    /// Advances the cursor once per job and scans the rotation from it.
    fn pick(
        &mut self,
        _job: &JobSpec,
        candidates: &[PoolId],
        _view: &ClusterSnapshot,
        eligible: &dyn Fn(PoolId) -> bool,
    ) -> Option<PoolId> {
        if candidates.is_empty() {
            return None;
        }
        let start = self.cursor % candidates.len();
        self.cursor = self.cursor.wrapping_add(1);
        let (head, tail) = candidates.split_at(start);
        tail.iter().chain(head).copied().find(|&p| eligible(p))
    }

    fn as_round_robin_mut(&mut self) -> Option<&mut RoundRobin> {
        Some(self)
    }
}

/// The §3.2.2 alternative: send each job to the eligible candidate pool
/// with the lowest current utilization (ties to the lowest pool id).
///
/// The paper notes this "requires the virtual pool manager to know the
/// current situation in every physical pool at any time, which can be
/// impractical" — the information-staleness ablation quantifies that cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UtilizationBased {
    health_aware: bool,
}

impl UtilizationBased {
    /// Creates a utilization-based scheduler.
    pub fn new() -> Self {
        UtilizationBased::default()
    }

    /// The ranking key of pool `id` in `view`: plain or (health-aware)
    /// effective utilization; a pool missing from the view reads idle.
    fn util(&self, view: &ClusterSnapshot, id: PoolId) -> f64 {
        view.pools.get(id.as_usize()).map_or(0.0, |p| {
            if self.health_aware {
                p.effective_utilization()
            } else {
                p.utilization()
            }
        })
    }
}

impl InitialScheduler for UtilizationBased {
    fn name(&self) -> &'static str {
        "utilization-based"
    }

    /// One linear min pass over `(utilization, pool id)`. Eligibility is
    /// only tested for a candidate that would become the new minimum.
    fn pick(
        &mut self,
        _job: &JobSpec,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
        eligible: &dyn Fn(PoolId) -> bool,
    ) -> Option<PoolId> {
        let mut best: Option<(f64, PoolId)> = None;
        for &id in candidates {
            let util = self.util(view, id);
            let better = best.is_none_or(|(best_util, best_id)| {
                util.partial_cmp(&best_util)
                    .expect("utilization is never NaN")
                    .then(id.cmp(&best_id))
                    .is_lt()
            });
            if better && eligible(id) {
                best = Some((util, id));
            }
        }
        best.map(|(_, id)| id)
    }

    fn set_health_aware(&mut self, aware: bool) {
        self.health_aware = aware;
    }
}

/// Which initial scheduler to instantiate — the serializable experiment
/// configuration handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitialKind {
    /// NetBatch's default round-robin.
    #[default]
    RoundRobin,
    /// Lowest-utilization-first.
    UtilizationBased,
}

impl InitialKind {
    /// Instantiates the scheduler.
    pub fn build(self) -> Box<dyn InitialScheduler> {
        match self {
            InitialKind::RoundRobin => Box::new(RoundRobin::new()),
            InitialKind::UtilizationBased => Box::new(UtilizationBased::new()),
        }
    }

    /// Display name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            InitialKind::RoundRobin => "round-robin",
            InitialKind::UtilizationBased => "utilization-based",
        }
    }
}

impl std::fmt::Display for InitialKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbatch_cluster::snapshot::PoolSnapshot;
    use netbatch_sim_engine::time::{SimDuration, SimTime};

    fn job() -> JobSpec {
        JobSpec::new(1.into(), SimTime::ZERO, SimDuration::from_minutes(10))
    }

    fn view(utils: &[(u32, u32)]) -> ClusterSnapshot {
        ClusterSnapshot {
            pools: utils
                .iter()
                .enumerate()
                .map(|(i, &(total, busy))| PoolSnapshot {
                    id: PoolId(i as u16),
                    total_cores: total,
                    nominal_cores: total,
                    busy_cores: busy,
                    waiting: 0,
                    suspended: 0,
                    running: 0,
                    machines: 0,
                    down_machines: 0,
                    draining_machines: 0,
                    effective_cores_milli: u64::from(total) * 1000,
                    lowest_running_priority: None,
                })
                .collect(),
        }
    }

    fn pools(n: u16) -> Vec<PoolId> {
        (0..n).map(PoolId).collect()
    }

    /// Accepts every pool.
    fn any_pool(_: PoolId) -> bool {
        true
    }

    /// The sort-based preference order `pick` replaced, kept as the
    /// reference it is differentially checked against: round-robin's
    /// rotation from its cursor, or every candidate sorted by
    /// `(utilization, pool id)`.
    fn reference_order(
        scheduler: &dyn InitialScheduler,
        cursor: usize,
        health_aware: bool,
        candidates: &[PoolId],
        view: &ClusterSnapshot,
    ) -> Vec<PoolId> {
        if scheduler.name() == "round-robin" {
            if candidates.is_empty() {
                return Vec::new();
            }
            let start = cursor % candidates.len();
            return [&candidates[start..], &candidates[..start]].concat();
        }
        let util = |id: &PoolId| {
            view.pools.get(id.as_usize()).map_or(0.0, |p| {
                if health_aware {
                    p.effective_utilization()
                } else {
                    p.utilization()
                }
            })
        };
        let mut out = candidates.to_vec();
        out.sort_by(|a, b| {
            util(a)
                .partial_cmp(&util(b))
                .expect("utilization is never NaN")
                .then(a.cmp(b))
        });
        out
    }

    #[test]
    fn round_robin_rotates_across_jobs() {
        let mut rr = RoundRobin::new();
        let v = view(&[(1, 0); 3]);
        let c = pools(3);
        for want in [0, 1, 2, 0] {
            assert_eq!(rr.pick(&job(), &c, &v, &any_pool), Some(PoolId(want)));
        }
    }

    #[test]
    fn round_robin_scans_the_rotation_past_ineligible_pools() {
        let mut rr = RoundRobin::new();
        let v = view(&[(1, 0); 4]);
        rr.pick(&job(), &pools(4), &v, &any_pool);
        // The cursor now starts at pool 1; pools 1 and 2 bounce the job.
        let eligible = |p: PoolId| p != PoolId(1) && p != PoolId(2);
        assert_eq!(rr.pick(&job(), &pools(4), &v, &eligible), Some(PoolId(3)));
        // The scan wraps around, and the cursor advanced once per job.
        let only_zero = |p: PoolId| p == PoolId(0);
        assert_eq!(rr.pick(&job(), &pools(4), &v, &only_zero), Some(PoolId(0)));
        assert_eq!(rr.pick(&job(), &pools(4), &v, &|_| false), None);
        assert_eq!(rr.pick(&job(), &pools(4), &v, &any_pool), Some(PoolId(0)));
    }

    #[test]
    fn round_robin_handles_empty_candidates() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.pick(&job(), &[], &view(&[]), &any_pool), None);
    }

    #[test]
    fn utilization_based_prefers_least_loaded() {
        let mut ub = UtilizationBased::new();
        let v = view(&[(10, 9), (10, 1), (10, 5)]);
        assert_eq!(ub.pick(&job(), &pools(3), &v, &any_pool), Some(PoolId(1)));
        // The least loaded pool bounces the job: the next one takes it.
        let eligible = |p: PoolId| p != PoolId(1);
        assert_eq!(ub.pick(&job(), &pools(3), &v, &eligible), Some(PoolId(2)));
        assert_eq!(ub.pick(&job(), &pools(3), &v, &|_| false), None);
    }

    #[test]
    fn utilization_based_ties_break_by_id() {
        let mut ub = UtilizationBased::new();
        let v = view(&[(10, 5), (10, 5), (10, 5)]);
        assert_eq!(ub.pick(&job(), &pools(3), &v, &any_pool), Some(PoolId(0)));
        let candidates = [PoolId(2), PoolId(1)];
        assert_eq!(ub.pick(&job(), &candidates, &v, &any_pool), Some(PoolId(1)));
    }

    #[test]
    fn utilization_based_respects_candidate_filter() {
        let mut ub = UtilizationBased::new();
        let v = view(&[(10, 0), (10, 9), (10, 5)]);
        let candidates = [PoolId(1), PoolId(2)];
        assert_eq!(ub.pick(&job(), &candidates, &v, &any_pool), Some(PoolId(2)));
    }

    #[test]
    fn health_aware_ranks_a_capacity_less_busy_pool_last() {
        let mut ub = UtilizationBased::new();
        ub.set_health_aware(true);
        let mut v = view(&[(10, 1), (10, 9)]);
        // Pool 0 has no effective capacity left but still runs work: its
        // effective utilization is infinite.
        v.pools[0].effective_cores_milli = 0;
        assert_eq!(ub.pick(&job(), &pools(2), &v, &any_pool), Some(PoolId(1)));
        ub.set_health_aware(false);
        assert_eq!(ub.pick(&job(), &pools(2), &v, &any_pool), Some(PoolId(0)));
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// One pool's `(total, busy, effective capacity in per-mille of
        /// total)`; zero-capacity pools and pools with no effective
        /// capacity are both in range.
        fn arb_pool() -> impl Strategy<Value = (u32, u32, u32)> {
            (0u32..6, 0u32..8, 0u32..1200)
        }

        proptest! {
            /// `pick` equals the first eligible entry of the sort-based
            /// preference order, for both schedulers, over random views,
            /// candidate subsets (including pools missing from the view),
            /// eligibility masks and health-aware on/off.
            #[test]
            fn pick_is_the_first_eligible_pool_of_the_reference_order(
                pool_stats in proptest::collection::vec(arb_pool(), 0..12),
                candidate_ids in proptest::collection::vec(0u16..14, 0..16),
                mask in any::<u16>(),
                cursor in 0usize..40,
                health_aware in proptest::bool::ANY,
            ) {
                let mut v = view(&[]);
                v.pools = pool_stats
                    .iter()
                    .enumerate()
                    .map(|(i, &(total, busy, eff_permille))| {
                        let mut p = view(&[(total, busy.min(total))]).pools[0];
                        p.id = PoolId(i as u16);
                        p.effective_cores_milli = u64::from(total * eff_permille);
                        p
                    })
                    .collect();
                let candidates: Vec<PoolId> = candidate_ids.into_iter().map(PoolId).collect();
                let eligible = |p: PoolId| mask & (1 << (p.as_u16() % 16)) != 0;
                let mut ub = UtilizationBased::new();
                ub.set_health_aware(health_aware);
                let mut rr = RoundRobin { cursor };
                for scheduler in [&mut ub as &mut dyn InitialScheduler, &mut rr] {
                    let want = reference_order(scheduler, cursor, health_aware, &candidates, &v)
                        .into_iter()
                        .find(|&p| eligible(p));
                    let got = scheduler.pick(&job(), &candidates, &v, &eligible);
                    prop_assert_eq!(got, want, "{} over {:?}", scheduler.name(), candidates);
                }
            }
        }
    }

    #[test]
    fn kind_builds_matching_scheduler() {
        assert_eq!(InitialKind::RoundRobin.build().name(), "round-robin");
        assert_eq!(
            InitialKind::UtilizationBased.build().name(),
            "utilization-based"
        );
        assert_eq!(InitialKind::RoundRobin.to_string(), "round-robin");
    }
}
