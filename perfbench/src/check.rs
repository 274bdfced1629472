//! Correctness checks: job conservation per cell and a digest of every
//! simulated statistic, so two runs of one seed (or a parent and a change)
//! can be compared at a glance.

use netbatch_core::simulator::RunCounters;

/// FNV-1a, 64-bit: tiny, dependency-free and stable across builds.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of one cell: its run counters, the drain time and (for cells
/// that keep job records) the paper-table row.
pub fn cell_digest(counters: &RunCounters, end_minutes: u64, row: Option<&[String; 6]>) -> u64 {
    let mut h = Fnv::new();
    h.write(format!("{counters:?}|{end_minutes}").as_bytes());
    if let Some(row) = row {
        for field in row {
            h.write(b"|");
            h.write(field.as_bytes());
        }
    }
    h.finish()
}

/// Order-sensitive digest of a workload's cell digests.
pub fn combine(cells: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for d in cells {
        h.write(&d.to_le_bytes());
    }
    h.finish()
}

/// Every submitted job must end completed or unrunnable.
pub fn conserved(counters: &RunCounters, submitted: u64) -> Result<(), String> {
    let settled = counters.completed + counters.unrunnable;
    if settled == submitted {
        Ok(())
    } else {
        Err(format!(
            "completed {} + unrunnable {} != submitted {submitted}",
            counters.completed, counters.unrunnable
        ))
    }
}

/// Compares the per-cell digests of two runs of the same inputs.
pub fn same_digests(expected: &[u64], got: &[u64]) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "cell count differs: {} vs {}",
            expected.len(),
            got.len()
        ));
    }
    match expected.iter().zip(got).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "cell {i} digest {:016x} != {:016x}",
            got[i], expected[i]
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> RunCounters {
        RunCounters {
            completed: 90,
            unrunnable: 10,
            events: 200,
            ..RunCounters::default()
        }
    }

    #[test]
    fn conservation_counts_unrunnable_jobs() {
        assert!(conserved(&counters(), 100).is_ok());
        assert!(conserved(&counters(), 101).is_err());
    }

    #[test]
    fn a_tampered_digest_fails_the_check() {
        let row = ["a", "b", "c", "d", "e", "f"].map(String::from);
        let digests = vec![cell_digest(&counters(), 7, Some(&row)), 42];
        assert!(same_digests(&digests, &digests.clone()).is_ok());
        let mut tampered = digests.clone();
        tampered[0] ^= 1;
        assert!(same_digests(&digests, &tampered).is_err());
        assert!(same_digests(&digests, &digests[..1]).is_err());
    }

    #[test]
    fn digest_moves_with_any_statistic() {
        let base = cell_digest(&counters(), 7, None);
        let mut c = counters();
        c.suspensions += 1;
        assert_ne!(cell_digest(&c, 7, None), base);
        assert_ne!(cell_digest(&counters(), 8, None), base);
        assert_eq!(cell_digest(&counters(), 7, None), base);
    }
}
