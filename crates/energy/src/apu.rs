//! APU rail-level energy model.

use apu_sim::{Frequency, TaskReport};

/// Power/energy constants for the APU board.
///
/// Defaults are calibrated against the paper's Fig. 15 energy breakdown
/// (static-dominated) under the 60 W TDP budget of the Leda-E.
#[derive(Debug, Clone, PartialEq)]
pub struct ApuPowerModel {
    /// Always-on static power of the four cores + control (watts).
    pub static_w: f64,
    /// Additional power while the bit-processor array computes (watts).
    pub compute_w: f64,
    /// Additional power while the DMA engines move data (watts).
    pub dma_w: f64,
    /// L3/cache access energy per lookup cycle (nanojoules).
    pub cache_nj_per_cycle: f64,
    /// Board peripherals / regulators (watts, always on).
    pub other_w: f64,
}

impl ApuPowerModel {
    /// Calibrated Leda-E model.
    pub fn leda_e() -> Self {
        ApuPowerModel {
            static_w: 30.0,
            compute_w: 12.0,
            dma_w: 4.0,
            cache_nj_per_cycle: 0.35,
            other_w: 0.5,
        }
    }

    /// Computes the breakdown for one device task.
    ///
    /// `clock` converts busy-cycle counts to busy time; `dram_j` is the
    /// off-chip DRAM energy for the task (from `hbm-sim` when the
    /// off-chip memory is simulated, or a DDR estimate otherwise).
    pub fn breakdown(
        &self,
        report: &TaskReport,
        clock: Frequency,
        dram_j: f64,
    ) -> ApuEnergyBreakdown {
        let total_secs = report.duration.as_secs_f64();
        let compute_secs =
            (report.stats.compute_cycles + report.stats.issue_cycles) as f64 / clock.hz();
        let dma_secs = report.stats.dma_cycles as f64 / clock.hz();
        ApuEnergyBreakdown {
            static_j: self.static_w * total_secs,
            compute_j: self.compute_w * compute_secs,
            dram_j,
            cache_j: report.stats.lookup_cycles as f64 * self.cache_nj_per_cycle * 1e-9,
            other_j: self.other_w * total_secs + self.dma_w * dma_secs,
        }
    }
}

impl Default for ApuPowerModel {
    fn default() -> Self {
        ApuPowerModel::leda_e()
    }
}

/// Task energy split by rail, in joules (the paper's Fig. 15 categories).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ApuEnergyBreakdown {
    /// Static (leakage + always-on) energy.
    pub static_j: f64,
    /// Bit-processor compute energy.
    pub compute_j: f64,
    /// Off-chip DRAM energy.
    pub dram_j: f64,
    /// L3/cache energy.
    pub cache_j: f64,
    /// Everything else (board, regulators, DMA engines).
    pub other_j: f64,
}

impl ApuEnergyBreakdown {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.static_j + self.compute_j + self.dram_j + self.cache_j + self.other_j
    }

    /// Each category as a fraction of the total, in Fig. 15 order
    /// (static, compute, DRAM, other, cache).
    pub fn fractions(&self) -> [f64; 5] {
        let t = self.total_j();
        if t == 0.0 {
            return [0.0; 5];
        }
        [
            self.static_j / t,
            self.compute_j / t,
            self.dram_j / t,
            self.other_j / t,
            self.cache_j / t,
        ]
    }

    /// Sums two breakdowns (e.g. retrieval stages).
    pub fn combine(&self, other: &ApuEnergyBreakdown) -> ApuEnergyBreakdown {
        ApuEnergyBreakdown {
            static_j: self.static_j + other.static_j,
            compute_j: self.compute_j + other.compute_j,
            dram_j: self.dram_j + other.dram_j,
            cache_j: self.cache_j + other.cache_j,
            other_j: self.other_j + other.other_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_sim::{Cycles, VcuStats};
    use std::time::Duration;

    fn fake_report(total_ms: f64, compute_frac: f64, dma_frac: f64) -> TaskReport {
        let clock = Frequency::LEDA_E;
        let total_cycles = (total_ms / 1e3 * clock.hz()) as u64;
        let stats = VcuStats {
            compute_cycles: (total_cycles as f64 * compute_frac) as u64,
            dma_cycles: (total_cycles as f64 * dma_frac) as u64,
            ..VcuStats::default()
        };
        TaskReport {
            cycles: Cycles::new(total_cycles),
            duration: Duration::from_secs_f64(total_ms / 1e3),
            stats,
            cores_used: 1,
        }
    }

    #[test]
    fn static_power_dominates_retrieval_like_tasks() {
        // Shape of the paper's 200 GB RAG retrieval: ~88% of the time in
        // distance computation, modest DRAM traffic.
        let model = ApuPowerModel::leda_e();
        let report = fake_report(84.2, 0.88, 0.08);
        let e = model.breakdown(&report, Frequency::LEDA_E, 0.095);
        let f = e.fractions();
        assert!(f[0] > 0.60 && f[0] < 0.80, "static fraction {}", f[0]);
        assert!(f[1] > 0.15 && f[1] < 0.35, "compute fraction {}", f[1]);
        assert!(f[2] < 0.05, "dram fraction {}", f[2]);
        assert!(f[4] < 0.001, "cache fraction {}", f[4]);
        // Total power stays under the 60 W TDP.
        let avg_w = e.total_j() / report.duration.as_secs_f64();
        assert!(avg_w < 60.0, "average power {avg_w} W");
    }

    #[test]
    fn idle_heavy_tasks_are_almost_entirely_static() {
        let model = ApuPowerModel::leda_e();
        let report = fake_report(10.0, 0.01, 0.01);
        let e = model.breakdown(&report, Frequency::LEDA_E, 0.0);
        assert!(e.fractions()[0] > 0.9);
    }

    #[test]
    fn combine_adds_categories() {
        let a = ApuEnergyBreakdown {
            static_j: 1.0,
            compute_j: 2.0,
            dram_j: 3.0,
            cache_j: 4.0,
            other_j: 5.0,
        };
        let b = a.combine(&a);
        assert_eq!(b.total_j(), 30.0);
        assert_eq!(b.static_j, 2.0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let model = ApuPowerModel::leda_e();
        let report = fake_report(5.0, 0.5, 0.3);
        let e = model.breakdown(&report, Frequency::LEDA_E, 0.01);
        let s: f64 = e.fractions().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_breakdown_has_zero_fractions() {
        let e = ApuEnergyBreakdown::default();
        assert_eq!(e.fractions(), [0.0; 5]);
    }
}
