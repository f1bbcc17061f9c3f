//! DRAMPower-style energy accounting.
//!
//! Energy is the sum of per-command contributions (ACT/PRE pairs, read
//! and write bursts, refreshes) plus background power integrated over the
//! elapsed time. The constants are typical published figures for HBM2e
//! (~3.9 pJ/bit end-to-end when streaming) and DDR4 (~13 pJ/bit), in the
//! same spirit as DRAMPower's IDD-derived parameters.

use crate::spec::DramSpec;
use crate::system::SystemStats;

/// Per-command and background energy constants.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyParams {
    /// Energy of one ACT+PRE pair, in nanojoules.
    pub act_pre_nj: f64,
    /// Read data movement energy, pJ per byte.
    pub rd_pj_per_byte: f64,
    /// Write data movement energy, pJ per byte.
    pub wr_pj_per_byte: f64,
    /// One refresh operation, in nanojoules.
    pub refresh_nj: f64,
    /// Background (standby) power per channel, in watts.
    pub background_w_per_channel: f64,
}

impl EnergyParams {
    /// HBM2e constants.
    pub fn hbm2e() -> Self {
        EnergyParams {
            act_pre_nj: 1.6,
            rd_pj_per_byte: 16.0,
            wr_pj_per_byte: 18.0,
            refresh_nj: 12.0,
            background_w_per_channel: 0.25,
        }
    }

    /// DDR4 constants.
    pub fn ddr4() -> Self {
        EnergyParams {
            act_pre_nj: 2.2,
            rd_pj_per_byte: 104.0,
            wr_pj_per_byte: 110.0,
            refresh_nj: 30.0,
            background_w_per_channel: 0.9,
        }
    }

    /// Default constants for a spec by name.
    pub fn for_spec(spec: &DramSpec) -> Self {
        if spec.name.starts_with("HBM") {
            EnergyParams::hbm2e()
        } else {
            EnergyParams::ddr4()
        }
    }
}

/// An energy breakdown in joules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DramEnergy {
    /// Row activation/precharge energy.
    pub activate_j: f64,
    /// Read burst energy.
    pub read_j: f64,
    /// Write burst energy.
    pub write_j: f64,
    /// Refresh energy.
    pub refresh_j: f64,
    /// Background/standby energy.
    pub background_j: f64,
}

impl DramEnergy {
    /// Computes the breakdown from command statistics and elapsed time.
    pub fn from_stats(
        spec: &DramSpec,
        params: &EnergyParams,
        stats: &SystemStats,
        elapsed_cycles: u64,
    ) -> DramEnergy {
        let g = spec.access_bytes() as f64;
        let secs = elapsed_cycles as f64 * spec.clock_ns() / 1e9;
        DramEnergy {
            activate_j: stats.activates as f64 * params.act_pre_nj * 1e-9,
            read_j: stats.reads as f64 * g * params.rd_pj_per_byte * 1e-12,
            write_j: stats.writes as f64 * g * params.wr_pj_per_byte * 1e-12,
            refresh_j: stats.refreshes as f64 * params.refresh_nj * 1e-9,
            background_j: secs * params.background_w_per_channel * spec.channels as f64,
        }
    }

    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.activate_j + self.read_j + self.write_j + self.refresh_j + self.background_j
    }

    /// Energy per bit moved, in pJ/bit (meaningful for streaming).
    pub fn pj_per_bit(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            0.0
        } else {
            self.total_j() * 1e12 / (bytes as f64 * 8.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{AccessKind, MemorySystem};

    #[test]
    fn streaming_hbm_lands_near_published_pj_per_bit() {
        let mut mem = MemorySystem::new(DramSpec::hbm2e_16gb());
        let bytes = 64u64 << 20;
        mem.stream_read(0, bytes);
        let e = DramEnergy::from_stats(
            mem.spec(),
            &EnergyParams::hbm2e(),
            &mem.stats(),
            mem.horizon(),
        );
        let pjb = e.pj_per_bit(bytes);
        assert!(
            (2.0..=8.0).contains(&pjb),
            "HBM2e streaming at {pjb} pJ/bit"
        );
    }

    #[test]
    fn ddr4_costs_more_energy_per_bit() {
        let bytes = 16u64 << 20;
        let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
        hbm.stream_read(0, bytes);
        let eh = DramEnergy::from_stats(
            hbm.spec(),
            &EnergyParams::hbm2e(),
            &hbm.stats(),
            hbm.horizon(),
        );
        let mut ddr = MemorySystem::new(DramSpec::ddr4_apu());
        ddr.stream_read(0, bytes);
        let ed = DramEnergy::from_stats(
            ddr.spec(),
            &EnergyParams::ddr4(),
            &ddr.stats(),
            ddr.horizon(),
        );
        assert!(ed.pj_per_bit(bytes) > 2.0 * eh.pj_per_bit(bytes));
    }

    #[test]
    fn random_access_pays_more_activate_energy() {
        let spec = DramSpec::hbm2e_16gb();
        let row_stride = (spec.access_bytes()
            * spec.channels
            * spec.bank_groups
            * spec.banks_per_group
            * (spec.row_bytes / spec.access_bytes())
            * spec.ranks) as u64;
        let mut mem = MemorySystem::new(spec.clone());
        for i in 0..1000u64 {
            mem.access(AccessKind::Read, i * row_stride, 0);
        }
        let e = DramEnergy::from_stats(
            mem.spec(),
            &EnergyParams::hbm2e(),
            &mem.stats(),
            mem.horizon(),
        );
        assert!(e.activate_j > e.read_j);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let e = DramEnergy {
            activate_j: 1.0,
            read_j: 2.0,
            write_j: 3.0,
            refresh_j: 4.0,
            background_j: 5.0,
        };
        assert_eq!(e.total_j(), 15.0);
        assert_eq!(e.pj_per_bit(0), 0.0);
    }
}
