//! Roofline analysis (paper Fig. 2).
//!
//! Even though compute-in-SRAM devices compute inside memory, they can
//! still be **memory-bandwidth bound** when data movement is unmanaged —
//! the paper's opening observation. The roofline places a kernel by its
//! operational intensity (ops per byte of off-chip traffic) against the
//! compute roof and the off-chip bandwidth diagonal.

use cis_model::ModelParams;

/// A device roofline: compute roof and memory-bandwidth diagonal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Peak throughput in giga-ops per second (the compute roof).
    pub peak_gops: f64,
    /// Off-chip bandwidth in GB/s.
    pub bw_gbps: f64,
}

impl Roofline {
    /// Builds the APU roofline from model parameters.
    ///
    /// The compute roof is profiled for 16-bit multiply-accumulate, as in
    /// the paper's Fig. 2 (footnote 1): one 32K-element MAC every
    /// `mul + add` cycles per core, times four cores.
    pub fn from_params(params: &ModelParams, cores: usize) -> Roofline {
        let mac_cycles = params.t_op(apu_sim::VecOp::MulU16) + params.t_op(apu_sim::VecOp::AddU16);
        let ops_per_cycle = 2.0 * params.vr_len as f64 / mac_cycles * cores as f64;
        Roofline {
            peak_gops: ops_per_cycle * params.clock.hz() / 1e9,
            bw_gbps: params.l4_gb_per_sec() * 2.0 * cores as f64, // two DMA engines/core
        }
    }

    /// Attainable throughput (GOPS) at a given operational intensity
    /// (ops/byte).
    pub fn attainable_gops(&self, oi: f64) -> f64 {
        (self.bw_gbps * oi).min(self.peak_gops)
    }

    /// The ridge point: the OI where the kernel stops being
    /// bandwidth-bound.
    pub fn ridge_oi(&self) -> f64 {
        self.peak_gops / self.bw_gbps
    }

    /// Whether a kernel at this OI is memory-bound.
    pub fn is_memory_bound(&self, oi: f64) -> bool {
        oi < self.ridge_oi()
    }

    /// Places a measured kernel on the roofline.
    pub fn place(&self, name: &str, oi: f64, achieved_gops: f64) -> RooflinePoint {
        RooflinePoint {
            name: name.to_string(),
            oi,
            achieved_gops,
            attainable_gops: self.attainable_gops(oi),
            memory_bound: self.is_memory_bound(oi),
        }
    }
}

/// One kernel placed on the roofline.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Kernel name.
    pub name: String,
    /// Operational intensity (ops per off-chip byte).
    pub oi: f64,
    /// Measured throughput in GOPS.
    pub achieved_gops: f64,
    /// Roofline bound at this OI.
    pub attainable_gops: f64,
    /// Whether the bound is the bandwidth diagonal.
    pub memory_bound: bool,
}

impl RooflinePoint {
    /// Fraction of the roofline bound actually achieved.
    pub fn efficiency(&self) -> f64 {
        if self.attainable_gops == 0.0 {
            0.0
        } else {
            self.achieved_gops / self.attainable_gops
        }
    }
}

/// Operational intensity helper: `ops / bytes`.
pub fn operational_intensity(total_ops: f64, offchip_bytes: f64) -> f64 {
    if offchip_bytes == 0.0 {
        f64::INFINITY
    } else {
        total_ops / offchip_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apu_roofline() -> Roofline {
        Roofline::from_params(&ModelParams::leda_e(), 4)
    }

    #[test]
    fn compute_roof_is_order_teraops() {
        let r = apu_roofline();
        // 2*32768/127 ops/cycle * 4 cores * 500 MHz ≈ 1.0 TOPS for
        // 16-bit MAC (the 25 TOPS headline is for 8-bit add).
        assert!(
            r.peak_gops > 500.0 && r.peak_gops < 2500.0,
            "{}",
            r.peak_gops
        );
    }

    #[test]
    fn diagonal_caps_low_oi() {
        let r = apu_roofline();
        let low = r.attainable_gops(0.1);
        assert!((low - r.bw_gbps * 0.1).abs() < 1e-9);
        assert!(r.is_memory_bound(0.1));
    }

    #[test]
    fn roof_caps_high_oi() {
        let r = apu_roofline();
        let high = r.attainable_gops(1e6);
        assert_eq!(high, r.peak_gops);
        assert!(!r.is_memory_bound(1e6));
    }

    #[test]
    fn ridge_separates_regimes() {
        let r = apu_roofline();
        let ridge = r.ridge_oi();
        assert!(r.is_memory_bound(ridge * 0.99));
        assert!(!r.is_memory_bound(ridge * 1.01));
        // attainable is continuous at the ridge
        let a = r.attainable_gops(ridge);
        assert!((a - r.peak_gops).abs() / r.peak_gops < 1e-9);
    }

    #[test]
    fn placed_points_report_efficiency() {
        let r = apu_roofline();
        let p = r.place("baseline", 1.0, r.attainable_gops(1.0) * 0.5);
        assert!((p.efficiency() - 0.5).abs() < 1e-12);
        assert!(p.memory_bound);
    }

    #[test]
    fn oi_helper() {
        assert_eq!(operational_intensity(100.0, 50.0), 2.0);
        assert!(operational_intensity(1.0, 0.0).is_infinite());
    }
}
