//! Design-space exploration on top of the analytical framework.
//!
//! Because a modeled program is a parameter-free trace, it can be
//! re-evaluated under many candidate devices. [`DesignSweep`] scans
//! off-chip bandwidth, compute speed, and clock frequency multipliers and
//! reports the predicted latency at each point — the "architectural
//! design space exploration by enabling the tuning of key design
//! parameters" contribution of the paper (§1), used to inform
//! next-generation in-SRAM architectures.

use apu_sim::{DeviceTiming, Frequency};

use crate::estimator::LatencyEstimator;
use crate::params::ModelParams;

/// One candidate device in a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Off-chip bandwidth multiplier (1.0 = Leda-E DDR).
    pub bw_scale: f64,
    /// Compute latency multiplier (< 1.0 = faster bit processors).
    pub compute_scale: f64,
    /// Clock frequency multiplier.
    pub clock_scale: f64,
    /// Predicted latency in microseconds for the swept program.
    pub predicted_us: f64,
}

/// Sweeps a modeled program across candidate devices.
#[derive(Debug, Clone)]
pub struct DesignSweep {
    base_timing: DeviceTiming,
    base_clock: Frequency,
    vr_len: usize,
    bw_scales: Vec<f64>,
    compute_scales: Vec<f64>,
    clock_scales: Vec<f64>,
}

impl DesignSweep {
    /// Creates a sweep anchored at the Leda-E configuration.
    pub fn new() -> Self {
        DesignSweep {
            base_timing: DeviceTiming::leda_e(),
            base_clock: Frequency::LEDA_E,
            vr_len: 32 * 1024,
            bw_scales: vec![1.0],
            compute_scales: vec![1.0],
            clock_scales: vec![1.0],
        }
    }

    /// Sets the off-chip bandwidth multipliers to scan.
    pub fn bw_scales(mut self, scales: &[f64]) -> Self {
        self.bw_scales = scales.to_vec();
        self
    }

    /// Sets the compute latency multipliers to scan.
    pub fn compute_scales(mut self, scales: &[f64]) -> Self {
        self.compute_scales = scales.to_vec();
        self
    }

    /// Sets the clock multipliers to scan.
    pub fn clock_scales(mut self, scales: &[f64]) -> Self {
        self.clock_scales = scales.to_vec();
        self
    }

    /// Evaluates the recorded program at every point of the cross
    /// product, in deterministic order.
    pub fn run(&self, program: &LatencyEstimator) -> Vec<DesignPoint> {
        let mut out = Vec::new();
        for &bw in &self.bw_scales {
            for &cs in &self.compute_scales {
                for &clk in &self.clock_scales {
                    let timing = self
                        .base_timing
                        .clone()
                        .with_offchip_bw_scale(bw)
                        .with_compute_scale(cs);
                    let clock = Frequency::from_hz(self.base_clock.hz() * clk);
                    let params = ModelParams::from_timing(timing, clock, self.vr_len);
                    let report = program.evaluate_with(&params);
                    out.push(DesignPoint {
                        bw_scale: bw,
                        compute_scale: cs,
                        clock_scale: clk,
                        predicted_us: report.total_us,
                    });
                }
            }
        }
        out
    }
}

impl Default for DesignSweep {
    fn default() -> Self {
        DesignSweep::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory_bound_program() -> LatencyEstimator {
        let mut est = LatencyEstimator::new(ModelParams::leda_e());
        for _ in 0..100 {
            est.fast_dma_l4_to_l2(65536);
            est.gvml_add_u16();
        }
        est
    }

    fn compute_bound_program() -> LatencyEstimator {
        let mut est = LatencyEstimator::new(ModelParams::leda_e());
        est.fast_dma_l4_to_l2(65536);
        for _ in 0..1000 {
            est.gvml_mul_s16();
        }
        est
    }

    #[test]
    fn bandwidth_helps_memory_bound_programs() {
        let sweep = DesignSweep::new().bw_scales(&[1.0, 4.0]);
        let pts = sweep.run(&memory_bound_program());
        assert_eq!(pts.len(), 2);
        assert!(pts[1].predicted_us < pts[0].predicted_us * 0.5);
    }

    #[test]
    fn bandwidth_barely_helps_compute_bound_programs() {
        let sweep = DesignSweep::new().bw_scales(&[1.0, 4.0]);
        let pts = sweep.run(&compute_bound_program());
        assert!(pts[1].predicted_us > pts[0].predicted_us * 0.8);
    }

    #[test]
    fn compute_scaling_helps_compute_bound_programs() {
        let sweep = DesignSweep::new().compute_scales(&[1.0, 0.5]);
        let pts = sweep.run(&compute_bound_program());
        assert!(pts[1].predicted_us < pts[0].predicted_us * 0.7);
    }

    #[test]
    fn clock_scaling_helps_everything() {
        let sweep = DesignSweep::new().clock_scales(&[1.0, 2.0]);
        let pts = sweep.run(&memory_bound_program());
        assert!((pts[1].predicted_us - pts[0].predicted_us / 2.0).abs() < 1e-9);
    }

    #[test]
    fn cross_product_order_is_deterministic() {
        let sweep = DesignSweep::new()
            .bw_scales(&[1.0, 2.0])
            .compute_scales(&[1.0, 0.5]);
        let pts = sweep.run(&memory_bound_program());
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].bw_scale, 1.0);
        assert_eq!(pts[0].compute_scale, 1.0);
        assert_eq!(pts[3].bw_scale, 2.0);
        assert_eq!(pts[3].compute_scale, 0.5);
    }
}
