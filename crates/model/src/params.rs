//! Architectural parameters of the analytical framework.
//!
//! [`ModelParams`] is the analytical view of a device: the Table 4/5
//! constants *without* the second-order overheads the simulator charges
//! (per-command VCU issue, per-transaction DMA setup, bank-crossing
//! penalties). That deliberate omission is the paper's model error source
//! (§5.2.2: "the primary source of error arises from the model's
//! inability to account for memory subsystem details").

use apu_sim::{DeviceTiming, Frequency, VecOp};

use crate::reduction::SgAddModel;

/// Analytical device parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// Fixed-latency operation costs (cycles), as in Tables 4–5.
    pub timing: DeviceTiming,
    /// Device clock for cycle→time conversion.
    pub clock: Frequency,
    /// Vector register length in elements (`l` in the paper).
    pub vr_len: usize,
    /// Fitted Eq. 1 coefficients for subgroup add reductions.
    pub sg_add: SgAddModel,
    /// Fitted Eq. 1-form coefficients for subgroup min/max reductions.
    pub sg_minmax: SgAddModel,
}

impl ModelParams {
    /// Parameters of the GSI Leda-E evaluated in the paper.
    pub fn leda_e() -> Self {
        let timing = DeviceTiming::leda_e();
        let sg_add = SgAddModel::fit(&timing);
        let sg_minmax = SgAddModel::fit_minmax(&timing);
        ModelParams {
            timing,
            clock: Frequency::LEDA_E,
            vr_len: 32 * 1024,
            sg_add,
            sg_minmax,
        }
    }

    /// Builds parameters from an arbitrary calibration table (used for
    /// design-space exploration); refits the Eq. 1 coefficients.
    pub fn from_timing(timing: DeviceTiming, clock: Frequency, vr_len: usize) -> Self {
        let sg_add = SgAddModel::fit(&timing);
        let sg_minmax = SgAddModel::fit_minmax(&timing);
        ModelParams {
            timing,
            clock,
            vr_len,
            sg_add,
            sg_minmax,
        }
    }

    /// Off-chip (L4) streaming bandwidth in bytes per cycle implied by the
    /// DMA slope — the `BW` of the paper's `T_DMA = d/BW + T_init`.
    pub fn l4_bytes_per_cycle(&self) -> f64 {
        self.timing.l4_bytes_per_cycle()
    }

    /// Off-chip bandwidth in GB/s.
    pub fn l4_gb_per_sec(&self) -> f64 {
        self.l4_bytes_per_cycle() * self.clock.hz() / 1e9
    }

    // ---- Table 4 analytical formulas ----

    /// `T = d/BW + T_init` for an L4→L3 DMA of `d` bytes.
    pub fn t_dma_l4_l3(&self, d: usize) -> f64 {
        self.timing.dma_l4_l3_per_byte * d as f64 + self.timing.dma_l4_l3_init
    }

    /// `T = d/BW + T_init` for an L4↔L2 DMA of `d` bytes.
    pub fn t_dma_l4_l2(&self, d: usize) -> f64 {
        self.timing.dma_l4_l2_per_byte * d as f64 + self.timing.dma_l4_l2_init
    }

    /// Full-vector L2→L1 DMA.
    pub fn t_dma_l2_l1(&self) -> f64 {
        self.timing.dma_l2_l1 as f64
    }

    /// Full-vector L4→L1 DMA.
    pub fn t_dma_l4_l1(&self) -> f64 {
        self.timing.dma_l4_l1 as f64
    }

    /// Full-vector L1→L4 DMA.
    pub fn t_dma_l1_l4(&self) -> f64 {
        self.timing.dma_l1_l4 as f64
    }

    /// `T = n · T_pio_ld` for `n` PIO loads.
    pub fn t_pio_ld(&self, n: usize) -> f64 {
        (self.timing.pio_ld_per_elem * n as u64) as f64
    }

    /// `T = n · T_pio_st` for `n` PIO stores.
    pub fn t_pio_st(&self, n: usize) -> f64 {
        (self.timing.pio_st_per_elem * n as u64) as f64
    }

    /// `T = C·σ + T_init` for an indexed lookup over a `sigma`-entry
    /// table.
    pub fn t_lookup(&self, sigma: usize) -> f64 {
        self.timing.lookup_per_entry * sigma as f64 + self.timing.lookup_init
    }

    /// `T = C·k` for a general element shift of magnitude `k`.
    pub fn t_shift_e(&self, k: usize) -> f64 {
        (self.timing.shift_e_per_elem * k as u64) as f64
    }

    /// `T = C + k` for an intra-bank shift of `4·k` elements.
    pub fn t_shift_bank(&self, k: usize) -> f64 {
        (self.timing.shift_bank_base + self.timing.shift_bank_per_unit * k as u64) as f64
    }

    /// Fixed-latency vector command cost.
    pub fn t_op(&self, op: VecOp) -> f64 {
        self.timing.op_cycles(op) as f64
    }

    /// Eq. 1: subgroup-reduction cost for group size `r`, subgroup size
    /// `s`.
    pub fn t_sg_add(&self, r: usize, s: usize) -> f64 {
        self.sg_add.predict(r, s)
    }

    /// Eq. 1 form for the min/max subgroup reductions.
    pub fn t_sg_minmax(&self, r: usize, s: usize) -> f64 {
        self.sg_minmax.predict(r, s)
    }

    /// Converts cycles to microseconds under this device clock.
    pub fn cycles_to_us(&self, cycles: f64) -> f64 {
        cycles / self.clock.hz() * 1e6
    }
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams::leda_e()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_match_table4_analytical_column() {
        let p = ModelParams::leda_e();
        assert!((p.t_dma_l4_l3(100) - (0.19 * 100.0 + 41164.0)).abs() < 1e-9);
        assert!((p.t_dma_l4_l2(1000) - (0.63 * 1000.0 + 548.0)).abs() < 1e-9);
        assert_eq!(p.t_dma_l2_l1(), 386.0);
        assert_eq!(p.t_dma_l4_l1(), 22272.0);
        assert_eq!(p.t_dma_l1_l4(), 22186.0);
        assert_eq!(p.t_pio_ld(3), 171.0);
        assert_eq!(p.t_pio_st(3), 183.0);
        assert!((p.t_lookup(10) - (71.5 + 629.0)).abs() < 1e-9);
        assert_eq!(p.t_shift_e(2), 746.0);
        assert_eq!(p.t_shift_bank(8), 16.0);
        assert_eq!(p.t_op(VecOp::MulU16), 115.0);
    }

    #[test]
    fn bandwidth_is_sub_gigabyte_per_stream() {
        let p = ModelParams::leda_e();
        // 1/0.63 B/cyc at 500 MHz ≈ 0.79 GB/s per DMA stream.
        assert!((p.l4_gb_per_sec() - 0.7937).abs() < 0.01);
    }

    #[test]
    fn cycles_to_us() {
        let p = ModelParams::leda_e();
        assert!((p.cycles_to_us(500.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn custom_timing_refits_reduction_model() {
        let t = DeviceTiming::leda_e().with_compute_scale(2.0);
        let p = ModelParams::from_timing(t, Frequency::LEDA_E, 32768);
        // Slower adds make reductions slower in the refitted model too.
        assert!(p.t_sg_add(1024, 1024) > ModelParams::leda_e().t_sg_add(1024, 1024));
    }
}
