//! Device latency calibration.
//!
//! The constants here are the **measured** columns of the paper's Table 4
//! (data movement) and Table 5 (computation), obtained on the GSI Leda-E
//! with control-processor cycle counters. They are the ground truth this
//! simulator is calibrated against; the `cis-model` crate re-derives the
//! *analytical* columns independently and is validated against the
//! simulator (paper Table 7).
//!
//! A handful of *second-order* constants (per-command VCU issue overhead,
//! extra per-transaction DMA setup, bank-crossing penalties) model effects
//! that the paper's analytical framework deliberately omits; they are the
//! source of the small measured-vs-predicted error in Table 7.

use crate::clock::Cycles;

/// Identifier for every fixed-latency vector operation of the paper's
/// Table 5 plus the constant-latency data-movement primitives of Table 4.
///
/// Variant names follow the paper's operation mnemonics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // the mnemonic-to-description mapping lives in `describe`
pub enum VecOp {
    And16,
    Or16,
    Not16,
    Xor16,
    AShift,
    AddU16,
    AddS16,
    SubU16,
    SubS16,
    Popcnt16,
    MulU16,
    MulS16,
    MulF16,
    DivU16,
    DivS16,
    Eq16,
    GtU16,
    LtU16,
    LtGf16,
    GeU16,
    LeU16,
    RecipU16,
    ExpF16,
    SinFx,
    CosFx,
    CountM,
    /// VR ↔ L1 load or store (Table 4 `load, store`).
    LdSt,
    /// VR ↔ VR element-wise copy (Table 4 `cpy`).
    Cpy,
    /// Copy a VR subgroup across its group (Table 4 `cpy_subgrp`).
    CpySubgrp,
    /// Broadcast an immediate to a VR (Table 4 `cpy_imm`).
    CpyImm,
}

impl VecOp {
    /// All operations, in the order of the paper's tables.
    pub const ALL: [VecOp; 30] = [
        VecOp::And16,
        VecOp::Or16,
        VecOp::Not16,
        VecOp::Xor16,
        VecOp::AShift,
        VecOp::AddU16,
        VecOp::AddS16,
        VecOp::SubU16,
        VecOp::SubS16,
        VecOp::Popcnt16,
        VecOp::MulU16,
        VecOp::MulS16,
        VecOp::MulF16,
        VecOp::DivU16,
        VecOp::DivS16,
        VecOp::Eq16,
        VecOp::GtU16,
        VecOp::LtU16,
        VecOp::LtGf16,
        VecOp::GeU16,
        VecOp::LeU16,
        VecOp::RecipU16,
        VecOp::ExpF16,
        VecOp::SinFx,
        VecOp::CosFx,
        VecOp::CountM,
        VecOp::LdSt,
        VecOp::Cpy,
        VecOp::CpySubgrp,
        VecOp::CpyImm,
    ];

    /// The paper's mnemonic for the operation (e.g. `add_u16`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            VecOp::And16 => "and_16",
            VecOp::Or16 => "or_16",
            VecOp::Not16 => "not_16",
            VecOp::Xor16 => "xor_16",
            VecOp::AShift => "ashift",
            VecOp::AddU16 => "add_u16",
            VecOp::AddS16 => "add_s16",
            VecOp::SubU16 => "sub_u16",
            VecOp::SubS16 => "sub_s16",
            VecOp::Popcnt16 => "popcnt_16",
            VecOp::MulU16 => "mul_u16",
            VecOp::MulS16 => "mul_s16",
            VecOp::MulF16 => "mul_f16",
            VecOp::DivU16 => "div_u16",
            VecOp::DivS16 => "div_s16",
            VecOp::Eq16 => "eq_16",
            VecOp::GtU16 => "gt_u16",
            VecOp::LtU16 => "lt_u16",
            VecOp::LtGf16 => "lt_gf16",
            VecOp::GeU16 => "ge_u16",
            VecOp::LeU16 => "le_u16",
            VecOp::RecipU16 => "recip_u16",
            VecOp::ExpF16 => "exp_f16",
            VecOp::SinFx => "sin_fx",
            VecOp::CosFx => "cos_fx",
            VecOp::CountM => "count_m",
            VecOp::LdSt => "load/store",
            VecOp::Cpy => "cpy",
            VecOp::CpySubgrp => "cpy_subgrp",
            VecOp::CpyImm => "cpy_imm",
        }
    }

    /// Human-readable description (the paper tables' description column).
    pub fn describe(self) -> &'static str {
        match self {
            VecOp::And16 => "16-bit bit-wise and",
            VecOp::Or16 => "16-bit bit-wise or",
            VecOp::Not16 => "16-bit bit-wise not",
            VecOp::Xor16 => "16-bit bit-wise xor",
            VecOp::AShift => "int16 arithmetic shift",
            VecOp::AddU16 => "uint16 element-wise addition",
            VecOp::AddS16 => "int16 element-wise addition",
            VecOp::SubU16 => "uint16 element-wise subtraction",
            VecOp::SubS16 => "int16 element-wise subtraction",
            VecOp::Popcnt16 => "16-bit population count",
            VecOp::MulU16 => "uint16 element-wise multiplication",
            VecOp::MulS16 => "int16 element-wise multiplication",
            VecOp::MulF16 => "float16 element-wise multiplication",
            VecOp::DivU16 => "uint16 element-wise division",
            VecOp::DivS16 => "int16 element-wise division",
            VecOp::Eq16 => "16-bit element-wise equal",
            VecOp::GtU16 => "uint16 element-wise greater than",
            VecOp::LtU16 => "uint16 element-wise less than",
            VecOp::LtGf16 => "gsi float16 element-wise less than",
            VecOp::GeU16 => "uint16 greater than or equal",
            VecOp::LeU16 => "uint16 less than or equal",
            VecOp::RecipU16 => "uint16 element-wise reciprocal",
            VecOp::ExpF16 => "float16 exponential",
            VecOp::SinFx => "fixed-point sine",
            VecOp::CosFx => "fixed-point cosine",
            VecOp::CountM => "count marked entries",
            VecOp::LdSt => "VR<->L1 load store",
            VecOp::Cpy => "VR<->VR element-wise copy",
            VecOp::CpySubgrp => "copy VR subgroup to group",
            VecOp::CpyImm => "broadcast an immediate to VR",
        }
    }
}

/// Latency calibration table for one device.
///
/// All `*_cycles` fields are in device clock cycles; `*_per_byte`,
/// `*_per_elem` and `*_per_entry` fields are cycles per unit.
///
/// Obtain the paper's device with [`DeviceTiming::leda_e`], then derive
/// design-space variants with the `with_*` builders, e.g. doubling off-chip
/// bandwidth:
///
/// ```
/// use apu_sim::DeviceTiming;
/// let t = DeviceTiming::leda_e().with_offchip_bw_scale(2.0);
/// assert!(t.dma_l4_l2(65536) < DeviceTiming::leda_e().dma_l4_l2(65536));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceTiming {
    // ---- Table 5: computation (cycles per 32K-element vector command) ----
    /// `and_16`.
    pub and_16: u64,
    /// `or_16`.
    pub or_16: u64,
    /// `not_16`.
    pub not_16: u64,
    /// `xor_16`.
    pub xor_16: u64,
    /// `ashift` (arithmetic shift by immediate).
    pub ashift: u64,
    /// `add_u16`.
    pub add_u16: u64,
    /// `add_s16`.
    pub add_s16: u64,
    /// `sub_u16`.
    pub sub_u16: u64,
    /// `sub_s16`.
    pub sub_s16: u64,
    /// `popcnt_16`.
    pub popcnt_16: u64,
    /// `mul_u16`.
    pub mul_u16: u64,
    /// `mul_s16`.
    pub mul_s16: u64,
    /// `mul_f16`.
    pub mul_f16: u64,
    /// `div_u16`.
    pub div_u16: u64,
    /// `div_s16`.
    pub div_s16: u64,
    /// `eq_16`.
    pub eq_16: u64,
    /// `gt_u16`.
    pub gt_u16: u64,
    /// `lt_u16`.
    pub lt_u16: u64,
    /// `lt_gf16`.
    pub lt_gf16: u64,
    /// `ge_u16`.
    pub ge_u16: u64,
    /// `le_u16`.
    pub le_u16: u64,
    /// `recip_u16`.
    pub recip_u16: u64,
    /// `exp_f16`.
    pub exp_f16: u64,
    /// `sin_fx`.
    pub sin_fx: u64,
    /// `cos_fx`.
    pub cos_fx: u64,
    /// `count_m`.
    pub count_m: u64,

    // ---- Table 4: data movement ----
    /// L4→L3 DMA cycles per byte (`0.19 d + 41164`).
    pub dma_l4_l3_per_byte: f64,
    /// L4→L3 DMA fixed initialization cycles.
    pub dma_l4_l3_init: f64,
    /// L4→L2 DMA cycles per byte (`0.63 d + 548`).
    pub dma_l4_l2_per_byte: f64,
    /// L4→L2 DMA fixed initialization cycles.
    pub dma_l4_l2_init: f64,
    /// L2→L1 full-vector DMA (16-bit × 32 K).
    pub dma_l2_l1: u64,
    /// L4→L1 full-vector DMA.
    pub dma_l4_l1: u64,
    /// L1→L4 full-vector DMA.
    pub dma_l1_l4: u64,
    /// PIO load cycles per element (L4→VR).
    pub pio_ld_per_elem: u64,
    /// PIO store cycles per element (VR→L4).
    pub pio_st_per_elem: u64,
    /// Indexed-lookup cycles per table entry (`7.15 σ + 629`).
    pub lookup_per_entry: f64,
    /// Indexed-lookup fixed initialization cycles.
    pub lookup_init: f64,
    /// VR↔L1 load/store.
    pub ld_st: u64,
    /// VR↔VR element-wise copy.
    pub cpy: u64,
    /// Subgroup-to-group copy.
    pub cpy_subgrp: u64,
    /// Immediate broadcast to VR.
    pub cpy_imm: u64,
    /// Element shift toward head/tail, cycles per element of shift
    /// magnitude (`373 k`).
    pub shift_e_per_elem: u64,
    /// Intra-bank shift fixed cost (`8 + k` for a shift of `4·k`).
    pub shift_bank_base: u64,
    /// Intra-bank shift cycles per 4-element stride unit.
    pub shift_bank_per_unit: u64,

    // ---- Second-order effects (omitted by the analytical framework) ----
    /// Control-processor → VCU command issue/decode overhead per vector
    /// command.
    pub cmd_issue: u64,
    /// Extra DMA descriptor setup per transaction beyond the analytical
    /// init term (engine programming, completion interrupt).
    pub dma_setup_extra: u64,
    /// Penalty when a subgroup copy crosses a physical bank boundary.
    pub bank_cross_penalty: u64,
}

impl DeviceTiming {
    /// The GSI Leda-E calibration (measured columns of the paper's
    /// Tables 4 and 5).
    pub fn leda_e() -> Self {
        DeviceTiming {
            and_16: 12,
            or_16: 8,
            not_16: 10,
            xor_16: 12,
            ashift: 15,
            add_u16: 12,
            add_s16: 13,
            sub_u16: 15,
            sub_s16: 16,
            popcnt_16: 23,
            mul_u16: 115,
            mul_s16: 201,
            mul_f16: 77,
            div_u16: 664,
            div_s16: 739,
            eq_16: 13,
            gt_u16: 13,
            lt_u16: 13,
            lt_gf16: 45,
            ge_u16: 13,
            le_u16: 13,
            recip_u16: 735,
            exp_f16: 40295,
            sin_fx: 761,
            cos_fx: 761,
            count_m: 239,

            dma_l4_l3_per_byte: 0.19,
            dma_l4_l3_init: 41164.0,
            dma_l4_l2_per_byte: 0.63,
            dma_l4_l2_init: 548.0,
            dma_l2_l1: 386,
            dma_l4_l1: 22272,
            dma_l1_l4: 22186,
            pio_ld_per_elem: 57,
            pio_st_per_elem: 61,
            lookup_per_entry: 7.15,
            lookup_init: 629.0,
            ld_st: 29,
            cpy: 29,
            cpy_subgrp: 82,
            cpy_imm: 13,
            shift_e_per_elem: 373,
            shift_bank_base: 8,
            shift_bank_per_unit: 1,

            cmd_issue: 2,
            dma_setup_extra: 11,
            bank_cross_penalty: 5,
        }
    }

    /// Cycles for one fixed-latency vector command (Table 5 / constant rows
    /// of Table 4), **excluding** the per-command issue overhead, which the
    /// core charges separately.
    pub fn op_cycles(&self, op: VecOp) -> u64 {
        match op {
            VecOp::And16 => self.and_16,
            VecOp::Or16 => self.or_16,
            VecOp::Not16 => self.not_16,
            VecOp::Xor16 => self.xor_16,
            VecOp::AShift => self.ashift,
            VecOp::AddU16 => self.add_u16,
            VecOp::AddS16 => self.add_s16,
            VecOp::SubU16 => self.sub_u16,
            VecOp::SubS16 => self.sub_s16,
            VecOp::Popcnt16 => self.popcnt_16,
            VecOp::MulU16 => self.mul_u16,
            VecOp::MulS16 => self.mul_s16,
            VecOp::MulF16 => self.mul_f16,
            VecOp::DivU16 => self.div_u16,
            VecOp::DivS16 => self.div_s16,
            VecOp::Eq16 => self.eq_16,
            VecOp::GtU16 => self.gt_u16,
            VecOp::LtU16 => self.lt_u16,
            VecOp::LtGf16 => self.lt_gf16,
            VecOp::GeU16 => self.ge_u16,
            VecOp::LeU16 => self.le_u16,
            VecOp::RecipU16 => self.recip_u16,
            VecOp::ExpF16 => self.exp_f16,
            VecOp::SinFx => self.sin_fx,
            VecOp::CosFx => self.cos_fx,
            VecOp::CountM => self.count_m,
            VecOp::LdSt => self.ld_st,
            VecOp::Cpy => self.cpy,
            VecOp::CpySubgrp => self.cpy_subgrp,
            VecOp::CpyImm => self.cpy_imm,
        }
    }

    /// L4→L3 DMA latency for `d` bytes (one transaction).
    pub fn dma_l4_l3(&self, d: usize) -> Cycles {
        Cycles::from_f64(self.dma_l4_l3_per_byte * d as f64 + self.dma_l4_l3_init)
    }

    /// L4→L2 (or L2→L4) DMA latency for `d` bytes (one transaction).
    pub fn dma_l4_l2(&self, d: usize) -> Cycles {
        Cycles::from_f64(self.dma_l4_l2_per_byte * d as f64 + self.dma_l4_l2_init)
    }

    /// PIO latency for `n` element loads.
    pub fn pio_ld(&self, n: usize) -> Cycles {
        Cycles::new(self.pio_ld_per_elem * n as u64)
    }

    /// PIO latency for `n` element stores.
    pub fn pio_st(&self, n: usize) -> Cycles {
        Cycles::new(self.pio_st_per_elem * n as u64)
    }

    /// Indexed-lookup latency for a table of `sigma` entries.
    pub fn lookup(&self, sigma: usize) -> Cycles {
        Cycles::from_f64(self.lookup_per_entry * sigma as f64 + self.lookup_init)
    }

    /// Element-shift latency for a shift of magnitude `k` elements.
    pub fn shift_e(&self, k: usize) -> Cycles {
        Cycles::new(self.shift_e_per_elem * k as u64)
    }

    /// Intra-bank element-shift latency for a shift of `4·k` elements.
    pub fn shift_bank(&self, k: usize) -> Cycles {
        Cycles::new(self.shift_bank_base + self.shift_bank_per_unit * k as u64)
    }

    /// Effective off-chip (L4) streaming bandwidth in bytes/cycle implied
    /// by the L4→L2 DMA slope. Used by the analytical framework.
    pub fn l4_bytes_per_cycle(&self) -> f64 {
        1.0 / self.dma_l4_l2_per_byte
    }

    /// Scales off-chip DMA bandwidth by `factor` (> 1 is faster). Models
    /// replacing the device DDR with a faster memory in design-space
    /// exploration.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn with_offchip_bw_scale(mut self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0, "factor must be > 0");
        self.dma_l4_l3_per_byte /= factor;
        self.dma_l4_l2_per_byte /= factor;
        self.dma_l4_l1 = ((self.dma_l4_l1 as f64) / factor).round() as u64;
        self.dma_l1_l4 = ((self.dma_l1_l4 as f64) / factor).round() as u64;
        self
    }

    /// Scales every computation latency by `factor` (< 1 is faster).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn with_compute_scale(mut self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0, "factor must be > 0");
        let scale = |c: &mut u64| *c = ((*c as f64) * factor).round().max(1.0) as u64;
        for op in VecOp::ALL {
            match op {
                VecOp::And16 => scale(&mut self.and_16),
                VecOp::Or16 => scale(&mut self.or_16),
                VecOp::Not16 => scale(&mut self.not_16),
                VecOp::Xor16 => scale(&mut self.xor_16),
                VecOp::AShift => scale(&mut self.ashift),
                VecOp::AddU16 => scale(&mut self.add_u16),
                VecOp::AddS16 => scale(&mut self.add_s16),
                VecOp::SubU16 => scale(&mut self.sub_u16),
                VecOp::SubS16 => scale(&mut self.sub_s16),
                VecOp::Popcnt16 => scale(&mut self.popcnt_16),
                VecOp::MulU16 => scale(&mut self.mul_u16),
                VecOp::MulS16 => scale(&mut self.mul_s16),
                VecOp::MulF16 => scale(&mut self.mul_f16),
                VecOp::DivU16 => scale(&mut self.div_u16),
                VecOp::DivS16 => scale(&mut self.div_s16),
                VecOp::Eq16 => scale(&mut self.eq_16),
                VecOp::GtU16 => scale(&mut self.gt_u16),
                VecOp::LtU16 => scale(&mut self.lt_u16),
                VecOp::LtGf16 => scale(&mut self.lt_gf16),
                VecOp::GeU16 => scale(&mut self.ge_u16),
                VecOp::LeU16 => scale(&mut self.le_u16),
                VecOp::RecipU16 => scale(&mut self.recip_u16),
                VecOp::ExpF16 => scale(&mut self.exp_f16),
                VecOp::SinFx => scale(&mut self.sin_fx),
                VecOp::CosFx => scale(&mut self.cos_fx),
                VecOp::CountM => scale(&mut self.count_m),
                VecOp::LdSt => scale(&mut self.ld_st),
                VecOp::Cpy => scale(&mut self.cpy),
                VecOp::CpySubgrp => scale(&mut self.cpy_subgrp),
                VecOp::CpyImm => scale(&mut self.cpy_imm),
            }
        }
        self
    }

    /// Returns a copy with all second-order overheads zeroed — i.e. the
    /// idealized device the analytical framework models. Used by validation
    /// tests to isolate the intended model error.
    pub fn idealized(mut self) -> Self {
        self.cmd_issue = 0;
        self.dma_setup_extra = 0;
        self.bank_cross_penalty = 0;
        self
    }
}

impl Default for DeviceTiming {
    fn default() -> Self {
        DeviceTiming::leda_e()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_values_match_paper() {
        let t = DeviceTiming::leda_e();
        assert_eq!(t.op_cycles(VecOp::And16), 12);
        assert_eq!(t.op_cycles(VecOp::Or16), 8);
        assert_eq!(t.op_cycles(VecOp::AddU16), 12);
        assert_eq!(t.op_cycles(VecOp::SubS16), 16);
        assert_eq!(t.op_cycles(VecOp::MulS16), 201);
        assert_eq!(t.op_cycles(VecOp::DivS16), 739);
        assert_eq!(t.op_cycles(VecOp::ExpF16), 40295);
        assert_eq!(t.op_cycles(VecOp::CountM), 239);
        assert_eq!(t.op_cycles(VecOp::Cpy), 29);
        assert_eq!(t.op_cycles(VecOp::CpySubgrp), 82);
        assert_eq!(t.op_cycles(VecOp::CpyImm), 13);
    }

    #[test]
    fn table4_formulas_match_paper() {
        let t = DeviceTiming::leda_e();
        // 0.19 d + 41164 at d = 0 and d = 100000
        assert_eq!(t.dma_l4_l3(0).get(), 41164);
        assert_eq!(t.dma_l4_l3(100_000).get(), 41164 + 19_000);
        // 0.63 d + 548
        assert_eq!(t.dma_l4_l2(1000).get(), 548 + 630);
        assert_eq!(t.dma_l2_l1, 386);
        assert_eq!(t.dma_l4_l1, 22272);
        assert_eq!(t.dma_l1_l4, 22186);
        assert_eq!(t.pio_ld(10).get(), 570);
        assert_eq!(t.pio_st(10).get(), 610);
        // 7.15 σ + 629
        assert_eq!(t.lookup(100).get(), 1344);
        assert_eq!(t.shift_e(3).get(), 1119);
        assert_eq!(t.shift_bank(4).get(), 12);
    }

    #[test]
    fn every_op_has_nonzero_latency() {
        let t = DeviceTiming::leda_e();
        for op in VecOp::ALL {
            assert!(t.op_cycles(op) > 0, "{} has zero latency", op.mnemonic());
            assert!(!op.mnemonic().is_empty());
            assert!(!op.describe().is_empty());
        }
    }

    #[test]
    fn bw_scaling_halves_slope() {
        let t = DeviceTiming::leda_e().with_offchip_bw_scale(2.0);
        assert!((t.dma_l4_l2_per_byte - 0.315).abs() < 1e-12);
        assert_eq!(t.dma_l4_l1, 11136);
    }

    #[test]
    fn compute_scaling_applies_to_all_ops() {
        let t = DeviceTiming::leda_e().with_compute_scale(0.5);
        assert_eq!(t.op_cycles(VecOp::AddU16), 6);
        assert_eq!(t.op_cycles(VecOp::Or16), 4);
        // never drops to zero
        let t2 = DeviceTiming::leda_e().with_compute_scale(0.0001);
        assert!(t2.op_cycles(VecOp::Or16) >= 1);
    }

    #[test]
    fn idealized_zeroes_overheads() {
        let t = DeviceTiming::leda_e().idealized();
        assert_eq!(t.cmd_issue, 0);
        assert_eq!(t.dma_setup_extra, 0);
        assert_eq!(t.bank_cross_penalty, 0);
        // primary constants untouched
        assert_eq!(t.op_cycles(VecOp::AddU16), 12);
    }

    #[test]
    fn implied_l4_bandwidth_is_plausible() {
        // 1/0.63 B/cycle * 500 MHz ≈ 0.79 GB/s per DMA stream.
        let bpc = DeviceTiming::leda_e().l4_bytes_per_cycle();
        assert!(bpc > 1.5 && bpc < 1.7);
    }
}
