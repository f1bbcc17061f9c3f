//! The recording latency estimator (the paper's Fig. 6 API).
//!
//! Method names mirror the GSI-provided C++ API so that a modeled program
//! reads like the device program it predicts. Each call appends an
//! abstract [`TraceOp`] to the trace; [`LatencyEstimator::report_latency_us`]
//! evaluates the trace under the estimator's parameters, and
//! [`LatencyEstimator::evaluate_with`] re-evaluates the *same* program
//! under different parameters (design-space exploration).

use std::collections::BTreeMap;

use apu_sim::VecOp;

use crate::params::ModelParams;

/// One abstract operation in a modeled program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceOp {
    /// Fixed-latency vector command.
    Op(VecOp),
    /// L4→L3 DMA of `d` bytes.
    DmaL4L3(usize),
    /// L4↔L2 DMA of `d` bytes.
    DmaL4L2(usize),
    /// Full-vector L2→L1 DMA.
    DmaL2L1,
    /// Full-vector L4→L1 DMA.
    DmaL4L1,
    /// Full-vector L1→L4 DMA.
    DmaL1L4,
    /// `n` PIO loads.
    PioLd(usize),
    /// `n` PIO stores.
    PioSt(usize),
    /// Indexed lookup over a `σ`-entry table.
    Lookup(usize),
    /// General element shift by `k`.
    ShiftE(usize),
    /// Intra-bank shift of `4·k` elements.
    ShiftBank(usize),
    /// Subgroup reduction with group `r`, subgroup `s` (Eq. 1).
    SgAdd {
        /// Group size.
        r: usize,
        /// Subgroup size.
        s: usize,
    },
    /// Min/max subgroup reduction with group `r`, subgroup `s`.
    SgMinMax {
        /// Group size.
        r: usize,
        /// Subgroup size.
        s: usize,
    },
}

impl TraceOp {
    /// Evaluates this operation's latency in cycles under `params`.
    pub fn cycles(&self, params: &ModelParams) -> f64 {
        match *self {
            TraceOp::Op(op) => params.t_op(op),
            TraceOp::DmaL4L3(d) => params.t_dma_l4_l3(d),
            TraceOp::DmaL4L2(d) => params.t_dma_l4_l2(d),
            TraceOp::DmaL2L1 => params.t_dma_l2_l1(),
            TraceOp::DmaL4L1 => params.t_dma_l4_l1(),
            TraceOp::DmaL1L4 => params.t_dma_l1_l4(),
            TraceOp::PioLd(n) => params.t_pio_ld(n),
            TraceOp::PioSt(n) => params.t_pio_st(n),
            TraceOp::Lookup(sigma) => params.t_lookup(sigma),
            TraceOp::ShiftE(k) => params.t_shift_e(k),
            TraceOp::ShiftBank(k) => params.t_shift_bank(k),
            TraceOp::SgAdd { r, s } => params.t_sg_add(r, s),
            TraceOp::SgMinMax { r, s } => params.t_sg_minmax(r, s),
        }
    }

    /// Coarse category for report breakdowns.
    pub fn category(&self) -> &'static str {
        match self {
            TraceOp::Op(_) | TraceOp::SgAdd { .. } | TraceOp::SgMinMax { .. } => "compute",
            TraceOp::DmaL4L3(_)
            | TraceOp::DmaL4L2(_)
            | TraceOp::DmaL2L1
            | TraceOp::DmaL4L1
            | TraceOp::DmaL1L4 => "dma",
            TraceOp::PioLd(_) | TraceOp::PioSt(_) => "pio",
            TraceOp::Lookup(_) => "lookup",
            TraceOp::ShiftE(_) | TraceOp::ShiftBank(_) => "shift",
        }
    }
}

/// Evaluated latency report with per-section and per-category breakdowns.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// Total predicted cycles.
    pub total_cycles: f64,
    /// Total predicted latency in microseconds.
    pub total_us: f64,
    /// Cycles per user-defined section (see
    /// [`LatencyEstimator::section`]).
    pub by_section: BTreeMap<String, f64>,
    /// Cycles per operation category (`compute`, `dma`, `pio`, `lookup`,
    /// `shift`).
    pub by_category: BTreeMap<String, f64>,
}

/// Records a modeled device program and predicts its latency.
#[derive(Debug, Clone)]
pub struct LatencyEstimator {
    params: ModelParams,
    trace: Vec<(TraceOp, usize)>,
    sections: Vec<String>,
    current: usize,
}

impl LatencyEstimator {
    /// Creates an estimator for the given device parameters.
    pub fn new(params: ModelParams) -> Self {
        LatencyEstimator {
            params,
            trace: Vec::new(),
            sections: vec!["default".to_string()],
            current: 0,
        }
    }

    /// The parameters this estimator evaluates under by default.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The recorded trace.
    pub fn trace(&self) -> impl Iterator<Item = &TraceOp> {
        self.trace.iter().map(|(op, _)| op)
    }

    /// Switches the active section label; subsequent operations are
    /// attributed to it in the report (e.g. `"LD LHS"`, `"VR Ops"`,
    /// `"ST"`, matching the paper's Fig. 12 breakdown).
    pub fn section(&mut self, name: &str) {
        if let Some(i) = self.sections.iter().position(|s| s == name) {
            self.current = i;
        } else {
            self.sections.push(name.to_string());
            self.current = self.sections.len() - 1;
        }
    }

    /// Appends an arbitrary abstract operation.
    pub fn record(&mut self, op: TraceOp) {
        self.trace.push((op, self.current));
    }

    /// Appends `count` repetitions of an operation (loops in the modeled
    /// program).
    pub fn record_n(&mut self, op: TraceOp, count: usize) {
        for _ in 0..count {
            self.record(op);
        }
    }

    // ---- GSI-API-shaped recording methods (Fig. 6 names) ----

    /// `fast_dma_l4_to_l2(bytes)`.
    pub fn fast_dma_l4_to_l2(&mut self, bytes: usize) {
        self.record(TraceOp::DmaL4L2(bytes));
    }

    /// `dma_l4_to_l3(bytes)`.
    pub fn dma_l4_to_l3(&mut self, bytes: usize) {
        self.record(TraceOp::DmaL4L3(bytes));
    }

    /// `direct_dma_l2_to_l1_32k()`.
    pub fn direct_dma_l2_to_l1_32k(&mut self) {
        self.record(TraceOp::DmaL2L1);
    }

    /// `direct_dma_l4_to_l1_32k()`.
    pub fn direct_dma_l4_to_l1_32k(&mut self) {
        self.record(TraceOp::DmaL4L1);
    }

    /// `direct_dma_l1_to_l4_32k()`.
    pub fn direct_dma_l1_to_l4_32k(&mut self) {
        self.record(TraceOp::DmaL1L4);
    }

    /// `gvml_load_16()` — VR←L1 load.
    pub fn gvml_load_16(&mut self) {
        self.record(TraceOp::Op(VecOp::LdSt));
    }

    /// `gvml_store_16()` — VR→L1 store.
    pub fn gvml_store_16(&mut self) {
        self.record(TraceOp::Op(VecOp::LdSt));
    }

    /// `gvml_cpy_16()`.
    pub fn gvml_cpy_16(&mut self) {
        self.record(TraceOp::Op(VecOp::Cpy));
    }

    /// `gvml_cpy_imm_16()`.
    pub fn gvml_cpy_imm_16(&mut self) {
        self.record(TraceOp::Op(VecOp::CpyImm));
    }

    /// `gvml_cpy_subgrp_16_grp(...)`.
    pub fn gvml_cpy_subgrp_16_grp(&mut self) {
        self.record(TraceOp::Op(VecOp::CpySubgrp));
    }

    /// `gvml_cpy_16_msk()` — masked copy.
    pub fn gvml_cpy_16_msk(&mut self) {
        self.record(TraceOp::Op(VecOp::Cpy));
    }

    /// `gvml_create_grp_index_u16()`.
    pub fn gvml_create_grp_index_u16(&mut self) {
        self.record(TraceOp::Op(VecOp::CpyImm));
        self.record(TraceOp::Op(VecOp::AddU16));
    }

    /// `gvml_add_u16()`.
    pub fn gvml_add_u16(&mut self) {
        self.record(TraceOp::Op(VecOp::AddU16));
    }

    /// `gvml_add_s16()`.
    pub fn gvml_add_s16(&mut self) {
        self.record(TraceOp::Op(VecOp::AddS16));
    }

    /// `gvml_sub_s16()`.
    pub fn gvml_sub_s16(&mut self) {
        self.record(TraceOp::Op(VecOp::SubS16));
    }

    /// `gvml_mul_u16()`.
    pub fn gvml_mul_u16(&mut self) {
        self.record(TraceOp::Op(VecOp::MulU16));
    }

    /// `gvml_mul_s16()`.
    pub fn gvml_mul_s16(&mut self) {
        self.record(TraceOp::Op(VecOp::MulS16));
    }

    /// `gvml_xor_16()`.
    pub fn gvml_xor_16(&mut self) {
        self.record(TraceOp::Op(VecOp::Xor16));
    }

    /// `gvml_popcnt_16()`.
    pub fn gvml_popcnt_16(&mut self) {
        self.record(TraceOp::Op(VecOp::Popcnt16));
    }

    /// `gvml_sr_imm_16()` / `gvml_sl_imm_16()`.
    pub fn gvml_shift_imm_16(&mut self) {
        self.record(TraceOp::Op(VecOp::AShift));
    }

    /// `gvml_eq_16()`.
    pub fn gvml_eq_16(&mut self) {
        self.record(TraceOp::Op(VecOp::Eq16));
    }

    /// `gvml_lt_u16()` (and the other compare flavours).
    pub fn gvml_lt_u16(&mut self) {
        self.record(TraceOp::Op(VecOp::LtU16));
    }

    /// `gvml_count_m()`.
    pub fn gvml_count_m(&mut self) {
        self.record(TraceOp::Op(VecOp::CountM));
    }

    /// `gvml_cpy_from_mrk_16_msk()` — modeled as a count plus `n` serial
    /// FIFO extractions.
    pub fn gvml_cpy_from_mrk_16_msk(&mut self, n_marked: usize) {
        self.record(TraceOp::Op(VecOp::CountM));
        self.record(TraceOp::PioSt(n_marked));
    }

    /// `gvml_add_subgrp_s16(r, s)` — Eq. 1.
    pub fn gvml_add_subgrp_s16(&mut self, r: usize, s: usize) {
        self.record(TraceOp::SgAdd { r, s });
    }

    /// `pio_ld(n)` — `n` element loads.
    pub fn pio_ld(&mut self, n: usize) {
        self.record(TraceOp::PioLd(n));
    }

    /// `pio_st(n)` — `n` element stores.
    pub fn pio_st(&mut self, n: usize) {
        self.record(TraceOp::PioSt(n));
    }

    /// `lookup(σ)` — indexed lookup over a `σ`-entry table.
    pub fn lookup(&mut self, sigma: usize) {
        self.record(TraceOp::Lookup(sigma));
    }

    // ---- evaluation ----

    /// Evaluates the trace under this estimator's own parameters.
    pub fn report(&self) -> LatencyReport {
        self.evaluate_with(&self.params)
    }

    /// Total predicted latency in microseconds (the Fig. 6
    /// `report_latency()`).
    pub fn report_latency_us(&self) -> f64 {
        self.report().total_us
    }

    /// Re-evaluates the recorded program under different parameters.
    pub fn evaluate_with(&self, params: &ModelParams) -> LatencyReport {
        let mut total = 0.0;
        let mut by_section: BTreeMap<String, f64> = BTreeMap::new();
        let mut by_category: BTreeMap<String, f64> = BTreeMap::new();
        for (op, sec) in &self.trace {
            let c = op.cycles(params);
            total += c;
            *by_section.entry(self.sections[*sec].clone()).or_insert(0.0) += c;
            *by_category.entry(op.category().to_string()).or_insert(0.0) += c;
        }
        LatencyReport {
            total_cycles: total,
            total_us: params.cycles_to_us(total),
            by_section,
            by_category,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_program_latency() {
        let mut est = LatencyEstimator::new(ModelParams::leda_e());
        est.direct_dma_l4_to_l1_32k(); // 22272
        est.gvml_load_16(); // 29
        est.gvml_add_u16(); // 12
        est.gvml_store_16(); // 29
        est.direct_dma_l1_to_l4_32k(); // 22186
        let r = est.report();
        assert_eq!(r.total_cycles, 22272.0 + 29.0 + 12.0 + 29.0 + 22186.0);
        assert!((r.total_us - r.total_cycles / 500.0).abs() < 1e-9);
    }

    #[test]
    fn sections_attribute_costs() {
        let mut est = LatencyEstimator::new(ModelParams::leda_e());
        est.section("LD");
        est.direct_dma_l4_to_l1_32k();
        est.section("VR Ops");
        est.gvml_add_u16();
        est.gvml_add_u16();
        est.section("ST");
        est.direct_dma_l1_to_l4_32k();
        est.section("LD"); // reuse existing section
        est.direct_dma_l4_to_l1_32k();
        let r = est.report();
        assert_eq!(r.by_section["LD"], 2.0 * 22272.0);
        assert_eq!(r.by_section["VR Ops"], 24.0);
        assert_eq!(r.by_section["ST"], 22186.0);
    }

    #[test]
    fn categories_split_dma_and_compute() {
        let mut est = LatencyEstimator::new(ModelParams::leda_e());
        est.fast_dma_l4_to_l2(1000);
        est.gvml_mul_u16();
        est.pio_st(10);
        est.lookup(100);
        let r = est.report();
        assert!((r.by_category["dma"] - (0.63 * 1000.0 + 548.0)).abs() < 1e-9);
        assert_eq!(r.by_category["compute"], 115.0);
        assert_eq!(r.by_category["pio"], 610.0);
        assert!((r.by_category["lookup"] - 1344.0).abs() < 1.0);
    }

    #[test]
    fn reevaluation_under_faster_memory() {
        let mut est = LatencyEstimator::new(ModelParams::leda_e());
        est.fast_dma_l4_to_l2(65536);
        est.gvml_add_u16();
        let base = est.report();
        let fast = ModelParams::from_timing(
            apu_sim::DeviceTiming::leda_e().with_offchip_bw_scale(4.0),
            apu_sim::Frequency::LEDA_E,
            32768,
        );
        let r = est.evaluate_with(&fast);
        assert!(r.total_cycles < base.total_cycles);
        // compute portion unchanged
        assert_eq!(r.by_category["compute"], base.by_category["compute"]);
    }

    #[test]
    fn histogram_model_mirrors_fig6_shape() {
        // The Fig. 6 program: tiles of DMA loads, subgroup copies, masked
        // histogram accumulation, then result stores.
        let mut est = LatencyEstimator::new(ModelParams::leda_e());
        let total_data = 1024 * 1024; // scaled-down input
        let tile_data = 8 * 1024 * 48;
        let tiles = total_data / tile_data + 1;
        for _ in 0..tiles {
            est.section("load");
            for _ in 0..48 {
                for _ in 0..2 {
                    est.fast_dma_l4_to_l2(32 * 512);
                }
                est.direct_dma_l2_to_l1_32k();
            }
            est.section("compute");
            for _ in 0..48 {
                est.gvml_load_16();
                for _ in 0..8 {
                    est.gvml_cpy_subgrp_16_grp();
                }
                est.gvml_create_grp_index_u16();
                est.gvml_cpy_imm_16();
                for _ in 0..8 {
                    est.gvml_cpy_16_msk();
                    est.gvml_shift_imm_16();
                    est.gvml_eq_16();
                    est.gvml_cpy_from_mrk_16_msk(16);
                }
            }
            est.section("store");
            for _ in 0..8 {
                est.gvml_store_16();
                est.direct_dma_l1_to_l4_32k();
            }
        }
        let r = est.report();
        assert!(r.total_us > 0.0);
        assert!(r.by_section["load"] > 0.0);
        assert!(r.by_section["compute"] > 0.0);
        assert!(r.by_section["store"] > 0.0);
    }
}
