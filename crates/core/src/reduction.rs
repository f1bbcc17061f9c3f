//! Communication-aware reduction mapping (paper §4.2).
//!
//! A reduction axis can be mapped two ways on an ultra-long-vector
//! compute-in-SRAM device:
//!
//! * **Spatial**: unroll the reduction axis across the VR and reduce with
//!   intra-VR subgroup operations — simple, but intra-VR data movement is
//!   expensive (Eq. 1) and the results end up scattered, forcing PIO
//!   stores.
//! * **Temporal**: iterate the reduction axis over time, accumulating
//!   with cheap element-wise inter-VR adds — and the outputs stay
//!   contiguous, so they return to memory via DMA.
//!
//! [`recommend_mapping`] compares both costs under the analytical
//! framework and picks the cheaper one.

use apu_sim::VecOp;
use cis_model::ModelParams;

/// How a reduction axis is mapped onto the vector register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReductionMapping {
    /// Reduction elements laid out across the VR; reduced with intra-VR
    /// subgroup operations.
    Spatial,
    /// Reduction iterated over time; accumulated with inter-VR
    /// element-wise operations.
    Temporal,
}

/// Cost estimate (cycles) of performing `num_reductions` independent
/// reductions of `reduce_len` elements each, under the spatial mapping:
/// reductions are packed `⌊l / reduce_len⌋` per VR pass, each pass pays
/// one subgroup reduction, and every result leaves via a PIO store.
pub fn spatial_cost(params: &ModelParams, reduce_len: usize, num_reductions: usize) -> f64 {
    let per_vr = (params.vr_len / reduce_len.max(1)).max(1);
    let passes = num_reductions.div_ceil(per_vr);
    let per_pass = params.t_op(VecOp::AddS16) // element-wise combine into lanes
        + params.t_sg_add(reduce_len, reduce_len);
    passes as f64 * per_pass + params.t_pio_st(num_reductions)
}

/// Cost estimate (cycles) under the temporal mapping: `reduce_len`
/// element-wise accumulation steps amortized over `⌊l / out_tile⌋`
/// results per pass, with contiguous results returned by full-vector
/// DMA.
pub fn temporal_cost(params: &ModelParams, reduce_len: usize, num_reductions: usize) -> f64 {
    let per_vr = params.vr_len.min(num_reductions.max(1));
    let passes = num_reductions.div_ceil(per_vr);
    let per_pass = reduce_len as f64 * params.t_op(VecOp::AddS16);
    let store_passes = num_reductions.div_ceil(params.vr_len);
    passes as f64 * per_pass + store_passes as f64 * params.t_dma_l1_l4()
}

/// Picks the cheaper mapping for the given reduction shape.
pub fn recommend_mapping(
    params: &ModelParams,
    reduce_len: usize,
    num_reductions: usize,
) -> ReductionMapping {
    if temporal_cost(params, reduce_len, num_reductions)
        <= spatial_cost(params, reduce_len, num_reductions)
    {
        ReductionMapping::Temporal
    } else {
        ReductionMapping::Spatial
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn many_reductions_prefer_temporal() {
        // The matmul / RAG regime: millions of independent dot products.
        let p = ModelParams::leda_e();
        assert_eq!(
            recommend_mapping(&p, 1024, 1_000_000),
            ReductionMapping::Temporal
        );
    }

    #[test]
    fn single_wide_reduction_prefers_spatial() {
        // One reduction of the whole VR: temporal would serialize 32K
        // adds; the staged intra-VR reduction wins despite the PIO store.
        let p = ModelParams::leda_e();
        assert_eq!(
            recommend_mapping(&p, 32 * 1024, 1),
            ReductionMapping::Spatial
        );
    }

    #[test]
    fn spatial_cost_includes_pio_tax() {
        let p = ModelParams::leda_e();
        let with_many = spatial_cost(&p, 64, 10_000);
        let with_few = spatial_cost(&p, 64, 100);
        // PIO term is linear in the number of results.
        assert!(with_many > with_few + p.t_pio_st(9_000));
    }

    #[test]
    fn temporal_cost_scales_with_reduce_len() {
        let p = ModelParams::leda_e();
        // Once past the fixed DMA store term, cost is linear in the
        // accumulation depth.
        assert!(temporal_cost(&p, 8192, 32768) > 3.0 * temporal_cost(&p, 512, 32768));
    }

    #[test]
    fn crossover_exists() {
        // Somewhere between "one giant reduction" and "many small ones"
        // the recommendation flips — the point of having the model.
        let p = ModelParams::leda_e();
        let few = recommend_mapping(&p, 16 * 1024, 2);
        let many = recommend_mapping(&p, 16 * 1024, 100_000);
        assert_ne!(few, many);
    }
}
