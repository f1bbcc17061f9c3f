//! DMA coalescing (paper §4.3).
//!
//! When a kernel repeatedly needs the same (or adjacent) chunks of
//! off-chip data — e.g. every iteration of the matmul `k` loop re-reads a
//! row of B — issuing one DMA transaction per row wastes bandwidth on
//! per-transaction initialization and re-reads duplicated data. The
//! coalescing planner instead:
//!
//! 1. merges adjacent/overlapping row transfers into maximal contiguous
//!    runs, each fetched by **one** programmed chunk within a single DMA
//!    transaction (initialization paid once), and
//! 2. materializes any required duplication *on-chip* with subgroup
//!    copies from a "reuse VR" instead of re-fetching from L4.

use apu_sim::dma::ChunkCopy;
use apu_sim::VecOp;
use cis_model::ModelParams;

/// One logical row the kernel needs in the vector register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowTransfer {
    /// Byte offset of the row in the source (L4) region.
    pub src_off: usize,
    /// Row length in bytes.
    pub bytes: usize,
    /// Destination element-byte offset within the staged vector.
    pub dst_off: usize,
}

/// A coalescing plan: the merged chunk list plus duplication work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalescePlan {
    /// Programmed chunks for one DMA transaction.
    pub chunks: Vec<(usize, usize, usize)>, // (src_off, dst_off, bytes)
    /// Number of on-chip subgroup copies needed to materialize
    /// duplicated rows.
    pub subgroup_copies: usize,
    /// Transactions the naive per-row strategy would have issued.
    pub naive_transactions: usize,
    /// Unique bytes fetched from L4.
    pub unique_bytes: usize,
    /// Bytes the naive strategy would have fetched (with duplicates).
    pub naive_bytes: usize,
}

impl CoalescePlan {
    /// Builds a plan from the rows a kernel pass needs.
    ///
    /// Rows with identical `src_off`/`bytes` beyond the first occurrence
    /// become subgroup copies; distinct rows are sorted and merged into
    /// maximal contiguous chunks.
    pub fn plan(rows: &[RowTransfer]) -> CoalescePlan {
        let naive_transactions = rows.len();
        let naive_bytes: usize = rows.iter().map(|r| r.bytes).sum();

        // Split into first occurrences and duplicates.
        let mut uniques: Vec<RowTransfer> = Vec::new();
        let mut dup_count = 0usize;
        for r in rows {
            if uniques
                .iter()
                .any(|u| u.src_off == r.src_off && u.bytes == r.bytes)
            {
                dup_count += 1;
            } else {
                uniques.push(*r);
            }
        }
        uniques.sort_by_key(|r| r.src_off);

        // Merge source-contiguous rows that are also destination-contiguous.
        let mut chunks: Vec<(usize, usize, usize)> = Vec::new();
        for u in &uniques {
            if let Some(last) = chunks.last_mut() {
                let (src, dst, len) = *last;
                if src + len == u.src_off && dst + len == u.dst_off {
                    last.2 += u.bytes;
                    continue;
                }
            }
            chunks.push((u.src_off, u.dst_off, u.bytes));
        }

        CoalescePlan {
            chunks,
            subgroup_copies: dup_count,
            naive_transactions,
            unique_bytes: uniques.iter().map(|r| r.bytes).sum(),
            naive_bytes,
        }
    }

    /// The plan's chunks as simulator DMA descriptors.
    pub fn chunk_copies(&self) -> Vec<ChunkCopy> {
        self.chunks
            .iter()
            .map(|&(src, dst, len)| ChunkCopy::new(src, dst, len))
            .collect()
    }

    /// Predicted cycles for the coalesced plan under the analytical
    /// framework: one chunked transaction plus subgroup copies.
    pub fn coalesced_cost(&self, params: &ModelParams) -> f64 {
        params.t_dma_l4_l2(self.unique_bytes)
            + self.subgroup_copies as f64 * params.t_op(VecOp::CpySubgrp)
    }

    /// Predicted cycles for the naive per-row strategy: one transaction
    /// (with its own initialization) per row, duplicates re-fetched.
    pub fn naive_cost(&self, params: &ModelParams) -> f64 {
        let avg = self.naive_bytes as f64 / self.naive_transactions.max(1) as f64;
        self.naive_transactions as f64 * params.t_dma_l4_l2(avg.round() as usize)
    }

    /// Speedup of the coalesced plan over the naive plan.
    pub fn predicted_speedup(&self, params: &ModelParams) -> f64 {
        self.naive_cost(params) / self.coalesced_cost(params).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_contiguous(n: usize, bytes: usize) -> Vec<RowTransfer> {
        (0..n)
            .map(|i| RowTransfer {
                src_off: i * bytes,
                bytes,
                dst_off: i * bytes,
            })
            .collect()
    }

    #[test]
    fn contiguous_rows_merge_into_one_chunk() {
        let plan = CoalescePlan::plan(&rows_contiguous(16, 2048));
        assert_eq!(plan.chunks.len(), 1);
        assert_eq!(plan.chunks[0], (0, 0, 16 * 2048));
        assert_eq!(plan.naive_transactions, 16);
        assert_eq!(plan.subgroup_copies, 0);
    }

    #[test]
    fn duplicated_rows_become_subgroup_copies() {
        // The Fig. 10 pattern: the same row of B fetched at every k
        // iteration.
        let rows: Vec<RowTransfer> = (0..8)
            .map(|i| RowTransfer {
                src_off: 0,
                bytes: 2048,
                dst_off: i * 2048,
            })
            .collect();
        let plan = CoalescePlan::plan(&rows);
        assert_eq!(plan.chunks.len(), 1);
        assert_eq!(plan.subgroup_copies, 7);
        assert_eq!(plan.unique_bytes, 2048);
        assert_eq!(plan.naive_bytes, 8 * 2048);
    }

    #[test]
    fn strided_rows_stay_separate_chunks() {
        let rows: Vec<RowTransfer> = (0..4)
            .map(|i| RowTransfer {
                src_off: i * 10_000,
                bytes: 2048,
                dst_off: i * 2048,
            })
            .collect();
        let plan = CoalescePlan::plan(&rows);
        assert_eq!(plan.chunks.len(), 4);
        // ... but still one transaction: initialization paid once.
        let p = ModelParams::leda_e();
        assert!(plan.coalesced_cost(&p) < plan.naive_cost(&p));
    }

    #[test]
    fn predicted_speedup_grows_with_row_count() {
        let p = ModelParams::leda_e();
        let few = CoalescePlan::plan(&rows_contiguous(4, 512)).predicted_speedup(&p);
        let many = CoalescePlan::plan(&rows_contiguous(64, 512)).predicted_speedup(&p);
        assert!(many > few);
        assert!(many > 2.0);
    }

    #[test]
    fn chunk_copies_roundtrip() {
        let plan = CoalescePlan::plan(&rows_contiguous(2, 512));
        let cc = plan.chunk_copies();
        assert_eq!(cc.len(), 1);
        assert_eq!(cc[0].bytes, 1024);
    }
}
