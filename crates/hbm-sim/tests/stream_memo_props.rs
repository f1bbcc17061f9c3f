//! Differential property test of the cross-stream replay memo in
//! `MemorySystem::transfer`: a system driven through `stream_read`,
//! `stream_write` and `transfer` (memo and steady-state fast path both
//! live) must match a burst-by-burst `access` oracle after every
//! operation — completion cycle, statistics, horizon and energy — and
//! in the row-buffer state that follow-up witness transfers expose.

use hbm_sim::{AccessKind, DramEnergy, DramSpec, EnergyParams, MemorySystem};
use proptest::prelude::*;

/// A small device: one rotation window is 2 ch x 2 bank groups x 2 banks
/// x 2 ranks x 4 bursts per row = 64 bursts (4 KiB), so the memo's
/// three-window threshold is 12 KiB and the oracle stays cheap. The
/// short refresh interval lands refreshes inside and between streams.
fn tiny_spec() -> DramSpec {
    let mut spec = DramSpec::hbm2e_16gb();
    spec.channels = 2;
    spec.ranks = 2;
    spec.bank_groups = 2;
    spec.banks_per_group = 2;
    spec.rows = 64;
    spec.row_bytes = 256;
    spec.t_refi = 700;
    spec.t_rfc = 90;
    spec
}

/// Transfer sizes in bytes: below, at and above the 12 KiB memo
/// threshold, odd lengths included. Drawn from a short menu so sizes
/// repeat and the memo hits.
const SIZES: [u64; 8] = [
    64,
    1_000,
    8 << 10,
    (12 << 10) - 1,
    12 << 10,
    (16 << 10) + 33,
    40 << 10,
    (64 << 10) + 7,
];

/// Start addresses: aligned, misaligned, and one past the device's
/// 256 KiB capacity so rows wrap.
const STARTS: [u64; 4] = [0, 13, 4_096 + 7, (256 << 10) + 100_003];

/// The oracle: every burst of the range through `access`.
fn walk(mem: &mut MemorySystem, kind: AccessKind, start: u64, bytes: u64, arrival: u64) -> u64 {
    let g = mem.spec().access_bytes() as u64;
    let (first, last) = (start / g, (start + bytes.max(1) - 1) / g);
    (first..=last).fold(arrival, |end, b| end.max(mem.access(kind, b * g, arrival)))
}

fn energy(mem: &MemorySystem) -> DramEnergy {
    DramEnergy::from_stats(
        mem.spec(),
        &EnergyParams::hbm2e(),
        &mem.stats(),
        mem.horizon(),
    )
}

fn same_state(memo: &MemorySystem, oracle: &MemorySystem) {
    assert_eq!(memo.stats(), oracle.stats(), "statistics diverged");
    assert_eq!(memo.horizon(), oracle.horizon(), "horizon diverged");
    assert_eq!(energy(memo), energy(oracle), "energy diverged");
}

/// Streams `bytes` from `start` at the horizon on both systems and checks
/// they agree.
fn stream(
    memo: &mut MemorySystem,
    oracle: &mut MemorySystem,
    kind: AccessKind,
    start: u64,
    bytes: u64,
) {
    let got = match kind {
        AccessKind::Read => memo.stream_read(start, bytes),
        AccessKind::Write => memo.stream_write(start, bytes),
    };
    let begin = oracle.horizon();
    let end = walk(oracle, kind, start, bytes, begin);
    assert_eq!(
        got.cycles,
        end - begin,
        "{kind:?} stream of {bytes} B at {start} diverged"
    );
    same_state(memo, oracle);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn memoized_transfers_match_the_burst_walk(
        ops in proptest::collection::vec(
            (0u8..3, 0u8..2, 0usize..4, 0usize..8, 0u64..3_000, 0u8..8),
            1..16,
        ),
        tail in 0usize..8,
    ) {
        let spec = tiny_spec();
        let mut memo = MemorySystem::new(spec.clone());
        let mut oracle = MemorySystem::new(spec);
        for (op, kind, start, size, gap, mode) in ops {
            let kind = if kind == 0 { AccessKind::Read } else { AccessKind::Write };
            let (start, bytes) = (STARTS[start], SIZES[size]);
            // Each op runs one to four times back to back: repeats reach
            // a steady normalized state, so the memo hits mid-sequence
            // and the next ops run on a replayed state.
            let (early, reps) = (mode & 1 == 1, 1 + mode / 2);
            for _ in 0..reps {
                match op {
                    0 => stream(&mut memo, &mut oracle, AccessKind::Read, start, bytes),
                    1 => stream(&mut memo, &mut oracle, AccessKind::Write, start, bytes),
                    _ => {
                        // Arrive before the horizon (banks and buses
                        // still busy) or after it (idle gap, refreshes
                        // due).
                        let h = memo.horizon();
                        let arrival = if early { h.saturating_sub(gap) } else { h + gap };
                        let got = memo.transfer(kind, start, bytes, arrival);
                        let want = walk(&mut oracle, kind, start, bytes, arrival);
                        prop_assert_eq!(got, want, "{:?} transfer of {} B at {} arriving {}", kind, bytes, start, arrival);
                        same_state(&memo, &oracle);
                    }
                }
            }
        }
        // Back-to-back repeats of one above-threshold stream reach a
        // steady normalized state, so the memo must replay them.
        for _ in 0..6 {
            stream(&mut memo, &mut oracle, AccessKind::Read, STARTS[tail % 4], SIZES[5 + tail % 3]);
        }
        prop_assert!(memo.memo_counters().hits > 0, "no memo hit: {:?}", memo.memo_counters());
        // Witnesses of the surviving row-buffer and bank state: a short
        // re-read of the streamed region, a write elsewhere, and one
        // above-threshold stream from an idle gap.
        let h = memo.horizon();
        for (kind, start, bytes, arrival) in [
            (AccessKind::Read, STARTS[tail % 4], 2_048, h + 10),
            (AccessKind::Write, 999, 4_096, h + 40),
            (AccessKind::Read, 0, 20 << 10, h + 5_000),
        ] {
            let got = memo.transfer(kind, start, bytes, arrival);
            let want = walk(&mut oracle, kind, start, bytes, arrival);
            prop_assert_eq!(got, want, "witness {:?} of {} B at {} diverged", kind, bytes, start);
            same_state(&memo, &oracle);
        }
    }
}
