//! Physical address decomposition.
//!
//! Uses the bandwidth-friendly interleaving common to HBM controllers:
//! low address bits select the byte within a burst, then the channel,
//! then bank group / bank (so sequential streams rotate across channels
//! and banks before reusing a row), then column, rank, and row.

use crate::spec::DramSpec;

/// A decoded physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddr {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank group within the rank.
    pub bank_group: usize,
    /// Bank within the group.
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
    /// Column (burst index within the row).
    pub column: u64,
}

impl DecodedAddr {
    /// Flat bank identifier within the whole system.
    pub fn flat_bank(&self, spec: &DramSpec) -> usize {
        ((self.channel * spec.ranks + self.rank) * spec.bank_groups + self.bank_group)
            * spec.banks_per_group
            + self.bank
    }
}

/// Address mapper for a given DRAM spec.
#[derive(Debug, Clone)]
pub struct AddressMap {
    spec: DramSpec,
    bursts_per_row: u64,
}

impl AddressMap {
    /// Creates a mapper.
    pub fn new(spec: DramSpec) -> Self {
        let bursts_per_row = (spec.row_bytes / spec.access_bytes()) as u64;
        AddressMap {
            spec,
            bursts_per_row,
        }
    }

    /// The spec this mapper was built for.
    pub fn spec(&self) -> &DramSpec {
        &self.spec
    }

    /// Bursts (access-granularity units) per DRAM row.
    pub fn bursts_per_row(&self) -> u64 {
        self.bursts_per_row
    }

    /// Decodes a byte address into channel/rank/bank/row/column, using
    /// interleaving order (low→high):
    /// byte-in-burst, channel, bank group, bank, column, rank, row.
    pub fn decode(&self, byte_addr: u64) -> DecodedAddr {
        let s = &self.spec;
        let mut a = byte_addr / s.access_bytes() as u64;
        let channel = (a % s.channels as u64) as usize;
        a /= s.channels as u64;
        let bank_group = (a % s.bank_groups as u64) as usize;
        a /= s.bank_groups as u64;
        let bank = (a % s.banks_per_group as u64) as usize;
        a /= s.banks_per_group as u64;
        let column = a % self.bursts_per_row;
        a /= self.bursts_per_row;
        let rank = (a % s.ranks as u64) as usize;
        a /= s.ranks as u64;
        let row = a % s.rows as u64;
        DecodedAddr {
            channel,
            rank,
            bank_group,
            bank,
            row,
            column,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_addresses_rotate_channels_first() {
        let m = AddressMap::new(DramSpec::hbm2e_16gb());
        let g = m.spec().access_bytes() as u64;
        let d0 = m.decode(0);
        let d1 = m.decode(g);
        let d7 = m.decode(7 * g);
        let d8 = m.decode(8 * g);
        assert_eq!(d0.channel, 0);
        assert_eq!(d1.channel, 1);
        assert_eq!(d7.channel, 7);
        assert_eq!(d8.channel, 0);
        // after one channel sweep the bank group advances
        assert_eq!(d8.bank_group, 1);
        assert_eq!(d8.row, d0.row);
    }

    #[test]
    fn same_burst_bytes_map_identically() {
        let m = AddressMap::new(DramSpec::hbm2e_16gb());
        assert_eq!(m.decode(0), m.decode(63));
        assert_ne!(m.decode(0), m.decode(64));
    }

    #[test]
    fn row_advances_after_all_banks_and_columns() {
        let m = AddressMap::new(DramSpec::hbm2e_16gb());
        let s = m.spec().clone();
        let stride = (s.access_bytes()
            * s.channels
            * s.bank_groups
            * s.banks_per_group
            * (s.row_bytes / s.access_bytes())
            * s.ranks) as u64;
        assert_eq!(m.decode(stride).row, 1);
        assert_eq!(m.decode(stride - 1).row, 0);
    }

    #[test]
    fn flat_bank_ids_are_unique() {
        let spec = DramSpec::hbm2e_16gb();
        let m = AddressMap::new(spec.clone());
        let total = spec.channels * spec.ranks * spec.bank_groups * spec.banks_per_group;
        let mut seen = std::collections::HashSet::new();
        let g = spec.access_bytes() as u64;
        for i in 0..(total as u64 * 4) {
            let d = m.decode(i * g);
            let fb = d.flat_bank(&spec);
            assert!(fb < total);
            seen.insert(fb);
        }
        assert_eq!(seen.len(), total / spec.ranks); // rank bit is above columns
    }
}
