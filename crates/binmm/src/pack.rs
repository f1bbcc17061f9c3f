//! Bit-packed binary matrices.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bits packed per word.
pub const WORD_BITS: usize = 16;

/// A binary matrix of ±1 values, bit-packed along the column (reduction)
/// axis: bit 1 encodes +1, bit 0 encodes −1. Row `i` occupies
/// `words_per_row()` consecutive `u16` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinMatrix {
    rows: usize,
    cols_bits: usize,
    data: Vec<u16>,
}

impl BinMatrix {
    /// Creates a matrix from raw ±1 values (`true` ⇔ +1).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != rows * cols_bits` or `cols_bits` is not a
    /// multiple of 16 (the packing granularity).
    pub fn from_bits(rows: usize, cols_bits: usize, bits: &[bool]) -> Self {
        assert_eq!(bits.len(), rows * cols_bits, "bit count mismatch");
        assert!(
            cols_bits.is_multiple_of(WORD_BITS),
            "cols_bits {cols_bits} must be a multiple of {WORD_BITS}"
        );
        let wpr = cols_bits / WORD_BITS;
        let mut data = vec![0u16; rows * wpr];
        for (i, &b) in bits.iter().enumerate() {
            if b {
                let row = i / cols_bits;
                let col = i % cols_bits;
                data[row * wpr + col / WORD_BITS] |= 1 << (col % WORD_BITS);
            }
        }
        BinMatrix {
            rows,
            cols_bits,
            data,
        }
    }

    /// Deterministic pseudo-random matrix.
    ///
    /// # Panics
    ///
    /// Panics if `cols_bits` is not a multiple of 16.
    pub fn random(rows: usize, cols_bits: usize, seed: u64) -> Self {
        assert!(cols_bits.is_multiple_of(WORD_BITS));
        let mut rng = StdRng::seed_from_u64(seed);
        let wpr = cols_bits / WORD_BITS;
        let data = (0..rows * wpr).map(|_| rng.gen::<u16>()).collect();
        BinMatrix {
            rows,
            cols_bits,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical width in bits (the reduction length `K`).
    pub fn cols_bits(&self) -> usize {
        self.cols_bits
    }

    /// Packed words per row (`K_w`).
    pub fn words_per_row(&self) -> usize {
        self.cols_bits / WORD_BITS
    }

    /// The packed words, row-major.
    pub fn words(&self) -> &[u16] {
        &self.data
    }

    /// One packed row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()`.
    pub fn row(&self, row: usize) -> &[u16] {
        let wpr = self.words_per_row();
        &self.data[row * wpr..(row + 1) * wpr]
    }

    /// The ±1 value at `(row, col_bit)` as +1 / −1.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn value(&self, row: usize, col_bit: usize) -> i32 {
        assert!(row < self.rows && col_bit < self.cols_bits);
        let wpr = self.words_per_row();
        let w = self.data[row * wpr + col_bit / WORD_BITS];
        if w >> (col_bit % WORD_BITS) & 1 == 1 {
            1
        } else {
            -1
        }
    }

    /// Packed transpose: returns the words in column-major order
    /// (word (k, i) of the result = word k of row i), used to stage the
    /// LHS for lookup-based broadcasting.
    pub fn transposed_words(&self) -> Vec<u16> {
        let wpr = self.words_per_row();
        let mut out = vec![0u16; self.data.len()];
        for i in 0..self.rows {
            for k in 0..wpr {
                out[k * self.rows + i] = self.data[i * wpr + k];
            }
        }
        out
    }

    /// Dot product of row `i` with another matrix's row `j` under the ±1
    /// encoding: `K − 2·popcount(xor)`.
    ///
    /// # Panics
    ///
    /// Panics if widths differ or indices are out of range.
    pub fn dot_rows(&self, i: usize, other: &BinMatrix, j: usize) -> i32 {
        assert_eq!(self.cols_bits, other.cols_bits, "width mismatch");
        let mut diff = 0u32;
        for (a, b) in self.row(i).iter().zip(other.row(j)) {
            diff += (a ^ b).count_ones();
        }
        self.cols_bits as i32 - 2 * diff as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip_through_value() {
        let bits: Vec<bool> = (0..2 * 32).map(|i| i % 3 == 0).collect();
        let m = BinMatrix::from_bits(2, 32, &bits);
        for (i, &b) in bits.iter().enumerate() {
            let expect = if b { 1 } else { -1 };
            assert_eq!(m.value(i / 32, i % 32), expect, "bit {i}");
        }
        assert_eq!(m.words_per_row(), 2);
    }

    #[test]
    fn dot_rows_matches_naive() {
        let a = BinMatrix::random(4, 64, 1);
        let b = BinMatrix::random(4, 64, 2);
        for i in 0..4 {
            for j in 0..4 {
                let naive: i32 = (0..64).map(|k| a.value(i, k) * b.value(j, k)).sum();
                assert_eq!(a.dot_rows(i, &b, j), naive, "({i},{j})");
            }
        }
    }

    #[test]
    fn self_dot_is_k() {
        let a = BinMatrix::random(2, 128, 7);
        assert_eq!(a.dot_rows(0, &a, 0), 128);
    }

    #[test]
    fn transpose_reindexes_words() {
        let m = BinMatrix::random(3, 32, 9);
        let t = m.transposed_words();
        let wpr = m.words_per_row();
        for i in 0..3 {
            for k in 0..wpr {
                assert_eq!(t[k * 3 + i], m.row(i)[k]);
            }
        }
    }

    #[test]
    fn random_is_deterministic() {
        assert_eq!(BinMatrix::random(4, 64, 5), BinMatrix::random(4, 64, 5));
        assert_ne!(BinMatrix::random(4, 64, 5), BinMatrix::random(4, 64, 6));
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn odd_width_rejected() {
        let _ = BinMatrix::from_bits(1, 17, &[false; 17]);
    }
}
