//! Graphene-style data layouts: dimension sizes and strides, with
//! decomposed (tuple) dimensions.
//!
//! The paper expresses broadcast-friendly layouts in the notation of
//! Graphene (Hagedorn et al., ASPLOS '23): each logical dimension is a
//! *size* paired with a *stride*, and a dimension may be decomposed into
//! an (outer, inner) tuple with its own stride tuple — e.g. the LHS
//! broadcast layout of §5.1 is written
//!
//! ```text
//! [ (32, 32) : 64 ]
//! [ (1, 2048) : 32 ]
//! ```
//!
//! Layouts map logical coordinates to linear element offsets, can be
//! applied to a buffer to produce the physically reordered data, and
//! expose the quantity the broadcast-friendly optimization actually
//! targets: the size of the smallest *contiguous* window that covers a
//! broadcast set ([`Layout::window_span`]).

use std::fmt;

/// One logical dimension: possibly-decomposed size and stride.
///
/// A simple dimension has one factor; a decomposed dimension has an
/// (outer, inner) factor pair, where the logical index `i` splits as
/// `i = outer_idx * inner_size + inner_idx` and the linear offset
/// contribution is `outer_idx * outer_stride + inner_idx * inner_stride`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dim {
    sizes: Vec<usize>,
    strides: Vec<usize>,
}

impl Dim {
    /// A simple (non-decomposed) dimension.
    pub fn simple(size: usize, stride: usize) -> Self {
        assert!(size > 0, "dimension size must be positive");
        Dim {
            sizes: vec![size],
            strides: vec![stride],
        }
    }

    /// A decomposed dimension: `(outer, inner)` sizes with matching
    /// strides.
    pub fn split(outer: (usize, usize), inner: (usize, usize)) -> Self {
        assert!(outer.0 > 0 && inner.0 > 0, "factor sizes must be positive");
        Dim {
            sizes: vec![outer.0, inner.0],
            strides: vec![outer.1, inner.1],
        }
    }

    /// Total logical extent of the dimension.
    pub fn size(&self) -> usize {
        self.sizes.iter().product()
    }

    /// Linear offset contribution of logical index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.size()`.
    pub fn offset(&self, mut i: usize) -> usize {
        assert!(
            i < self.size(),
            "index {i} out of dimension of {}",
            self.size()
        );
        let mut off = 0;
        // Factors are stored outer-first; peel from the innermost.
        for k in (0..self.sizes.len()).rev() {
            let s = self.sizes[k];
            off += (i % s) * self.strides[k];
            i /= s;
        }
        off
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sizes.len() == 1 {
            write!(f, "{} : {}", self.sizes[0], self.strides[0])
        } else {
            write!(
                f,
                "({}, {}) : ({}, {})",
                self.sizes[0], self.sizes[1], self.strides[0], self.strides[1]
            )
        }
    }
}

/// A multi-dimensional layout: logical dims (outermost first) mapping to
/// linear element offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    dims: Vec<Dim>,
}

impl Layout {
    /// Creates a layout from dimensions (outermost first).
    pub fn new(dims: Vec<Dim>) -> Self {
        assert!(!dims.is_empty(), "layout needs at least one dimension");
        Layout { dims }
    }

    /// Standard row-major layout of an `rows × cols` matrix.
    pub fn row_major(rows: usize, cols: usize) -> Self {
        Layout::new(vec![Dim::simple(rows, cols), Dim::simple(cols, 1)])
    }

    /// Column-major layout of an `rows × cols` matrix — the
    /// broadcast-friendly format of Fig. 11(b): consecutive broadcast
    /// scalars (one per row of the same column) become contiguous.
    pub fn col_major(rows: usize, cols: usize) -> Self {
        Layout::new(vec![Dim::simple(rows, 1), Dim::simple(cols, rows)])
    }

    /// The dimensions.
    pub fn dims(&self) -> &[Dim] {
        &self.dims
    }

    /// Total logical element count.
    pub fn len(&self) -> usize {
        self.dims.iter().map(Dim::size).product()
    }

    /// Whether the layout covers zero elements (never true: dimensions
    /// are validated positive).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear element offset of a logical coordinate (outermost first).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate rank or any index is out of range.
    pub fn offset(&self, coord: &[usize]) -> usize {
        assert_eq!(coord.len(), self.dims.len(), "coordinate rank mismatch");
        coord
            .iter()
            .zip(&self.dims)
            .map(|(&i, d)| d.offset(i))
            .sum()
    }

    /// Applies the layout to logical row-major data, producing the
    /// physically reordered buffer: element at logical coordinate `c`
    /// lands at `offset(c)`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()` or the layout is not a
    /// permutation (offsets collide).
    pub fn apply<T: Copy + Default>(&self, data: &[T]) -> Vec<T> {
        assert_eq!(data.len(), self.len(), "data length mismatch");
        let mut out = vec![T::default(); data.len()];
        let mut used = vec![false; data.len()];
        let sizes: Vec<usize> = self.dims.iter().map(Dim::size).collect();
        let mut coord = vec![0usize; sizes.len()];
        for (logical, item) in data.iter().enumerate() {
            let off = self.offset(&coord);
            assert!(!used[off], "layout is not a permutation at offset {off}");
            used[off] = true;
            out[off] = *item;
            let _ = logical;
            // advance coordinate, innermost fastest
            for k in (0..coord.len()).rev() {
                coord[k] += 1;
                if coord[k] < sizes[k] {
                    break;
                }
                coord[k] = 0;
            }
        }
        out
    }

    /// The span (in elements) of the smallest contiguous window covering
    /// the given logical coordinates — the lookup-table size a broadcast
    /// of those elements requires, since lookup tables must be contiguous
    /// memory (§4.4).
    ///
    /// # Panics
    ///
    /// Panics if `coords` is empty or any coordinate is invalid.
    pub fn window_span(&self, coords: &[&[usize]]) -> usize {
        assert!(!coords.is_empty(), "need at least one coordinate");
        let offsets: Vec<usize> = coords.iter().map(|c| self.offset(c)).collect();
        let min = *offsets.iter().min().expect("nonempty");
        let max = *offsets.iter().max().expect("nonempty");
        max - min + 1
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "[ {d} ]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_offsets() {
        let l = Layout::row_major(3, 6);
        assert_eq!(l.offset(&[0, 0]), 0);
        assert_eq!(l.offset(&[0, 5]), 5);
        assert_eq!(l.offset(&[2, 1]), 13);
        assert_eq!(l.len(), 18);
    }

    #[test]
    fn col_major_offsets() {
        let l = Layout::col_major(3, 6);
        assert_eq!(l.offset(&[0, 0]), 0);
        assert_eq!(l.offset(&[1, 0]), 1);
        assert_eq!(l.offset(&[0, 1]), 3);
    }

    #[test]
    fn fig11_broadcast_window_shrinks() {
        // Fig. 11: broadcasting one scalar from each of the first 3 rows
        // of a 3x6 matrix. Row-major needs a window of at least 13
        // (indices 0, 6, 12); column-major needs only 3.
        let rm = Layout::row_major(3, 6);
        let cm = Layout::col_major(3, 6);
        let coords: Vec<&[usize]> = vec![&[0, 0], &[1, 0], &[2, 0]];
        assert_eq!(rm.window_span(&coords), 13);
        assert_eq!(cm.window_span(&coords), 3);
    }

    #[test]
    fn apply_permutes_to_col_major() {
        let data: Vec<u16> = (0..6).collect(); // 2x3 row-major: [0 1 2; 3 4 5]
        let cm = Layout::col_major(2, 3);
        let out = cm.apply(&data);
        assert_eq!(out, vec![0, 3, 1, 4, 2, 5]);
    }

    #[test]
    fn split_dimension_matches_paper_notation() {
        // [ (32, 32) : 64 ] over a dimension of 1024: index i =
        // o*32 + n, offset = o*? ... here: outer stride 64, inner 2048/32…
        // Use the concrete Fig.-style layout [ (4, 2) : (1, 8) ]:
        let d = Dim::split((4, 1), (2, 8));
        assert_eq!(d.size(), 8);
        // i = o*2 + n -> off = o*1 + n*8
        assert_eq!(d.offset(0), 0); // o=0,n=0
        assert_eq!(d.offset(1), 8); // o=0,n=1
        assert_eq!(d.offset(2), 1); // o=1,n=0
        assert_eq!(d.offset(7), 3 + 8);
        assert_eq!(d.to_string(), "(4, 2) : (1, 8)");
    }

    #[test]
    fn display_matches_graphene_style() {
        let l = Layout::new(vec![Dim::split((32, 64), (32, 1)), Dim::simple(2048, 32)]);
        let s = l.to_string();
        assert!(s.contains("(32, 32) : (64, 1)"));
        assert!(s.contains("2048 : 32"));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn non_permutation_layouts_are_rejected_on_apply() {
        // duplicate offsets: stride 0
        let l = Layout::new(vec![Dim::simple(2, 0), Dim::simple(2, 1)]);
        let _ = l.apply(&[1u16, 2, 3, 4]);
    }

    #[test]
    fn roundtrip_row_major_apply_is_identity() {
        let data: Vec<u32> = (0..24).collect();
        let rm = Layout::row_major(4, 6);
        assert_eq!(rm.apply(&data), data);
    }
}
