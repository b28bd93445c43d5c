//! Compressed sparse row (CSR) storage for per-node variable-length data.
//!
//! A `Vec<Vec<T>>` adjacency costs one heap allocation per node plus a
//! pointer-chasing indirection per lookup; at 10⁵–10⁶ nodes that is tens of
//! megabytes of allocator metadata and a cache miss per row. [`Csr`] packs
//! the same ragged data into exactly two flat arrays — `offsets` (one `u32`
//! per row plus a sentinel) and `data` — so row lookup is two adjacent
//! index reads and the whole structure is two allocations regardless of
//! node count.

use std::fmt;

/// Flat ragged-array storage: `row(i)` is `data[offsets[i]..offsets[i+1]]`.
///
/// Offsets are `u32`: the total element count must stay below 2³². A 1M-node
/// unit-disk graph at the paper's density (~69 neighbors/node) is
/// ~7 × 10⁷ entries, comfortably inside that.
#[derive(Clone, PartialEq)]
pub struct Csr<T> {
    offsets: Vec<u32>,
    data: Vec<T>,
}

impl<T> Csr<T> {
    /// An empty CSR with zero rows.
    pub fn new() -> Self {
        Csr {
            offsets: vec![0],
            data: Vec::new(),
        }
    }

    /// An empty CSR pre-sized for `rows` rows and `entries` total elements.
    pub fn with_capacity(rows: usize, entries: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Csr {
            offsets,
            data: Vec::with_capacity(entries),
        }
    }

    /// Builds a CSR from ragged rows, consuming them.
    pub fn from_rows<I>(rows: I) -> Self
    where
        I: IntoIterator,
        I::Item: IntoIterator<Item = T>,
    {
        let mut csr = Csr::new();
        for row in rows {
            csr.push_row(row);
        }
        csr
    }

    /// Appends one row; elements are drained from `row`.
    ///
    /// # Panics
    ///
    /// Panics if the total element count would exceed `u32::MAX`.
    pub fn push_row<I: IntoIterator<Item = T>>(&mut self, row: I) {
        self.data.extend(row);
        let end = u32::try_from(self.data.len()).expect("CSR data exceeds u32 offsets");
        self.offsets.push(end);
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` if the CSR has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// Total number of stored elements across all rows.
    #[inline]
    pub fn total_len(&self) -> usize {
        self.data.len()
    }

    /// The `i`-th row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        let start = self.offsets[i] as usize;
        let end = self.offsets[i + 1] as usize;
        &self.data[start..end]
    }

    /// Iterates over all rows in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[T]> + '_ {
        (0..self.rows()).map(move |i| self.row(i))
    }
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Csr::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for Csr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_csr_has_no_rows() {
        let csr: Csr<u32> = Csr::new();
        assert_eq!(csr.rows(), 0);
        assert!(csr.is_empty());
        assert_eq!(csr.total_len(), 0);
    }

    #[test]
    fn rows_round_trip() {
        let rows = vec![vec![1u32, 2, 3], vec![], vec![4], vec![5, 6]];
        let csr = Csr::from_rows(rows.clone());
        assert_eq!(csr.rows(), 4);
        assert_eq!(csr.total_len(), 6);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(csr.row(i), row.as_slice());
        }
        assert_eq!(csr.iter().count(), 4);
    }

    #[test]
    fn push_row_appends_in_order() {
        let mut csr = Csr::with_capacity(2, 4);
        csr.push_row([10i64, 20]);
        csr.push_row([30]);
        assert_eq!(csr.row(0), &[10, 20]);
        assert_eq!(csr.row(1), &[30]);
    }

    #[test]
    fn equality_is_structural() {
        let a = Csr::from_rows(vec![vec![1u8], vec![2, 3]]);
        let b = Csr::from_rows(vec![vec![1u8], vec![2, 3]]);
        let c = Csr::from_rows(vec![vec![1u8, 2], vec![3]]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_row_panics() {
        let csr: Csr<u32> = Csr::new();
        let _ = csr.row(0);
    }
}
