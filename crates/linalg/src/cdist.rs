//! Pairwise distance computations between point sets — the Rust equivalent
//! of SciPy's `cdist`, which the paper's Leaflet Finder approaches 1–3 use
//! for edge discovery.
//!
//! Two entry points matter downstream:
//! * [`cdist`] materializes the full M×N distance matrix (`f64`, matching
//!   the paper's note that `cdist` "uses double precision floating point" —
//!   this is exactly what made the 4M-atom dataset blow memory budgets and
//!   forced 42k tasks in the paper);
//! * [`edges_within_cutoff`] fuses the distance computation with the cutoff
//!   filter and never materializes the matrix (the memory-friendly path).

use crate::Vec3;

/// A dense row-major M×N matrix of `f64` distances.
#[derive(Clone, Debug, PartialEq)]
pub struct DistanceMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Allocate an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DistanceMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Flat row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Bytes this matrix occupies — the quantity the paper's memory limits
    /// are measured against (double precision: 8 bytes per element).
    pub fn size_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f64>()) as u64
    }

    /// Maximum element; `NaN`-free inputs assumed. Returns 0.0 for empty.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(0.0f64, f64::max)
    }
}

/// Full pairwise Euclidean distance matrix between two point sets.
pub fn cdist(a: &[Vec3], b: &[Vec3]) -> DistanceMatrix {
    let mut out = DistanceMatrix::zeros(a.len(), b.len());
    cdist_into(a, b, &mut out);
    out
}

/// [`cdist`] into a caller-provided matrix (reuse across tasks avoids
/// per-task allocation — see the perf-book guidance on allocation reuse).
///
/// # Panics
/// Panics if `out` does not have shape `a.len() × b.len()`.
pub fn cdist_into(a: &[Vec3], b: &[Vec3], out: &mut DistanceMatrix) {
    assert_eq!(out.rows, a.len(), "cdist_into: row mismatch");
    assert_eq!(out.cols, b.len(), "cdist_into: col mismatch");
    for (i, pa) in a.iter().enumerate() {
        let row = &mut out.data[i * out.cols..(i + 1) * out.cols];
        for (slot, pb) in row.iter_mut().zip(b) {
            *slot = pa.dist(*pb) as f64;
        }
    }
}

/// Edges `(i, j)` (indices into `a` and `b` respectively, offset by the
/// caller) whose Euclidean distance is `<= cutoff`. The comparison is done
/// on squared distances, so no square roots are taken at all.
///
/// When `a` and `b` are the *same* block the caller is responsible for
/// de-duplicating `(i, j)`/`(j, i)` pairs; the Leaflet Finder planner does
/// this by only enumerating blocks with `row_block <= col_block` and
/// filtering `i < j` on the diagonal.
pub fn edges_within_cutoff(
    a: &[Vec3],
    b: &[Vec3],
    cutoff: f32,
    skip_self_pairs: bool,
) -> Vec<(u32, u32)> {
    assert!(cutoff >= 0.0, "cutoff must be non-negative");
    let c2 = cutoff * cutoff;
    let mut edges = Vec::new();
    for (i, pa) in a.iter().enumerate() {
        let jstart = if skip_self_pairs { i + 1 } else { 0 };
        for (j, pb) in b.iter().enumerate().skip(jstart) {
            if pa.dist2(*pb) <= c2 {
                edges.push((i as u32, j as u32));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f32, f32, f32)]) -> Vec<Vec3> {
        v.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect()
    }

    #[test]
    fn cdist_small() {
        let a = pts(&[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]);
        let b = pts(&[(0.0, 0.0, 0.0), (0.0, 3.0, 0.0), (0.0, 0.0, 4.0)]);
        let d = cdist(&a, &b);
        assert_eq!(d.rows(), 2);
        assert_eq!(d.cols(), 3);
        assert_eq!(d.get(0, 0), 0.0);
        assert_eq!(d.get(0, 1), 3.0);
        assert_eq!(d.get(0, 2), 4.0);
        assert!((d.get(1, 1) - 10.0f64.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn cdist_row_access_and_max() {
        let a = pts(&[(0.0, 0.0, 0.0)]);
        let b = pts(&[(1.0, 0.0, 0.0), (5.0, 0.0, 0.0)]);
        let d = cdist(&a, &b);
        assert_eq!(d.row(0), &[1.0, 5.0]);
        assert_eq!(d.max(), 5.0);
    }

    #[test]
    fn size_bytes_counts_doubles() {
        let d = DistanceMatrix::zeros(10, 20);
        assert_eq!(d.size_bytes(), 10 * 20 * 8);
    }

    #[test]
    fn edges_respect_cutoff_boundary() {
        let a = pts(&[(0.0, 0.0, 0.0)]);
        let b = pts(&[(1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (2.1, 0.0, 0.0)]);
        let e = edges_within_cutoff(&a, &b, 2.0, false);
        // Distance exactly == cutoff is included.
        assert_eq!(e, vec![(0, 0), (0, 1)]);
    }

    #[test]
    fn edges_skip_self_pairs_gives_upper_triangle() {
        let a = pts(&[(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (10.0, 0.0, 0.0)]);
        let e = edges_within_cutoff(&a, &a, 1.0, true);
        assert_eq!(e, vec![(0, 1)]);
    }

    #[test]
    fn edges_match_cdist_filter() {
        // Cross-check the fused path against materialize-then-filter.
        let a = pts(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (3.0, 0.0, 0.0)]);
        let b = pts(&[(0.5, 0.0, 0.0), (2.0, 2.0, 2.0)]);
        let cutoff = 1.6f32;
        let d = cdist(&a, &b);
        let mut expected = Vec::new();
        for i in 0..a.len() {
            for j in 0..b.len() {
                if d.get(i, j) <= cutoff as f64 + 1e-12 {
                    expected.push((i as u32, j as u32));
                }
            }
        }
        assert_eq!(edges_within_cutoff(&a, &b, cutoff, false), expected);
    }

    #[test]
    #[should_panic]
    fn cdist_into_shape_mismatch_panics() {
        let a = pts(&[(0.0, 0.0, 0.0)]);
        let mut out = DistanceMatrix::zeros(2, 2);
        cdist_into(&a, &a, &mut out);
    }
}
