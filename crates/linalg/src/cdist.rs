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

/// Candidates one step of the [`edges_within_cutoff`] scan tests.
const LANES: usize = 8;

/// Edges `(i, j)` (indices into `a` and `b` respectively, offset by the
/// caller) whose Euclidean distance is `<= cutoff`, ordered by `i`, then
/// `j`. The comparison is done on squared distances, so no square roots are
/// taken at all.
///
/// When `a` and `b` are the *same* block the caller is responsible for
/// de-duplicating `(i, j)`/`(j, i)` pairs; the Leaflet Finder planner does
/// this by only enumerating blocks with `row_block <= col_block` and
/// filtering `i < j` on the diagonal.
///
/// `b` is copied once into x / y / z columns, so 8 consecutive candidates
/// are three contiguous loads and their 8 squared distances straight-line
/// code the compiler vectorizes. One branch per step asks whether any lane
/// hit (at Leaflet Finder densities about one step in a hundred does);
/// only then are the lanes emitted, in ascending `j`. The last `< 8`
/// candidates of a row take the scalar loop. Each lane computes exactly
/// [`Vec3::dist2`] (`a − b` per axis, then `x·x + y·y + z·z` left to
/// right; Rust never contracts these into FMAs), so every test is
/// bit-identical to the scalar one.
pub fn edges_within_cutoff(
    a: &[Vec3],
    b: &[Vec3],
    cutoff: f32,
    skip_self_pairs: bool,
) -> Vec<(u32, u32)> {
    assert!(cutoff >= 0.0, "cutoff must be non-negative");
    let c2 = cutoff * cutoff;
    let n = b.len();
    let mut cols = Vec::with_capacity(3 * n);
    cols.extend(b.iter().map(|p| p.x));
    cols.extend(b.iter().map(|p| p.y));
    cols.extend(b.iter().map(|p| p.z));
    let (xs, yz) = cols.split_at(n);
    let (ys, zs) = yz.split_at(n);
    let mut edges = Vec::new();
    for (i, pa) in (0u32..).zip(a) {
        let mut j = if skip_self_pairs { i as usize + 1 } else { 0 };
        while j + LANES <= n {
            let x: &[f32; LANES] = xs[j..j + LANES].try_into().expect("LANES long");
            let y: &[f32; LANES] = ys[j..j + LANES].try_into().expect("LANES long");
            let z: &[f32; LANES] = zs[j..j + LANES].try_into().expect("LANES long");
            let d2: [f32; LANES] = std::array::from_fn(|l| {
                let (dx, dy, dz) = (pa.x - x[l], pa.y - y[l], pa.z - z[l]);
                dx * dx + dy * dy + dz * dz
            });
            if d2.iter().fold(false, |hit, &d| hit | (d <= c2)) {
                for (jl, &d) in (j as u32..).zip(&d2) {
                    if d <= c2 {
                        edges.push((i, jl));
                    }
                }
            }
            j += LANES;
        }
        for (j, pb) in (j as u32..).zip(&b[j.min(n)..]) {
            if pa.dist2(*pb) <= c2 {
                edges.push((i, j));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scalar row loop [`edges_within_cutoff`] replaced, kept as its
    /// oracle.
    fn edges_within_cutoff_rows(
        a: &[Vec3],
        b: &[Vec3],
        cutoff: f32,
        skip_self_pairs: bool,
    ) -> Vec<(u32, u32)> {
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
    fn lanes_and_tail_match_the_row_loop_on_a_dense_cloud() {
        // 3 × 7 × 7 lattice at spacing 0.5: 147 candidates per row, so
        // the rows have full 8-lane steps and a scalar tail, and pairs at
        // exactly the cutoff (0.5, 1.0) are everywhere.
        let mut a = Vec::new();
        for x in 0..3 {
            for y in 0..7 {
                for z in 0..7 {
                    a.push(Vec3::new(x as f32, y as f32, z as f32) * 0.5);
                }
            }
        }
        for cutoff in [0.0, 0.5, 1.0, 1.3] {
            for skip in [false, true] {
                let want = edges_within_cutoff_rows(&a, &a, cutoff, skip);
                assert_eq!(edges_within_cutoff(&a, &a, cutoff, skip), want);
            }
        }
    }

    /// `(kind, value)` → a coordinate: mostly a half-unit grid point (so
    /// duplicates and pairs at exactly `dist2 == c2` are common), else
    /// `value`, a far finite value, NaN or ±inf.
    fn coordinate((kind, value): (u8, f32)) -> f32 {
        match kind {
            0..=8 => (kind as f32 - 4.0) * 0.5,
            9 | 10 => value,
            11 => 3.0e38,
            12 => f32::NAN,
            13 => f32::INFINITY,
            _ => f32::NEG_INFINITY,
        }
    }

    type RawPoint = ((u8, f32), (u8, f32), (u8, f32));

    fn raw_cloud() -> impl Strategy<Value = Vec<RawPoint>> {
        let c = || (0u8..15, -3.0f32..3.0);
        prop::collection::vec((c(), c(), c()), 0..41)
    }

    fn cloud(raw: &[RawPoint]) -> Vec<Vec3> {
        raw.iter()
            .map(|&(x, y, z)| Vec3::new(coordinate(x), coordinate(y), coordinate(z)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The lane scan returns the row loop's edges in the row loop's
        /// order, for any length 0–40 (full steps, tail, both, neither),
        /// both `skip_self_pairs` values and non-finite coordinates.
        #[test]
        fn lane_scan_equals_row_loop(
            a in raw_cloud(),
            b in raw_cloud(),
            cutoff in (0u8..9, 0.0f32..4.0),
            skip in any::<bool>(),
        ) {
            let (a, b) = (cloud(&a), cloud(&b));
            let cutoff = match cutoff {
                (0..=6, _) => cutoff.0 as f32 * 0.5,
                (7, _) => f32::INFINITY,
                (_, c) => c,
            };
            prop_assert_eq!(
                edges_within_cutoff(&a, &b, cutoff, skip),
                edges_within_cutoff_rows(&a, &b, cutoff, skip)
            );
            prop_assert_eq!(
                edges_within_cutoff(&a, &a, cutoff, skip),
                edges_within_cutoff_rows(&a, &a, cutoff, skip)
            );
        }

        /// With the cutoff set to one pair's own distance, that pair's
        /// `dist2` and `c2` differ by rounding only: any change to the
        /// lanes' arithmetic (another association, a fused multiply-add)
        /// flips some of these pairs.
        #[test]
        fn lane_scan_is_bit_exact_at_the_cutoff(
            a in prop::collection::vec((-3.0f32..3.0, -3.0f32..3.0, -3.0f32..3.0), 1..4),
            b in prop::collection::vec((-3.0f32..3.0, -3.0f32..3.0, -3.0f32..3.0), 8..40),
            k in 0usize..40,
        ) {
            let pts = |v: &[(f32, f32, f32)]| -> Vec<Vec3> {
                v.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect()
            };
            let (a, b) = (pts(&a), pts(&b));
            let cutoff = a[0].dist(b[k % b.len()]);
            prop_assert_eq!(
                edges_within_cutoff(&a, &b, cutoff, false),
                edges_within_cutoff_rows(&a, &b, cutoff, false)
            );
        }
    }

    #[test]
    #[should_panic]
    fn cdist_into_shape_mismatch_panics() {
        let a = pts(&[(0.0, 0.0, 0.0)]);
        let mut out = DistanceMatrix::zeros(2, 2);
        cdist_into(&a, &a, &mut out);
    }
}
