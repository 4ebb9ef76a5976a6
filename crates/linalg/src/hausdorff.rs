//! Hausdorff distance between two trajectories (Algorithm 1 of the paper).
//!
//! The directed Hausdorff distance from trajectory `A` to trajectory `B`
//! under a frame metric `d` is `max_{a∈A} min_{b∈B} d(a, b)`; the symmetric
//! Hausdorff distance is the max of the two directed distances. The paper
//! uses the naive O(|A|·|B|) algorithm and cites Taha & Hanbury's
//! early-break algorithm \[34\] as an (unparallelized) speedup: the
//! pruned kernel below breaks a row the same way, screens candidates by a
//! centroid lower bound, and is property-tested bit for bit against the
//! naive one.

use crate::kernels::frame_rmsd;
use crate::Frame;

/// A metric between two frames. The PSA pipeline uses RMSD-without-
/// superposition ([`frame_rmsd`]), exactly the `dRMS` of Algorithm 1.
pub type FrameMetric = fn(&Frame, &Frame) -> f64;

/// Naive symmetric Hausdorff distance (Algorithm 1, verbatim): computes all
/// |A|·|B| frame distances in both directions.
pub fn hausdorff_naive(a: &[Frame], b: &[Frame], metric: FrameMetric) -> f64 {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "hausdorff: empty trajectory"
    );
    let d_ab = directed_naive(a, b, metric);
    let d_ba = directed_naive(b, a, metric);
    d_ab.max(d_ba)
}

fn directed_naive(a: &[Frame], b: &[Frame], metric: FrameMetric) -> f64 {
    let mut worst = 0.0f64;
    for fa in a {
        let mut best = f64::INFINITY;
        for fb in b {
            let d = metric(fa, fb);
            if d < best {
                best = d;
            }
        }
        if best > worst {
            worst = best;
        }
    }
    worst
}

/// Convenience: Hausdorff with the standard PSA metric (plain RMSD).
pub fn hausdorff_rmsd(a: &[Frame], b: &[Frame]) -> f64 {
    hausdorff_naive(a, b, frame_rmsd)
}

/// Relative and absolute margin of the centroid lower bound: a candidate
/// frame is skipped only when `lb − PRUNE_MARGIN · (1 + lb)` (less the
/// centroids' own rounding, see [`centers`]) beats the best upper bound of
/// the row. The bound is exact in real arithmetic (Jensen:
/// mean ‖pᵢ−qᵢ‖² ≥ ‖mean (pᵢ−qᵢ)‖²), but [`frame_rmsd`] squares and sums
/// each atom's displacement in `f32`, so it may come out below the real
/// RMSD by up to ~2.5 `f32` ulps (1.5e-7 relative; an `f32` term that
/// underflows loses at most ~1e-22 absolute). `1e-6` covers both, so the
/// pruned scan can never discard the true minimizer.
const PRUNE_MARGIN: f64 = 1e-6;

/// Extra relative width of a screened interval's square root, on top of
/// the summation bound (see [`interval`]).
const ROOT_SLACK: f64 = 1e-15;

/// Atoms one step of the [`screen`] sum handles; trajectories are padded
/// with zero atoms to a multiple of it.
const LANES: usize = 8;

/// Spatially-pruned Hausdorff distance under [`frame_rmsd`]: Taha &
/// Hanbury's early break, a centroid-distance lower bound
/// (`frame_rmsd(a, b) ≥ ‖centroid(a) − centroid(b)‖`) that skips whole
/// frame pairs, and a cheap vectorized screen that decides most of the
/// rest without calling [`frame_rmsd`] at all.
///
/// Returns **bitwise** the same value as
/// `hausdorff_naive(a, b, frame_rmsd)`: every value that survives into the
/// min/max reduction is an actually-evaluated `frame_rmsd`, skipped and
/// screened-out candidates are provably not row minimizers, and
/// `f64::max`/`min` over the identical values reproduce the identical
/// bits. Proptests in this module assert exact equality.
///
/// # Panics
/// Like [`frame_rmsd`] on any pair of frames: if the frames of `a` and `b`
/// differ in atom count, or have none; also if either trajectory is empty.
pub fn hausdorff_rmsd_pruned(a: &[Frame], b: &[Frame]) -> f64 {
    hausdorff_rmsd_pruned_evals(a, b).0
}

/// [`hausdorff_rmsd_pruned`] plus the number of frame pairs it screened
/// (the pairs the centroid bound did not skip and the early break did not
/// cut off) — the quantity the benchmark reports against the naive
/// `2·|A|·|B|`. Only a small share of the screened pairs (about 1 in 65 on
/// the `psa_small` ensemble) also needs the exact [`frame_rmsd`].
pub fn hausdorff_rmsd_pruned_evals(a: &[Frame], b: &[Frame]) -> (f64, u64) {
    let (d, counts) = hausdorff_screened(a, b);
    (d, counts.screened)
}

/// How much work one call did: pairs screened, and exact [`frame_rmsd`]
/// calls where a screened interval straddled the running maximum and at
/// the end of a row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    screened: u64,
    straddle_exact: u64,
    row_end_exact: u64,
}

fn hausdorff_screened(a: &[Frame], b: &[Frame]) -> (f64, Counts) {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "hausdorff: empty trajectory"
    );
    // `frame_rmsd`'s contract, checked for every frame up front: the
    // naive sweep compares every frame of `a` with every frame of `b`,
    // while this one may never touch a frame the bound rules out.
    let n = a[0].n_atoms();
    for f in a.iter().chain(b) {
        assert_eq!(f.n_atoms(), n, "frame_rmsd: atom count mismatch");
    }
    assert!(n > 0, "frame_rmsd: empty frames");
    let (centers_a, centers_b) = (centers(a), centers(b));
    let mut row = Row::default();
    let mut counts = Counts::default();
    // One trajectory's columns at a time, the candidates'; a row's frame
    // is copied out as its row comes up.
    let d_ab = directed(
        a,
        &centers_a,
        &Columns::new(b, &centers_b),
        &mut row,
        &mut counts,
    );
    let d_ba = directed(
        b,
        &centers_b,
        &Columns::new(a, &centers_a),
        &mut row,
        &mut counts,
    );
    (d_ab.max(d_ba), counts)
}

/// What the centroid bound needs of each frame: its `f64` centroid, and
/// how far rounding can have moved it. A sequential sum of `n` terms is
/// within `(n − 1)·u·Σ|pᵢ|` of the real one and the division adds `u`
/// (`u = ε/2`); per axis that is below `n·u·Σ(|xᵢ|+|yᵢ|+|zᵢ|)/n`, and
/// `(n + 2)·ε` of the same mean covers the `√3` of three axes with room
/// for its own rounding.
fn centers(frames: &[Frame]) -> Vec<([f64; 3], f64)> {
    frames
        .iter()
        .map(|f| {
            let mut s = [0.0f64; 3];
            let mut abs = 0.0f64;
            for p in f.positions() {
                s[0] += p.x as f64;
                s[1] += p.y as f64;
                s[2] += p.z as f64;
                abs += (p.x.abs() + p.y.abs() + p.z.abs()) as f64;
            }
            let n = f.n_atoms();
            let nf = n as f64;
            let slack = (n + 2) as f64 * f64::EPSILON * (abs / nf);
            ([s[0] / nf, s[1] / nf, s[2] / nf], slack)
        })
        .collect()
}

/// Copies `f` into `cols`: x, y and z columns of `cols.len() / 3` atoms
/// each, whose padding past `f`'s atoms stays zero (padded atoms add exact
/// zeros to a [`screen`] sum).
fn lay_out(f: &Frame, cols: &mut [f32]) {
    let n_pad = cols.len() / 3;
    let (xs, yz) = cols.split_at_mut(n_pad);
    let (ys, zs) = yz.split_at_mut(n_pad);
    for (i, p) in f.positions().iter().enumerate() {
        (xs[i], ys[i], zs[i]) = (p.x, p.y, p.z);
    }
}

/// The candidate trajectory laid out for the screen, frame by frame
/// ([`lay_out`]), with its [`centers`].
struct Columns<'a> {
    frames: &'a [Frame],
    centers: &'a [([f64; 3], f64)],
    n_pad: usize,
    xyz: Vec<f32>,
}

impl<'a> Columns<'a> {
    fn new(frames: &'a [Frame], centers: &'a [([f64; 3], f64)]) -> Self {
        let n_pad = frames[0].n_atoms().div_ceil(LANES) * LANES;
        let mut xyz = vec![0.0f32; 3 * n_pad * frames.len()];
        for (f, cols) in frames.iter().zip(xyz.chunks_exact_mut(3 * n_pad)) {
            lay_out(f, cols);
        }
        Columns {
            frames,
            centers,
            n_pad,
            xyz,
        }
    }

    fn cols(&self, j: usize) -> &[f32] {
        &self.xyz[3 * self.n_pad * j..3 * self.n_pad * (j + 1)]
    }

    /// A lower bound of `frame_rmsd` between frame `j` and a frame with
    /// the [`centers`] entry `(centroid, slack)`, after rounding (NaN when
    /// a coordinate is not finite: such a bound rules nothing out).
    fn bound(&self, (p, slack): ([f64; 3], f64), j: usize) -> f64 {
        let (q, slack_q) = self.centers[j];
        let (dx, dy, dz) = (p[0] - q[0], p[1] - q[1], p[2] - q[2]);
        let lb = (dx * dx + dy * dy + dz * dz).sqrt();
        lb - PRUNE_MARGIN * (1.0 + lb) - (slack + slack_q)
    }
}

/// Buffers [`directed`] reuses from row to row: the row frame's columns,
/// the candidates in bound order, and the screened ones still in the
/// running for the row minimum.
#[derive(Default)]
struct Row {
    cols: Vec<f32>,
    order: Vec<(f64, u32)>,
    open: Vec<Open>,
}

/// A screened candidate: `frame_rmsd` lies in `[lo, hi]`, and is `lo`
/// itself once `exact`.
struct Open {
    j: u32,
    lo: f64,
    exact: bool,
}

fn directed(
    a: &[Frame],
    centers_a: &[([f64; 3], f64)],
    b: &Columns,
    row: &mut Row,
    counts: &mut Counts,
) -> f64 {
    let n = b.frames[0].n_atoms();
    let Row { cols, order, open } = row;
    cols.clear();
    cols.resize(3 * b.n_pad, 0.0);
    order.clear();
    order.extend((0..b.frames.len() as u32).map(|j| (0.0, j)));
    let mut cmax = 0.0f64;
    'rows: for (fa, &center) in a.iter().zip(centers_a) {
        lay_out(fa, cols);
        for (bound, j) in order.iter_mut() {
            *bound = b.bound(center, *j as usize);
        }
        // Any order gives the same result (the max of row minima, with a
        // sound early break and prune); the nearest centroids first make
        // the break and the prune come soonest. Consecutive frames of a
        // trajectory are alike, so the previous row's order is nearly
        // sorted already, which the (adaptive) stable sort exploits.
        order.sort_by(|x, y| x.0.total_cmp(&y.0));
        open.clear();
        // The smallest upper bound screened so far: the row minimum is at
        // most this.
        let mut min_hi = f64::INFINITY;
        for &(bound, j) in order.iter() {
            // Not `break`: a NaN bound (sorted to either end) rules
            // nothing out.
            if bound > min_hi {
                continue;
            }
            counts.screened += 1;
            let (mut lo, mut hi) = interval(screen(cols, b.cols(j as usize)), n);
            if hi <= cmax {
                // This row's minimum is <= cmax; it cannot change the max.
                continue 'rows;
            }
            let mut exact = false;
            if lo <= cmax {
                // The screen cannot tell which side of cmax it is on.
                counts.straddle_exact += 1;
                let d = frame_rmsd(fa, &b.frames[j as usize]);
                if d <= cmax {
                    continue 'rows;
                }
                if d.is_nan() {
                    // The naive `d < best` never takes a NaN.
                    continue;
                }
                (lo, hi, exact) = (d, d, true);
            }
            min_hi = min_hi.min(hi);
            open.push(Open { j, lo, exact });
        }
        // The row minimum is the exact value of some candidate whose
        // interval reaches down to min_hi; take it over all of them.
        let mut cmin = f64::INFINITY;
        for c in open.iter().filter(|c| c.lo <= min_hi) {
            let d = if c.exact {
                c.lo
            } else {
                counts.row_end_exact += 1;
                frame_rmsd(fa, &b.frames[c.j as usize])
            };
            if d < cmin {
                cmin = d;
            }
        }
        if cmin > cmax {
            cmax = cmin;
        }
    }
    cmax
}

/// `Σᵢ |aᵢ − bᵢ|²` over two frames' columns, each term exactly
/// [`frame_rmsd`]'s ([`crate::Vec3::dist2`]: `a − b` per axis, then
/// `x·x + y·y + z·z` left to right in `f32`; Rust never contracts these
/// into FMAs), summed in [`LANES`] `f64` lanes instead of one, so the
/// compiler vectorizes it.
fn screen(a: &[f32], b: &[f32]) -> f64 {
    let n_pad = a.len() / 3;
    let (ax, ayz) = a.split_at(n_pad);
    let (ay, az) = ayz.split_at(n_pad);
    let (bx, byz) = b.split_at(n_pad);
    let (by, bz) = byz.split_at(n_pad);
    let lanes =
        |c: &[f32], k: usize| -> [f32; LANES] { c[k..k + LANES].try_into().expect("LANES long") };
    let mut acc = [0.0f64; LANES];
    for k in (0..n_pad).step_by(LANES) {
        let (ax, ay, az) = (lanes(ax, k), lanes(ay, k), lanes(az, k));
        let (bx, by, bz) = (lanes(bx, k), lanes(by, k), lanes(bz, k));
        for l in 0..LANES {
            let (dx, dy, dz) = (ax[l] - bx[l], ay[l] - by[l], az[l] - bz[l]);
            acc[l] += (dx * dx + dy * dy + dz * dz) as f64;
        }
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// An interval that provably holds `frame_rmsd` of the pair whose
/// [`screen`] sum is `sum`. Both sums add the same non-negative terms, in
/// two different trees; each is within `γ·S` of the exact sum `S`
/// (Higham, `γ = k·u/(1 − k·u)` for a tree of height `k < n_pad`,
/// `u = 2⁻⁵³`), so `frame_rmsd`'s sum lies within about `2·n_pad·u·sum` of
/// this one. The interval takes `4·n_pad·ε = 8·n_pad·u`, then lets division
/// and the square root (both correctly rounded, hence monotone) carry the
/// ends over, with [`ROOT_SLACK`] on top. A non-finite sum (a NaN or
/// infinite term) bounds nothing.
fn interval(sum: f64, n_atoms: usize) -> (f64, f64) {
    if !sum.is_finite() {
        return (f64::NEG_INFINITY, f64::INFINITY);
    }
    let n_pad = n_atoms.div_ceil(LANES) * LANES;
    let w = sum * (4.0 * n_pad as f64 * f64::EPSILON);
    let n = n_atoms as f64;
    (
        ((sum - w) / n).sqrt() * (1.0 - ROOT_SLACK),
        ((sum + w) / n).sqrt() * (1.0 + ROOT_SLACK),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vec3;
    use proptest::prelude::*;

    /// Single-atom frames at scalar positions — lets us compute expected
    /// Hausdorff values by hand.
    fn traj(xs: &[f32]) -> Vec<Frame> {
        xs.iter()
            .map(|&x| Frame::new(vec![Vec3::new(x, 0.0, 0.0)]))
            .collect()
    }

    #[test]
    fn identical_trajectories_have_zero_distance() {
        let t = traj(&[0.0, 1.0, 2.0]);
        assert_eq!(hausdorff_rmsd(&t, &t), 0.0);
    }

    #[test]
    fn hand_computed_example() {
        // A = {0, 1}, B = {0, 3}. d(A->B): a=0 -> 0; a=1 -> min(1,2)=1 => 1.
        // d(B->A): b=0 -> 0; b=3 -> min(3,2)=2 => 2. H = 2.
        let a = traj(&[0.0, 1.0]);
        let b = traj(&[0.0, 3.0]);
        assert!((hausdorff_rmsd(&a, &b) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn symmetric_in_arguments() {
        let a = traj(&[0.0, 0.5, 2.5]);
        let b = traj(&[1.0, 4.0]);
        assert_eq!(hausdorff_rmsd(&a, &b), hausdorff_rmsd(&b, &a));
    }

    #[test]
    fn subset_direction_is_bounded() {
        // If A ⊆ B then directed d(A->B) = 0, so H(A,B) = d(B->A).
        let a = traj(&[0.0, 1.0]);
        let b = traj(&[0.0, 1.0, 5.0]);
        assert!((hausdorff_rmsd(&a, &b) - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn empty_trajectory_panics() {
        hausdorff_rmsd(&[], &traj(&[0.0]));
    }

    /// Frames with atoms on the x axis.
    fn on_x(xs: &[f32]) -> Frame {
        Frame::new(xs.iter().map(|&x| Vec3::new(x, 0.0, 0.0)).collect())
    }

    /// One frame laid out for [`screen`].
    fn cols(f: &Frame) -> Vec<f32> {
        let mut c = vec![0.0; 3 * f.n_atoms().div_ceil(LANES) * LANES];
        lay_out(f, &mut c);
        c
    }

    /// Both argument orders, bitwise against the naive sweep.
    fn assert_matches_naive(a: &[Frame], b: &[Frame]) {
        for (x, y) in [(a, b), (b, a)] {
            let naive = hausdorff_naive(x, y, frame_rmsd);
            let pruned = hausdorff_rmsd_pruned(x, y);
            assert_eq!(
                naive.to_bits(),
                pruned.to_bits(),
                "naive={naive:e} pruned={pruned:e}"
            );
        }
    }

    #[test]
    fn f32_rounding_below_the_centroid_bound_is_not_pruned() {
        // Every atom of `low` is (1, y, 0) with y² just under half an f32
        // ulp of 1, so each f32 term rounds down to 1: frame_rmsd from the
        // origin is exactly 1, while the centroid bound is √(1 + y²) ≈
        // 1 + 2.9e-8. `near` (one atom an ulp further out) has the smaller
        // bound and frame_rmsd ≈ 1 + 1.5e-8 in between, so it is screened
        // first; a margin below f32 rounding would then prune `low`, the
        // true minimizer.
        let y = 0.995f32 * 2f32.powi(-12);
        let low = Frame::new(vec![Vec3::new(1.0, y, 0.0); 8]);
        let mut near = vec![1.0f32; 8];
        near[7] = 1.0 + f32::EPSILON;
        let near = on_x(&near);
        let origin = Frame::zeros(8);
        assert_eq!(frame_rmsd(&origin, &low), 1.0);
        assert!(frame_rmsd(&origin, &near) > 1.0);
        // The copies in `a` zero the b → a direction, so the origin's row
        // decides the distance.
        let a = [origin, near.clone(), low.clone()];
        let b = [near, low];
        assert_eq!(hausdorff_rmsd_pruned(&a, &b), 1.0);
        assert_matches_naive(&a, &b);
    }

    #[test]
    fn centroid_rounding_next_to_huge_coordinates_is_not_pruned() {
        // Beside a shared 3e38 (f64 ulp 2^75), the second atom's 2^74 and
        // 2^74·(1 + 2^-23) round the f64 centroid sums apart by 2^75,
        // though the frames are 2^51/√2 apart: a bound that ignored the
        // centroids' own rounding would skip `y` for `c` (2^60/√2 away).
        let big = 3e38f32;
        let x = on_x(&[big, 2f32.powi(74) * (1.0 + f32::EPSILON)]);
        let y = on_x(&[big, 2f32.powi(74)]);
        let c = on_x(&[big, 2f32.powi(74) * (1.0 + f32::EPSILON + 2f32.powi(-14))]);
        let a = [x.clone(), c.clone(), y.clone()];
        let b = [c, y];
        assert_eq!(
            hausdorff_rmsd_pruned(&a, &b),
            frame_rmsd(&x, &b[1]),
            "the row minimum is y's"
        );
        assert_matches_naive(&a, &b);
    }

    #[test]
    fn summation_error_beyond_the_root_slack_is_covered() {
        // p: one term 1 and 255 terms of 0.6 f64 ulps of 1. Each
        // left-to-right add rounds a whole ulp up, so frame_rmsd's sum is
        // 1 + 255 ulps, the 8-lane sum 1 + 165 (the exact one 1 + 153); q's
        // two terms sum to 1 + ~210 ulps either way. Only the summation
        // bound, not the root's slack, lets q's interval reach past p's
        // screened one, and q is the row minimum.
        let t = 0.6f32.sqrt() * 2f32.powi(-26);
        let mut p = vec![t; 256];
        p[0] = 1.0;
        let mut q = vec![0.0; 256];
        (q[0], q[1]) = (1.0, 210f32.sqrt() * 2f32.powi(-26));
        let (p, q, origin) = (on_x(&p), on_x(&q), Frame::zeros(256));
        let ulps = |f: &Frame| (frame_rmsd(&origin, f) * 16.0).powi(2) - 1.0;
        assert!(ulps(&p) > ulps(&q) + 40.0 * f64::EPSILON);
        assert_eq!(
            screen(&cols(&origin), &cols(&p)),
            1.0 + 165.0 * f64::EPSILON
        );
        let a = [origin, p.clone(), q.clone()];
        let b = [p, q];
        assert_eq!(hausdorff_rmsd_pruned(&a, &b), frame_rmsd(&a[0], &b[1]));
        assert_matches_naive(&a, &b);
    }

    #[test]
    fn each_screened_term_is_frame_rmsds_term() {
        // p's first atom (1, y, y) has y² just over half of half an f32 ulp
        // of 1: `(1 + y²) + y²` rounds to 1 twice, while `1 + (y² + y²)`
        // would round up to 1 + 2⁻²³. q (one tiny term instead) is
        // 2⁻²⁶ above p, much less than that ulp: a screen whose terms were
        // not frame_rmsd's to the bit would rank q first and never evaluate
        // p, the row minimum.
        let y = 0.6f32.sqrt() * 2f32.powi(-12);
        let p = Frame::new(vec![
            Vec3::new(1.0, y, y),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::ZERO,
        ]);
        let q = on_x(&[1.0, 1.0, 1.0, 2f32.powi(-13)]);
        let origin = Frame::zeros(4);
        assert_eq!(frame_rmsd(&origin, &p), 0.75f64.sqrt());
        assert!(frame_rmsd(&origin, &q) > 0.75f64.sqrt());
        let a = [origin, p.clone(), q.clone()];
        let b = [p, q];
        assert_eq!(hausdorff_rmsd_pruned(&a, &b), 0.75f64.sqrt());
        assert_matches_naive(&a, &b);
    }

    #[test]
    fn screen_order_differs_from_exact_order() {
        // `p` and `q` hold the same atoms in two orders. frame_rmsd's
        // left-to-right sum makes p the nearer of the two from the origin
        // (0.5 vs 0.5000000000000001), the screen's 8-lane sum ranks them
        // the other way round; both must reach the exact step.
        let (t, u, v, w) = (
            3.0 * 2f32.powi(-28),
            2f32.powi(-27),
            2f32.powi(-26),
            5.0 * 2f32.powi(-29),
        );
        let p = on_x(&[1.5, t, u, v, u, u, u, u, w]);
        let q = on_x(&[u, u, w, t, u, 1.5, u, u, v]);
        let origin = Frame::zeros(9);
        assert_eq!(frame_rmsd(&origin, &p), 0.5);
        assert!(frame_rmsd(&origin, &q) > 0.5);
        let zero = cols(&origin);
        assert!(screen(&zero, &cols(&p)) > screen(&zero, &cols(&q)));
        let a = [origin, p.clone(), q.clone()];
        let b = [p, q];
        assert_eq!(hausdorff_rmsd_pruned(&a, &b), 0.5);
        assert_matches_naive(&a, &b);
    }

    #[test]
    fn straddle_and_row_end_exact_steps() {
        // a → b: p's first row screens o and f (f's centroid is further
        // than o's but nearer than frame_rmsd(p, o) = √2, so it is not
        // pruned) and takes o's exact value at the row end. The second,
        // identical row's interval for o straddles that maximum, so o is
        // evaluated at once and breaks the row before f is screened.
        // b → a: each row screens both copies of p and evaluates both.
        let p = on_x(&[2.0, 0.0]);
        let o = on_x(&[0.0, 0.0]);
        let f = on_x(&[4.9, -5.0]);
        let (a, b) = ([p.clone(), p.clone()], [o, f.clone()]);
        let (d, counts) = hausdorff_screened(&a, &b);
        assert_eq!(d, frame_rmsd(&p, &f));
        assert_eq!(
            counts,
            Counts {
                screened: 3 + 4,
                straddle_exact: 1,
                row_end_exact: 1 + 4,
            }
        );
        assert_eq!(hausdorff_rmsd_pruned_evals(&a, &b), (d, 7));
        assert_matches_naive(&a, &b);
    }

    #[test]
    fn a_nan_bound_is_screened_after_a_prune() {
        // From the origin: `near` is screened, `far` pruned by its bound,
        // and `nan`'s NaN bound rules nothing out, so it is screened too.
        let origin = on_x(&[0.0, 0.0]);
        let near = on_x(&[1.0, 1.0]);
        let far = on_x(&[9.0, 9.0]);
        let nan = on_x(&[f32::NAN, 1.0]);
        for b in [
            [near.clone(), far.clone(), nan.clone()],
            [nan.clone(), far.clone(), near.clone()],
        ] {
            let (d, counts) = hausdorff_screened(std::slice::from_ref(&origin), &b);
            assert_eq!(d, f64::INFINITY, "the nan row's minimum is inf");
            assert_eq!(counts.screened, 2 + 3);
            assert_matches_naive(std::slice::from_ref(&origin), &b);
        }
    }

    /// The message of `hausdorff_screened(a, b)`'s panic, if it panics.
    fn panic_message(a: &[Frame], b: &[Frame]) -> Option<String> {
        let err = std::panic::catch_unwind(|| hausdorff_screened(a, b)).err()?;
        Some(match err.downcast::<String>() {
            Ok(s) => *s,
            Err(e) => e
                .downcast::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_default(),
        })
    }

    #[test]
    fn every_odd_frame_panics_like_frame_rmsd() {
        // A frame of another atom count anywhere in either trajectory —
        // also one far enough away for the bound to skip it — panics
        // with frame_rmsd's message, in both argument orders.
        let good: Vec<Frame> = (0..4).map(|k| on_x(&[k as f32, 0.0, 1.0])).collect();
        for odd in [on_x(&[0.0, 0.0]), on_x(&[1e6, 1e6, 1e6, 1e6])] {
            for at in 0..good.len() {
                let mut bad = good.clone();
                bad[at] = odd.clone();
                for (a, b) in [(&good, &bad), (&bad, &good), (&bad, &bad)] {
                    let msg = panic_message(a, b).expect("mismatched atom counts must panic");
                    assert!(msg.contains("frame_rmsd: atom count mismatch"), "{msg}");
                }
            }
        }
        let empty = vec![Frame::zeros(0); 2];
        let msg = panic_message(&empty, &empty).expect("empty frames must panic");
        assert!(msg.contains("frame_rmsd: empty frames"), "{msg}");
        // The naive sweep panics on the same inputs.
        assert!(std::panic::catch_unwind(|| hausdorff_naive(&empty, &empty, frame_rmsd)).is_err());
    }

    #[test]
    #[should_panic(expected = "frame_rmsd: atom count mismatch")]
    fn a_far_frame_of_another_atom_count_panics() {
        let a = [on_x(&[0.0, 0.0])];
        let b = [on_x(&[0.0, 0.0]), on_x(&[1e6, 1e6, 1e6])];
        hausdorff_rmsd_pruned(&a, &b);
    }

    #[test]
    #[should_panic(expected = "frame_rmsd: atom count mismatch")]
    fn an_odd_frame_in_the_first_trajectory_panics() {
        let a = [on_x(&[0.0, 0.0]), on_x(&[0.0])];
        let b = [on_x(&[0.0, 0.0])];
        hausdorff_rmsd_pruned(&a, &b);
    }

    #[test]
    #[should_panic(expected = "frame_rmsd: empty frames")]
    fn zero_atom_frames_panic() {
        let a = [Frame::zeros(0)];
        hausdorff_rmsd_pruned(&a, &a);
    }

    /// Two trajectories over one atom count (1–20), built where the screen
    /// is weakest. Coordinates sit on a grid (exact ties), some scaled by
    /// 2⁻¹²–2⁻¹⁴, so `f32` terms and `f64` sums round. A frame is fresh, a
    /// uniform one (all atoms at one point: against it, atom-permuted
    /// frames have the same terms in another order, and frame_rmsd's sum
    /// and the screen's rank them differently), or an exact or
    /// atom-permuted copy of an earlier frame; copies in the other
    /// trajectory zero some rows, so near-tied rows decide the distance.
    /// Then 1-ulp nudges, 1-frame trajectories, and in a quarter of the
    /// cases an occasional NaN, ±inf or ±3e38 coordinate.
    fn adversarial_pair(seed: u64) -> (Vec<Frame>, Vec<Frame>) {
        use rand::prelude::*;
        const SPECIAL: [f32; 5] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3e38, -3e38];
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=20usize);
        let scale = *[1.0f32, 0.5, 0.1, 37.0]
            .choose(&mut rng)
            .expect("non-empty");
        let p_nudge = *[0.0, 0.02, 0.1].choose(&mut rng).expect("non-empty");
        let p_special = if rng.gen_bool(0.25) { 0.02 } else { 0.0 };
        let g = |rng: &mut StdRng| {
            let c = rng.gen_range(-3i32..=3) as f32 * scale;
            if rng.gen_bool(0.15) {
                c * 2f32.powi(-rng.gen_range(12i32..=14))
            } else {
                c
            }
        };
        let mut pool: Vec<Vec<Vec3>> = Vec::new();
        let mut traj = |rng: &mut StdRng| -> Vec<Frame> {
            let len = if rng.gen_bool(0.2) {
                1
            } else {
                rng.gen_range(1..=9usize)
            };
            (0..len)
                .map(|_| {
                    let mut atoms = match (rng.gen_range(0..4), pool.choose(rng)) {
                        (0, Some(earlier)) => earlier.clone(),
                        (1, Some(earlier)) => {
                            let mut c = earlier.clone();
                            c.shuffle(rng);
                            c
                        }
                        (2, _) => vec![Vec3::new(g(rng), g(rng), g(rng)); n],
                        _ => (0..n).map(|_| Vec3::new(g(rng), g(rng), g(rng))).collect(),
                    };
                    for p in &mut atoms {
                        for c in [&mut p.x, &mut p.y, &mut p.z] {
                            if rng.gen_bool(p_nudge) {
                                *c = f32::from_bits(c.to_bits() ^ 1);
                            }
                            if rng.gen_bool(p_special) {
                                *c = *SPECIAL.choose(rng).expect("non-empty");
                            }
                        }
                    }
                    pool.push(atoms.clone());
                    Frame::new(atoms)
                })
                .collect()
        };
        let a = traj(&mut rng);
        let b = traj(&mut rng);
        (a, b)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]
        /// The screened kernel against the naive sweep on inputs built to
        /// break it, bitwise, in both argument orders.
        #[test]
        fn screened_equals_naive_adversarial(seed in any::<u64>()) {
            let (a, b) = adversarial_pair(seed);
            for (x, y) in [(&a, &b), (&b, &a)] {
                let naive = hausdorff_naive(x, y, frame_rmsd);
                let (pruned, counts) = hausdorff_screened(x, y);
                prop_assert_eq!(naive.to_bits(), pruned.to_bits(),
                    "seed={} naive={:e} pruned={:e}", seed, naive, pruned);
                let pairs = 2 * (x.len() * y.len()) as u64;
                prop_assert!(counts.screened <= pairs);
                prop_assert!(counts.straddle_exact + counts.row_end_exact <= counts.screened);
            }
        }
    }

    proptest! {
        /// The pruned kernel must be *bitwise* equal to the naive double
        /// loop — the generic PSA driver relies on exact equality.
        #[test]
        fn pruned_equals_naive_bitwise(
            xs in prop::collection::vec(-50.0f32..50.0, 1..20),
            ys in prop::collection::vec(-50.0f32..50.0, 1..20),
        ) {
            let a = traj(&xs);
            let b = traj(&ys);
            let naive = hausdorff_naive(&a, &b, frame_rmsd);
            let (pruned, evals) = hausdorff_rmsd_pruned_evals(&a, &b);
            prop_assert_eq!(naive.to_bits(), pruned.to_bits(),
                "naive={} pruned={}", naive, pruned);
            prop_assert!(evals <= 2 * (xs.len() as u64) * (ys.len() as u64));
        }

        /// Same bitwise oracle over multi-atom 3-D frames, where the
        /// centroid bound is loose and rounding differs from the metric's.
        #[test]
        fn pruned_equals_naive_multiatom(
            coords in prop::collection::vec(
                prop::collection::vec(-20.0f32..20.0, 9..10), 1..12),
            split in 1usize..11,
        ) {
            let frames: Vec<Frame> = coords.iter().map(|c| {
                Frame::new(c.chunks(3).map(|p| Vec3::new(p[0], p[1], p[2])).collect())
            }).collect();
            let (a, b) = if frames.len() < 2 {
                (&frames[..], &frames[..])
            } else {
                frames.split_at(split.clamp(1, frames.len() - 1))
            };
            let naive = hausdorff_naive(a, b, frame_rmsd);
            let pruned = hausdorff_rmsd_pruned(a, b);
            prop_assert_eq!(naive.to_bits(), pruned.to_bits());
        }

        /// Metric axioms that Hausdorff inherits: non-negativity, symmetry,
        /// identity on equal sets.
        #[test]
        fn metric_axioms(
            xs in prop::collection::vec(-50.0f32..50.0, 1..15),
            ys in prop::collection::vec(-50.0f32..50.0, 1..15),
        ) {
            let a = traj(&xs);
            let b = traj(&ys);
            let h = hausdorff_rmsd(&a, &b);
            prop_assert!(h >= 0.0);
            prop_assert_eq!(h, hausdorff_rmsd(&b, &a));
            prop_assert_eq!(hausdorff_rmsd(&a, &a), 0.0);
        }

        /// Triangle inequality over single-atom trajectories (Hausdorff on a
        /// metric space is a metric on compact subsets).
        #[test]
        fn triangle_inequality(
            xs in prop::collection::vec(-20.0f32..20.0, 1..8),
            ys in prop::collection::vec(-20.0f32..20.0, 1..8),
            zs in prop::collection::vec(-20.0f32..20.0, 1..8),
        ) {
            let a = traj(&xs);
            let b = traj(&ys);
            let c = traj(&zs);
            let ab = hausdorff_rmsd(&a, &b);
            let bc = hausdorff_rmsd(&b, &c);
            let ac = hausdorff_rmsd(&a, &c);
            // f32 coordinate rounding can perturb each term by ~|x|·ε_f32.
            prop_assert!(ac <= ab + bc + 1e-4, "ac={ac} ab+bc={}", ab + bc);
        }
    }
}
