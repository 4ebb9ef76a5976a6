//! Frame-to-frame RMSD (the `dRMS` of Algorithm 1) in a straightforward
//! and a blocked/unrolled build.
//!
//! The two builds stand in for the paper's two CPPTraj builds (GNU, no
//! optimization vs Intel `-O3`, Fig. 6): same arithmetic, different code
//! generation quality. They must agree to within floating point
//! tolerance — a property test enforces this.

use crate::Frame;

/// Root-mean-square deviation between two frames **without** optimal
/// superposition — the per-frame metric Algorithm 1 calls `dRMS`.
///
/// `rmsd(A, B) = sqrt( (1/N) * Σ_i |a_i - b_i|² )`
///
/// # Panics
/// Panics if the frames have different atom counts or are empty.
pub fn frame_rmsd(a: &Frame, b: &Frame) -> f64 {
    assert_eq!(a.n_atoms(), b.n_atoms(), "frame_rmsd: atom count mismatch");
    assert!(a.n_atoms() > 0, "frame_rmsd: empty frames");
    let mut acc = 0.0f64;
    for (pa, pb) in a.positions().iter().zip(b.positions()) {
        acc += pa.dist2(*pb) as f64;
    }
    (acc / a.n_atoms() as f64).sqrt()
}

/// Blocked/unrolled variant of [`frame_rmsd`]; numerically equivalent.
///
/// Processes atoms in chunks of four with independent accumulators so the
/// compiler can keep them in registers and vectorize — the kind of
/// transformation `-O3` performs on the naive loop.
pub fn frame_rmsd_blocked(a: &Frame, b: &Frame) -> f64 {
    assert_eq!(a.n_atoms(), b.n_atoms(), "frame_rmsd: atom count mismatch");
    assert!(a.n_atoms() > 0, "frame_rmsd: empty frames");
    let pa = a.positions();
    let pb = b.positions();
    let n = pa.len();
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for c in 0..chunks {
        let i = c * 4;
        s0 += pa[i].dist2(pb[i]) as f64;
        s1 += pa[i + 1].dist2(pb[i + 1]) as f64;
        s2 += pa[i + 2].dist2(pb[i + 2]) as f64;
        s3 += pa[i + 3].dist2(pb[i + 3]) as f64;
    }
    let mut tail = 0.0f64;
    for i in chunks * 4..n {
        tail += pa[i].dist2(pb[i]) as f64;
    }
    (((s0 + s1) + (s2 + s3) + tail) / n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vec3;
    use proptest::prelude::*;

    fn frame_of(coords: &[(f32, f32, f32)]) -> Frame {
        Frame::new(coords.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect())
    }

    #[test]
    fn rmsd_identical_frames_is_zero() {
        let f = frame_of(&[(0.0, 0.0, 0.0), (1.0, 2.0, 3.0)]);
        assert_eq!(frame_rmsd(&f, &f), 0.0);
        assert_eq!(frame_rmsd_blocked(&f, &f), 0.0);
    }

    #[test]
    fn rmsd_uniform_shift() {
        // Shift every atom by (3,4,0): each contributes 25, rmsd = 5.
        let a = frame_of(&[(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 0.0, 1.0)]);
        let mut b = a.clone();
        b.translate(Vec3::new(3.0, 4.0, 0.0));
        assert!((frame_rmsd(&a, &b) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rmsd_is_symmetric() {
        let a = frame_of(&[(0.0, 1.0, 2.0), (-1.0, 0.5, 3.0)]);
        let b = frame_of(&[(2.0, -1.0, 0.0), (4.0, 0.0, 1.0)]);
        assert_eq!(frame_rmsd(&a, &b), frame_rmsd(&b, &a));
    }

    #[test]
    #[should_panic]
    fn rmsd_mismatched_sizes_panics() {
        frame_rmsd(&Frame::zeros(2), &Frame::zeros(3));
    }

    #[test]
    #[should_panic]
    fn rmsd_empty_panics() {
        frame_rmsd(&Frame::zeros(0), &Frame::zeros(0));
    }

    proptest! {
        /// The blocked kernel is the naive kernel: same value up to fp
        /// reassociation tolerance, for any frame size including the
        /// unrolling tail cases.
        #[test]
        fn blocked_matches_naive(
            coords in prop::collection::vec((-100.0f32..100.0, -100.0f32..100.0, -100.0f32..100.0), 1..70),
            shifts in prop::collection::vec((-5.0f32..5.0, -5.0f32..5.0, -5.0f32..5.0), 1..70),
        ) {
            let n = coords.len().min(shifts.len());
            let a = Frame::new(coords[..n].iter().map(|&(x,y,z)| Vec3::new(x,y,z)).collect());
            let b = Frame::new(
                coords[..n].iter().zip(&shifts[..n])
                    .map(|(&(x,y,z), &(dx,dy,dz))| Vec3::new(x+dx, y+dy, z+dz))
                    .collect());
            let naive = frame_rmsd(&a, &b);
            let blocked = frame_rmsd_blocked(&a, &b);
            prop_assert!((naive - blocked).abs() <= 1e-6 * (1.0 + naive.abs()),
                         "naive={naive} blocked={blocked}");
        }

        /// RMSD is non-negative and zero iff comparing a frame to itself
        /// (for the self-comparison direction).
        #[test]
        fn rmsd_nonnegative_and_reflexive(
            coords in prop::collection::vec((-100.0f32..100.0, -100.0f32..100.0, -100.0f32..100.0), 1..40),
        ) {
            let a = Frame::new(coords.iter().map(|&(x,y,z)| Vec3::new(x,y,z)).collect());
            prop_assert_eq!(frame_rmsd(&a, &a), 0.0);
        }
    }
}
