//! 2D-RMSD: the all-frames × all-frames RMSD matrix between two
//! trajectories. This is "Algorithm 1 with no min–max operations" (§4.2) —
//! the quantity CPPTraj computes in parallel, from which the Hausdorff
//! distance is then reduced.

use crate::cdist::DistanceMatrix;
use crate::hausdorff::FrameMetric;
use crate::Frame;

/// All-pairs frame matrix between trajectories `a` (rows) and `b`
/// (columns) under `metric`, row-major; each CPPTraj build (Fig. 6)
/// passes its own RMSD kernel.
pub fn rmsd2d(a: &[Frame], b: &[Frame], metric: FrameMetric) -> DistanceMatrix {
    let mut out = DistanceMatrix::zeros(a.len(), b.len());
    for (i, fa) in a.iter().enumerate() {
        for (j, fb) in b.iter().enumerate() {
            out.set(i, j, metric(fa, fb));
        }
    }
    out
}

/// Reduce a 2D-RMSD matrix to the symmetric Hausdorff distance:
/// `max( max_i min_j D[i][j], max_j min_i D[i][j] )`.
///
/// This is the "gather the results and compute the Hausdorff distance"
/// step of the paper's CPPTraj pipeline and must agree with
/// [`crate::hausdorff::hausdorff_naive`] computed directly — a property
/// test in `mdtask-core` checks that end to end.
pub fn hausdorff_from_rmsd2d(d: &DistanceMatrix) -> f64 {
    assert!(
        d.rows() > 0 && d.cols() > 0,
        "hausdorff_from_rmsd2d: empty matrix"
    );
    let mut h_ab = 0.0f64;
    for i in 0..d.rows() {
        let row_min = d.row(i).iter().copied().fold(f64::INFINITY, f64::min);
        h_ab = h_ab.max(row_min);
    }
    let mut h_ba = 0.0f64;
    for j in 0..d.cols() {
        let mut col_min = f64::INFINITY;
        for i in 0..d.rows() {
            col_min = col_min.min(d.get(i, j));
        }
        h_ba = h_ba.max(col_min);
    }
    h_ab.max(h_ba)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hausdorff::hausdorff_naive;
    use crate::kernels::frame_rmsd;
    use crate::Vec3;

    fn traj(xs: &[f32]) -> Vec<Frame> {
        xs.iter()
            .map(|&x| Frame::new(vec![Vec3::new(x, 0.0, 0.0)]))
            .collect()
    }

    #[test]
    fn matrix_shape_and_values() {
        let a = traj(&[0.0, 2.0]);
        let b = traj(&[0.0, 1.0, 3.0]);
        let d = rmsd2d(&a, &b, frame_rmsd);
        assert_eq!((d.rows(), d.cols()), (2, 3));
        assert_eq!(d.get(0, 0), 0.0);
        assert_eq!(d.get(0, 2), 3.0);
        assert_eq!(d.get(1, 1), 1.0);
    }

    #[test]
    fn hausdorff_reduction_matches_direct() {
        let a = traj(&[0.0, 1.0, 2.5, -3.0]);
        let b = traj(&[0.5, 4.0]);
        let via_matrix = hausdorff_from_rmsd2d(&rmsd2d(&a, &b, frame_rmsd));
        let direct = hausdorff_naive(&a, &b, frame_rmsd);
        assert!((via_matrix - direct).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn empty_matrix_panics() {
        hausdorff_from_rmsd2d(&DistanceMatrix::zeros(0, 0));
    }
}
