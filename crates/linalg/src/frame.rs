//! A single trajectory frame: the positions of all atoms at one time step.

use crate::Vec3;

/// One snapshot of an N-atom system.
///
/// Stored as a flat `Vec<Vec3>`; a trajectory is a `Vec<Frame>` (see
/// `mdsim::Trajectory`). The paper's representation is identical: "each
/// trajectory is represented as a two dimensional array \[time frames ×
/// N atom positions in 3-dimensional space\]" (§2.1.1).
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    positions: Vec<Vec3>,
}

impl Frame {
    /// Build a frame from a position list.
    pub fn new(positions: Vec<Vec3>) -> Self {
        Frame { positions }
    }

    /// A frame with `n` atoms at the origin (useful as an accumulation
    /// target or test fixture).
    pub fn zeros(n: usize) -> Self {
        Frame {
            positions: vec![Vec3::ZERO; n],
        }
    }

    /// Number of atoms.
    #[inline]
    pub fn n_atoms(&self) -> usize {
        self.positions.len()
    }

    /// Immutable view of the positions.
    #[inline]
    pub fn positions(&self) -> &[Vec3] {
        &self.positions
    }

    /// Geometric centre (centroid) of the frame, accumulated in `f64`.
    pub fn centroid(&self) -> Vec3 {
        let n = self.positions.len();
        if n == 0 {
            return Vec3::ZERO;
        }
        let (mut sx, mut sy, mut sz) = (0.0f64, 0.0f64, 0.0f64);
        for p in &self.positions {
            sx += p.x as f64;
            sy += p.y as f64;
            sz += p.z as f64;
        }
        let inv = 1.0 / n as f64;
        Vec3::new((sx * inv) as f32, (sy * inv) as f32, (sz * inv) as f32)
    }

    /// Translate every atom by `d`.
    pub fn translate(&mut self, d: Vec3) {
        for p in &mut self.positions {
            *p += d;
        }
    }

    /// Translate the frame so its centroid sits at the origin. Trajectory
    /// comparison metrics (RMSD without superposition) are sensitive to
    /// rigid-body drift; centring is the standard pre-processing step.
    pub fn center(&mut self) {
        let c = self.centroid();
        self.translate(-c);
    }
}

impl From<Vec<Vec3>> for Frame {
    fn from(positions: Vec<Vec3>) -> Self {
        Frame::new(positions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> Frame {
        Frame::new(vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(3.0, 0.0, 0.0),
            Vec3::new(0.0, 3.0, 0.0),
        ])
    }

    #[test]
    fn centroid_of_triangle() {
        assert_eq!(tri().centroid(), Vec3::new(1.0, 1.0, 0.0));
    }

    #[test]
    fn centroid_of_empty_is_zero() {
        assert_eq!(Frame::zeros(0).centroid(), Vec3::ZERO);
    }

    #[test]
    fn center_moves_centroid_to_origin() {
        let mut f = tri();
        f.center();
        let c = f.centroid();
        assert!(c.norm() < 1e-6, "centroid after centring: {c:?}");
    }

    #[test]
    fn translate_shifts_all() {
        let mut f = tri();
        f.translate(Vec3::new(1.0, -1.0, 2.0));
        assert_eq!(f.positions()[0], Vec3::new(1.0, -1.0, 2.0));
        assert_eq!(f.positions()[1], Vec3::new(4.0, -1.0, 2.0));
    }
}
