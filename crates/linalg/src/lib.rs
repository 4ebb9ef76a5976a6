//! Fixed-size 3-D vector math and the numerical kernels used by MD
//! trajectory analysis: coordinate frames, RMSD/dRMS, pairwise distance
//! matrices (`cdist`), 2D-RMSD between trajectories, and the Hausdorff
//! distance (naive and early-break variants).
//!
//! Everything here is scalar Rust with no external dependencies; the
//! "optimized" kernel variants (blocked / unrolled / fused) exist to model
//! the paper's GNU-vs-Intel-O3 CPPTraj comparison (Fig. 6) and are verified
//! against the straightforward implementations by unit and property tests.

pub mod cdist;
pub mod frame;
pub mod hausdorff;
pub mod kernels;
pub mod rmsd2d;
pub mod superpose;
pub mod vec3;

pub use cdist::{cdist, cdist_into, edges_within_cutoff, DistanceMatrix};
pub use frame::Frame;
pub use hausdorff::{
    hausdorff_early_break, hausdorff_naive, hausdorff_rmsd, hausdorff_rmsd_pruned,
    hausdorff_rmsd_pruned_evals, FrameMetric,
};
pub use kernels::{drms, frame_rmsd, frame_rmsd_blocked, frame_rmsd_flavored, KernelFlavor};
pub use rmsd2d::{hausdorff_from_rmsd2d, rmsd2d, rmsd2d_blocked, rmsd2d_blocked_with, rmsd2d_with};
pub use superpose::rmsd_superposed;
pub use vec3::Vec3;
