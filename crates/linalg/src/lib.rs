//! Fixed-size 3-D vector math and the numerical kernels used by MD
//! trajectory analysis: coordinate frames, RMSD, pairwise distance
//! matrices (`cdist`), 2D-RMSD between trajectories, and the Hausdorff
//! distance (the naive reference and the pruned kernel PSA runs).
//!
//! Everything here is scalar Rust with no external dependencies; the
//! blocked/unrolled RMSD build models the Intel `-O3` side of the paper's
//! CPPTraj comparison (Fig. 6), and each optimized kernel is verified
//! against its straightforward reference by unit and property tests.

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
    hausdorff_naive, hausdorff_rmsd, hausdorff_rmsd_pruned, hausdorff_rmsd_pruned_evals,
    FrameMetric,
};
pub use kernels::{frame_rmsd, frame_rmsd_blocked};
pub use rmsd2d::{hausdorff_from_rmsd2d, rmsd2d};
pub use superpose::rmsd_superposed;
pub use vec3::Vec3;
