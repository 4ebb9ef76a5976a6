//! Synthetic molecular-dynamics systems.
//!
//! The paper's datasets come from real simulations we do not have:
//! trajectory ensembles of 3341/6682/13364 atoms × 102 frames (PSA,
//! Fig. 4–6) and lipid bilayers of 131k/262k/524k/4M atoms with
//! 896k/1.75M/3.52M/44.6M cutoff-graph edges (Leaflet Finder, Fig. 7–9).
//! This crate generates statistically equivalent stand-ins:
//!
//! * [`chain`] — protein-like chains evolved by Brownian dynamics, giving
//!   trajectory ensembles with the paper's atom/frame counts;
//! * [`bilayer`] — two flat, locally-parallel leaflets of head-group
//!   particles with thermal jitter, tuned so the cutoff graph has exactly
//!   two giant connected components and an edge density matching the
//!   paper's reported edge counts;
//! * [`datasets`] — named constructors for every dataset the paper uses,
//!   with a `scale` knob for laptop-sized runs.
//!
//! All generation is deterministic given a seed.

pub mod bilayer;
pub mod chain;
pub mod datasets;

pub use bilayer::{Bilayer, BilayerSpec};
pub use chain::{ChainSpec, Trajectory};
pub use datasets::{
    lf_dataset, psa_ensemble, LfDatasetId, PsaSize, LF_PAPER_ATOMS, PSA_PAPER_ATOMS,
    PSA_PAPER_FRAMES,
};
