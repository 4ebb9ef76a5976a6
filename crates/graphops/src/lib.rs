//! Graph substrate for the Leaflet Finder: union–find, connected
//! components (BFS and union–find based), and the *partial connected
//! components + merge* operation that powers the paper's Approach 3
//! ("Parallel Connected Components", Table 2).
//!
//! The merge step implements the paper's reduce phase: "joins the
//! calculated components into one, when there is at least one common node"
//! (§4.3, Approach 3).

pub mod components;
pub mod partial;
pub mod union_find;

pub use components::{connected_components_bfs, connected_components_uf, Components};
pub use partial::{merge_partials, partial_components, PartialComponents};
pub use union_find::UnionFind;
