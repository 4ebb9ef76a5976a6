//! Clustering of trajectory ensembles from a PSA distance matrix.
//!
//! "The basic idea is to compute pair-wise distances … between members of
//! an ensemble of trajectories and **cluster the trajectories based on
//! their distance matrix**" (§2.1.1). This module completes that pipeline:
//! hierarchical agglomerative clustering (single / complete / average
//! linkage, the standard choices for PSA dendrograms) over a
//! [`DistanceMatrix`], with cuts by cluster count or distance threshold.

use linalg::DistanceMatrix;

/// Linkage criterion for merging clusters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Linkage {
    /// Minimum pairwise distance between members.
    Single,
    /// Maximum pairwise distance between members.
    Complete,
    /// Unweighted average of pairwise distances (UPGMA).
    Average,
}

/// One merge step of the dendrogram: clusters `a` and `b` (ids) join at
/// `height` into a new cluster with id `n + step`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Merge {
    pub a: usize,
    pub b: usize,
    pub height: f64,
}

/// The full dendrogram of `n` leaves (`n - 1` merges, ascending heights
/// for monotone linkages).
#[derive(Clone, Debug)]
pub struct Dendrogram {
    pub n_leaves: usize,
    pub merges: Vec<Merge>,
}

impl Dendrogram {
    /// Cut into exactly `k` clusters (1 ≤ k ≤ n). Returns, per leaf, a
    /// cluster label in `0..k` (labels ordered by smallest member id).
    pub fn cut_into(&self, k: usize) -> Vec<usize> {
        assert!(k >= 1 && k <= self.n_leaves, "k={k} out of range");
        self.labels_after(self.n_leaves - k)
    }

    /// Labels after applying the first `applied` merges.
    fn labels_after(&self, applied: usize) -> Vec<usize> {
        let n = self.n_leaves;
        let mut uf = graphops::UnionFind::new(n);
        // Track each dendrogram node's representative leaf; leaves are
        // nodes 0..n, the i-th merge creates node n+i.
        let mut rep: Vec<u32> = (0..n as u32).collect();
        for m in &self.merges[..applied] {
            let ra = rep[m.a];
            let rb = rep[m.b];
            uf.union(ra, rb);
            rep.push(uf.find(ra));
        }
        let labels = uf.canonical_labels();
        // Renumber canonical labels to 0..k by first appearance order of
        // the smallest member.
        let mut order: Vec<u32> = labels.clone();
        order.sort_unstable();
        order.dedup();
        labels
            .iter()
            .map(|l| order.binary_search(l).expect("label present"))
            .collect()
    }
}

/// Agglomerative clustering over a symmetric distance matrix.
///
/// O(n³) Lance–Williams implementation — ensembles are O(100) members, so
/// this is instantaneous next to the O(n²) Hausdorff computation that
/// produced the matrix.
///
/// # Panics
/// Panics if the matrix is not square or is empty.
pub fn hierarchical(distances: &DistanceMatrix, linkage: Linkage) -> Dendrogram {
    let n = distances.rows();
    assert_eq!(n, distances.cols(), "distance matrix must be square");
    assert!(n >= 1, "cannot cluster an empty ensemble");
    // Working copy of inter-cluster distances; cluster ids 0..n are
    // leaves, n..2n-1 are merge products. `active` maps live cluster id →
    // its row in `d`; sizes for average linkage.
    let mut d: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..n).map(|j| distances.get(i, j)).collect())
        .collect();
    let mut active: Vec<usize> = (0..n).collect(); // cluster id per row
    let mut alive: Vec<bool> = vec![true; n];
    let mut size: Vec<f64> = vec![1.0; n];
    let mut merges = Vec::with_capacity(n.saturating_sub(1));

    for step in 0..n.saturating_sub(1) {
        // Find the closest live pair.
        let (mut bi, mut bj, mut best) = (0usize, 0usize, f64::INFINITY);
        for i in 0..n {
            if !alive[i] {
                continue;
            }
            for j in i + 1..n {
                if alive[j] && d[i][j] < best {
                    best = d[i][j];
                    bi = i;
                    bj = j;
                }
            }
        }
        merges.push(Merge {
            a: active[bi],
            b: active[bj],
            height: best,
        });
        // Lance–Williams update into row bi; kill row bj.
        for k in 0..n {
            if !alive[k] || k == bi || k == bj {
                continue;
            }
            // Only the upper triangle of `d` is kept current.
            let dik = if bi < k { d[bi][k] } else { d[k][bi] };
            let djk = if bj < k { d[bj][k] } else { d[k][bj] };
            let merged = match linkage {
                Linkage::Single => dik.min(djk),
                Linkage::Complete => dik.max(djk),
                Linkage::Average => (size[bi] * dik + size[bj] * djk) / (size[bi] + size[bj]),
            };
            if bi < k {
                d[bi][k] = merged;
            } else {
                d[k][bi] = merged;
            }
        }
        size[bi] += size[bj];
        alive[bj] = false;
        active[bi] = n + step;
    }
    Dendrogram {
        n_leaves: n,
        merges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-D points as a distance matrix.
    fn matrix_of(points: &[f64]) -> DistanceMatrix {
        let n = points.len();
        let mut m = DistanceMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m.set(i, j, (points[i] - points[j]).abs());
            }
        }
        m
    }

    #[test]
    fn two_obvious_groups() {
        // {0, 1, 2} and {100, 101}.
        let m = matrix_of(&[0.0, 1.0, 2.0, 100.0, 101.0]);
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let dend = hierarchical(&m, linkage);
            let labels = dend.cut_into(2);
            assert_eq!(labels[0], labels[1]);
            assert_eq!(labels[1], labels[2]);
            assert_eq!(labels[3], labels[4]);
            assert_ne!(labels[0], labels[3], "{linkage:?}");
        }
    }

    #[test]
    fn cut_into_n_gives_singletons() {
        let m = matrix_of(&[0.0, 5.0, 9.0]);
        let dend = hierarchical(&m, Linkage::Average);
        assert_eq!(dend.cut_into(3), vec![0, 1, 2]);
        assert_eq!(dend.cut_into(1), vec![0, 0, 0]);
    }

    #[test]
    fn heights_monotone_for_monotone_linkages() {
        let m = matrix_of(&[0.0, 2.0, 3.0, 7.0, 20.0, 21.5]);
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let dend = hierarchical(&m, linkage);
            for w in dend.merges.windows(2) {
                assert!(
                    w[1].height >= w[0].height - 1e-12,
                    "{linkage:?}: heights must not decrease"
                );
            }
        }
    }

    #[test]
    fn single_leaf() {
        let dend = hierarchical(&matrix_of(&[0.0]), Linkage::Average);
        assert!(dend.merges.is_empty());
        assert_eq!(dend.cut_into(1), vec![0]);
    }

    #[test]
    fn clusters_real_trajectory_families() {
        // Two families exploring different regions of space: Hausdorff
        // distances across families dwarf the within-family spread.
        use linalg::Vec3;
        use mdsim::ChainSpec;
        let spec = ChainSpec {
            n_atoms: 12,
            n_frames: 6,
            stride: 1,
            ..ChainSpec::default()
        };
        let mut ensemble = mdsim::chain::generate_ensemble(&spec, 3, 1);
        let mut far = mdsim::chain::generate_ensemble(&spec, 3, 100);
        for t in &mut far {
            for f in &mut t.frames {
                f.translate(Vec3::new(500.0, 0.0, 0.0));
            }
        }
        ensemble.extend(far);
        let distances = crate::psa::psa_serial(&ensemble);
        let dend = hierarchical(&distances, Linkage::Average);
        let labels = dend.cut_into(2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[3]);
    }
}
