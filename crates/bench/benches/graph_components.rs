//! Connected-components ablation: union–find vs BFS on bilayer cutoff
//! graphs, plus the partial-components merge (Approach 3's reduce) and the
//! three shapes a reduce over many partials can take (`fold/`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphops::{
    connected_components_bfs, connected_components_uf, merge_partials, partial_components,
    PartialComponents,
};
use mdsim::BilayerSpec;
use mdtask_core::leaflet::block_edges_tree;
use mdtask_core::partition::{grid_for_tasks, plan_2d_grid};
use std::hint::black_box;
use taskframe::fold_pairwise;

fn bilayer_edges(n: usize) -> (usize, Vec<(u32, u32)>) {
    let b = mdsim::bilayer::generate(
        &BilayerSpec {
            n_atoms: n,
            ..Default::default()
        },
        7,
    );
    let edges = neighbors::neighbor_pairs(
        &b.positions,
        b.suggested_cutoff,
        neighbors::SearchStrategy::CellList,
    );
    (n, edges)
}

fn bench_cc(c: &mut Criterion) {
    let mut g = c.benchmark_group("connected_components");
    g.sample_size(20);
    for n in [4096usize, 16384] {
        let (n, edges) = bilayer_edges(n);
        g.bench_with_input(BenchmarkId::new("union_find", n), &n, |bch, _| {
            bch.iter(|| connected_components_uf(n, black_box(&edges)))
        });
        g.bench_with_input(BenchmarkId::new("bfs", n), &n, |bch, _| {
            bch.iter(|| connected_components_bfs(n, black_box(&edges)))
        });
    }
    g.finish();
}

fn bench_partial_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("partial_cc");
    g.sample_size(20);
    let (_, edges) = bilayer_edges(8192);
    for chunks in [16usize, 64] {
        let parts: Vec<_> = edges
            .chunks(edges.len().div_ceil(chunks))
            .map(partial_components)
            .collect();
        g.bench_with_input(BenchmarkId::new("merge", chunks), &chunks, |bch, _| {
            bch.iter(|| merge_partials(black_box(&parts)))
        });
    }
    g.bench_function("partial_of_full_edge_list", |bch| {
        bch.iter(|| partial_components(black_box(&edges)))
    });
    g.finish();
}

/// `lf_8k`'s tree-search reduce: the 1 035 block partials of an 8 192-atom
/// bilayer folded left (one growing accumulator), pairwise (what
/// `Rdd::try_reduce` does) and in one n-ary merge (what an MPI rank does).
fn bench_fold_shapes(c: &mut Criterion) {
    let b = mdsim::bilayer::generate(
        &BilayerSpec {
            n_atoms: 8192,
            ..Default::default()
        },
        7,
    );
    let parts: Vec<PartialComponents> = plan_2d_grid(8192, grid_for_tasks(1024))
        .into_iter()
        .map(|blk| partial_components(&block_edges_tree(&b.positions, blk, b.suggested_cutoff)))
        .collect();
    assert_eq!(parts.len(), 1035);
    let pair = |a, b| merge_partials(&[a, b]);
    let mut g = c.benchmark_group("fold");
    g.sample_size(10);
    g.bench_function("left", |bch| {
        bch.iter(|| black_box(&parts).iter().cloned().reduce(pair))
    });
    g.bench_function("pairwise", |bch| {
        bch.iter(|| fold_pairwise(black_box(&parts).clone(), pair))
    });
    g.bench_function("nary", |bch| bch.iter(|| merge_partials(black_box(&parts))));
    g.finish();
}

criterion_group!(benches, bench_cc, bench_partial_merge, bench_fold_shapes);
criterion_main!(benches);
