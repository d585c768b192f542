//! Criterion micro-benchmarks for the index substrate: B+-tree and K-D
//! tree inserts and queries at several scales.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use propeller_index::{BPlusTree, KdTree};
use propeller_types::FileId;

fn bench_btree(c: &mut Criterion) {
    let mut group = c.benchmark_group("btree");
    for &n in &[1_000u64, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("insert", n), &n, |b, &n| {
            b.iter(|| {
                let mut t = BPlusTree::new();
                for i in 0..n {
                    t.insert(i.wrapping_mul(0x9E37_79B9) % n, i);
                }
                t
            })
        });
        let tree: BPlusTree<u64, u64> = (0..n).map(|i| (i, i)).collect();
        group.bench_with_input(BenchmarkId::new("point_get", n), &n, |b, &n| {
            let mut k = 0;
            b.iter(|| {
                k = (k + 7919) % n;
                tree.get(&k)
            })
        });
        group.bench_with_input(BenchmarkId::new("range_100", n), &n, |b, &n| {
            let mut k = 0;
            b.iter(|| {
                k = (k + 7919) % n;
                tree.range(k..k + 100).count()
            })
        });
    }
    group.finish();
}

fn bench_kdtree(c: &mut Criterion) {
    let mut group = c.benchmark_group("kdtree");
    for &n in &[1_000u64, 50_000] {
        let points: Vec<(Vec<f64>, FileId)> =
            (0..n).map(|i| (vec![(i % 1024) as f64, (i / 1024) as f64], FileId::new(i))).collect();
        group.bench_with_input(BenchmarkId::new("bulk_load", n), &n, |b, _| {
            b.iter(|| KdTree::bulk_load(2, points.clone()))
        });
        let tree = KdTree::bulk_load(2, points.clone());
        group.bench_with_input(BenchmarkId::new("box_query", n), &n, |b, _| {
            b.iter(|| tree.range_iter(&[100.0, 0.0], &[200.0, 10.0]).filter(|p| p.interior).count())
        });
        // Insert/remove churn over drifting mtimes: each round adds one
        // point at the newest mtime and removes the oldest live one.
        group.bench_with_input(BenchmarkId::new("churn", n), &n, |b, &n| {
            let mut tree = tree.clone();
            let point = |i: u64| [(i % 1024) as f64, (i / 1024) as f64];
            let mut i = n;
            b.iter(|| {
                tree.insert(&point(i), FileId::new(i));
                tree.remove(&point(i - n), FileId::new(i - n));
                i += 1;
            })
        });
        // One commit on a pinned epoch: clone, then a single insert (the
        // copy-on-write cost a writer pays while a reader holds the tree).
        group.bench_with_input(BenchmarkId::new("clone_plus_insert", n), &n, |b, &n| {
            let mut i = n;
            b.iter(|| {
                let mut next = tree.clone();
                next.insert(&[(i % 1024) as f64, (i / 1024) as f64], FileId::new(i));
                i += 1;
                next
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_btree, bench_kdtree);
criterion_main!(benches);
