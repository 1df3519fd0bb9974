//! Criterion micro-benchmarks: per-operation latency across the evaluated
//! trees at an emulated 250 ns SCM latency.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fptree_bench::{build_u64, shuffled_keys, BenchTree, TreeKind};
use fptree_core::U64Index;

const N: usize = 20_000;
const LATENCY: u64 = 250;

fn warm_tree(kind: TreeKind) -> (BenchTree<dyn U64Index>, Vec<u64>) {
    let keys = shuffled_keys(N, 41);
    let t = build_u64(kind, 512, LATENCY, 8);
    for &k in &keys {
        t.insert(k, k);
    }
    (t, keys)
}

fn bench_get(c: &mut Criterion) {
    let mut g = c.benchmark_group("get_250ns");
    g.sample_size(20);
    for kind in TreeKind::fig7_set() {
        let (t, keys) = warm_tree(kind);
        let mut i = 0usize;
        g.bench_function(kind.name(), |b| {
            b.iter(|| {
                i = (i + 1) % keys.len();
                std::hint::black_box(t.get(keys[i]))
            })
        });
    }
    g.finish();
}

fn bench_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("insert_250ns");
    g.sample_size(10);
    for kind in TreeKind::fig7_set() {
        g.bench_function(kind.name(), |b| {
            b.iter_batched(
                || (build_u64(kind, 512, LATENCY, 8), shuffled_keys(2000, 43)),
                |(t, keys)| {
                    for &k in &keys {
                        t.insert(k, k);
                    }
                    t
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_update(c: &mut Criterion) {
    let mut g = c.benchmark_group("update_250ns");
    g.sample_size(20);
    for kind in TreeKind::fig7_set() {
        let (t, keys) = warm_tree(kind);
        let mut i = 0usize;
        g.bench_function(kind.name(), |b| {
            b.iter(|| {
                i = (i + 1) % keys.len();
                t.update(keys[i], i as u64)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_get, bench_insert, bench_update);
criterion_main!(benches);
