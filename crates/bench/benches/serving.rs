//! Serving-layer benchmarks: partial top-k selection vs. the full sort it
//! replaces, and the engine's snapshot read path (the per-query cost a
//! concurrent reader pays).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use citegen::{generate, DatasetProfile};
use rankengine::{RankingEngine, RerankPolicy};
use sparsela::{sort_indices_desc, top_k_indices, ScoreVec};

/// Deterministic pseudo-random scores with plenty of ties (the worst case
/// for tie-break-correct selection).
fn synth_scores(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(2654435761) % 100_003) as f64 / 100_003.0)
        .collect()
}

fn bench_top_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("top_k");
    for &n in &[50_000usize, 200_000] {
        let scores = synth_scores(n);
        for &k in &[10usize, 100] {
            group.bench_with_input(
                BenchmarkId::new(format!("partial_select_{}k", n / 1000), k),
                &k,
                |b, &k| b.iter(|| black_box(top_k_indices(black_box(&scores), k))),
            );
        }
        group.bench_function(format!("full_sort_{}k", n / 1000), |b| {
            b.iter(|| {
                let mut idx = sort_indices_desc(black_box(&scores));
                idx.truncate(10);
                black_box(idx)
            })
        });
    }
    group.finish();
}

fn bench_snapshot_read(c: &mut Criterion) {
    let net = generate(&DatasetProfile::dblp().scaled(20_000), 7);
    let engine = RankingEngine::from_config(
        net,
        "attrank:alpha=0.2,beta=0.4,y=3,w=-0.16",
        RerankPolicy::EveryBatch,
    )
    .expect("valid config");

    let mut group = c.benchmark_group("snapshot_read");
    group.bench_function("snapshot_acquire_20k", |b| {
        b.iter(|| black_box(engine.snapshot()))
    });
    group.bench_function("engine_top10_20k", |b| {
        b.iter(|| black_box(engine.top_k(10)))
    });
    let snap = engine.snapshot();
    // Warm the lazily sorted rank order so the measurement is the
    // steady-state lookup: one binary search over 20k ids.
    let _ = snap.rank_of(0);
    group.bench_function("rank_of_cached_20k", |b| {
        b.iter(|| black_box(snap.rank_of(black_box(12_345))))
    });
    group.bench_function("score_vec_top10_20k", |b| {
        let v = ScoreVec::from_vec(snap.scores().as_slice().to_vec());
        b.iter(|| black_box(v.top_k(10)))
    });
    group.finish();
}

criterion_group!(benches, bench_top_k, bench_snapshot_read);
criterion_main!(benches);
