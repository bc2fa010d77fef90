//! Incremental re-ranking benchmarks: residual push vs warm-started full
//! solve vs from-scratch solve across delta publishes of 0.1%, 1% and 10%
//! of the edge set, at 50k and 200k papers.
//!
//! The push scorer is primed (one full publish builds its component
//! split); each measured iteration then replays the same delta publish
//! from a cloned scorer so state mutation does not compound across
//! iterations. The 10% delta intentionally sits at the push gate — it
//! measures the fallback cost, not a push win.
//!
//! `with_delta_200k/{8,800,8000}` time the successor network alone (no
//! solve): `CitationNetwork::with_delta`'s copy-and-merge at three batch
//! sizes, against `rebuild_200k` — the edge-list round trip through
//! `Csr::from_edges` + `transpose` it replaced, producing the same
//! adjacencies in the same run. `rebuild_200k` over `with_delta_200k/800`
//! is gated by bench-check as `incremental/delta_apply_speedup`.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use attrank::{AttRank, AttRankParams, IncrementalAttRank};
use citegen::{generate, publish_delta, DatasetProfile};
use citegraph::Ranker;
use repro_bench::DEFAULT_SEED;
use sparsela::{Csr, KernelWorkspace};

/// The paper's primary convergence setting (§4.4 studies α = 0.5).
fn params() -> AttRankParams {
    AttRankParams::new(0.5, 0.4, 3, -0.16).unwrap()
}

fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental");
    for &scale in &[50_000usize, 200_000] {
        let net = generate(&DatasetProfile::dblp().scaled(scale), DEFAULT_SEED);
        let e = net.n_citations();
        let sk = scale / 1000;

        // Prime: initial rank + one small publish to build the split.
        let mut push_scorer = IncrementalAttRank::new(params());
        push_scorer.update(&net);
        let prime = publish_delta(&net, 10, 10, 5);
        let primed = net.with_delta(&prime).unwrap();
        push_scorer.update_delta(&net, &prime, &primed);
        let mut warm_scorer = IncrementalAttRank::new(params());
        warm_scorer.update(&primed);

        for &(label, permille) in &[("0.1pct", 1usize), ("1pct", 10), ("10pct", 100)] {
            let delta = publish_delta(&primed, e * permille / 1000, 10, 99);
            let new = primed.with_delta(&delta).unwrap();

            group.bench_with_input(
                BenchmarkId::new(format!("push_{sk}k"), label),
                &new,
                |b, new| {
                    b.iter_batched(
                        || push_scorer.clone(),
                        |mut inc| inc.update_delta(&primed, &delta, new),
                        BatchSize::LargeInput,
                    )
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("warm_{sk}k"), label),
                &new,
                |b, new| {
                    b.iter_batched(
                        || warm_scorer.clone(),
                        |mut inc| inc.update(new),
                        BatchSize::LargeInput,
                    )
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("scratch_{sk}k"), label),
                &new,
                |b, new| {
                    let method = AttRank::new(params());
                    let mut ws = KernelWorkspace::new();
                    b.iter(|| {
                        let scores = method.rank_into(new, &mut ws);
                        let sum = scores.sum();
                        ws.recycle(scores);
                        sum
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_delta_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental");
    let net = generate(&DatasetProfile::dblp().scaled(200_000), DEFAULT_SEED);
    for &edges in &[8usize, 800, 8000] {
        let delta = publish_delta(&net, edges, 8, 99);
        group.bench_with_input(
            BenchmarkId::new("with_delta_200k", edges),
            &delta,
            |b, delta| b.iter(|| net.with_delta(delta).unwrap()),
        );
    }
    let delta = publish_delta(&net, 800, 8, 99);
    let n_new = net.n_papers() + delta.n_papers();
    group.bench_function("rebuild_200k", |b| {
        b.iter(|| {
            let mut edges = Vec::with_capacity(net.n_citations() + delta.n_citations());
            for j in 0..net.n_papers() as u32 {
                edges.extend(net.references(j).iter().map(|&i| (j, i)));
            }
            edges.extend_from_slice(&delta.citations);
            let refs = Csr::from_edges(n_new, n_new, &edges);
            (refs.transpose(), refs)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_incremental, bench_delta_apply);
criterion_main!(benches);
