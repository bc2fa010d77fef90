//! Incremental re-ranking benchmarks: residual push vs the scorer's full
//! solve vs a from-scratch power-iteration solve across delta publishes
//! of 0.1%, 1% and 10% of the edge set, at 50k and 200k papers.
//!
//! The push scorer is primed (one full publish leaves its push state);
//! each measured iteration then replays the same delta publish from a
//! cloned scorer so state mutation does not compound across iterations.
//! No delta size is gated: the 10% delta is a push too, whose cone is
//! most of the graph, so it measures what a push costs where it buys
//! little over the one-pass full solve. The `warm_*` rows keep their ids from
//! when the full solve was a warm-started power iteration; they now time
//! `IncrementalAttRank::update`, the one-pass 3-lane push solve, which
//! starts from nothing. `scratch_*` is `AttRank`'s power iteration.
//!
//! `with_delta_200k/{8,800,8000}` time the successor network alone (no
//! solve): `CitationNetwork::with_delta`'s copy-and-merge at three batch
//! sizes, against `rebuild_200k` — the edge-list round trip through
//! `Csr::from_edges` + `transpose` it replaced, producing the same
//! adjacencies in the same run. `rebuild_200k` over `with_delta_200k/800`
//! is gated by bench-check as `incremental/delta_apply_speedup`.
//!
//! `update_delta_200k/{8,800,8000}` time the steady-state push publish
//! alone at e2ebench's batch sizes (1 / 100 / 1000 papers × 8 references,
//! default `attrank` parameters): carried window counts, one 3-lane push
//! of the unresolved lanes, one resolution sweep.
//! `three_pushes_200k/800` is its same-run comparator — the sequence the
//! 3-lane push replaced: three one-lane runs of the same seeding and loop
//! (`push_delta` at `K = 1`) over the same transition, the uniform kernel
//! first (`update_uniform_kernel`) and then each component's lane on a
//! copy, resolved against the new kernel with its scale (the
//! personalization change and the scales are handed to it precomputed).
//! `three_pushes_200k/800` over `update_delta_200k/800` is gated by
//! bench-check as `incremental/fused_push_speedup`.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use attrank::{AttRank, AttRankParams, IncrementalAttRank};
use citegen::{generate, publish_delta, DatasetProfile};
use citegraph::{
    push_delta, uniform_kernel, update_uniform_kernel, window, CitationNetwork, PaperId,
    PushRankConfig, Ranker,
};
use repro_bench::DEFAULT_SEED;
use sparsela::{push, Csr, KernelWorkspace, PushConfig, ScoreVec};

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

        // Prime: initial rank + one small publish that keeps the push
        // state.
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

fn bench_update_delta(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental");
    let net = generate(&DatasetProfile::dblp().scaled(200_000), DEFAULT_SEED);
    // The serving default (`MethodSpec` "attrank").
    let params = AttRankParams::new(0.2, 0.4, 3, -0.16).unwrap();
    let alpha = params.alpha();

    // Prime: initial rank + one small publish that keeps the push state.
    let mut scorer = IncrementalAttRank::new(params);
    scorer.update(&net);
    let prime = publish_delta(&net, 80, 8, 5);
    let primed = net.with_delta(&prime).unwrap();
    scorer.update_delta(&net, &prime, &primed);

    for &edges in &[8usize, 800, 8000] {
        let delta = publish_delta(&primed, edges, 8, 99);
        let new = primed.with_delta(&delta).unwrap();
        group.bench_with_input(
            BenchmarkId::new("update_delta_200k", edges),
            &new,
            |b, new| {
                b.iter_batched(
                    || scorer.clone(),
                    |mut inc| inc.update_delta(&primed, &delta, new),
                    BatchSize::LargeInput,
                )
            },
        );
    }

    // The comparator's state on `primed`: the kernel, and each component's
    // unresolved lane at unit mass with its `g`; then each component's
    // personalization change and scale on `new`.
    let delta = publish_delta(&primed, 800, 8, 99);
    let new = primed.with_delta(&delta).unwrap();
    let mut ws = KernelWorkspace::new();
    let kernel0 = uniform_kernel(&primed, alpha, &mut ws);
    let (n0, year0, w) = (
        primed.n_papers(),
        primed.current_year().unwrap(),
        params.decay_w,
    );
    let recency = |net: &CitationNetwork| -> Vec<f64> {
        let years = net.years().iter();
        years.map(|&t| (w * (year0 - t) as f64).exp()).collect()
    };
    let counts = |net: &CitationNetwork| -> Vec<f64> {
        let counts = window::recent_citation_counts(net, params.attention_years);
        counts.into_iter().map(f64::from).collect()
    };
    let lane = |b_hat: &[f64]| {
        let mass: f64 = b_hat.iter().sum();
        let mut r: Vec<f64> = b_hat.iter().map(|b| b / mass).collect();
        let mut y = ScoreVec::zeros(b_hat.len());
        let cfg = PushConfig {
            alpha,
            epsilon: PushRankConfig::default().epsilon,
            max_edge_work: u64::MAX,
        };
        let out = push::solve_lanes(primed.refs_csr(), &cfg, [y.as_mut_slice()], &mut r, [0.0]);
        (y, out.deferred[0], mass)
    };
    // Δb̂ over the rows it touches, at the lane's mass, and the lane's
    // scale on `new`.
    let change = |old: &[f64], new: &[f64], mass: f64, weight: f64| {
        let db: Vec<(PaperId, [f64; 1])> = (0..new.len())
            .filter(|&p| old.get(p) != Some(&new[p]))
            .map(|p| (p as PaperId, [(new[p] - old.get(p).unwrap_or(&0.0)) / mass]))
            .collect();
        (db, weight * mass / new.iter().sum::<f64>())
    };
    let (att_old, att_new) = (counts(&primed), counts(&new));
    let (rec_old, rec_new) = (recency(&primed), recency(&new));
    let (y_att, g_att, m_att) = lane(&att_old);
    let (y_rec, g_rec, m_rec) = lane(&rec_old);
    let (db_att, s_att) = change(&att_old, &att_new, m_att, params.beta());
    let (db_rec, s_rec) = change(&rec_old, &rec_new, m_rec, params.gamma());
    assert!(db_rec.iter().all(|&(p, _)| p as usize >= n0));
    let cfg = PushRankConfig::default();
    group.bench_function(BenchmarkId::new("three_pushes_200k", 800), |b| {
        b.iter(|| {
            let (kernel1, _) =
                update_uniform_kernel(&primed, &delta, &new, &kernel0, alpha, &cfg, &mut ws)
                    .expect("a 100-paper batch pushes");
            let mut component = |y0: &ScoreVec, g0: f64, db: &[(PaperId, [f64; 1])], s: f64| {
                let mut y = ws.take_copy(y0);
                let mut g = [g0];
                let mut r = ws.take_zeros(0).into_vec();
                push_delta(
                    &primed,
                    &delta,
                    &new,
                    [&mut y],
                    &mut g,
                    db,
                    alpha,
                    &cfg,
                    &mut r,
                )
                .expect("a 100-paper batch pushes");
                ws.recycle(r.into());
                for (x, &u) in y.iter_mut().zip(kernel1.iter()) {
                    *x = s * (*x + g[0] * u);
                }
                y
            };
            let mut total = component(&y_att, g_att, &db_att, s_att);
            let rec1 = component(&y_rec, g_rec, &db_rec, s_rec);
            total.axpy(1.0, &rec1);
            let sum = total.sum();
            for v in [kernel1, total, rec1] {
                ws.recycle(v);
            }
            sum
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_incremental,
    bench_delta_apply,
    bench_update_delta
);
criterion_main!(benches);
