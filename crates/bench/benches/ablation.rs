//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **pull-based matrix-free operator vs. materialized weighted CSR** —
//!   the `CitationOperator` design choice in `sparsela`;
//! * **ensemble overhead** — Borda fusion of three cheap rankers vs. the
//!   rankers alone.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use attrank::{AttRank, AttRankParams};
use baselines::{Ensemble, FusionRule, PageRank, Ram};
use citegen::{generate, DatasetProfile};
use citegraph::rank::CitationCount;
use citegraph::Ranker;
use sparsela::{ScoreVec, WeightedCsr};

fn bench_operator_representation(c: &mut Criterion) {
    // The matrix-free pull operator vs. an explicit weighted CSR holding
    // the same column-stochastic matrix.
    let net = generate(&DatasetProfile::dblp().scaled(20_000), 7);
    let n = net.n_papers();
    let op = net.stochastic_operator();

    // Materialize S as weighted CSR (rows = cited, cols = citing).
    let mut triples = Vec::with_capacity(net.n_citations());
    for citing in 0..n as u32 {
        let k = net.reference_count(citing);
        if k == 0 {
            continue; // dangling handled outside in both variants
        }
        let w = 1.0 / k as f64;
        for &cited in net.references(citing) {
            triples.push((cited, citing, w));
        }
    }
    let dense_s = WeightedCsr::from_triples(n, n, &triples);

    let x = ScoreVec::uniform(n);
    let mut y = ScoreVec::zeros(n);

    let mut group = c.benchmark_group("stochastic_operator_20k");
    group.bench_function("matrix_free_pull", |b| {
        b.iter(|| {
            op.apply(black_box(x.as_slice()), y.as_mut_slice());
            black_box(&y);
        })
    });
    group.bench_function("materialized_weighted_csr", |b| {
        b.iter(|| {
            dense_s.mul_vec_into(black_box(x.as_slice()), y.as_mut_slice());
            black_box(&y);
        })
    });
    group.finish();
}

fn bench_ensemble_overhead(c: &mut Criterion) {
    let net = generate(&DatasetProfile::dblp().scaled(20_000), 7);
    let mut group = c.benchmark_group("ensemble_20k");
    group.sample_size(10);
    group.bench_function("single_attrank", |b| {
        let m = AttRank::new(AttRankParams::new(0.2, 0.4, 3, -0.16).unwrap());
        b.iter(|| black_box(m.rank(&net)))
    });
    group.bench_function("borda_cc_pr_ram", |b| {
        let ens = Ensemble::new(
            vec![
                Box::new(CitationCount),
                Box::new(PageRank::default_citation()),
                Box::new(Ram::new(0.6)),
            ],
            FusionRule::Borda,
        );
        b.iter(|| black_box(ens.rank(&net)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_operator_representation,
    bench_ensemble_overhead
);
criterion_main!(benches);
