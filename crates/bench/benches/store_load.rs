//! Cold-start benchmarks: time from process start to the first served
//! `top_k`, via the binary snapshot store vs. the TSV-parse + full
//! re-rank path it replaces.
//!
//! Three rungs of the restart ladder on the 200k-paper DBLP graph:
//!
//! * `first_topk_store` — `Store::open` + borrowed-scores partial select
//!   (what `RankingEngine::open_from_store` serves before its background
//!   warmup finishes): one buffer read, zero per-element parsing, and
//!   every section but the push state checked with the format-v2
//!   word-lane checksum at memory speed;
//! * `store_to_network` — the same plus materializing the validated
//!   `CitationNetwork` (the writer-side state of a restored engine),
//!   whose persisted venue/author posting indexes are compared, array for
//!   array, with the inversions the load rebuilds;
//! * `first_topk_tsv` — `citegraph::io::load` + a full AttRank solve +
//!   `top_k`, the only restart path before the store existed.
//!
//! The target is `first_topk_tsv / first_topk_store ≥ 10` by min
//! wall-clock; `repro bench-check` gates the recorded ratio.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use citegen::{generate, DatasetProfile};
use citegraph::Ranker;
use graphstore::{Store, StoreBuilder};

const SPEC: &str = "attrank:alpha=0.2,beta=0.4,y=3,w=-0.16";
const SCALE: usize = 200_000;

struct Fixture {
    stem: std::path::PathBuf,
    store: std::path::PathBuf,
}

/// Generates the 200k graph once and persists both representations.
fn prepare() -> Fixture {
    let dir = std::env::temp_dir().join("attrank_store_load_bench");
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let stem = dir.join(format!("dblp200k-{}", std::process::id()));
    let store = stem.with_extension("store");

    let net = generate(&DatasetProfile::dblp().scaled(SCALE), 7);
    citegraph::io::save(&net, &stem).expect("write TSV");
    let ranker = rankengine::parse_and_build(SPEC).expect("valid spec");
    let scores = ranker.rank(&net);
    StoreBuilder::new()
        .network(&net)
        .epoch(SPEC, 0, scores.as_slice())
        .write_to(&store)
        .expect("write store");
    Fixture { stem, store }
}

fn bench_store_load(c: &mut Criterion) {
    let fx = prepare();
    let mut group = c.benchmark_group("store_load");

    group.bench_function("first_topk_store_200k", |b| {
        b.iter(|| {
            let store = Store::open(&fx.store).expect("open store");
            black_box(store.top_k(Some(SPEC), 10).expect("persisted epoch"))
        })
    });

    group.bench_function("store_to_network_200k", |b| {
        b.iter(|| {
            let store = Store::open(&fx.store).expect("open store");
            let net = store.to_network().expect("valid store");
            black_box(net.n_citations())
        })
    });

    group.bench_function("first_topk_tsv_200k", |b| {
        let ranker = rankengine::parse_and_build(SPEC).expect("valid spec");
        b.iter(|| {
            let net = citegraph::io::load(&fx.stem).expect("load TSV");
            let scores = ranker.rank(&net);
            black_box(scores.top_k(10))
        })
    });

    group.finish();

    std::fs::remove_file(&fx.store).ok();
    std::fs::remove_file(fx.stem.with_extension("")).ok();
    let stem_str = fx.stem.to_string_lossy().to_string();
    std::fs::remove_file(format!("{stem_str}.papers.tsv")).ok();
    std::fs::remove_file(format!("{stem_str}.citations.tsv")).ok();
}

criterion_group!(benches, bench_store_load);
criterion_main!(benches);
