//! Sharded persistence: per-shard snapshot files carrying the plan
//! manifest, per-shard WALs, and a parallel cold start that serves its
//! first `top_k` from every shard's persisted epoch before any replay.

use std::path::{Path, PathBuf};

use citegen::{generate, DatasetProfile};
use citegraph::{GraphDelta, PaperId, ShardSpec};
use rankengine::{RerankPolicy, ShardedEngine};

const SCALE: usize = 2_000;
const N_SHARDS: usize = 4;

fn temp_stem(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rankengine_sharded_store_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

fn cleanup(stem: &Path) {
    for s in 0..N_SHARDS {
        std::fs::remove_file(ShardedEngine::shard_store_path(stem, s)).ok();
        std::fs::remove_file(ShardedEngine::shard_wal_path(stem, s)).ok();
    }
}

#[test]
fn sharded_cold_start_restores_every_shard_and_replays_tail_wal() {
    let stem = temp_stem("coldstart");
    cleanup(&stem);

    let net = generate(&DatasetProfile::dblp().scaled(SCALE), 17);
    let current_year = net.current_year().unwrap();
    let n0 = net.n_papers();
    let plan = ShardSpec::Fixed(N_SHARDS).plan(&net).unwrap();
    let eng = ShardedEngine::from_plan(&net, &plan, "cc", RerankPolicy::EveryBatch).unwrap();
    eng.attach_wals(&stem).unwrap();

    // Ingest + publish a batch, persist everything...
    let mut d1 = GraphDelta::new();
    d1.add_paper(current_year + 1);
    d1.add_citation(n0 as PaperId, (n0 - 1) as PaperId);
    eng.ingest(&d1).unwrap();
    let epochs = eng.persist_epochs(&stem).unwrap();
    assert_eq!(epochs.len(), N_SHARDS);

    // ...then ingest one more batch that lives only in the tail WAL.
    let mut d2 = GraphDelta::new();
    d2.add_paper(current_year + 2);
    d2.add_citation((n0 + 1) as PaperId, n0 as PaperId);
    eng.ingest(&d2).unwrap();
    let want_top = eng.top_k(25).unwrap();
    let want_key_papers = eng.snapshots().n_papers();
    drop(eng);

    // Cold start: the manifest in shard 0 supplies the plan; all shards
    // open in parallel and the restored engine answers immediately from
    // the persisted epochs (d2 may not be replayed yet).
    let cold = ShardedEngine::open_from_store(&stem, true, RerankPolicy::EveryBatch).unwrap();
    assert_eq!(cold.engine().n_shards(), N_SHARDS);
    let first_page = cold.engine().query(&"k=25".parse().unwrap(), None).unwrap();
    assert_eq!(first_page.items.len(), 25);
    assert!(first_page.shards_scanned == N_SHARDS);

    // After warmup, the WAL-only batch is back.
    let (eng, reports) = cold.wait();
    assert_eq!(reports.len(), N_SHARDS);
    assert_eq!(
        reports.iter().map(|r| r.replayed).sum::<usize>(),
        1,
        "exactly the tail's un-persisted batch replays"
    );
    assert_eq!(reports.iter().map(|r| r.rejected).sum::<usize>(), 0);
    assert_eq!(eng.snapshots().n_papers(), want_key_papers);
    assert_eq!(eng.top_k(25).unwrap(), want_top);

    // The restored engine keeps ingesting durably under global ids.
    let mut d3 = GraphDelta::new();
    d3.add_paper(current_year + 3);
    d3.add_citation((n0 + 2) as PaperId, 0); // cross-shard: absorbed
    let report = eng.ingest(&d3).unwrap();
    assert_eq!(report.boundary_edges, 1);
    assert_eq!(eng.snapshots().n_papers(), want_key_papers + 1);

    cleanup(&stem);
}

#[test]
fn cold_start_without_manifest_is_a_typed_error() {
    let stem = temp_stem("nomanifest");
    cleanup(&stem);

    // An unsharded snapshot parked at the shard-0 path must be refused:
    // it carries no plan to open the remaining shards from.
    let net = generate(&DatasetProfile::dblp().scaled(200), 3);
    let flat = rankengine::RankingEngine::from_config(net, "cc", RerankPolicy::EveryBatch).unwrap();
    flat.persist_epoch(ShardedEngine::shard_store_path(&stem, 0))
        .unwrap();
    let err = ShardedEngine::open_from_store(&stem, false, RerankPolicy::EveryBatch)
        .err()
        .expect("manifest-less snapshot rejected");
    assert!(
        err.to_string().contains("manifest"),
        "unexpected error: {err}"
    );
    cleanup(&stem);
}
