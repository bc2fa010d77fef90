//! No serving path builds the citers transpose: AttRank pushes along
//! reference lists and CC reads the carried in-degrees, so a network an
//! engine holds — built, grown by a publish, extracted into a shard or
//! loaded at a restart — never holds the second adjacency. A flat
//! `attrank,cc,pagerank` stack and a 4-shard stack serve every page shape,
//! ingest, persist and restart, and every network they held is checked.

use std::path::PathBuf;
use std::sync::Arc;

use citegen::{generate, publish_delta, DatasetProfile};
use citegraph::{CitationNetwork, ShardSpec};
use rankengine::{Query, QueryEngine, RankingEngine, RerankPolicy, ShardedEngine};

const METHODS: [&str; 3] = ["attrank", "cc", "pagerank"];
const N_SHARDS: usize = 4;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("rankengine_lazy_citers_tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_unbuilt(nets: &[Arc<CitationNetwork>], at: &str) {
    for (i, net) in nets.iter().enumerate() {
        assert!(!net.citers_built(), "{at}: network {i} built its transpose");
    }
}

/// The unfiltered, cursor, year, venue, author and seeded shapes.
fn shapes(net: &CitationNetwork) -> Vec<Query> {
    let mid = net.years()[net.n_papers() / 2];
    [
        "k=10".to_string(),
        format!("k=10,year={mid}.."),
        "k=10,venue=0".to_string(),
        "k=10,author=0".to_string(),
        "k=10,seed=0|1|2".to_string(),
        "k=10,venue=0|1,year=2000..".to_string(),
    ]
    .iter()
    .map(|g| g.parse().unwrap())
    .collect()
}

fn flat_networks(qe: &QueryEngine) -> Vec<Arc<CitationNetwork>> {
    METHODS
        .iter()
        .map(|m| qe.snapshot(Some(m)).unwrap().network().clone())
        .collect()
}

fn sharded_networks(se: &ShardedEngine) -> Vec<Arc<CitationNetwork>> {
    let snaps = se.snapshots();
    (0..snaps.n_shards())
        .map(|s| snaps.snapshot(s).network().clone())
        .collect()
}

fn serve_flat(qe: &QueryEngine, net: &CitationNetwork) {
    let mut queries = shapes(net);
    for method in METHODS {
        for q in &queries {
            let mut q = q.clone();
            if method == "cc" && !q.seeds.is_empty() {
                continue;
            }
            q.method = Some(method.to_string());
            let page = qe.query(&q).unwrap();
            if let Some(next) = page.next {
                q.cursor = Some(next);
                qe.query(&q).unwrap();
            }
        }
    }
    let mut compare: Query = "k=10,vs=cc".parse().unwrap();
    qe.compare(&compare).unwrap();
    compare.method = Some("pagerank".into());
    qe.compare(&compare).unwrap();
    queries.push("k=10,method=pagerank,seed=3|4".parse().unwrap());
    for page in qe.query_batch(&queries) {
        page.unwrap();
    }
}

fn serve_sharded(se: &ShardedEngine, vs: &ShardedEngine, net: &CitationNetwork) {
    let queries = shapes(net);
    for q in &queries {
        let page = se.query(q, None).unwrap();
        if let Some(next) = page.next {
            se.query(q, Some(&next)).unwrap();
        }
        se.compare(vs, q, None).unwrap();
    }
    let batch: Vec<_> = queries.into_iter().map(|q| (q, None)).collect();
    for page in se.query_batch(&batch) {
        page.unwrap();
    }
}

#[test]
fn a_flat_stack_never_builds_the_transpose() {
    let dir = temp_dir("flat");
    let net = generate(&DatasetProfile::dblp().scaled(1_500), 7);
    let qe = QueryEngine::from_configs(net.clone(), &METHODS, RerankPolicy::EveryBatch).unwrap();
    let store = |m: &str| dir.join(format!("{m}.store"));
    let wal = |m: &str| dir.join(format!("{m}.wal"));
    for m in METHODS {
        qe.engine(Some(m)).unwrap().attach_wal(wal(m)).unwrap();
    }
    let mut held = flat_networks(&qe);
    serve_flat(&qe, &net);

    let mut grown = net;
    for seed in 0..2 {
        let delta = publish_delta(&grown, 60, 4, seed);
        qe.ingest(&delta).unwrap();
        grown = grown.with_delta(&delta).unwrap();
        held.extend(flat_networks(&qe));
        serve_flat(&qe, &grown);
    }
    assert_unbuilt(&held, "serving");

    for m in METHODS {
        qe.engine(Some(m)).unwrap().persist_epoch(store(m)).unwrap();
    }
    // One batch lives only in the logs, so the restart replays it.
    qe.ingest(&publish_delta(&grown, 60, 4, 9)).unwrap();
    held.extend(flat_networks(&qe));
    drop(qe);
    for m in METHODS {
        let cold = RankingEngine::open_from_store(store(m), Some(wal(m)), RerankPolicy::EveryBatch)
            .unwrap();
        held.push(cold.engine().snapshot().network().clone());
        let (engine, report) = cold.wait();
        assert_eq!(report.replayed, 1, "{m}");
        let snap = engine.snapshot();
        assert_eq!(snap.top_k(10).len(), 10);
        held.push(snap.network().clone());
    }
    assert_unbuilt(&held, "restart");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_sharded_stack_never_builds_the_transpose() {
    let dir = temp_dir("sharded");
    let stem = dir.join("stack");
    let net = generate(&DatasetProfile::dblp().scaled(1_500), 7);
    let plan = ShardSpec::Fixed(N_SHARDS).plan(&net).unwrap();
    let se = ShardedEngine::from_plan(&net, &plan, "attrank", RerankPolicy::EveryBatch).unwrap();
    let vs = ShardedEngine::from_plan(&net, &plan, "cc", RerankPolicy::EveryBatch).unwrap();
    se.attach_wals(&stem).unwrap();
    let mut held = sharded_networks(&se);
    held.extend(sharded_networks(&vs));
    serve_sharded(&se, &vs, &net);

    let delta = publish_delta(&net, 60, 4, 1);
    se.ingest(&delta).unwrap();
    vs.ingest(&delta).unwrap();
    let grown = net.with_delta(&delta).unwrap();
    held.extend(sharded_networks(&se));
    held.extend(sharded_networks(&vs));
    serve_sharded(&se, &vs, &grown);
    assert_unbuilt(&held, "serving");

    se.persist_epochs(&stem).unwrap();
    se.ingest(&publish_delta(&grown, 60, 4, 2)).unwrap();
    held.extend(sharded_networks(&se));
    drop(se);
    let cold = ShardedEngine::open_from_store(&stem, true, RerankPolicy::EveryBatch).unwrap();
    held.extend(sharded_networks(cold.engine()));
    cold.engine().query(&Query::default(), None).unwrap();
    let (engine, reports) = cold.wait();
    assert_eq!(reports.iter().map(|r| r.replayed).sum::<usize>(), 1);
    held.extend(sharded_networks(&engine));
    assert_unbuilt(&held, "restart");
    std::fs::remove_dir_all(&dir).ok();
}
