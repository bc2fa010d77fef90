//! Exposition self-check: a scripted serving workload over a flat +
//! sharded stack sharing one registry must render Prometheus text that
//! passes the in-repo validator (`obsv::validate`) and covers every
//! registered family, with the scripted events visible in the counters.

use std::path::PathBuf;

use citegen::{generate, DatasetProfile};
use citegraph::{GraphDelta, ShardSpec};
use rankengine::{
    AdmissionPolicy, PushStateRestore, Query, QueryEngine, QueryError, RerankPolicy, ShardedEngine,
};

fn temp_wal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rankengine_metrics_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Every family the two stacks register, flat then sharded.
const FAMILIES: [&str; 55] = [
    "attrank_query_seconds",
    "attrank_planner_decisions_total",
    "attrank_cursor_errors_total",
    "attrank_select_blocks_total",
    "attrank_select_heads_total",
    "attrank_cache_outcomes_total",
    "attrank_cache_entries",
    "attrank_cache_bytes",
    "attrank_admission_decisions_total",
    "attrank_admission_inflight_cost_ns",
    "attrank_epoch",
    "attrank_staged_batches",
    "attrank_staged_edges",
    "attrank_wal_replay_depth",
    "attrank_publish_seconds",
    "attrank_apply_seconds",
    "attrank_successor_networks_total",
    "attrank_solve_seconds",
    "attrank_freeze_seconds",
    "attrank_push_pushes",
    "attrank_push_edge_work",
    "attrank_push_edge_budget",
    "attrank_push_fallbacks_total",
    "attrank_push_state_restore_total",
    "attrank_wal_append_seconds",
    "attrank_wal_fsync_seconds",
    "attrank_sharded_query_seconds",
    "attrank_sharded_select_blocks_total",
    "attrank_sharded_select_heads_total",
    "attrank_sharded_cache_outcomes_total",
    "attrank_sharded_cache_entries",
    "attrank_sharded_cache_bytes",
    "attrank_sharded_admission_decisions_total",
    "attrank_sharded_admission_inflight_cost_ns",
    "attrank_sharded_planner_decisions_total",
    "attrank_sharded_cursor_errors_total",
    "attrank_sharded_plan_cache_events_total",
    "attrank_sharded_plan_cache_entries",
    "attrank_sharded_epoch",
    "attrank_sharded_staged_batches",
    "attrank_sharded_staged_edges",
    "attrank_sharded_wal_replay_depth",
    "attrank_sharded_publish_seconds",
    "attrank_sharded_apply_seconds",
    "attrank_sharded_successor_networks_total",
    "attrank_sharded_solve_seconds",
    "attrank_sharded_freeze_seconds",
    "attrank_sharded_push_pushes",
    "attrank_sharded_push_edge_work",
    "attrank_sharded_push_edge_budget",
    "attrank_sharded_push_fallbacks_total",
    "attrank_sharded_push_state_restore_total",
    "attrank_sharded_wal_append_seconds",
    "attrank_sharded_wal_fsync_seconds",
    "attrank_shard_boundary_edges",
];

#[test]
fn scripted_workload_renders_valid_exposition() {
    let net = generate(&DatasetProfile::dblp().scaled(1_500), 7);
    let mut qe =
        QueryEngine::from_configs(net.clone(), &["attrank", "cc"], RerankPolicy::EveryBatch)
            .unwrap();
    let registry = qe.enable_metrics();
    qe.set_admission(AdmissionPolicy::default());
    let wal_path = temp_wal("expo");
    qe.engine(None).unwrap().attach_wal(&wal_path).unwrap();

    // A growth batch citing old papers: WAL appends + one publish per
    // method.
    let n0 = net.n_papers() as u32;
    let mut delta = GraphDelta::new();
    for j in 0..4u32 {
        delta.add_paper(2021);
        delta.add_citation(n0 + j, j);
    }
    qe.ingest(&delta).unwrap();

    // One query per plan driver family, plus a seeded solve and a page
    // deeper than a head, which is walked.
    let mid = net.years()[net.n_papers() / 2];
    let deep = format!("k={}", sparsela::HEAD_LEN + 1);
    for g in [
        deep.clone(),
        "k=5".to_string(),
        format!("k=5,year={mid}.."),
        "k=5,venue=0".to_string(),
        "k=5,author=0".to_string(),
        "k=5,method=attrank,seed=0|1".to_string(),
    ] {
        let q: Query = g.parse().unwrap();
        qe.query(&q).unwrap();
    }

    // A cursor stranded by the next publish: a counted stale error.
    let year_q: Query = format!("k=5,year={mid}..").parse().unwrap();
    let page = qe.query(&year_q).unwrap();
    let cursor = page.next.expect("broad year range paginates");
    qe.rerank();
    let mut stale_q = year_q.clone();
    stale_q.cursor = Some(cursor);
    assert!(matches!(
        qe.query(&stale_q),
        Err(QueryError::StaleCursor { .. })
    ));

    // A wide page k-clamps under a 5 µs ceiling...
    qe.set_admission(AdmissionPolicy {
        max_query_cost_ns: 5_000.0,
        degraded_k: 1,
        ..AdmissionPolicy::default()
    });
    let wide: Query = format!("k=400,year={mid}..").parse().unwrap();
    let clamped = qe.query(&wide).unwrap();
    assert!(
        clamped.items.len() <= 1,
        "expected a k-clamp to 1, got {} items",
        clamped.items.len()
    );
    // ...capture this controller before the swap (render refresh is a
    // monotone fetch_max), then shed outright under a 50 ns ceiling.
    let _ = qe.render_metrics();
    qe.set_admission(AdmissionPolicy {
        max_query_cost_ns: 50.0,
        degraded_k: 1,
        ..AdmissionPolicy::default()
    });
    assert!(matches!(
        qe.query(&wide),
        Err(QueryError::Overloaded { .. })
    ));

    // The sharded stack on the same registry: a boundary-absorbing
    // ingest and one query per shape.
    let plan = ShardSpec::Fixed(3).plan(&net).unwrap();
    let mut sh =
        ShardedEngine::from_plan(&net, &plan, "attrank", RerankPolicy::EveryBatch).unwrap();
    sh.enable_metrics_on(registry.clone());
    sh.set_admission(AdmissionPolicy::default());
    sh.ingest(&delta).unwrap();
    for g in [
        deep,
        "k=5".to_string(),
        format!("k=5,year={mid}.."),
        "k=5,venue=0".to_string(),
        "k=5,seed=0|1".to_string(),
    ] {
        let q: Query = g.parse().unwrap();
        sh.query(&q, None).unwrap();
    }

    // Refresh both stacks' sampled families, then render once.
    let _ = sh.render_metrics();
    let text = qe.render_metrics().unwrap();
    let _ = std::fs::remove_file(&wal_path);

    obsv::validate::validate(&text)
        .unwrap_or_else(|e| panic!("exposition failed self-validation: {e}\n{text}"));
    for family in FAMILIES {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "family {family} missing from the exposition"
        );
    }

    // The scripted events are visible in the rendered counters.
    assert!(text.contains("attrank_cursor_errors_total{kind=\"stale\"} 1"));
    assert!(text.contains("attrank_admission_decisions_total{decision=\"k_clamped\"} 1"));
    assert!(text.contains("attrank_admission_decisions_total{decision=\"shed\"} 1"));
    assert!(text.contains("attrank_cache_outcomes_total{outcome=\"cold_push\"} 1"));
    // One ingest over two methods: the first built the successor network,
    // the second adopted it; each timed its apply step once.
    assert!(text.contains("attrank_successor_networks_total{outcome=\"built\"} 1"));
    assert!(text.contains("attrank_successor_networks_total{outcome=\"shared\"} 1"));
    assert!(text.contains("attrank_apply_seconds_count{method=\"cc\"} 1"));
    // Every publish that kept its scores froze them once: the freeze
    // count is the publish count.
    let count = |series: &str| {
        let line = text.lines().find(|l| l.starts_with(series));
        line.and_then(|l| l.rsplit(' ').next())
            .unwrap_or_else(|| panic!("{series} missing from the exposition"))
    };
    for method in ["attrank", "cc"] {
        let publishes = count(&format!(
            "attrank_publish_seconds_count{{method=\"{method}\"}}"
        ));
        assert_ne!(publishes, "0");
        assert_eq!(
            count(&format!(
                "attrank_freeze_seconds_count{{method=\"{method}\"}}"
            )),
            publishes
        );
    }
    // That ingest was each method's only publish with a staged delta:
    // attrank pushed it from the state its full solves keep, cc has no
    // push. The `rerank()` further up had nothing staged, so it is a full
    // solve but not a fallback.
    assert!(text.contains("attrank_push_fallbacks_total{method=\"attrank\"} 0"));
    assert!(text.contains("attrank_push_fallbacks_total{method=\"cc\"} 1"));
    // The deep page walked its range by blocks, and the shallow
    // unfiltered, year-window and venue pages were slices of heads, which
    // skip every block and build each head on first use — on both
    // stacks.
    let counter = |series: &str| -> u64 {
        let line = text.lines().find(|l| l.starts_with(series));
        let value = line.and_then(|l| l.rsplit(' ').next()?.parse().ok());
        value.unwrap_or_else(|| panic!("{series} missing from the exposition"))
    };
    for family in [
        "attrank_select_blocks_total",
        "attrank_sharded_select_blocks_total",
    ] {
        assert!(
            counter(&format!("{family}{{outcome=\"scanned\"}}")) > 0,
            "{family}"
        );
        assert!(
            counter(&format!("{family}{{outcome=\"skipped\"}}")) > 0,
            "{family}"
        );
    }
    for family in [
        "attrank_select_heads_total",
        "attrank_sharded_select_heads_total",
    ] {
        for outcome in ["slice", "build"] {
            let series = format!("{family}{{outcome=\"{outcome}\"}}");
            assert!(counter(&series) > 0, "{series}");
        }
    }
    // Boundary edges from the 3-way partition land on their shards.
    assert!(sh.boundary_edges() > 0);
    let by_shard = sh.boundary_edges_by_shard();
    assert_eq!(by_shard.iter().sum::<usize>(), sh.boundary_edges());
    assert!(by_shard.iter().any(|&n| n > 0));
}

#[test]
fn the_sharded_write_path_renders_per_shard() {
    // Every shard engine records into the `attrank_sharded_*` write-path
    // families under its `shard` label: a routed ingest publishes the
    // tail, and its publish, epoch and push work show there.
    let net = generate(&DatasetProfile::dblp().scaled(1_500), 11);
    let plan = ShardSpec::Fixed(3).plan(&net).unwrap();
    let mut sh =
        ShardedEngine::from_plan(&net, &plan, "attrank", RerankPolicy::EveryBatch).unwrap();
    sh.enable_metrics();
    let n0 = net.n_papers() as u32;
    let mut delta = GraphDelta::new();
    delta.add_paper(2021);
    delta.add_citation(n0, n0 - 1);
    let report = sh.ingest(&delta).unwrap();
    assert!(report.report.published);
    let tail = report.shard;
    // One unfiltered query: a planner decision per shard plan.
    sh.query(&Query::default(), None).unwrap();

    let text = sh.render_metrics().unwrap();
    obsv::validate::validate(&text)
        .unwrap_or_else(|e| panic!("exposition failed self-validation: {e}\n{text}"));
    let sample = |series: &str| -> f64 {
        let line = text.lines().find(|l| l.starts_with(series));
        let value = line.and_then(|l| l.rsplit(' ').next()?.parse().ok());
        value.unwrap_or_else(|| panic!("{series} missing from the exposition\n{text}"))
    };
    let shard = |family: &str, s: usize| format!("{family}{{shard=\"{s}\"}}");
    assert!(sample(&shard("attrank_sharded_publish_seconds_count", tail)) >= 1.0);
    assert_eq!(
        sample(&shard("attrank_sharded_freeze_seconds_count", tail)),
        sample(&shard("attrank_sharded_publish_seconds_count", tail))
    );
    let tail_epoch = sh.shard_engines()[tail].snapshot().epoch();
    assert_eq!(
        sample(&shard("attrank_sharded_epoch", tail)),
        tail_epoch as f64
    );
    for s in 0..sh.n_shards() {
        sample(&shard("attrank_sharded_push_edge_work", s));
    }
    let decisions: f64 = ["unfiltered", "id_range"]
        .iter()
        .map(|d| {
            sample(&format!(
                "attrank_sharded_planner_decisions_total{{driver=\"{d}\"}}"
            ))
        })
        .sum();
    assert_eq!(decisions, sh.n_shards() as f64);
}

/// Byte offset of the first payload byte of the store section tagged
/// `tag` (the store's framing: a 16-byte header, then sections of a
/// 32-byte header and a payload padded to 8 bytes).
fn payload_offset(bytes: &[u8], tag: u32) -> Option<usize> {
    let mut offset = 16;
    while offset + 32 <= bytes.len() {
        let t = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[offset + 8..offset + 16].try_into().unwrap()) as usize;
        if t == tag {
            return Some(offset + 32);
        }
        offset += 32 + len;
        offset += (8 - offset % 8) % 8;
    }
    None
}

#[test]
fn a_corrupt_push_state_is_counted_on_restore() {
    // A 3-shard AttRank engine whose tail has pushed: every shard's store
    // holds a push state (epoch 0's full solve keeps one). One byte of the
    // tail's `PUSH_STATE` section (tag 16) flipped, the cold start counts
    // it `corrupt`, and the other shards `restored`.
    let net = generate(&DatasetProfile::dblp().scaled(1_500), 11);
    let plan = ShardSpec::Fixed(3).plan(&net).unwrap();
    let live = ShardedEngine::from_plan(&net, &plan, "attrank", RerankPolicy::EveryBatch).unwrap();
    let n0 = net.n_papers() as u32;
    for round in 0..2 {
        let mut delta = GraphDelta::new();
        delta.add_paper(2021);
        delta.add_citation(n0 + round, n0 - 1);
        live.ingest(&delta).unwrap();
    }
    let dir =
        std::env::temp_dir().join(format!("rankengine_metrics_restore-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stem = dir.join("e");
    live.persist_epochs(&stem).unwrap();
    let tail = ShardedEngine::shard_store_path(&stem, 2);
    let mut bytes = std::fs::read(&tail).unwrap();
    let at = payload_offset(&bytes, 16).expect("the tail persisted its push state") + 8;
    bytes[at] ^= 0x01;
    std::fs::write(&tail, &bytes).unwrap();

    let (mut sh, reports) = ShardedEngine::open_from_store(&stem, false, RerankPolicy::EveryBatch)
        .unwrap()
        .wait();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(reports[2].push_state, PushStateRestore::Corrupt);
    sh.enable_metrics();
    let text = sh.render_metrics().unwrap();
    obsv::validate::validate(&text)
        .unwrap_or_else(|e| panic!("exposition failed self-validation: {e}\n{text}"));
    for (outcome, count) in [("restored", 2), ("absent", 0), ("corrupt", 1)] {
        let series =
            format!("attrank_sharded_push_state_restore_total{{outcome=\"{outcome}\"}} {count}");
        assert!(text.lines().any(|l| l == series), "{series} not in\n{text}");
    }
}
