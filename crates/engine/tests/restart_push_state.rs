//! Restart is a replay of pushes: an engine restored from its store and
//! replaying the log ends **bit for bit** where the live engine it was
//! persisted from stands, and every replayed publish is a push — at every
//! persist point (after pushes, with batches staged, straight after a
//! restore, after a full solve: epoch 0 or a rerank), flat and with 4
//! shards. Where the store holds no usable push state (a legacy store —
//! without the section, or with the retired resolved one — or a corrupted
//! one) the report says so and the replay still ends ≤ 1e-9 from scratch.
//!
//! The snapshot owns its kernel, and a restored push state resolves the
//! same kernel from its lane, so seeded pages replay bit for bit too: a
//! cold seeded solve over the restored epoch equals the live engine's,
//! flat and in the tail of 4 shards. An epoch restored without a push state builds
//! its kernel cold, and its seeded pages are pinned to ≤ 1e-9 only (by
//! `personalized_serving` and `cone_form`). PageRank keeps no push state:
//! its kernel is its scores over `1−α`, so its restart replays bit for
//! bit from the persisted scores alone.

use std::path::{Path, PathBuf};

use citegen::{generate, DatasetProfile};
use citegraph::{CitationNetwork, GraphDelta, PaperId, SeedPersonalization, ShardSpec};
use graphstore::{Store, StoreBuilder, StoreError};
use rankengine::{
    CacheConfig, PersonalizationCache, PushStateRestore, Query, RankingEngine, RerankPolicy,
    RerankStrategy, ShardedEngine, WarmupReport,
};

const SPEC: &str = "attrank:alpha=0.2,beta=0.4,y=3,w=-0.16";
/// `SPEC`'s damping factor.
const ALPHA: f64 = 0.2;
const N: usize = 600;
const N_SHARDS: usize = 4;

/// A fresh, empty directory for one test.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("rankengine_restart_push_state_tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_net() -> CitationNetwork {
    generate(&DatasetProfile::hepth().scaled(N), 11)
}

/// One new current-year paper citing `k` papers of `lo..n` (global ids),
/// `n` being the corpus size the batch lands on.
fn batch(net: &CitationNetwork, n: usize, lo: usize, k: usize) -> GraphDelta {
    let mut d = GraphDelta::new();
    d.add_paper(net.current_year().unwrap());
    for i in 0..k {
        d.add_citation(n as PaperId, (lo + i * 37 % (n - lo)) as PaperId);
    }
    d
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asserts `got` and `want` are equal, reporting how many entries differ.
fn assert_same<T: PartialEq + std::fmt::Debug>(got: &[T], want: &[T]) {
    assert_eq!(got.len(), want.len());
    let differ = got.iter().zip(want).filter(|(g, w)| g != w).count();
    assert_eq!(differ, 0, "{differ} of {} entries differ", want.len());
}

fn copy_into(files: &[PathBuf], dir: &Path) {
    std::fs::create_dir_all(dir).unwrap();
    for f in files {
        std::fs::copy(f, dir.join(f.file_name().unwrap())).unwrap();
    }
}

fn reopen(dir: &Path, policy: RerankPolicy) -> (std::sync::Arc<RankingEngine>, WarmupReport) {
    RankingEngine::open_from_store(dir.join("e.store"), Some(dir.join("e.wal")), policy)
        .unwrap()
        .wait()
}

fn assert_scratch_close(engine: &RankingEngine) {
    let snap = engine.snapshot();
    let net = snap.network().as_ref().clone();
    let scratch = RankingEngine::from_config(net, SPEC, RerankPolicy::Manual).unwrap();
    let diff = snap
        .scores()
        .iter()
        .zip(scratch.snapshot().scores().iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(diff <= 1e-9, "replay ended {diff:e} from scratch");
}

/// A live engine that has published once by delta, with its log at
/// `dir/e.wal`.
fn live_engine(dir: &Path, policy: RerankPolicy) -> (RankingEngine, CitationNetwork) {
    let net = base_net();
    let engine = RankingEngine::from_config(net.clone(), SPEC, policy).unwrap();
    engine.attach_wal(dir.join("e.wal")).unwrap();
    engine.ingest(&batch(&net, N, 0, 6)).unwrap();
    if engine.pending() != (0, 0) {
        engine.rerank();
    }
    (engine, net)
}

#[test]
fn every_batch_restart_replays_pushes_bit_for_bit() {
    let dir = temp_dir("everybatch");
    let (live, net) = live_engine(&dir, RerankPolicy::EveryBatch);
    let epoch = live.persist_epoch(dir.join("e.store")).unwrap();
    let files = [dir.join("e.store"), dir.join("e.wal")];

    // One restart fixture per log length, so the t-th replayed publish is
    // the last publish of fixture t.
    let mut want = Vec::new();
    for t in 1..=4 {
        live.ingest(&batch(&net, N + t, N / 2, 4 + t)).unwrap();
        want.push(live.snapshot());
        copy_into(&files, &dir.join(format!("t{t}")));
    }
    for (t, want) in (1..=4).zip(want) {
        let (engine, report) = reopen(&dir.join(format!("t{t}")), RerankPolicy::EveryBatch);
        assert_eq!(report.push_state, PushStateRestore::Restored);
        assert_eq!((report.replayed, report.rejected), (t, 0));
        assert_eq!(report.final_epoch, epoch + t as u64);
        let snap = engine.snapshot();
        assert!(
            matches!(snap.strategy(), RerankStrategy::Push { .. }),
            "replayed publish {t}: {:?}",
            snap.strategy()
        );
        assert_eq!(snap.strategy(), want.strategy(), "replayed publish {t}");
        assert_eq!(
            bits(snap.scores().as_slice()),
            bits(want.scores().as_slice())
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A cold seeded solve of `seeds` through `cache` over `engine`'s epoch.
fn seeded_bits(
    cache: &PersonalizationCache,
    engine: &RankingEngine,
    seeds: &[PaperId],
) -> Vec<u64> {
    let snap = engine.snapshot();
    let seed = SeedPersonalization::uniform(seeds, snap.n_papers()).unwrap();
    bits(&cache.scores(engine.method(), &snap, &seed, ALPHA).0)
}

#[test]
fn a_restored_push_state_serves_seeded_solves_bit_for_bit() {
    let dir = temp_dir("seeded");
    let (live, net) = live_engine(&dir, RerankPolicy::EveryBatch);
    // The live cache serves one seed set at every epoch; three more delta
    // publishes land after the first.
    let cache = PersonalizationCache::new(CacheConfig::default());
    let kept = [5, (N / 2) as PaperId];
    seeded_bits(&cache, &live, &kept);
    for t in 1..=2 {
        live.ingest(&batch(&net, N + t, N / 2, 4 + t)).unwrap();
        seeded_bits(&cache, &live, &kept);
    }
    live.persist_epoch(dir.join("e.store")).unwrap();
    copy_into(&[dir.join("e.store"), dir.join("e.wal")], &dir.join("copy"));

    let (engine, report) = reopen(&dir.join("copy"), RerankPolicy::EveryBatch);
    assert_eq!(report.push_state, PushStateRestore::Restored);
    assert_eq!(engine.snapshot().epoch(), live.snapshot().epoch());
    // A seed set neither side has solved: both solves run cold, over the
    // live epoch's kernel and over the restored one's.
    let fresh = [11, (N - 40) as PaperId, (N - 3) as PaperId];
    let restored = PersonalizationCache::new(CacheConfig::default());
    assert_same(
        &seeded_bits(&restored, &engine, &fresh),
        &seeded_bits(&cache, &live, &fresh),
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_pagerank_restart_replays_its_pushes_bit_for_bit() {
    let dir = temp_dir("pagerank");
    let net = base_net();
    let live = RankingEngine::from_config(net.clone(), "pagerank:d=0.5", RerankPolicy::EveryBatch)
        .unwrap();
    live.attach_wal(dir.join("e.wal")).unwrap();
    live.ingest(&batch(&net, N, 0, 6)).unwrap();
    let epoch = live.persist_epoch(dir.join("e.store")).unwrap();
    for t in 1..=3 {
        live.ingest(&batch(&net, N + t, N / 2, 4 + t)).unwrap();
    }
    copy_into(&[dir.join("e.store"), dir.join("e.wal")], &dir.join("copy"));

    let (engine, report) = reopen(&dir.join("copy"), RerankPolicy::EveryBatch);
    assert_eq!(report.push_state, PushStateRestore::Absent);
    assert_eq!((report.replayed, report.rejected), (3, 0));
    assert_eq!(report.final_epoch, epoch + 3);
    let (snap, want) = (engine.snapshot(), live.snapshot());
    assert!(matches!(snap.strategy(), RerankStrategy::Push { .. }));
    assert_eq!(snap.strategy(), want.strategy());
    assert_eq!(
        bits(snap.scores().as_slice()),
        bits(want.scores().as_slice())
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manual_persist_with_staged_batches_replays_them_as_one_push() {
    let dir = temp_dir("manual");
    let (live, net) = live_engine(&dir, RerankPolicy::Manual);
    // Two batches staged at persist time: the push state belongs to the
    // published network, and the staged batches are the replay set.
    live.ingest(&batch(&net, N + 1, N / 2, 5)).unwrap();
    live.ingest(&batch(&net, N + 2, N / 2, 7)).unwrap();
    live.persist_epoch(dir.join("e.store")).unwrap();
    live.ingest(&batch(&net, N + 3, N / 3, 3)).unwrap();
    copy_into(&[dir.join("e.store"), dir.join("e.wal")], &dir.join("copy"));
    live.rerank();
    let want = live.snapshot();
    assert!(matches!(want.strategy(), RerankStrategy::Push { .. }));

    let (engine, report) = reopen(&dir.join("copy"), RerankPolicy::Manual);
    assert_eq!(report.push_state, PushStateRestore::Restored);
    assert_eq!(report.replayed, 3);
    let snap = engine.snapshot();
    assert_eq!(snap.strategy(), want.strategy());
    assert_eq!(
        bits(snap.scores().as_slice()),
        bits(want.scores().as_slice())
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn first_live_ingest_after_an_empty_restart_pushes() {
    let dir = temp_dir("emptytail");
    let (live, net) = live_engine(&dir, RerankPolicy::EveryBatch);
    let epoch = live.persist_epoch(dir.join("e.store")).unwrap();
    copy_into(&[dir.join("e.store"), dir.join("e.wal")], &dir.join("copy"));

    // Nothing to replay: no solve runs, the restored epoch stays served.
    let (engine, report) = reopen(&dir.join("copy"), RerankPolicy::EveryBatch);
    assert_eq!(report.push_state, PushStateRestore::Restored);
    assert_eq!((report.replayed, report.final_epoch), (0, epoch));
    assert_eq!(engine.snapshot().strategy(), RerankStrategy::Restored);

    let d = batch(&net, N + 1, N / 2, 5);
    live.ingest(&d).unwrap();
    engine.ingest(&d).unwrap();
    let (snap, want) = (engine.snapshot(), live.snapshot());
    assert!(
        matches!(snap.strategy(), RerankStrategy::Push { .. }),
        "{:?}",
        snap.strategy()
    );
    assert_eq!(
        bits(snap.scores().as_slice()),
        bits(want.scores().as_slice())
    );
    assert_scratch_close(&engine);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repersist_straight_after_a_restore_keeps_the_push_state() {
    let dir = temp_dir("repersist");
    let (live, net) = live_engine(&dir, RerankPolicy::EveryBatch);
    let epoch = live.persist_epoch(dir.join("e.store")).unwrap();
    copy_into(&[dir.join("e.store"), dir.join("e.wal")], &dir.join("r"));

    // Restore with nothing replayed, persist again at once, then log two
    // batches — which the live engine ingests too.
    let (restored, report) = reopen(&dir.join("r"), RerankPolicy::EveryBatch);
    assert_eq!(report.push_state, PushStateRestore::Restored);
    assert_eq!(
        restored.persist_epoch(dir.join("r/e.store")).unwrap(),
        epoch
    );
    for t in 1..=2 {
        let d = batch(&net, N + t, N / 2, 4 + t);
        live.ingest(&d).unwrap();
        restored.ingest(&d).unwrap();
    }
    drop(restored);

    let (engine, report) = reopen(&dir.join("r"), RerankPolicy::EveryBatch);
    assert_eq!(report.push_state, PushStateRestore::Restored);
    assert_eq!(report.replayed, 2);
    let (snap, want) = (engine.snapshot(), live.snapshot());
    assert!(matches!(snap.strategy(), RerankStrategy::Push { .. }));
    assert_eq!(
        bits(snap.scores().as_slice()),
        bits(want.scores().as_slice())
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_full_solve_epoch_persists_its_push_state() {
    // Epoch 0, and a rerank with nothing staged: each is a full solve,
    // whose push state is kept like a push's.
    for rerank in [false, true] {
        let dir = temp_dir(if rerank { "rerank" } else { "epoch0" });
        let net = base_net();
        let live = RankingEngine::from_config(net.clone(), SPEC, RerankPolicy::EveryBatch).unwrap();
        live.attach_wal(dir.join("e.wal")).unwrap();
        if rerank {
            live.ingest(&batch(&net, N, 0, 6)).unwrap();
            live.rerank();
            assert_eq!(live.snapshot().strategy(), RerankStrategy::Full);
        } else {
            assert_eq!(live.snapshot().strategy(), RerankStrategy::Initial);
        }
        let base = live.snapshot().n_papers();
        let epoch = live.persist_epoch(dir.join("e.store")).unwrap();
        for t in 0..2 {
            live.ingest(&batch(&net, base + t, N / 2, 5)).unwrap();
        }
        copy_into(&[dir.join("e.store"), dir.join("e.wal")], &dir.join("copy"));

        let store = Store::open(dir.join("copy/e.store")).unwrap();
        assert_eq!(store.epochs()[0].epoch, epoch);
        assert!(
            store.push_state(epoch).unwrap().is_some(),
            "rerank {rerank}"
        );
        drop(store);
        let (engine, report) = reopen(&dir.join("copy"), RerankPolicy::EveryBatch);
        assert_eq!(report.push_state, PushStateRestore::Restored);
        assert_eq!(report.replayed, 2);
        let (snap, want) = (engine.snapshot(), live.snapshot());
        assert!(matches!(snap.strategy(), RerankStrategy::Push { .. }));
        assert_eq!(snap.strategy(), want.strategy());
        assert_eq!(
            bits(snap.scores().as_slice()),
            bits(want.scores().as_slice())
        );
        assert_scratch_close(&engine);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn legacy_store_without_the_section_replays_from_a_full_solve() {
    let dir = temp_dir("legacy");
    let (live, net) = live_engine(&dir, RerankPolicy::EveryBatch);
    live.persist_epoch(dir.join("e.store")).unwrap();
    for t in 1..=2 {
        live.ingest(&batch(&net, N + t, N / 2, 5)).unwrap();
    }
    // What a writer from before the section wrote: network, epoch,
    // watermark.
    let legacy = {
        let store = Store::open(dir.join("e.store")).unwrap();
        let e = store.epochs()[0];
        assert!(store.push_state(e.epoch).unwrap().is_some());
        StoreBuilder::new()
            .network(&store.to_network().unwrap())
            .epoch(e.spec, e.epoch, e.scores)
            .wal_watermark(store.wal_watermark().unwrap())
    };
    std::fs::create_dir_all(dir.join("copy")).unwrap();
    legacy.write_to(dir.join("copy/e.store")).unwrap();
    copy_into(&[dir.join("e.wal")], &dir.join("copy"));

    let (engine, report) = reopen(&dir.join("copy"), RerankPolicy::EveryBatch);
    assert_eq!(report.push_state, PushStateRestore::Absent);
    assert_eq!(report.replayed, 2);
    assert_scratch_close(&engine);
    std::fs::remove_dir_all(&dir).ok();
}

/// `bytes` (a current store image) with one more section — tagged
/// `tag`, holding `values` — re-stamped whole as format v1: version 1 in
/// the header and every section checksummed with byte FNV-1a 64 over its
/// header and payload, as a v1 writer did.
fn with_v1_section(bytes: &[u8], tag: u32, aux: u64, values: &[f64]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let count = u32::from_le_bytes(out[12..16].try_into().unwrap());
    out[12..16].copy_from_slice(&(count + 1).to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&3u32.to_le_bytes()); // f64
    out.extend_from_slice(&(8 * values.len() as u64).to_le_bytes());
    out.extend_from_slice(&aux.to_le_bytes());
    out.extend_from_slice(&[0; 8]);
    out.extend(values.iter().flat_map(|v| v.to_le_bytes()));
    out[8..12].copy_from_slice(&1u32.to_le_bytes());
    let mut offset = 16;
    while offset + 32 <= out.len() {
        let len = u64::from_le_bytes(out[offset + 8..offset + 16].try_into().unwrap()) as usize;
        let payload = &out[offset + 32..offset + 32 + len];
        let checksum =
            graphstore::fnv1a64_with(graphstore::fnv1a64(&out[offset..offset + 24]), payload);
        out[offset + 24..offset + 32].copy_from_slice(&checksum.to_le_bytes());
        offset += 32 + len;
        offset += (8 - offset % 8) % 8;
    }
    out
}

#[test]
fn a_store_with_the_retired_resolved_push_state_replays_from_a_full_solve() {
    let dir = temp_dir("resolved");
    let (live, net) = live_engine(&dir, RerankPolicy::EveryBatch);
    live.persist_epoch(dir.join("e.store")).unwrap();
    let snap = live.snapshot();
    for t in 1..=2 {
        live.ingest(&batch(&net, N + t, N / 2, 5)).unwrap();
    }
    // What a build from before the unresolved lanes wrote: network,
    // epoch, watermark, and the resolved attention component, recency
    // component and kernel under tag 15.
    let legacy = {
        let store = Store::open(dir.join("e.store")).unwrap();
        let e = store.epochs()[0];
        let bytes = StoreBuilder::new()
            .network(&store.to_network().unwrap())
            .epoch(e.spec, e.epoch, e.scores)
            .wal_watermark(store.wal_watermark().unwrap())
            .to_bytes();
        let kernel = snap.kernel(ALPHA);
        let scores = snap.scores().as_slice();
        // β = γ = 0.4: about half the scores each.
        let half = scores.iter().map(|x| x * 0.5);
        let resolved: Vec<f64> = half
            .clone()
            .chain(half)
            .chain(kernel.iter().copied())
            .collect();
        with_v1_section(&bytes, 15, e.epoch, &resolved)
    };
    std::fs::create_dir_all(dir.join("copy")).unwrap();
    std::fs::write(dir.join("copy/e.store"), legacy).unwrap();
    copy_into(&[dir.join("e.wal")], &dir.join("copy"));

    let store = Store::open(dir.join("copy/e.store")).expect("a v1 store with tag 15 opens");
    assert!(store.push_state(snap.epoch()).unwrap().is_none());
    drop(store);
    let (engine, report) = reopen(&dir.join("copy"), RerankPolicy::EveryBatch);
    assert_eq!(report.push_state, PushStateRestore::Absent);
    assert_eq!(report.replayed, 2);
    // The first replayed batch rebuilt the push state; the second pushed.
    assert!(matches!(
        engine.snapshot().strategy(),
        RerankStrategy::Push { .. }
    ));
    assert_scratch_close(&engine);
    std::fs::remove_dir_all(&dir).ok();
}

/// Byte offset of the first payload byte of the section tagged `tag`.
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
fn corrupt_push_state_is_reported_and_not_used() {
    let dir = temp_dir("corrupt");
    let (live, net) = live_engine(&dir, RerankPolicy::EveryBatch);
    live.persist_epoch(dir.join("e.store")).unwrap();
    for t in 1..=2 {
        live.ingest(&batch(&net, N + t, N / 2, 5)).unwrap();
    }
    copy_into(&[dir.join("e.store"), dir.join("e.wal")], &dir.join("copy"));
    let path = dir.join("copy/e.store");
    let mut bytes = std::fs::read(&path).unwrap();
    let at = payload_offset(&bytes, 16).expect("push state persisted") + 8 * N;
    bytes[at] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let store = Store::open(&path).expect("the checksum is deferred past open");
    let epoch = store.epochs()[0].epoch;
    assert!(matches!(
        store.push_state(epoch),
        Err(StoreError::Corrupt(_))
    ));
    drop(store);
    let (engine, report) = reopen(&dir.join("copy"), RerankPolicy::EveryBatch);
    assert_eq!(report.push_state, PushStateRestore::Corrupt);
    assert_eq!(report.replayed, 2);
    assert_scratch_close(&engine);
    std::fs::remove_dir_all(&dir).ok();
}

fn shard_files(stem: &Path) -> Vec<PathBuf> {
    (0..N_SHARDS)
        .flat_map(|s| {
            [
                ShardedEngine::shard_store_path(stem, s),
                ShardedEngine::shard_wal_path(stem, s),
            ]
        })
        .collect()
}

/// A 4-shard engine whose tail has published once by delta, logging to
/// `dir/e.shard<s>.wal`.
fn live_sharded(dir: &Path) -> (ShardedEngine, CitationNetwork, usize) {
    let net = base_net();
    let plan = ShardSpec::Fixed(N_SHARDS).plan(&net).unwrap();
    let eng = ShardedEngine::from_plan(&net, &plan, SPEC, RerankPolicy::EveryBatch).unwrap();
    eng.attach_wals(dir.join("e")).unwrap();
    let tail_start = eng.starts()[N_SHARDS - 1] as usize;
    eng.ingest(&batch(&net, N, tail_start, 6)).unwrap();
    (eng, net, tail_start)
}

fn assert_shards_equal(got: &ShardedEngine, want: &ShardedEngine) {
    for (s, (g, w)) in got
        .shard_engines()
        .iter()
        .zip(want.shard_engines())
        .enumerate()
    {
        let (g, w) = (g.snapshot(), w.snapshot());
        assert_eq!(g.epoch(), w.epoch(), "shard {s}");
        assert_eq!(
            bits(g.scores().as_slice()),
            bits(w.scores().as_slice()),
            "shard {s}"
        );
    }
}

#[test]
fn sharded_restart_replays_tail_pushes_bit_for_bit() {
    let dir = temp_dir("sharded");
    let stem = dir.join("e");
    let (live, net, tail_start) = live_sharded(&dir);
    let epochs = live.persist_epochs(&stem).unwrap();
    let files = shard_files(&stem);

    for t in 1..=4 {
        live.ingest(&batch(&net, N + t, tail_start, 3 + t)).unwrap();
        copy_into(&files, &dir.join(format!("t{t}")));
        let cold = ShardedEngine::open_from_store(
            dir.join(format!("t{t}/e")),
            true,
            RerankPolicy::EveryBatch,
        )
        .unwrap();
        let (engine, reports) = cold.wait();
        for (s, r) in reports.iter().enumerate() {
            let tail = s == N_SHARDS - 1;
            // Every shard's epoch 0 was a full solve, which keeps its push
            // state; only the tail published since.
            assert_eq!(r.push_state, PushStateRestore::Restored, "shard {s}");
            assert_eq!(r.replayed, if tail { t } else { 0 }, "shard {s}");
            if !tail {
                assert_eq!(r.final_epoch, epochs[s], "shard {s}: no solve ran");
            }
        }
        let tail = engine.shard_engines()[N_SHARDS - 1].snapshot();
        assert!(
            matches!(tail.strategy(), RerankStrategy::Push { .. }),
            "replayed publish {t}: {:?}",
            tail.strategy()
        );
        assert_shards_equal(&engine, &live);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_empty_log_restart_runs_no_solve() {
    let dir = temp_dir("shardedempty");
    let stem = dir.join("e");
    let (live, net, tail_start) = live_sharded(&dir);
    live.ingest(&batch(&net, N + 1, tail_start, 4)).unwrap();
    let epochs = live.persist_epochs(&stem).unwrap();
    copy_into(&shard_files(&stem), &dir.join("copy"));

    let cold =
        ShardedEngine::open_from_store(dir.join("copy/e"), true, RerankPolicy::EveryBatch).unwrap();
    let (engine, reports) = cold.wait();
    for (s, r) in reports.iter().enumerate() {
        assert_eq!(r.replayed, 0, "shard {s}");
        assert_eq!(r.final_epoch, epochs[s], "shard {s}: no solve ran");
    }
    assert_eq!(reports[N_SHARDS - 1].push_state, PushStateRestore::Restored);
    assert_shards_equal(&engine, &live);

    // The first live ingest after it pushes, to the live engine's bits.
    let d = batch(&net, N + 2, tail_start, 5);
    live.ingest(&d).unwrap();
    engine.ingest(&d).unwrap();
    let tail = engine.shard_engines()[N_SHARDS - 1].snapshot();
    assert!(matches!(tail.strategy(), RerankStrategy::Push { .. }));
    assert_shards_equal(&engine, &live);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_restored_tail_serves_a_seeded_page_bit_for_bit() {
    let dir = temp_dir("shardedseeded");
    let stem = dir.join("e");
    let (live, net, tail_start) = live_sharded(&dir);
    // The live engine serves one tail seed set at every tail epoch.
    let kept: Query = format!("k=10,seed={}", tail_start + 3).parse().unwrap();
    live.query(&kept, None).unwrap();
    for t in 1..=2 {
        live.ingest(&batch(&net, N + t, tail_start, 3 + t)).unwrap();
        live.query(&kept, None).unwrap();
    }
    live.persist_epochs(&stem).unwrap();
    copy_into(&shard_files(&stem), &dir.join("copy"));

    let cold =
        ShardedEngine::open_from_store(dir.join("copy/e"), true, RerankPolicy::EveryBatch).unwrap();
    let (engine, reports) = cold.wait();
    assert_eq!(reports[N_SHARDS - 1].push_state, PushStateRestore::Restored);
    assert_shards_equal(&engine, &live);
    // A tail seed set neither side has solved.
    let q: Query = format!("k=50,seed={}|{}", tail_start + 1, N + 1)
        .parse()
        .unwrap();
    let page = |e: &ShardedEngine| -> Vec<(PaperId, u64)> {
        let page = e.query(&q, None).unwrap();
        assert_eq!(page.items.len(), 50);
        page.items
            .iter()
            .map(|h| (h.id, h.score.to_bits()))
            .collect()
    };
    assert_same(&page(&engine), &page(&live));
    std::fs::remove_dir_all(&dir).ok();
}
