//! Layer probes of the traced run: the kernels on the engines' real
//! vectors, the write path piece by piece, storage, and ranking quality.
//! Each probe calls one public function of one layer and times that call.

use std::hint::black_box;
use std::time::Instant;

use attrank::{AttRankParams, IncrementalAttRank};
use citegraph::{
    personalize, ratio_split, repersonalize, uniform_kernel, update_uniform_kernel,
    CitationNetwork, DeltaStrategy, GraphDelta, PushRankConfig, SeedPersonalization,
};
use graphstore::{DeltaWal, Store};
use rankengine::{
    MethodSpec, QueryEngine, RankingEngine, RerankPolicy, RerankStrategy, ShardedEngine,
};
use sparsela::{
    merge_k_sorted_into, top_k_indices_into, top_k_masked_into, IdMask, KernelWorkspace,
    MergeScratch,
};

use crate::gen::{self, Rng};
use crate::phases::{Tally, REFS_PER_PAPER};
use crate::stats::{median, Metrics};
use crate::Config;

/// Times `f` `reps` times after one untimed call; samples in the unit
/// `per_second` scales a second to (1e3 → ms, 1e9 → ns).
fn timed<T>(reps: usize, per_second: f64, mut f: impl FnMut() -> T) -> Vec<f64> {
    black_box(f());
    (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64() * per_second
        })
        .collect()
}

fn once<T>(per_second: f64, f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64() * per_second)
}

/// `sparsela`: selection over each method's published vector (k = 10),
/// a masked select over one venue, the 8-run merge, one operator apply.
pub fn kernels(qe: &QueryEngine, se: &ShardedEngine, net: &CitationNetwork, m: &mut Metrics) {
    let mut out = Vec::new();
    for method in crate::stack::FLAT_METHODS {
        let snap = qe.snapshot(Some(method)).expect("rig serves the method");
        let scores = snap.scores().as_slice();
        let samples = timed(20, 1e9, || top_k_indices_into(scores, 10, &mut out));
        m.put(
            &format!("sparsela.top_k_indices_ns.{method}"),
            median(&samples),
            "ns",
            samples.len(),
        );
    }
    let snap = qe.snapshot(None).expect("default method");
    let scores = snap.scores().as_slice();
    let mut mask = IdMask::new(scores.len());
    for &id in snap.network().venues().expect("venue table").papers_at(0) {
        mask.insert(id);
    }
    let samples = timed(50, 1e9, || top_k_masked_into(scores, &mask, 10, &mut out));
    m.put(
        "sparsela.top_k_masked_ns",
        median(&samples),
        "ns",
        samples.len(),
    );

    let snaps = se.snapshots();
    let runs: Vec<Vec<(f64, u32)>> = (0..snaps.n_shards())
        .map(|s| {
            let snap = snaps.snapshot(s);
            snap.top_k(10)
                .into_iter()
                .map(|id| (snap.score(id).expect("in range"), snaps.start(s) + id))
                .collect()
        })
        .collect();
    let run_refs: Vec<&[(f64, u32)]> = runs.iter().map(Vec::as_slice).collect();
    let (mut scratch, mut merged) = (MergeScratch::new(), Vec::new());
    let samples = timed(200, 1e9, || {
        merge_k_sorted_into(&run_refs, 10, &mut scratch, &mut merged)
    });
    m.put("sparsela.merge_k_ns", median(&samples), "ns", samples.len());

    let op = net.stochastic_operator();
    let x = vec![1.0 / net.n_papers() as f64; net.n_papers()];
    let mut y = vec![0.0; net.n_papers()];
    let samples = timed(5, 1e3, || op.apply(&x, &mut y));
    m.put("sparsela.spmv_ms", median(&samples), "ms", samples.len());
}

/// `rankengine` write side, `citegraph` and `attrank`: one publish taken
/// apart — validate, stage, fold the delta in, solve — plus the shadow
/// incremental solver and the personalization solves.
pub fn write_path(
    cfg: &Config,
    net: &CitationNetwork,
    rng: &mut Rng,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let papers = if cfg.quick { 10 } else { 100 };
    let n = net.n_papers();
    let delta = gen::publish_batch(net, n, papers, REFS_PER_PAPER, rng);
    let empty = GraphDelta::new();
    let samples = timed(5, 1e6, || net.validate_delta(&empty, &delta));
    m.put(
        "citegraph.validate_delta_us",
        median(&samples),
        "us",
        samples.len(),
    );
    let samples = timed(3, 1e3, || net.with_delta(&delta));
    m.put(
        "citegraph.with_delta_ms",
        median(&samples),
        "ms",
        samples.len(),
    );
    let next = net.with_delta(&delta).expect("generated batch is valid");

    // Stage under `Manual`, then publish by hand. The first publish builds
    // the push state; the measured ones use it.
    let engine = RankingEngine::from_config(net.clone(), "attrank", RerankPolicy::Manual)
        .expect("attrank spec is valid");
    let (mut stage, mut publish, mut positions, mut work) = (vec![], vec![], vec![], vec![]);
    let mut pushes = 0;
    let cycles = 4;
    for cycle in 0..cycles {
        let n0 = engine.snapshot().n_papers();
        let batch = gen::publish_batch(net, n0, papers, REFS_PER_PAPER, rng);
        let (staged, stage_us) = once(1e6, || engine.ingest(&batch));
        tally.record(staged.map(drop).map_err(|e| e.to_string()));
        let (_, publish_ms) = once(1e3, || engine.rerank());
        let snap = engine.snapshot();
        let (_, positions_ms) = once(1e3, || snap.rank_of(0));
        if cycle == 0 {
            continue;
        }
        stage.push(stage_us);
        publish.push(publish_ms);
        positions.push(positions_ms);
        if let RerankStrategy::Push { edge_work, .. } = snap.strategy() {
            pushes += 1;
            work.push(edge_work as f64 / batch.n_citations() as f64);
        }
    }
    // The same publish with one paper and with a thousand: is its cost in
    // the batch or in the corpus?
    for (name, size) in [
        ("rankengine.publish_1_paper_ms", 1),
        (
            "rankengine.publish_1000_papers_ms",
            if cfg.quick { 100 } else { 1000 },
        ),
    ] {
        let n0 = engine.snapshot().n_papers();
        let batch = gen::publish_batch(net, n0, size, REFS_PER_PAPER, rng);
        tally.record(engine.ingest(&batch).map(drop).map_err(|e| e.to_string()));
        let (_, publish_ms) = once(1e3, || engine.rerank());
        m.put(name, publish_ms, "ms", 1);
    }
    m.put("rankengine.stage_us", median(&stage), "us", stage.len());
    m.put(
        "rankengine.publish_ms",
        median(&publish),
        "ms",
        publish.len(),
    );
    m.put(
        "rankengine.positions_build_ms",
        median(&positions),
        "ms",
        positions.len(),
    );
    m.put(
        "rankengine.publish_push_ratio",
        pushes as f64 / (cycles - 1) as f64,
        "ratio",
        cycles - 1,
    );
    m.put(
        "rankengine.push_edge_work_per_edge",
        median(&work),
        "ratio",
        work.len(),
    );

    // The solver the engine wraps, driven directly: a cold full solve,
    // then the delta update that follows a warm one.
    let MethodSpec::AttRank { alpha, beta, y, w } = "attrank"
        .parse::<MethodSpec>()
        .expect("attrank spec is valid")
    else {
        unreachable!("attrank parses to an AttRank spec");
    };
    let params = AttRankParams::new(alpha, beta, y, w).expect("default parameters are valid");
    let mut solver = IncrementalAttRank::new(params);
    let (diag, solve_ms) = once(1e3, || solver.update(net));
    m.put("attrank.solve_full_ms", solve_ms, "ms", 1);
    m.put("attrank.iterations", diag.iterations as f64, "count", 1);
    // The first delta update is a full solve that builds the component
    // split; the one after it is the steady state.
    solver.update_delta(net, &delta, &next);
    let second = gen::publish_batch(net, next.n_papers(), papers, REFS_PER_PAPER, rng);
    let after = next.with_delta(&second).expect("generated batch is valid");
    let ((_, strategy), update_ms) = once(1e3, || solver.update_delta(&next, &second, &after));
    m.put("attrank.update_delta_ms", update_ms, "ms", 1);
    if strategy == DeltaStrategy::Full {
        tally.record(Err("shadow attrank update fell back to a full solve".into()));
    }

    // A seed set solved cold by push, then re-pushed across the delta.
    let mut ws = KernelWorkspace::new();
    let push = PushRankConfig {
        budget_sweeps: 8.0,
        ..PushRankConfig::default()
    };
    let seeds: Vec<u32> = (1..=3).map(|i| (n * i / 4) as u32).collect();
    let seed = SeedPersonalization::uniform(&seeds, n).expect("distinct in-range seeds");
    let kernel = uniform_kernel(net, alpha, &mut ws);
    let (solved, cold_ms) = once(1e3, || {
        personalize(net, &seed, alpha, Some(kernel.as_slice()), &push, &mut ws)
    });
    m.put("citegraph.personalize_cold_ms", cold_ms, "ms", 1);
    let next_kernel = update_uniform_kernel(net, &delta, &next, &kernel, alpha, &push, &mut ws)
        .map_or_else(
            || uniform_kernel(&next, alpha, &mut KernelWorkspace::new()),
            |k| k.0,
        );
    let repush_ms = match solved.warm_start() {
        None => None,
        Some(warm) => {
            let (again, ms) = once(1e3, || {
                repersonalize(
                    net,
                    &delta,
                    &next,
                    warm,
                    &seed,
                    alpha,
                    Some(next_kernel.as_slice()),
                    &push,
                    &mut ws,
                )
            });
            again.map(|_| ms)
        }
    };
    match repush_ms {
        Some(ms) => m.put("citegraph.repersonalize_ms", ms, "ms", 1),
        None => {
            m.put("citegraph.repersonalize_ms", 0.0, "ms", 0);
            tally.record(Err("warm re-push of a personalized vector declined".into()));
        }
    }
}

/// `graphstore`: WAL appends with and without the fsync, recovery, the
/// snapshot store written, opened and turned back into a network.
pub fn storage(
    cfg: &Config,
    net: &CitationNetwork,
    rng: &mut Rng,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let dir = cfg.tmp.join("storage");
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let papers = if cfg.quick { 10 } else { 100 };
    let delta = gen::publish_batch(net, net.n_papers(), papers, REFS_PER_PAPER, rng);
    let wal_path = dir.join("probe.wal");
    let result = (|| -> Result<(), graphstore::StoreError> {
        let (mut wal, _) = DeltaWal::open(&wal_path)?;
        let before = wal.len()?;
        let mut seq = 0;
        let mut append = |wal: &mut DeltaWal| -> Result<f64, graphstore::StoreError> {
            let started = Instant::now();
            wal.append(seq, &delta)?;
            seq += 1;
            Ok(started.elapsed().as_secs_f64() * 1e6)
        };
        let synced: Vec<f64> = (0..8).map(|_| append(&mut wal)).collect::<Result<_, _>>()?;
        wal.set_sync_on_append(false);
        let unsynced: Vec<f64> = (0..8).map(|_| append(&mut wal)).collect::<Result<_, _>>()?;
        let bytes = (wal.len()? - before) as f64;
        drop(wal);
        m.put(
            "graphstore.wal_append_us",
            median(&synced),
            "us",
            synced.len(),
        );
        m.put(
            "graphstore.wal_append_nosync_us",
            median(&unsynced),
            "us",
            unsynced.len(),
        );
        m.put(
            "graphstore.wal_bytes_per_edge",
            bytes / (16 * delta.n_citations()) as f64,
            "B",
            16,
        );
        let recover = timed(3, 1e3, || {
            DeltaWal::open(&wal_path).map(|(_, r)| r.records.len())
        });
        m.put(
            "graphstore.wal_recover_ms",
            median(&recover),
            "ms",
            recover.len(),
        );

        let engine = RankingEngine::from_config(net.clone(), "attrank", RerankPolicy::Manual)
            .expect("attrank spec is valid");
        let store_path = dir.join("probe.store");
        let persist = timed(2, 1e3, || {
            engine.persist_epoch(&store_path).map_err(|e| e.to_string())
        });
        m.put(
            "graphstore.persist_ms",
            median(&persist),
            "ms",
            persist.len(),
        );
        let size = std::fs::metadata(&store_path)?.len() as f64;
        m.put(
            "graphstore.store_bytes_per_paper",
            size / net.n_papers() as f64,
            "B",
            1,
        );
        let open = timed(3, 1e3, || Store::open(&store_path).map(|s| s.n_papers()));
        m.put("graphstore.store_open_ms", median(&open), "ms", open.len());
        let store = Store::open(&store_path)?;
        let back = timed(2, 1e3, || store.to_network().map(|n| n.n_papers()));
        m.put("graphstore.to_network_ms", median(&back), "ms", back.len());
        if store.to_network()?.n_papers() != net.n_papers() {
            return Err(graphstore::StoreError::Format(
                "store round trip changed the paper count".into(),
            ));
        }
        Ok(())
    })();
    tally.record(result.map_err(|e| format!("storage probe: {e}")));
    let _ = std::fs::remove_dir_all(dir);
}

/// `rankeval`: nDCG@50 of attrank and citation count against the
/// short-term impact of a 1.6-ratio split. An exact-repeat guard: a
/// performance change must not move the paper's headline.
pub fn quality(net: &CitationNetwork, m: &mut Metrics) {
    let split = ratio_split(net, 1.6);
    let sti = rankeval::ground_truth_sti(&split);
    let engine = RankingEngine::from_config(split.current.clone(), "attrank", RerankPolicy::Manual)
        .expect("attrank spec is valid");
    let attrank = rankeval::ndcg_at_k(engine.snapshot().scores().as_slice(), &sti, 50);
    m.put("rankeval.ndcg50_attrank", attrank, "ratio", sti.len());
    let cc: Vec<f64> = split
        .current
        .citation_counts()
        .into_iter()
        .map(|c| c as f64)
        .collect();
    m.put(
        "rankeval.ndcg50_cc",
        rankeval::ndcg_at_k(&cc, &sti, 50),
        "ratio",
        sti.len(),
    );
}
