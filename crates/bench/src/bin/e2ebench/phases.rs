//! The untraced run: set-up, then read passes, batch passes, ingest
//! windows and restarts dealt round-robin over the run — every end-to-end
//! metric of one workload.
//!
//! Load is a closed loop with one client on one thread: each request is
//! sent when the previous response has been read.
//!
//! Every operation is repeated — a request at each of its positions in
//! each pass, a batch size once per window, a restart and each half of
//! set-up several times — and a metric is computed
//! from the **fastest repetition of each operation** ([`Fastest`]): the
//! reference machine steals time slices at millisecond grain, for seconds
//! to minutes on end, and that only ever adds to a timing. Dealing the
//! kinds of window round-robin spreads each operation's repetitions over
//! the whole run.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use citegen::{generate, DatasetProfile};
use citegraph::CitationNetwork;
use rankengine::{Query, RankingEngine, RerankPolicy, ShardCursor, ShardedEngine};

use crate::gen::{self, Kind, Request, Rng};
use crate::oracle::Oracle;
use crate::stack::{self, Client, Reply, Stack};
use crate::stats::{fastest, median, percentile, Fastest, Metrics};
use crate::{Config, Workload};

/// Seed of the corpus — fixed: `--seed` varies the traffic, not the data.
pub const CORPUS_SEED: u64 = 7;

/// Citations of each newly published paper.
pub const REFS_PER_PAPER: usize = 8;

/// Members of one `query_batch` round: a block of the request stream.
pub const BATCH_ROUND: usize = gen::BLOCK;

/// Sizes of one run. Window counts are fixed functions of `--seconds` — a
/// kind's share of the seconds divided by what one window nominally takes
/// on the reference machine — not "loop until the clock says stop": the
/// same arguments then do the same work, so counts, cache behaviour and
/// memory repeat.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub papers: usize,
    /// Times set-up is repeated before the windows, and times its first
    /// half — the corpus generated — is repeated among them; `setup_s` is
    /// the best of each half.
    pub setups: usize,
    pub generations: usize,
    /// Request positions of one read pass: more than 1,000, so the 99th
    /// percentile over positions keeps ten positions beyond it.
    pub pass: usize,
    /// Positions at the head of the read pass that make up a batch pass:
    /// whole blocks of the stream, one round each (see [`batch_rounds`]).
    pub batch: usize,
    /// Shape universe of `read_selective`.
    pub universe: usize,
    /// Requests checked against the oracle.
    pub oracle: usize,
    /// Whether a request's repetitions are pooled over the positions that
    /// hold it (see [`pool_by_request`]).
    pub pool_requests: bool,
    pub read_passes: usize,
    pub batch_passes: usize,
    /// Windows of ingests (see [`window_sizes`]).
    pub ingest_windows: usize,
    pub restarts: usize,
    /// Batches left in the WAL for a restart to replay.
    pub wal_tail: usize,
    /// Papers per batch when the workload does not cycle sizes.
    pub batch_papers: usize,
}

/// Fewest reads and ingests a full-scale run of the workload they belong
/// to may time, whatever `--seconds` says (ISSUE 11's floors).
pub const MIN_READS: usize = 5_000;
pub const MIN_INGESTS: usize = 120;

/// The kinds' shares of `--seconds` — read passes, batch passes, ingest
/// windows, restarts — and the nominal seconds of one window of each on
/// the reference machine.
///
/// Every workload reports every end-to-end metric (the driver's contract),
/// so each has all four kinds of window; the kinds a workload is *about*
/// get the seconds, the others the fewest repetitions that still leave the
/// fastest one undisturbed.
struct Plan {
    pass: usize,
    batch: usize,
    pool_requests: bool,
    batch_papers: usize,
    wal_tail: usize,
    shares: [f64; 4],
    nominal_s: [f64; 4],
}

fn plan(workload: Workload) -> Plan {
    match workload {
        Workload::ReadMixed => Plan {
            pass: 1_024,
            batch: 3 * BATCH_ROUND,
            pool_requests: true,
            batch_papers: 100,
            wal_tail: 2,
            shares: [0.50, 0.12, 0.18, 0.20],
            nominal_s: [1.30, 0.15, 0.28, 0.45],
        },
        // 16× the plan cache: whether a string hits or misses it depends on
        // the position it arrives at, so a position is its own operation.
        Workload::ReadSelective => Plan {
            pass: 50_000,
            batch: 6_400,
            pool_requests: false,
            batch_papers: 100,
            wal_tail: 2,
            shares: [0.50, 0.12, 0.18, 0.20],
            nominal_s: [0.30, 0.05, 0.28, 0.45],
        },
        // Small batches: the tail band holds an eighth of the corpus, and
        // a run must not grow it enough to change what an ingest costs.
        Workload::ReadSharded => Plan {
            pass: 2_048,
            batch: 10 * BATCH_ROUND,
            pool_requests: true,
            batch_papers: 10,
            wal_tail: 2,
            shares: [0.50, 0.12, 0.08, 0.30],
            nominal_s: [0.70, 0.10, 0.012, 0.13],
        },
        // Eight batches for a restart to replay, as ISSUE 11 sized it.
        Workload::WriteDurable => Plan {
            pass: 1_024,
            batch: 6 * BATCH_ROUND,
            pool_requests: true,
            batch_papers: 100,
            wal_tail: 8,
            shares: [0.09, 0.06, 0.70, 0.15],
            nominal_s: [0.09, 0.035, 0.42, 0.80],
        },
    }
}

impl Scale {
    pub fn of(cfg: &Config) -> Scale {
        let plan = plan(cfg.workload);
        if cfg.quick {
            return Scale {
                papers: 2_000,
                setups: 1,
                generations: 1,
                pass: 300,
                batch: 128,
                universe: 256,
                oracle: 60,
                pool_requests: plan.pool_requests,
                read_passes: 3,
                batch_passes: 3,
                ingest_windows: 2,
                restarts: 2,
                wal_tail: 2,
                batch_papers: 10,
            };
        }
        let count = |kind: usize, least: usize| {
            ((cfg.seconds * plan.shares[kind] / plan.nominal_s[kind]).round() as usize).max(least)
        };
        let writes = cfg.workload == Workload::WriteDurable;
        let sizes = if writes { INGEST_SIZES.len() } else { 2 };
        Scale {
            papers: 200_000,
            setups: 2,
            generations: 2,
            pass: plan.pass,
            batch: plan.batch,
            universe: 4_096,
            oracle: 200,
            pool_requests: plan.pool_requests,
            read_passes: count(
                0,
                if writes {
                    5
                } else {
                    MIN_READS.div_ceil(plan.pass).max(5)
                },
            ),
            batch_passes: count(1, 5),
            ingest_windows: count(
                2,
                if writes {
                    MIN_INGESTS.div_ceil(sizes)
                } else {
                    4
                },
            ),
            restarts: count(3, 3),
            wal_tail: plan.wal_tail,
            batch_papers: plan.batch_papers,
        }
    }
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// A built stack and the directory its files live in.
pub struct Built {
    pub net: CitationNetwork,
    pub stack: Stack,
    pub dir: PathBuf,
}

/// Corpus generation and stack build, split so the traced run can report
/// the two layers apart.
pub fn set_up(cfg: &Config, scale: &Scale, dir: &Path) -> (Built, f64, f64) {
    let started = Instant::now();
    let net = generate(&DatasetProfile::dblp().scaled(scale.papers), CORPUS_SEED);
    let generate_s = started.elapsed().as_secs_f64();
    let built = Instant::now();
    let stack = Stack::build(cfg.workload, &net, dir);
    let build_s = built.elapsed().as_secs_f64();
    let built = Built {
        net,
        stack,
        dir: dir.to_path_buf(),
    };
    (built, generate_s, build_s)
}

/// Seconds each repetition of set-up's two operations took.
struct SetUps {
    generate_s: Vec<f64>,
    build_s: Vec<f64>,
}

/// Sets up `scale.setups` times — dropping each stack before the next is
/// built, so memory holds one — and keeps the last.
fn set_up_repeatedly(cfg: &Config, scale: &Scale) -> (Built, SetUps) {
    let mut times = SetUps {
        generate_s: Vec::new(),
        build_s: Vec::new(),
    };
    let mut kept = None;
    for i in 0..scale.setups {
        drop(kept.take());
        let (built, generate_s, build_s) = set_up(cfg, scale, &cfg.tmp.join(format!("setup{i}")));
        times.generate_s.push(generate_s);
        times.build_s.push(build_s);
        kept = Some(built);
    }
    (kept.expect("at least one set-up"), times)
}

/// The request list of a workload, cursors minted on `stack`.
pub fn read_requests(cfg: &Config, scale: &Scale, built: &Built, rng: &mut Rng) -> Vec<Request> {
    let net = &built.net;
    let mix = match cfg.workload {
        Workload::ReadMixed => gen::read_mixed(net, scale.pass, rng),
        Workload::ReadSelective => gen::read_selective(net, scale.universe, scale.pass, rng),
        Workload::ReadSharded => {
            let plan = citegraph::ShardPlan::fixed(net, stack::N_SHARDS).expect("shard plan");
            gen::read_sharded(net, &plan, scale.pass, rng)
        }
        Workload::WriteDurable => gen::listing_pages(net, scale.pass, rng),
    };
    Client::new(&built.stack).requests(&mix)
}

/// One pass over `requests`, each timed from string in to token out.
/// Returns the pass's wall-clock seconds; latencies (µs) land in `lat`.
pub fn timed_pass(
    client: &mut Client<'_>,
    requests: &[Request],
    lat: &mut Vec<f64>,
    tally: &mut Tally,
) -> f64 {
    lat.clear();
    let pass = Instant::now();
    for req in requests {
        let started = Instant::now();
        let result = client.serve(black_box(req));
        black_box(&client.reply);
        lat.push(started.elapsed().as_nanos() as f64 / 1e3);
        tally.record(result);
    }
    pass.elapsed().as_secs_f64()
}

/// The rounds of a batch pass: the first `n` positions of the read pass,
/// one round per block of [`BATCH_ROUND`], less the compare requests,
/// which have no batch form.
pub fn batch_rounds(requests: &[Request], n: usize) -> Vec<Vec<Request>> {
    requests[..n.min(requests.len())]
        .chunks(BATCH_ROUND)
        .map(|block| {
            let members = block.iter().filter(|r| r.kind != Kind::Compare);
            members.cloned().collect()
        })
        .collect()
}

/// Each position's time replaced by the least time any position holding
/// the same request took: the fastest repetition of each *request*, a
/// distinct string and cursor, over all its positions in all passes.
///
/// A 2 ms request has six repetitions at its own position and some
/// ninety over a pass's 1,024 positions; on a disturbed host only the
/// second finds it an undisturbed one. The price: where the same string
/// hits the plan cache at one position and misses it at another
/// (`read_selective`), it is counted at the cheaper of the two. Shapes
/// that miss at every position still carry the miss.
pub fn pool_by_request(times: &[f64], requests: &[Request]) -> Vec<f64> {
    let key = |r: &'_ Request| (r.text.clone(), r.cursor.clone());
    let mut least: std::collections::HashMap<(String, Option<String>), f64> =
        std::collections::HashMap::new();
    for (t, r) in times.iter().zip(requests) {
        least
            .entry(key(r))
            .and_modify(|best| *best = best.min(*t))
            .or_insert(*t);
    }
    requests.iter().map(|r| least[&key(r)]).collect()
}

/// One `query_batch` round, strings in to tokens out; the replies are
/// appended to `replies` when the caller wants to check them.
pub fn batch_round(
    stack: &Stack,
    round: &[Request],
    mut replies: Option<&mut Vec<Reply>>,
) -> Result<(), String> {
    let mut reply = Reply::default();
    match stack {
        Stack::Flat(qe) => {
            let queries: Vec<Query> = round
                .iter()
                .map(|r| r.text.parse().map_err(|e| format!("{}: {e}", r.text)))
                .collect::<Result<_, String>>()?;
            for (page, req) in qe.query_batch(&queries).into_iter().zip(round) {
                let page = page.map_err(|e| format!("{}: {e}", req.text))?;
                reply.shards = (1, 1);
                stack::read_page(&page, &mut reply);
                black_box(&reply);
                if let Some(out) = replies.as_deref_mut() {
                    out.push(reply.clone());
                }
            }
        }
        Stack::Sharded(se) => {
            let members: Vec<(Query, Option<ShardCursor>)> = round
                .iter()
                .map(|r| {
                    let q = r.text.parse().map_err(|e| format!("{}: {e}", r.text))?;
                    let c = match &r.cursor {
                        None => None,
                        Some(t) => Some(t.parse().map_err(|e| format!("{t}: {e}"))?),
                    };
                    Ok((q, c))
                })
                .collect::<Result<_, String>>()?;
            for (page, req) in se.query_batch(&members).into_iter().zip(round) {
                let page = page.map_err(|e| format!("{}: {e}", req.text))?;
                stack::read_sharded_page(&page, &mut reply);
                black_box(&reply);
                if let Some(out) = replies.as_deref_mut() {
                    out.push(reply.clone());
                }
            }
        }
    }
    Ok(())
}

/// One pass of batch rounds; returns members served per second and the
/// per-round milliseconds.
pub fn batch_pass(stack: &Stack, rounds: &[Vec<Request>], tally: &mut Tally) -> (f64, Vec<f64>) {
    let mut round_ms = Vec::with_capacity(rounds.len());
    let pass = Instant::now();
    for round in rounds {
        let started = Instant::now();
        let result = batch_round(stack, round, None);
        round_ms.push(started.elapsed().as_secs_f64() * 1e3);
        tally.attempted += round.len().saturating_sub(1) as u64;
        tally.record(result);
    }
    let members: usize = rounds.iter().map(Vec::len).sum();
    (members as f64 / pass.elapsed().as_secs_f64(), round_ms)
}

/// Outside the timed windows: served pages equal the reference pages, and
/// batch pages equal sequential ones on the same published state.
pub fn verify_reads(
    built: &Built,
    requests: &[Request],
    scale: &Scale,
    rng: &mut Rng,
    tally: &mut Tally,
) {
    let mut client = Client::new(&built.stack);
    let mut oracle = Oracle::new(&built.stack, &built.net);
    for _ in 0..scale.oracle.min(requests.len()) {
        let req = &requests[rng.below(requests.len())];
        let result = client
            .serve(req)
            .and_then(|()| oracle.check(req, &client.reply));
        tally.record(result);
    }
    for round in &batch_rounds(requests, 3 * BATCH_ROUND) {
        let mut batched = Vec::with_capacity(round.len());
        if let Err(e) = batch_round(&built.stack, round, Some(&mut batched)) {
            tally.record(Err(e));
            continue;
        }
        for (req, from_batch) in round.iter().zip(&batched) {
            let result = client.serve(req).and_then(|()| {
                if client.reply == *from_batch {
                    Ok(())
                } else {
                    Err(format!("{}: batch page differs from sequential", req.text))
                }
            });
            tally.record(result);
        }
    }
}

/// One batch from `ingest()` to the current-year page served on the new
/// epoch, in milliseconds. The checks run after the clock stops.
pub fn ingest_visible(
    built: &Built,
    client: &mut Client<'_>,
    visible: &Request,
    papers: usize,
    rng: &mut Rng,
) -> Result<f64, String> {
    let n0 = built.stack.n_papers();
    let delta = gen::publish_batch(&built.net, n0, papers, REFS_PER_PAPER, rng);
    let epoch_before = built.stack.epoch();
    let started = Instant::now();
    built.stack.ingest(&delta)?;
    client.serve(visible)?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    if client.reply.epoch == epoch_before {
        return Err("page after ingest came from the old epoch".into());
    }
    if built.stack.n_papers() != n0 + papers {
        return Err(format!(
            "{} papers after ingesting {papers} onto {n0}",
            built.stack.n_papers()
        ));
    }
    if client.reply.items.is_empty() {
        return Err("current-year page is empty after an ingest".into());
    }
    Ok(ms)
}

/// Batch sizes `write_durable` cycles through: four orders of magnitude.
pub const INGEST_SIZES: [usize; 4] = [1, 10, 100, 1000];

/// Batch sizes of one ingest window: `write_durable` cycles
/// [`INGEST_SIZES`], the read workloads repeat one size.
pub fn window_sizes(workload: Workload, scale: &Scale) -> Vec<usize> {
    match workload {
        Workload::WriteDurable => INGEST_SIZES
            .iter()
            .map(|&s| s.min(scale.batch_papers * 10))
            .collect(),
        _ => vec![scale.batch_papers; 2],
    }
}

/// Largest per-paper score difference over the papers both vectors cover.
fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// The attrank scores a stack publishes that the checks compare: the
/// flat default method's, or the tail shard's (the only one ingest
/// moves).
fn published_scores(stack: &Stack) -> (usize, std::sync::Arc<rankengine::EpochSnapshot>) {
    match stack {
        Stack::Flat(qe) => {
            let snap = qe.snapshot(None).expect("default method");
            (snap.n_papers(), snap)
        }
        Stack::Sharded(se) => {
            let snaps = se.snapshots();
            let tail = snaps.snapshot(snaps.n_shards() - 1).clone();
            (snaps.n_papers(), tail)
        }
    }
}

/// After the pushes: the published attrank scores equal a from-scratch
/// solve of the same network within 1e-9 per paper.
pub fn verify_final_scores(stack: &Stack) -> Result<(), String> {
    let (_, snap) = published_scores(stack);
    let scratch =
        RankingEngine::from_config((**snap.network()).clone(), "attrank", RerankPolicy::Manual)
            .map_err(|e| e.to_string())?;
    let diff = max_abs_diff(
        snap.scores().as_slice(),
        scratch.snapshot().scores().as_slice(),
    );
    if diff <= 1e-9 {
        Ok(())
    } else {
        Err(format!(
            "push-published scores drifted {diff:e} from a from-scratch solve"
        ))
    }
}

/// What a restart is opened from and must come back to: a persisted
/// epoch with `wal_tail` batches after it in the log, copied aside so the
/// stack that wrote them can go on ingesting.
pub struct RestartFixture {
    dir: PathBuf,
    sharded: bool,
    wal_tail: usize,
    n_papers: usize,
    scores: Vec<f64>,
}

impl RestartFixture {
    /// Persists `built`'s stack, ingests the log tail, and copies its
    /// files to `to`.
    pub fn prepare(
        built: &Built,
        scale: &Scale,
        to: &Path,
        rng: &mut Rng,
        tally: &mut Tally,
    ) -> RestartFixture {
        let persisted = match &built.stack {
            Stack::Flat(qe) => qe
                .engine(None)
                .expect("default method")
                .persist_epoch(built.dir.join("flat.store"))
                .map(drop)
                .map_err(|e| e.to_string()),
            Stack::Sharded(se) => se
                .persist_epochs(built.dir.join("sharded"))
                .map(drop)
                .map_err(|e| e.to_string()),
        };
        tally.record(persisted);
        let mut client = Client::new(&built.stack);
        let visible = client.mint(&gen::visible_page(&built.net));
        for _ in 0..scale.wal_tail {
            let result = ingest_visible(built, &mut client, &visible, scale.batch_papers, rng);
            tally.record(result.map(drop));
        }
        let copied = (|| -> std::io::Result<()> {
            std::fs::create_dir_all(to)?;
            for entry in std::fs::read_dir(&built.dir)? {
                let entry = entry?;
                std::fs::copy(entry.path(), to.join(entry.file_name()))?;
            }
            Ok(())
        })();
        tally.record(copied.map_err(|e| format!("copying restart files: {e}")));
        let (n_papers, snap) = published_scores(&built.stack);
        RestartFixture {
            dir: to.to_path_buf(),
            sharded: matches!(built.stack, Stack::Sharded(_)),
            wal_tail: scale.wal_tail,
            n_papers,
            scores: snap.scores().as_slice().to_vec(),
        }
    }

    /// One cold start: store opened → first page served → log replayed.
    /// Returns `(first_page_ms, caught_up_ms)`; what came back is checked
    /// after the clock stops.
    pub fn restart(&self) -> Result<(f64, f64), String> {
        let started = Instant::now();
        let r = if self.sharded {
            restart_sharded(&self.dir.join("sharded"), started)?
        } else {
            restart_flat(
                &self.dir.join("flat.store"),
                &self.dir.join("flat.wal"),
                started,
            )?
        };
        if r.replayed != self.wal_tail {
            return Err(format!(
                "restart replayed {} batches, the log held {}",
                r.replayed, self.wal_tail
            ));
        }
        if r.n_papers != self.n_papers {
            return Err(format!(
                "restart serves {} papers, {} before it",
                r.n_papers, self.n_papers
            ));
        }
        let diff = max_abs_diff(&r.scores, &self.scores);
        if diff > 1e-9 {
            return Err(format!("restart moved scores by {diff:e}"));
        }
        Ok((r.first_page_ms, r.caught_up_ms))
    }
}

struct Restarted {
    first_page_ms: f64,
    caught_up_ms: f64,
    replayed: usize,
    n_papers: usize,
    scores: Vec<f64>,
}

fn restart_flat(store: &Path, wal: &Path, started: Instant) -> Result<Restarted, String> {
    let cold = RankingEngine::open_from_store(store, Some(wal), RerankPolicy::EveryBatch)
        .map_err(|e| e.to_string())?;
    let snap = cold.engine().snapshot();
    let page: Vec<(u32, Option<f64>)> = snap
        .top_k(10)
        .into_iter()
        .map(|id| (id, snap.score(id)))
        .collect();
    let first_page_ms = started.elapsed().as_secs_f64() * 1e3;
    if black_box(&page).is_empty() {
        return Err("restored engine served an empty first page".into());
    }
    let (engine, report) = cold.wait();
    let caught_up_ms = started.elapsed().as_secs_f64() * 1e3;
    if report.rejected != 0 {
        return Err(format!("replay rejected {} batches", report.rejected));
    }
    let snap = engine.snapshot();
    Ok(Restarted {
        first_page_ms,
        caught_up_ms,
        replayed: report.replayed,
        n_papers: snap.n_papers(),
        scores: snap.scores().as_slice().to_vec(),
    })
}

fn restart_sharded(stem: &Path, started: Instant) -> Result<Restarted, String> {
    let cold = ShardedEngine::open_from_store(stem, true, RerankPolicy::EveryBatch)
        .map_err(|e| e.to_string())?;
    let q = Query::default();
    let page = cold.engine().query(&q, None).map_err(|e| e.to_string())?;
    let first_page_ms = started.elapsed().as_secs_f64() * 1e3;
    if black_box(&page).items.is_empty() {
        return Err("restored engine served an empty first page".into());
    }
    let (engine, reports) = cold.wait();
    let caught_up_ms = started.elapsed().as_secs_f64() * 1e3;
    if let Some(r) = reports.iter().find(|r| r.rejected != 0) {
        return Err(format!("replay rejected {} batches", r.rejected));
    }
    let snaps = engine.snapshots();
    let tail = snaps.snapshot(snaps.n_shards() - 1);
    Ok(Restarted {
        first_page_ms,
        caught_up_ms,
        replayed: reports.iter().map(|r| r.replayed).sum(),
        n_papers: snaps.n_papers(),
        scores: tail.scores().as_slice().to_vec(),
    })
}

/// The kinds of window a run deals out.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Window {
    Read,
    Batch,
    Ingest,
    Restart,
    /// One more repetition of set-up's first half, the corpus generated
    /// and dropped: the host's speed steps for seconds at a time, and
    /// repetitions back to back at the start of a run would all meet the
    /// same step.
    Generate,
}

/// `counts[k]` windows of each kind, each kind spread evenly over the
/// whole sequence.
fn deal(counts: [usize; 5]) -> Vec<Window> {
    const KINDS: [Window; 5] = [
        Window::Read,
        Window::Batch,
        Window::Ingest,
        Window::Restart,
        Window::Generate,
    ];
    let longest = counts.iter().copied().max().unwrap_or(0);
    let mut dealt = [0usize; 5];
    let mut order = Vec::with_capacity(counts.iter().sum());
    for step in 1..=longest {
        for (k, &count) in counts.iter().enumerate() {
            while dealt[k] * longest < step * count {
                order.push(KINDS[k]);
                dealt[k] += 1;
            }
        }
    }
    order
}

/// The whole untraced run of one workload.
pub fn run(cfg: &Config) -> (Metrics, Tally) {
    let scale = Scale::of(cfg);
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let mut rng = Rng::new(cfg.seed);

    let (built, mut set_ups) = set_up_repeatedly(cfg, &scale);
    let requests = read_requests(cfg, &scale, &built, &mut rng);
    verify_reads(&built, &requests, &scale, &mut rng, &mut tally);

    // Requests page through one pinned epoch with pre-minted cursors, and
    // what a top-k costs depends on the vector it selects from, so reads
    // stay on the stack as built — the same state under every seed — and
    // ingests go to a twin of it: reads and writes can then alternate all
    // run long. The twin's build is one more repetition of set-up's second
    // half.
    let started = Instant::now();
    let writer = Built {
        net: built.net.clone(),
        stack: Stack::build(cfg.workload, &built.net, &cfg.tmp.join("writer")),
        dir: cfg.tmp.join("writer"),
    };
    set_ups.build_s.push(started.elapsed().as_secs_f64());
    let writer = &writer;
    let mut write_client = Client::new(&writer.stack);
    let visible = write_client.mint(&gen::visible_page(&writer.net));
    let sizes = window_sizes(cfg.workload, &scale);
    // The first publish after a build is a full solve that also builds the
    // push state; every later one pushes. Users pay it once per process.
    tally.record(ingest_visible(writer, &mut write_client, &visible, sizes[0], &mut rng).map(drop));
    let fixture = RestartFixture::prepare(
        writer,
        &scale,
        &cfg.tmp.join("restart"),
        &mut rng,
        &mut tally,
    );

    // No warm-up pass: what an operation pays once — a cold plan cache, a
    // personalization miss, a buffer growing — is in its first repetition
    // only, and the fastest repetition leaves it out.
    let mut read_client = Client::new(&built.stack);
    let batches = batch_rounds(&requests, scale.batch);
    let members: usize = batches.iter().map(Vec::len).sum();
    let mut lat = Vec::with_capacity(requests.len());
    // Fastest repetition of each request (µs), batch round (ms), batch
    // size (ms) and restart (ms); and one figure per pass or window, for
    // the spread the detail line prints.
    let (mut reads, mut rounds, mut ingests) =
        (Fastest::default(), Fastest::default(), Fastest::default());
    let (mut first_page_ms, mut replay_ms, mut caught_up_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut pass_qps, mut batch_qps, mut window_ms) = (Vec::new(), Vec::new(), Vec::new());
    for window in deal([
        scale.read_passes,
        scale.batch_passes,
        scale.ingest_windows,
        scale.restarts,
        scale.generations,
    ]) {
        match window {
            Window::Read => {
                let wall = timed_pass(&mut read_client, &requests, &mut lat, &mut tally);
                reads.fold(&lat);
                pass_qps.push(requests.len() as f64 / wall);
            }
            Window::Batch => {
                let (qps, round_ms) = batch_pass(&built.stack, &batches, &mut tally);
                rounds.fold(&round_ms);
                batch_qps.push(qps);
            }
            Window::Ingest => {
                let mut visible_ms = Vec::with_capacity(sizes.len());
                for &papers in &sizes {
                    let ingested =
                        ingest_visible(writer, &mut write_client, &visible, papers, &mut rng);
                    tally.record(ingested.map(|ms| visible_ms.push(ms)));
                }
                ingests.fold(&visible_ms);
                window_ms.push(median(&visible_ms));
            }
            Window::Generate => {
                let started = Instant::now();
                black_box(generate(
                    &DatasetProfile::dblp().scaled(scale.papers),
                    CORPUS_SEED,
                ));
                set_ups.generate_s.push(started.elapsed().as_secs_f64());
            }
            Window::Restart => {
                let restarted = fixture.restart();
                tally.record(restarted.map(|(first_page, caught_up)| {
                    first_page_ms.push(first_page);
                    replay_ms.push(caught_up - first_page);
                    caught_up_ms.push(caught_up);
                }));
            }
        }
    }
    tally.record(verify_final_scores(&writer.stack));

    let floors = if scale.pool_requests {
        pool_by_request(reads.values(), &requests)
    } else {
        reads.values().to_vec()
    };
    // Set-up is two operations, generating the corpus and building the
    // stack; `setup_s` is the fastest repetition of each, summed.
    let setup_s = fastest(&set_ups.generate_s) + fastest(&set_ups.build_s);
    let repetitions = set_ups.generate_s.len().min(set_ups.build_s.len());
    metrics.put_repeated("setup_s", setup_s, "s", repetitions, &set_ups.generate_s);
    let n = floors.len();
    let timed_reads = n * pass_qps.len();
    let qps = n as f64 / (floors.iter().sum::<f64>() / 1e6);
    metrics.put_repeated("read_qps", qps, "1/s", timed_reads, &pass_qps);
    let p50 = percentile(&floors, 50.0);
    metrics.put_repeated("read_p50_us", p50, "us", timed_reads, &pass_qps);
    let p99 = percentile(&floors, 99.0);
    metrics.put_repeated("read_heavy_p99_us", p99, "us", timed_reads, &pass_qps);
    let batch = members as f64 / (rounds.sum() / 1e3);
    let batched = members * batch_qps.len();
    metrics.put_repeated("batch_qps", batch, "1/s", batched, &batch_qps);
    let visible_ms = median(ingests.values());
    let ingested = sizes.len() * window_ms.len();
    metrics.put_repeated(
        "ingest_visible_p50_ms",
        visible_ms,
        "ms",
        ingested,
        &window_ms,
    );
    // A restart is two operations: store opened → first page served, and
    // from there → log replayed.
    let first_page = fastest(&first_page_ms);
    let restarts = first_page_ms.len();
    metrics.put_repeated(
        "coldstart_first_page_ms",
        first_page,
        "ms",
        restarts,
        &first_page_ms,
    );
    metrics.put_repeated(
        "coldstart_caught_up_ms",
        first_page + fastest(&replay_ms),
        "ms",
        restarts,
        &caught_up_ms,
    );
    metrics.put("peak_rss_mb", crate::stats::peak_rss_mb(), "MiB", 1);
    (metrics, tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooling_gives_a_position_the_least_time_of_its_request() {
        let req = |text: &str, cursor: Option<&str>| Request {
            text: text.into(),
            cursor: cursor.map(String::from),
            after: None,
            kind: Kind::Unfiltered,
        };
        // The same string under another cursor is another request.
        let requests = [
            req("a", None),
            req("b", None),
            req("a", None),
            req("a", Some("c")),
        ];
        assert_eq!(
            pool_by_request(&[3.0, 5.0, 2.0, 9.0], &requests),
            [2.0, 5.0, 2.0, 9.0]
        );
    }

    #[test]
    fn deal_spreads_every_kind_over_the_run() {
        let order = deal([8, 2, 4, 1, 0]);
        assert_eq!(order.len(), 15);
        let count = |k: Window| order.iter().filter(|&&w| w == k).count();
        assert_eq!(
            [
                count(Window::Read),
                count(Window::Batch),
                count(Window::Ingest),
                count(Window::Restart)
            ],
            [8, 2, 4, 1]
        );
        // Both halves of the run hold half of each plural kind.
        let first_half = &order[..order.len() / 2 + 1];
        let in_half = |k: Window| first_half.iter().filter(|&&w| w == k).count();
        assert_eq!(in_half(Window::Read), 4);
        assert_eq!(in_half(Window::Ingest), 2);
        assert_eq!(in_half(Window::Batch), 1);
        assert!(deal([0, 0, 0, 0, 0]).is_empty());
        assert_eq!(deal([0, 0, 3, 0, 2]).len(), 5);
    }
}
