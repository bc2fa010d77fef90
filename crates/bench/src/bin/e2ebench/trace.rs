//! The traced run: every per-layer metric of one workload.
//!
//! Layers are timed **from outside**, around calls into their public
//! functions. A request is served as the decomposed public sequence
//! `str::parse::<Query>` → `snapshot` → `query_with_at` → `next_token`
//! with a timestamp at each boundary; one request in eight keeps its
//! spans (written to `trace-<workload>.jsonl` when the run ends) and is
//! *shadow-replayed*: its selection kernel is called again, alone, on the
//! same score slice and candidate set, so the span's self time is the
//! span minus the kernel. Fixed probe requests for every driver class
//! ride behind the workload's own stream, and `probes` times the write
//! path, storage and periphery, so every workload reports every layer.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use citegraph::{CitationNetwork, PaperId, SeedPersonalization};
use rankengine::{
    CacheConfig, MethodSpec, PageBuf, PersonalizationCache, Query, QueryDriver, QueryEngine,
    QueryScratch, ShardCursor, ShardedEngine,
};
use sparsela::{cmp_score_desc, top_k_filtered_into, top_k_indices_into, top_k_where_into};

use crate::gen::{self, Kind, Request, Rng};
use crate::phases::{self, Scale, Tally};
use crate::stack::{self, Client, Reply, Stack};
use crate::stats::{median, percentile, Fastest, Metrics};
use crate::{probes, Config, MetricDef, Workload};

/// One request in this many keeps its spans and is shadow-replayed.
const SAMPLE_EVERY: usize = 8;

/// Probe requests per class, on top of the workload's own.
const PROBES_PER_CLASS: usize = 16;

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Per-layer metrics, named `<crate lib name>.<what>`: every traced run
/// reports every one.
pub const PER_LAYER: [MetricDef; 80] = [
    layer("trace_overhead_ratio", "ratio", "lower"),
    layer("rankengine.attributed_ratio", "ratio", "higher"),
    layer("rankengine.class_time_share.unfiltered", "ratio", "lower"),
    layer("rankengine.class_time_share.cursor", "ratio", "lower"),
    layer("rankengine.class_time_share.seeded", "ratio", "lower"),
    layer("rankengine.class_time_share.id_range", "ratio", "lower"),
    layer("rankengine.class_time_share.venue_bands", "ratio", "lower"),
    layer("rankengine.class_time_share.author_bands", "ratio", "lower"),
    layer("rankengine.class_time_share.mask_algebra", "ratio", "lower"),
    layer("rankengine.class_time_share.compare", "ratio", "lower"),
    layer("rankengine.parse_ns", "ns", "lower"),
    layer("rankengine.pin_ns", "ns", "lower"),
    layer("rankengine.plan_ns", "ns", "lower"),
    layer("rankengine.cursor_roundtrip_ns", "ns", "lower"),
    layer("rankengine.query_ns.unfiltered", "ns", "lower"),
    layer("rankengine.query_ns.cursor", "ns", "lower"),
    layer("rankengine.query_ns.seeded", "ns", "lower"),
    layer("rankengine.query_ns.id_range", "ns", "lower"),
    layer("rankengine.query_ns.venue_bands", "ns", "lower"),
    layer("rankengine.query_ns.author_bands", "ns", "lower"),
    layer("rankengine.query_ns.mask_algebra", "ns", "lower"),
    layer("rankengine.query_ns.compare", "ns", "lower"),
    layer("rankengine.query_self_ns.unfiltered", "ns", "lower"),
    layer("rankengine.query_self_ns.seeded", "ns", "lower"),
    layer("rankengine.query_self_ns.id_range", "ns", "lower"),
    layer("rankengine.query_self_ns.venue_bands", "ns", "lower"),
    layer("rankengine.query_self_ns.author_bands", "ns", "lower"),
    layer("rankengine.plan_cache_hit_ratio", "ratio", "higher"),
    layer("rankengine.plan_cache_evictions", "count", "lower"),
    layer("rankengine.matched_per_hit", "ratio", "lower"),
    layer("rankengine.positions_build_ms", "ms", "lower"),
    layer("rankengine.batch_round_p50_ms", "ms", "lower"),
    layer("rankengine.batch_speedup", "ratio", "higher"),
    layer("rankengine.personalization_hit_ratio", "ratio", "higher"),
    layer("rankengine.seeded_miss_ms", "ms", "lower"),
    layer("rankengine.personalization_bytes", "B", "lower"),
    layer("rankengine.metrics_overhead_ratio", "ratio", "lower"),
    layer("rankengine.sharded_query_ns.unfiltered", "ns", "lower"),
    layer("rankengine.sharded_query_ns.year_pruned", "ns", "lower"),
    layer("rankengine.sharded_query_ns.year_span", "ns", "lower"),
    layer("rankengine.sharded_query_ns.faceted", "ns", "lower"),
    layer("rankengine.sharded_query_ns.seeded", "ns", "lower"),
    layer("rankengine.shards_scanned_ratio", "ratio", "lower"),
    layer("rankengine.one_shard_vs_flat_ratio", "ratio", "lower"),
    layer("sparsela.top_k_indices_ns.attrank", "ns", "lower"),
    layer("sparsela.top_k_indices_ns.cc", "ns", "lower"),
    layer("sparsela.top_k_indices_ns.pagerank", "ns", "lower"),
    layer("sparsela.top_k_where_ns", "ns", "lower"),
    layer("sparsela.top_k_filtered_ns", "ns", "lower"),
    layer("sparsela.top_k_masked_ns", "ns", "lower"),
    layer("sparsela.merge_k_ns", "ns", "lower"),
    layer("sparsela.spmv_ms", "ms", "lower"),
    layer("rankengine.stage_us", "us", "lower"),
    layer("rankengine.publish_ms", "ms", "lower"),
    layer("rankengine.publish_1_paper_ms", "ms", "lower"),
    layer("rankengine.publish_1000_papers_ms", "ms", "lower"),
    layer("rankengine.publish_push_ratio", "ratio", "higher"),
    layer("rankengine.push_edge_work_per_edge", "ratio", "lower"),
    layer("citegraph.validate_delta_us", "us", "lower"),
    layer("citegraph.with_delta_ms", "ms", "lower"),
    layer("attrank.update_delta_ms", "ms", "lower"),
    layer("attrank.solve_full_ms", "ms", "lower"),
    layer("attrank.iterations", "count", "lower"),
    layer("citegraph.personalize_cold_ms", "ms", "lower"),
    layer("citegraph.repersonalize_ms", "ms", "lower"),
    layer("graphstore.wal_append_us", "us", "lower"),
    layer("graphstore.wal_append_nosync_us", "us", "lower"),
    layer("graphstore.wal_bytes_per_edge", "B", "lower"),
    layer("graphstore.persist_ms", "ms", "lower"),
    layer("graphstore.store_bytes_per_paper", "B", "lower"),
    layer("graphstore.store_open_ms", "ms", "lower"),
    layer("graphstore.to_network_ms", "ms", "lower"),
    layer("graphstore.wal_recover_ms", "ms", "lower"),
    layer("rankengine.replay_ms", "ms", "lower"),
    layer("citegen.generate_s", "s", "lower"),
    layer("rankengine.build_s", "s", "lower"),
    layer("rankengine.sharded_build_s", "s", "lower"),
    layer("obsv.render_us", "us", "lower"),
    layer("rankeval.ndcg50_attrank", "ratio", "higher"),
    layer("rankeval.ndcg50_cc", "ratio", "higher"),
];

/// One recorded interval. `parent` indexes the span that caused it;
/// spans of one request share `request_id`.
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request_id: usize,
}

/// Spans of one run, kept in memory until it ends.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        layer: &'static str,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        request_id: usize,
    ) -> usize {
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                file,
                "{{\"id\": {id}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request_id\": {}}}",
                s.name, s.layer, s.start_ns, s.end_ns, s.request_id
            )?;
        }
        file.flush()
    }
}

/// What the decomposed serve of one request measured, in nanoseconds.
#[derive(Clone, Copy, Default)]
struct Timing {
    parse: f64,
    pin: f64,
    query: f64,
    /// Index of the `query` span when the request was sampled.
    query_span: Option<usize>,
    matched: usize,
    items: usize,
    shards: (usize, usize),
}

fn ns(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_nanos() as f64
}

/// Flat decomposed serve. Spans are kept when `request_id` is given.
fn traced_flat(
    qe: &QueryEngine,
    req: &Request,
    scratch: &mut QueryScratch,
    out: &mut PageBuf,
    reply: &mut Reply,
    spans: &mut Spans,
    request_id: Option<usize>,
) -> Result<Timing, String> {
    let t0 = Instant::now();
    let q: Query = black_box(&req.text).parse().map_err(|e| format!("{e}"))?;
    let t1 = Instant::now();
    let snap = qe
        .snapshot(q.method.as_deref())
        .map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let compare = q.vs.is_some();
    if compare {
        // Compare mode pins both snapshots itself; it has no `_at` form.
        stack::serve_flat(qe, &q, scratch, out, reply)?;
    } else {
        qe.query_with_at(&snap, &q, scratch, out)
            .map_err(|e| e.to_string())?;
    }
    let t3 = Instant::now();
    if !compare {
        stack::read_page_buf(out, reply);
    }
    black_box(&*reply);
    let t4 = Instant::now();
    let mut timing = Timing {
        parse: ns(t0, t1),
        pin: ns(t1, t2),
        query: ns(t2, t3),
        query_span: None,
        matched: reply.matched,
        items: reply.items.len(),
        shards: (1, 1),
    };
    if let Some(id) = request_id {
        let root = spans.push("request", "e2ebench", (t0, t4), None, id);
        spans.push("parse", "rankengine", (t0, t1), Some(root), id);
        spans.push("snapshot", "rankengine", (t1, t2), Some(root), id);
        let name = if compare { "compare" } else { "query_with_at" };
        timing.query_span = Some(spans.push(name, "rankengine", (t2, t3), Some(root), id));
        spans.push("next_token", "rankengine", (t3, t4), Some(root), id);
    }
    Ok(timing)
}

/// Sharded decomposed serve: parse (query and cursor token) → pin the
/// epoch set → scatter-gather → read hits and encode the next token.
fn traced_sharded(
    se: &ShardedEngine,
    req: &Request,
    reply: &mut Reply,
    spans: &mut Spans,
    request_id: Option<usize>,
) -> Result<Timing, String> {
    let t0 = Instant::now();
    let q: Query = black_box(&req.text).parse().map_err(|e| format!("{e}"))?;
    let cursor = match &req.cursor {
        None => None,
        Some(t) => Some(t.parse::<ShardCursor>().map_err(|e| e.to_string())?),
    };
    let t1 = Instant::now();
    let snaps = se.snapshots();
    let t2 = Instant::now();
    let page = se
        .query_at(&snaps, &q, cursor.as_ref())
        .map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    stack::read_sharded_page(&page, reply);
    black_box(&*reply);
    let t4 = Instant::now();
    let mut timing = Timing {
        parse: ns(t0, t1),
        pin: ns(t1, t2),
        query: ns(t2, t3),
        query_span: None,
        matched: reply.matched,
        items: reply.items.len(),
        shards: reply.shards,
    };
    if let Some(id) = request_id {
        let root = spans.push("request", "e2ebench", (t0, t4), None, id);
        spans.push("parse", "rankengine", (t0, t1), Some(root), id);
        spans.push("snapshots", "rankengine", (t1, t2), Some(root), id);
        timing.query_span = Some(spans.push("query_at", "rankengine", (t2, t3), Some(root), id));
        spans.push("next_token", "rankengine", (t3, t4), Some(root), id);
    }
    Ok(timing)
}

/// The flat driver classes the per-class metrics are named after: every
/// class [`flat_class`] can return, so the time shares sum to 1. The
/// planner does not pick mask algebra on this corpus under the baked cost
/// model (see `gen::flat_probes`); its metrics read 0 over 0 samples until
/// a change to the planner or the cost model makes it.
const FLAT_CLASSES: [&str; 8] = [
    "unfiltered",
    "cursor",
    "seeded",
    "id_range",
    "venue_bands",
    "author_bands",
    "mask_algebra",
    "compare",
];

const SHARDED_CLASSES: [&str; 5] = [
    "unfiltered",
    "year_pruned",
    "year_span",
    "faceted",
    "seeded",
];

/// Class of a flat request: compare and seeded by what they ask for, the
/// rest by the driver the planner picks (`explain`).
fn flat_class(qe: &QueryEngine, q: &Query) -> Result<&'static str, String> {
    if q.vs.is_some() {
        return Ok("compare");
    }
    if !q.seeds.is_empty() {
        return Ok("seeded");
    }
    let plan = qe.explain(q).map_err(|e| e.to_string())?;
    Ok(match plan.driver {
        QueryDriver::Unfiltered => "unfiltered",
        QueryDriver::IdRange { .. } if plan.residuals == ["cursor"] => "cursor",
        QueryDriver::IdRange { .. } => "id_range",
        QueryDriver::VenueBands { .. } => "venue_bands",
        QueryDriver::AuthorBands { .. } => "author_bands",
        QueryDriver::MaskAlgebra { .. } => "mask_algebra",
    })
}

/// Shape of a sharded request, as its metrics label it.
fn sharded_class(q: &Query, shards: (usize, usize)) -> &'static str {
    if !q.seeds.is_empty() {
        "seeded"
    } else if !q.venues.is_empty() || !q.authors.is_empty() {
        "faceted"
    } else if q.year_min.is_some() || q.year_max.is_some() {
        if shards.0 == 1 {
            "year_pruned"
        } else {
            "year_span"
        }
    } else {
        "unfiltered"
    }
}

/// The flat class a sharded shape's time is booked under in
/// `class_time_share`.
fn share_class(sharded: &str, kind: Kind) -> &'static str {
    match (sharded, kind) {
        (_, Kind::Page2) => "cursor",
        ("seeded", _) => "seeded",
        ("faceted", _) => "venue_bands",
        ("year_pruned" | "year_span", _) => "id_range",
        _ => "unfiltered",
    }
}

/// Per-class samples of one metric family.
#[derive(Default)]
struct ByClass(HashMap<&'static str, Vec<f64>>);

impl ByClass {
    fn add(&mut self, class: &'static str, v: f64) {
        self.0.entry(class).or_default().push(v);
    }

    fn p50(&self, class: &str) -> (f64, usize) {
        self.0
            .get(class)
            .map_or((0.0, 0), |v| (percentile(v, 50.0), v.len()))
    }
}

/// Score vectors the shadow replays select over: the published ones, and
/// personalized ones re-solved through a private cache (the engine's own
/// has no accessor; the solve is deterministic, so the vector is the one
/// the request ranked by).
struct ShadowScores<'a> {
    qe: &'a QueryEngine,
    cache: PersonalizationCache,
    seeded: HashMap<Vec<PaperId>, Arc<sparsela::ScoreVec>>,
}

impl<'a> ShadowScores<'a> {
    fn new(qe: &'a QueryEngine) -> Self {
        ShadowScores {
            qe,
            cache: PersonalizationCache::new(CacheConfig::default()),
            seeded: HashMap::new(),
        }
    }

    fn seeded(&mut self, q: &Query) -> Result<Arc<sparsela::ScoreVec>, String> {
        if let Some(v) = self.seeded.get(&q.seeds) {
            return Ok(v.clone());
        }
        let snap = self
            .qe
            .snapshot(q.method.as_deref())
            .map_err(|e| e.to_string())?;
        let spec: MethodSpec = self
            .qe
            .engine(q.method.as_deref())
            .map_err(|e| e.to_string())?
            .method()
            .parse()
            .map_err(|e| format!("{e}"))?;
        let alpha = spec
            .damping()
            .ok_or("seeded request on an undamped method")?;
        let seed =
            SeedPersonalization::uniform(&q.seeds, snap.n_papers()).map_err(|e| e.to_string())?;
        let label = q.method.as_deref().unwrap_or("default");
        let (scores, _) = self.cache.scores(label, &snap, &seed, alpha);
        self.seeded.insert(q.seeds.clone(), scores.clone());
        Ok(scores)
    }
}

/// Which kernel a shadow replay ran.
#[derive(Clone, Copy, PartialEq)]
enum Kernel {
    Indices,
    Where,
    Filtered,
}

/// Replays the selection kernel of one flat request, alone: same score
/// slice, same candidate set, same `k`. Candidate sets are rebuilt
/// outside the clock from the posting lists and the oracle's predicate.
/// Returns the kernel and its nanoseconds; `None` for compare mode.
fn shadow_kernel(
    shadow: &mut ShadowScores<'_>,
    req: &Request,
    out: &mut Vec<u32>,
) -> Result<Option<(Kernel, f64)>, String> {
    let q: Query = req.text.parse().map_err(|e| format!("{e}"))?;
    if q.vs.is_some() {
        return Ok(None);
    }
    let qe = shadow.qe;
    let snap = qe
        .snapshot(q.method.as_deref())
        .map_err(|e| e.to_string())?;
    let seeded;
    let scores: &[f64] = if q.seeds.is_empty() {
        snap.scores().as_slice()
    } else {
        seeded = shadow.seeded(&q)?;
        seeded.as_slice()
    };
    let net: &CitationNetwork = snap.network();
    let after = req.after.map(|id| (scores[id as usize], id));
    let after_cursor = |id: PaperId| {
        after.is_none_or(|(cs, cid)| {
            cmp_score_desc(scores[id as usize], id, cs, cid) == std::cmp::Ordering::Greater
        })
    };
    let keep = |id: PaperId| crate::oracle::matches(net, &q, id) && after_cursor(id);
    // Inside the planner's id range the year bound already holds: the
    // scan re-checks only the facets and the cursor, as the engine's does.
    let facets = Query {
        year_min: None,
        year_max: None,
        ..q.clone()
    };
    let residual = |id: PaperId| {
        (facets.venues.is_empty() && facets.authors.is_empty()
            || crate::oracle::matches(net, &facets, id))
            && after_cursor(id)
    };
    let plan = qe.explain(&q).map_err(|e| e.to_string())?;
    let range = net.id_range_for_years(q.year_min, q.year_max);
    // Once untimed so the timed call finds the slices as warm as the
    // engine's own call did.
    let mut timed = |run: &mut dyn FnMut(&mut Vec<u32>)| {
        run(out);
        let started = Instant::now();
        run(out);
        black_box(&*out);
        started.elapsed().as_nanos() as f64
    };
    Ok(Some(match &plan.driver {
        QueryDriver::Unfiltered => (
            Kernel::Indices,
            timed(&mut |out| top_k_indices_into(scores, q.k, out)),
        ),
        QueryDriver::IdRange { start, end } => (
            Kernel::Where,
            timed(&mut |out| top_k_where_into(scores, *start..*end, q.k, residual, out)),
        ),
        QueryDriver::VenueBands { .. }
        | QueryDriver::AuthorBands { .. }
        | QueryDriver::MaskAlgebra { .. } => {
            let mut candidates: Vec<PaperId> = match &plan.driver {
                QueryDriver::VenueBands { venues, .. } => {
                    let table = net.venues().ok_or("no venue table")?;
                    venues
                        .iter()
                        .flat_map(|&v| citegraph::band(table.papers_at(v), &range))
                        .copied()
                        .collect()
                }
                QueryDriver::AuthorBands { authors, .. } => {
                    let table = net.authors().ok_or("no author table")?;
                    authors
                        .iter()
                        .flat_map(|&a| citegraph::band(table.papers_of(a), &range))
                        .copied()
                        .collect()
                }
                _ => range.clone().collect(),
            };
            candidates.sort_unstable();
            candidates.dedup();
            candidates.retain(|&id| keep(id));
            (
                Kernel::Filtered,
                timed(&mut |out| top_k_filtered_into(scores, &candidates, q.k, out)),
            )
        }
    }))
}

/// Cursor round trip: encode the token of a page, parse it back.
fn cursor_roundtrip_ns(client: &mut Client<'_>, requests: &[Request]) -> Vec<f64> {
    let mut samples = Vec::new();
    let mut token = String::new();
    for req in requests.iter().filter(|r| r.cursor.is_none()).take(64) {
        if client.serve(req).is_err() || client.reply.token.is_empty() {
            continue;
        }
        let Ok(cursor) = client.reply.token.parse::<rankengine::Cursor>() else {
            continue;
        };
        let started = Instant::now();
        let encoded = cursor.encode_into(&mut token);
        let back = black_box(encoded).parse::<rankengine::Cursor>();
        samples.push(started.elapsed().as_nanos() as f64);
        black_box(back.ok());
    }
    samples
}

/// Everything the traced passes over the flat engine measured.
#[derive(Default)]
struct FlatTrace {
    parse: Vec<f64>,
    pin: Vec<f64>,
    query: ByClass,
    query_self: ByClass,
    plan: Vec<f64>,
    kernel_where: Vec<f64>,
    kernel_filtered: Vec<f64>,
    matched: usize,
    items: usize,
}

/// A stretch of the traced stream: its requests, the id of its first one,
/// and how it is sampled — the workload's own requests one in
/// [`SAMPLE_EVERY`] starting at the given offset, probes (`None`) all.
struct Stream<'a> {
    requests: &'a [Request],
    first_request_id: usize,
    own_sample_offset: Option<usize>,
}

impl Stream<'_> {
    /// The request id to keep spans under, for sampled requests.
    fn sampled_id(&self, i: usize) -> Option<usize> {
        self.own_sample_offset
            .is_none_or(|offset| i % SAMPLE_EVERY == offset)
            .then_some(self.first_request_id + i)
    }
}

/// Per-request times of one traced pass, in stream order: the whole
/// traced serve from outside (span bookkeeping included), its `query`
/// span, and the class its time is booked under. A failed request holds
/// infinities.
#[derive(Default)]
struct PassTimes {
    outer_ns: Vec<f64>,
    query_ns: Vec<f64>,
    class: Vec<&'static str>,
}

/// Traced pass over a stream on a flat engine. A sampled request is
/// replayed right after it is served — same machine state, same cache
/// state — outside the request's own timing.
fn flat_pass(
    shadow: &mut ShadowScores<'_>,
    stream: &Stream<'_>,
    spans: &mut Spans,
    trace: &mut FlatTrace,
    tally: &mut Tally,
) -> PassTimes {
    let mut scratch = QueryScratch::new();
    let mut out = PageBuf::new();
    let mut reply = Reply::default();
    let qe = shadow.qe;
    let mut buf = Vec::new();
    let requests = stream.requests;
    let mut timings = Vec::with_capacity(requests.len());
    let mut times = PassTimes::default();
    for (i, req) in requests.iter().enumerate() {
        let id = stream.sampled_id(i);
        let started = Instant::now();
        let timing = traced_flat(qe, req, &mut scratch, &mut out, &mut reply, spans, id);
        times.outer_ns.push(match &timing {
            Ok(_) => started.elapsed().as_nanos() as f64,
            Err(_) => f64::INFINITY,
        });
        let kernel = match (&timing, id) {
            (Ok(_), Some(_)) => shadow_kernel(shadow, req, &mut buf),
            _ => Ok(None),
        };
        if let Err(e) = &kernel {
            tally.record(Err(format!("shadow of {}: {e}", req.text)));
        }
        tally.record(
            timing
                .as_ref()
                .map(drop)
                .map_err(|e| format!("{}: {e}", req.text)),
        );
        timings.push(timing.ok().map(|t| (t, kernel.ok().flatten())));
    }

    // Classify once per distinct string, outside the timed pass.
    let mut classes: HashMap<&str, &'static str> = HashMap::new();
    for (i, (req, timing)) in requests.iter().zip(&timings).enumerate() {
        let Some((t, kernel)) = timing else {
            times.query_ns.push(f64::INFINITY);
            times.class.push("unfiltered");
            continue;
        };
        let class = match classes.get(req.text.as_str()) {
            Some(c) => *c,
            None => {
                let class = req
                    .text
                    .parse::<Query>()
                    .map_err(|e| format!("{e}"))
                    .and_then(|q| flat_class(qe, &q))
                    .unwrap_or("unfiltered");
                classes.insert(&req.text, class);
                class
            }
        };
        trace.parse.push(t.parse);
        trace.pin.push(t.pin);
        trace.query.add(class, t.query);
        trace.matched += t.matched;
        trace.items += t.items;
        times.query_ns.push(t.query);
        times.class.push(class);
        let Some(parent) = t.query_span else { continue };
        if let Ok(q) = req.text.parse::<Query>() {
            let started = Instant::now();
            black_box(qe.explain(&q).ok());
            trace.plan.push(started.elapsed().as_nanos() as f64);
        }
        let Some((kernel, kernel_ns)) = *kernel else {
            continue;
        };
        // Signed: where the kernel is nearly all of the span, the
        // difference of the two timings straddles zero.
        trace.query_self.add(class, t.query - kernel_ns);
        match kernel {
            Kernel::Where => trace.kernel_where.push(kernel_ns),
            Kernel::Filtered => trace.kernel_filtered.push(kernel_ns),
            Kernel::Indices => {}
        }
        let start_ns = spans.spans[parent].start_ns;
        spans.spans.push(Span {
            name: "shadow_kernel",
            layer: "sparsela",
            start_ns,
            end_ns: start_ns + kernel_ns as u64,
            parent: Some(parent),
            request_id: stream.first_request_id + i,
        });
    }
    times
}

#[derive(Default)]
struct ShardedTrace {
    query: ByClass,
    scanned: usize,
    total: usize,
    parse: Vec<f64>,
    pin: Vec<f64>,
}

fn sharded_pass(
    se: &ShardedEngine,
    stream: &Stream<'_>,
    spans: &mut Spans,
    trace: &mut ShardedTrace,
    tally: &mut Tally,
) -> PassTimes {
    let mut reply = Reply::default();
    let mut times = PassTimes::default();
    for (i, req) in stream.requests.iter().enumerate() {
        let started = Instant::now();
        let timing = traced_sharded(se, req, &mut reply, spans, stream.sampled_id(i));
        let outer_ns = started.elapsed().as_nanos() as f64;
        let Ok((t, q)) =
            timing.and_then(|t| Ok((t, req.text.parse::<Query>().map_err(|e| format!("{e}"))?)))
        else {
            tally.record(Err(format!("{}: traced serve failed", req.text)));
            times.outer_ns.push(f64::INFINITY);
            times.query_ns.push(f64::INFINITY);
            times.class.push("unfiltered");
            continue;
        };
        tally.record(Ok(()));
        let class = sharded_class(&q, t.shards);
        trace.query.add(class, t.query);
        trace.scanned += t.shards.0;
        trace.total += t.shards.1;
        trace.parse.push(t.parse);
        trace.pin.push(t.pin);
        times.outer_ns.push(outer_ns);
        times.query_ns.push(t.query);
        times.class.push(share_class(class, req.kind));
    }
    times
}

/// Serves `requests` untraced on two stacks in turn, `reps` times each
/// after a warm-up; the summed fastest repetition of each request on
/// each stack, in µs. Taking turns keeps one slow stretch of the machine
/// from landing on one side only.
fn fastest_sums(
    stacks: [&Stack; 2],
    requests: &[Request],
    reps: usize,
    tally: &mut Tally,
) -> [f64; 2] {
    let mut clients = stacks.map(Client::new);
    let mut lat = Vec::new();
    let mut best = [Fastest::default(), Fastest::default()];
    for rep in 0..=reps {
        for (client, best) in clients.iter_mut().zip(&mut best) {
            phases::timed_pass(client, requests, &mut lat, tally);
            if rep > 0 {
                best.fold(&lat);
            }
        }
    }
    best.map(|b| b.sum())
}

fn flat_of(stack: &Stack) -> &QueryEngine {
    match stack {
        Stack::Flat(qe) => qe,
        Stack::Sharded(_) => unreachable!("a flat stack was asked for"),
    }
}

fn sharded_of(stack: &Stack) -> &ShardedEngine {
    match stack {
        Stack::Sharded(se) => se,
        Stack::Flat(_) => unreachable!("a sharded stack was asked for"),
    }
}

/// The whole traced run of one workload.
pub fn run(cfg: &Config) -> (Metrics, Tally) {
    let scale = Scale::of(cfg);
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut rng = Rng::new(cfg.seed);

    // The workload's own stack, plus whichever of the three-method flat
    // engine and the 8-band sharded engine it is not — the rig the
    // layer probes run on.
    let (built, generate_s, own_build_s) = phases::set_up(cfg, &scale, &cfg.tmp.join("own"));
    let net = &built.net;
    let own_is_flat3 = matches!(cfg.workload, Workload::ReadMixed | Workload::ReadSelective);
    let own_is_sharded = cfg.workload == Workload::ReadSharded;
    let started = Instant::now();
    let rig_flat = (!own_is_flat3).then(|| {
        Stack::Flat(stack::build_flat(
            net,
            &stack::FLAT_METHODS,
            &dir(cfg, "rig-flat"),
        ))
    });
    let flat_build_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let rig_sharded = (!own_is_sharded).then(|| {
        Stack::Sharded(stack::build_sharded(
            net,
            stack::N_SHARDS,
            &dir(cfg, "rig-sharded"),
        ))
    });
    let sharded_build_s = started.elapsed().as_secs_f64();
    let flat_stack = rig_flat.as_ref().unwrap_or(&built.stack);
    let sharded_stack = rig_sharded.as_ref().unwrap_or(&built.stack);
    let (qe, se) = (flat_of(flat_stack), sharded_of(sharded_stack));
    m.put("citegen.generate_s", generate_s, "s", 1);
    let build_s = if own_is_flat3 {
        own_build_s
    } else {
        flat_build_s
    };
    m.put("rankengine.build_s", build_s, "s", 1);
    let sharded_s = if own_is_sharded {
        own_build_s
    } else {
        sharded_build_s
    };
    m.put("rankengine.sharded_build_s", sharded_s, "s", 1);

    // The workload's own stream: a warm-up pass, then untraced and traced
    // passes in turn.
    let requests = phases::read_requests(cfg, &scale, &built, &mut rng);
    let mut client = Client::new(&built.stack);
    let mut lat = Vec::new();
    phases::timed_pass(&mut client, &requests, &mut lat, &mut tally);
    let plans_before = qe.plan_cache_stats();
    // Three passes each way, alternating, and the fastest repetition of
    // each request each way (`stats::Fastest`): a slow stretch of the
    // machine must not decide the ratios. The first traced pass is the
    // one whose spans and per-class figures are kept.
    let sample_offset = rng.below(SAMPLE_EVERY);
    let own = Stream {
        requests: &requests,
        first_request_id: 0,
        own_sample_offset: Some(sample_offset),
    };
    let (mut untraced_us, mut outer_ns, mut query_ns) =
        (Fastest::default(), Fastest::default(), Fastest::default());
    let mut kept: Option<(Spans, FlatTrace, ShardedTrace, Vec<&'static str>)> = None;
    // One set of shadow vectors for all three passes; on a sharded stack
    // it goes unused.
    let mut own_shadow = ShadowScores::new(match &built.stack {
        Stack::Flat(own) => own,
        Stack::Sharded(_) => qe,
    });
    for _ in 0..3 {
        phases::timed_pass(&mut client, &requests, &mut lat, &mut tally);
        untraced_us.fold(&lat);
        let mut pass = (Spans::new(), FlatTrace::default(), ShardedTrace::default());
        let times = match &built.stack {
            Stack::Flat(_) => {
                flat_pass(&mut own_shadow, &own, &mut pass.0, &mut pass.1, &mut tally)
            }
            Stack::Sharded(se) => sharded_pass(se, &own, &mut pass.0, &mut pass.2, &mut tally),
        };
        outer_ns.fold(&times.outer_ns);
        query_ns.fold(&times.query_ns);
        kept.get_or_insert((pass.0, pass.1, pass.2, times.class));
    }
    let (mut spans, mut flat, mut sharded, classes) = kept.expect("three passes ran");
    let untraced_ns = untraced_us.sum() * 1e3;
    m.put(
        "trace_overhead_ratio",
        outer_ns.sum() / untraced_ns,
        "ratio",
        requests.len(),
    );
    m.put(
        "rankengine.attributed_ratio",
        query_ns.sum() / untraced_ns,
        "ratio",
        requests.len(),
    );
    for class in FLAT_CLASSES {
        let in_class: f64 = query_ns
            .values()
            .iter()
            .zip(&classes)
            .filter(|(_, c)| **c == class)
            .map(|(ns, _)| ns)
            .sum();
        m.put(
            &format!("rankengine.class_time_share.{class}"),
            in_class / query_ns.sum().max(1.0),
            "ratio",
            requests.len(),
        );
    }

    // Batch rounds over the same stream.
    let batches = phases::batch_rounds(&requests, scale.batch);
    let members: usize = batches.iter().map(Vec::len).sum();
    let mut round_ms = Fastest::default();
    for _ in 0..=3 {
        round_ms.fold(&phases::batch_pass(&built.stack, &batches, &mut tally).1);
    }
    m.put(
        "rankengine.batch_round_p50_ms",
        percentile(round_ms.values(), 50.0),
        "ms",
        round_ms.values().len(),
    );
    let batch_qps = members as f64 / (round_ms.sum() / 1e3);
    let read_qps = requests.len() as f64 / (untraced_us.sum() / 1e6);
    m.put(
        "rankengine.batch_speedup",
        batch_qps / read_qps,
        "ratio",
        round_ms.values().len(),
    );

    // Probes of every class behind it, on the rig.
    let mut flat_client = Client::new(flat_stack);
    let flat_probes: Vec<Request> = gen::flat_probes(net, PROBES_PER_CLASS, &mut rng)
        .iter()
        .map(|s| flat_client.mint(s))
        .collect();
    phases::timed_pass(&mut flat_client, &flat_probes, &mut lat, &mut tally);
    let probes = Stream {
        requests: &flat_probes,
        first_request_id: requests.len(),
        own_sample_offset: None,
    };
    flat_pass(
        &mut ShadowScores::new(qe),
        &probes,
        &mut spans,
        &mut flat,
        &mut tally,
    );
    let plans = qe.plan_cache_stats();
    let plan = citegraph::ShardPlan::fixed(net, stack::N_SHARDS).expect("shard plan");
    let mut sharded_client = Client::new(sharded_stack);
    let sharded_probes: Vec<Request> = gen::sharded_probes(net, &plan, PROBES_PER_CLASS, &mut rng)
        .iter()
        .map(|s| sharded_client.mint(s))
        .collect();
    phases::timed_pass(&mut sharded_client, &sharded_probes, &mut lat, &mut tally);
    let probes = Stream {
        requests: &sharded_probes,
        first_request_id: requests.len() + flat_probes.len(),
        own_sample_offset: None,
    };
    sharded_pass(se, &probes, &mut spans, &mut sharded, &mut tally);

    let (parse, pin) = if own_is_sharded && flat.parse.is_empty() {
        (&sharded.parse, &sharded.pin)
    } else {
        (&flat.parse, &flat.pin)
    };
    m.put(
        "rankengine.parse_ns",
        percentile(parse, 50.0),
        "ns",
        parse.len(),
    );
    m.put("rankengine.pin_ns", percentile(pin, 50.0), "ns", pin.len());
    m.put(
        "rankengine.plan_ns",
        percentile(&flat.plan, 50.0),
        "ns",
        flat.plan.len(),
    );
    let roundtrips = cursor_roundtrip_ns(&mut flat_client, &flat_probes);
    m.put(
        "rankengine.cursor_roundtrip_ns",
        percentile(&roundtrips, 50.0),
        "ns",
        roundtrips.len(),
    );
    for class in FLAT_CLASSES {
        let (v, n) = flat.query.p50(class);
        m.put(&format!("rankengine.query_ns.{class}"), v, "ns", n);
    }
    for class in [
        "unfiltered",
        "seeded",
        "id_range",
        "venue_bands",
        "author_bands",
    ] {
        let (v, n) = flat.query_self.p50(class);
        m.put(&format!("rankengine.query_self_ns.{class}"), v, "ns", n);
    }
    let lookups = (plans.hits + plans.misses + plans.stale)
        - (plans_before.hits + plans_before.misses + plans_before.stale);
    m.put(
        "rankengine.plan_cache_hit_ratio",
        (plans.hits - plans_before.hits) as f64 / lookups.max(1) as f64,
        "ratio",
        lookups as usize,
    );
    m.put(
        "rankengine.plan_cache_evictions",
        (plans.evictions - plans_before.evictions) as f64,
        "count",
        lookups as usize,
    );
    m.put(
        "rankengine.matched_per_hit",
        flat.matched as f64 / flat.items.max(1) as f64,
        "ratio",
        flat.items,
    );
    for class in SHARDED_CLASSES {
        let (v, n) = sharded.query.p50(class);
        m.put(&format!("rankengine.sharded_query_ns.{class}"), v, "ns", n);
    }
    m.put(
        "rankengine.shards_scanned_ratio",
        sharded.scanned as f64 / sharded.total.max(1) as f64,
        "ratio",
        sharded.total,
    );
    m.put(
        "sparsela.top_k_where_ns",
        percentile(&flat.kernel_where, 50.0),
        "ns",
        flat.kernel_where.len(),
    );
    m.put(
        "sparsela.top_k_filtered_ns",
        percentile(&flat.kernel_filtered, 50.0),
        "ns",
        flat.kernel_filtered.len(),
    );

    // Personalization: what the flat engine's cache did, and a miss.
    let mut misses = Vec::new();
    for shape in gen::flat_probes(net, 3, &mut rng)
        .iter()
        .filter(|s| s.kind == Kind::Seeded)
    {
        let req = flat_client.mint(shape);
        let started = Instant::now();
        tally.record(flat_client.serve(&req));
        misses.push(started.elapsed().as_secs_f64() * 1e3);
    }
    m.put(
        "rankengine.seeded_miss_ms",
        median(&misses),
        "ms",
        misses.len(),
    );
    let cache = qe.personalization_stats();
    let served = cache.hits + cache.warm_repushes + cache.cold_pushes + cache.fallbacks;
    m.put(
        "rankengine.personalization_hit_ratio",
        cache.hits as f64 / served.max(1) as f64,
        "ratio",
        served as usize,
    );
    m.put(
        "rankengine.personalization_bytes",
        cache.bytes as f64,
        "B",
        cache.entries,
    );

    // The same probes on a metrics-enabled twin, and the unsharded-shaped
    // probes on a one-shard engine against the flat one.
    let mut twin = stack::build_flat(net, &stack::FLAT_METHODS, &dir(cfg, "twin"));
    twin.enable_metrics();
    let twin = Stack::Flat(twin);
    let reps = if cfg.quick { 2 } else { 5 };
    let [bare_s, twin_s] = fastest_sums([flat_stack, &twin], &flat_probes, reps, &mut tally);
    m.put(
        "rankengine.metrics_overhead_ratio",
        twin_s / bare_s,
        "ratio",
        reps * flat_probes.len(),
    );
    let mut renders = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        black_box(flat_of(&twin).render_metrics());
        renders.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    m.put("obsv.render_us", median(&renders), "us", renders.len());
    drop(twin);
    let one = Stack::Sharded(stack::build_sharded(net, 1, &dir(cfg, "one-shard")));
    let shared: Vec<Request> = sharded_probes
        .iter()
        .filter(|r| r.kind != Kind::Seeded && r.cursor.is_none())
        .cloned()
        .collect();
    let [one_s, flat_s] = fastest_sums([&one, flat_stack], &shared, reps, &mut tally);
    m.put(
        "rankengine.one_shard_vs_flat_ratio",
        one_s / flat_s,
        "ratio",
        reps * shared.len(),
    );
    drop(one);

    probes::kernels(qe, se, net, &mut m);
    probes::write_path(cfg, net, &mut rng, &mut m, &mut tally);
    probes::storage(cfg, net, &mut rng, &mut m, &mut tally);
    probes::quality(net, &mut m);

    // Two restarts of the workload's own stack: replay cost per batch.
    drop(client);
    let mut write_client = Client::new(&built.stack);
    let visible = write_client.mint(&gen::visible_page(net));
    let first = phases::ingest_visible(
        &built,
        &mut write_client,
        &visible,
        scale.batch_papers,
        &mut rng,
    );
    tally.record(first.map(drop));
    let fixture =
        phases::RestartFixture::prepare(&built, &scale, &dir(cfg, "restart"), &mut rng, &mut tally);
    let mut replay = Vec::new();
    for _ in 0..2 {
        match fixture.restart() {
            Ok((first_page_ms, caught_up_ms)) => {
                replay.push((caught_up_ms - first_page_ms) / scale.wal_tail as f64);
                tally.record(Ok(()));
            }
            Err(e) => tally.record(Err(e)),
        }
    }
    m.put("rankengine.replay_ms", median(&replay), "ms", replay.len());

    let path = cfg.out.join(format!("trace-{}.jsonl", cfg.workload.name()));
    if let Err(e) = spans.write_jsonl(&path) {
        tally.record(Err(format!("writing {}: {e}", path.display())));
    }
    // Report in table order.
    m.0.sort_by_key(|metric| {
        PER_LAYER
            .iter()
            .position(|d| d.name == metric.name)
            .unwrap_or(usize::MAX)
    });
    (m, tally)
}

fn dir(cfg: &Config, name: &str) -> std::path::PathBuf {
    let dir = cfg.tmp.join(name);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}
