//! Bench-regression gate: compares the criterion-shim's freshly written
//! JSON reports against the committed `BENCH_baseline.json` and fails on
//! regressions of guarded benchmarks.
//!
//! The guarded set covers the serving read path (`top_k` group) and the
//! SpMV hot loop (`stochastic_apply*` ids) — the two baselines every PR is
//! required to keep. Comparison uses `min_ns` (best observed iteration):
//! the minimum is far more stable than the mean on shared/quota-throttled
//! runners, which is also why the committed baseline records it.
//!
//! Beside the absolute guards sit the same-run ratio gates — one table,
//! [`GATES`], one [`Gate::ratio`] — which hold across machines.
//!
//! Both file formats are read with the one JSON reader, [`Json::parse`],
//! and every `{"group": …, "id": …, "min_ns": …}` object they contain is
//! a record; surrounding structure (top-level object vs array,
//! pretty-printing) is irrelevant, and a document that does not parse is
//! an error.

use rankengine::CostModel;

/// One benchmark measurement, as found in a report file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark group (e.g. `top_k`).
    pub group: String,
    /// Benchmark id within the group (e.g. `partial_select_50k/10`).
    pub id: String,
    /// Best observed wall-clock per iteration, nanoseconds.
    pub min_ns: f64,
}

/// Every object of a JSON document that carries a string `group`, a
/// string `id` and a numeric `min_ns`, at any depth, in document order.
/// A document that does not parse is an error, never a shorter list: a
/// truncated report must not pass for a report with fewer benches.
pub fn parse_records(json: &str) -> Result<Vec<BenchRecord>, String> {
    fn collect(value: &Json, records: &mut Vec<BenchRecord>) {
        let text = |key| match value.get(key) {
            Some(Json::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let min_ns = value.get("min_ns").and_then(Json::as_f64);
        if let (Some(group), Some(id), Some(min_ns)) = (text("group"), text("id"), min_ns) {
            records.push(BenchRecord { group, id, min_ns });
        }
        match value {
            Json::Obj(fields) => fields.iter().for_each(|(_, v)| collect(v, records)),
            Json::Arr(items) => items.iter().for_each(|v| collect(v, records)),
            _ => {}
        }
    }
    let mut records = Vec::new();
    collect(&Json::parse(json)?, &mut records);
    Ok(records)
}

/// `true` when a record belongs to the guarded regression set.
pub fn is_guarded(r: &BenchRecord) -> bool {
    r.group == "top_k"
        || r.id.starts_with("stochastic_apply")
        || (r.group == "store_load" && r.id.starts_with("first_topk_store"))
        // The query group is guarded except its reference rows
        // (post_filter_*, *stream_*, *gather_*, *_walk_*), which exist only
        // to form ratios.
        || (r.group == "query"
            && !(r.id.starts_with("post_filter")
                || r.id.contains("stream_")
                || r.id.contains("gather_")
                || r.id.contains("_walk_")))
        // The sharded group is guarded except its unsharded/scan
        // reference rows, which exist only to form the speedup ratios.
        || (r.group == "sharded" && !(r.id.contains("unsharded") || r.id.contains("scan")))
        // The index group is guarded except its mask-residual reference
        // rows, which exist only to form the index-vs-scan ratio.
        || (r.group == "index_vs_scan" && !r.id.contains("residual"))
        // The personalized group is guarded except its dense-solve
        // reference row, which exists only to form the push ratio.
        || (r.group == "personalized" && !r.id.contains("dense_solve"))
        // The metrics group is guarded except its bare reference row,
        // which exists only to form the instrumentation-overhead ratio.
        || (r.group == "metrics_overhead" && !r.id.contains("bare"))
        // The throughput group is guarded except its sequential
        // reference rows, which exist only to form the batching ratio.
        || (r.group == "throughput" && !r.id.contains("sequential"))
}

/// `min_ns` of the `(group, id)` record, when the report has one.
fn min_ns(records: &[BenchRecord], group: &str, id: &str) -> Option<f64> {
    let row = records.iter().find(|r| r.group == group && r.id == id);
    row.map(|r| r.min_ns)
}

/// Which side of its bound a ratio gate must stay on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A speedup: the ratio must be at least this.
    Floor(f64),
    /// An overhead: the ratio must be at most this.
    Ceiling(f64),
}

impl Bound {
    /// `("floor" | "ceiling", x)` — how reports spell the bound.
    pub fn parts(self) -> (&'static str, f64) {
        match self {
            Bound::Floor(x) => ("floor", x),
            Bound::Ceiling(x) => ("ceiling", x),
        }
    }
}

/// One same-run ratio gate: `min_ns` of the `numerator` record over
/// `min_ns` of the `denominator` record, both in `group`. A ratio of two
/// measurements from the same run holds across machines, so — unlike the
/// absolute `min_ns` guards — `repro bench-check` enforces it on the
/// committed baseline and on the current run alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// Benchmark group holding both records.
    pub group: &'static str,
    /// What `repro bench-check` prints the gate as (after `group/`).
    pub name: &'static str,
    /// Id of the reference row: the slow path a speedup is measured
    /// against, or the instrumented path of an overhead.
    pub numerator: &'static str,
    /// Id of the row the gate protects.
    pub denominator: &'static str,
    /// The acceptance bound.
    pub bound: Bound,
}

/// Every ratio gate, in the order `repro bench-check` prints them, each
/// under the issue that set its bound and what it promises (200k-paper
/// corpus throughout).
#[rustfmt::skip]
pub const GATES: &[Gate] = &[
    // ISSUE 4: first `top_k` from the snapshot store vs TSV parse + full re-rank.
    Gate { group: "store_load", name: "cold_start_speedup", bound: Bound::Floor(10.0),
           numerator: "first_topk_tsv_200k", denominator: "first_topk_store_200k" },
    // ISSUE 5: a selective filtered query at k=10 vs filtering the materialized full ranking.
    Gate { group: "query", name: "filtered_speedup", bound: Bound::Floor(10.0),
           numerator: "post_filter_200k", denominator: "selective_venue_200k" },
    // ISSUE 19: the global top 10 on the real `cc` vector, the walk over the epoch's block
    // maxima (whole query path) vs the summary-less stream that reads every score.
    Gate { group: "query", name: "block_pruned_speedup", bound: Bound::Floor(4.0),
           numerator: "unfiltered_stream_200k", denominator: "unfiltered_200k" },
    // Page 2 of the global top 10 on the real `cc` vector: the walk over a head-less summary
    // (kernel alone) vs the slice of the epoch's head (whole query path).
    Gate { group: "query", name: "head_slice_speedup", bound: Bound::Floor(5.0),
           numerator: "unfiltered_page2_walk_200k", denominator: "unfiltered_page2_200k" },
    // The current year's page at k=25 on the real `cc` vector: the walk of its id range over
    // a summary without heads (kernel alone) vs the slice of its year cut's head (whole query
    // path).
    Gate { group: "query", name: "year_head_slice_speedup", bound: Bound::Floor(5.0),
           numerator: "year_suffix_walk_200k", denominator: "year_suffix_page_200k" },
    // A recent-years venue page (whole query path: a slice of its venue's year-cut head) vs the
    // band gather + quickselect.
    Gate { group: "query", name: "venue_band_pruned_speedup", bound: Bound::Floor(2.0),
           numerator: "venue_year_gather_200k", denominator: "venue_year_200k" },
    // The same recent-years venue band, kernels alone: the walk over a posting summary
    // without heads vs the slice of its venue's year-cut head.
    Gate { group: "query", name: "venue_head_slice_speedup", bound: Bound::Floor(5.0),
           numerator: "venue_year_walk_200k", denominator: "venue_year_slice_200k" },
    // ISSUE 6: a year-filtered top-k, 8 shards pruned vs the unsharded scan.
    Gate { group: "sharded", name: "pruned_speedup", bound: Bound::Floor(3.0),
           numerator: "year_filtered_scan_200k", denominator: "year_filtered_8shard_200k" },
    // ISSUE 6: a tail-shard ingest + publish vs a whole-corpus one.
    Gate { group: "sharded", name: "tail_ingest_speedup", bound: Bound::Floor(4.0),
           numerator: "full_ingest_unsharded_200k", denominator: "tail_ingest_8shard_200k" },
    // ISSUE 7: a selective author-filtered top-k at k=10, posting list vs IdMask-residual scan.
    Gate { group: "index_vs_scan", name: "index_speedup", bound: Bound::Floor(10.0),
           numerator: "author_mask_residual_200k", denominator: "author_posting_200k" },
    // ISSUE 8: a cached `seed=` top-k vs a cold push solve.
    Gate { group: "personalized", name: "cache_speedup", bound: Bound::Floor(50.0),
           numerator: "cold_push_200k", denominator: "cache_hit_200k" },
    // ISSUE 8: a cold push solve vs the dense power-iteration solve.
    Gate { group: "personalized", name: "push_speedup", bound: Bound::Floor(5.0),
           numerator: "dense_solve_200k", denominator: "cold_push_200k" },
    // ISSUE 8: a warm re-push across a ~1% publish must beat re-solving cold.
    Gate { group: "personalized", name: "warm_speedup", bound: Bound::Floor(1.0),
           numerator: "cold_push_200k", denominator: "warm_repush_200k" },
    // ISSUE 10: one `query_batch` over the mixed workload vs the same queries sequentially.
    Gate { group: "throughput", name: "batched_speedup", bound: Bound::Floor(2.0),
           numerator: "sequential_mixed_200k", denominator: "batched_mixed_200k" },
    // ISSUE 13: the successor network by copy-and-merge (`with_delta`, 800-edge batch) vs
    // the edge-list rebuild it replaced (`Csr::from_edges` + `transpose`).
    Gate { group: "incremental", name: "delta_apply_speedup", bound: Bound::Floor(4.0),
           numerator: "rebuild_200k", denominator: "with_delta_200k/800" },
    // ISSUE 17: one 3-lane push (steady-state `update_delta`, carrying the personalization
    // too) vs the three `K = 1` pushes it replaced, 100-paper batch. Not 3x: the interleaved
    // residual is three times the footprint and the union of the three push sets is a
    // quarter larger than any one.
    Gate { group: "incremental", name: "fused_push_speedup", bound: Bound::Floor(1.25),
           numerator: "three_pushes_200k/800", denominator: "update_delta_200k/800" },
    // ISSUE 9: the instrumented query path within 10% of the bare one — a ceiling.
    Gate { group: "metrics_overhead", name: "instrumented_ratio", bound: Bound::Ceiling(1.10),
           numerator: "selective_venue_instrumented", denominator: "selective_venue_bare" },
];

/// The table row printed as `group/name`.
///
/// # Panics
/// When no gate has that name (names are unique across groups).
pub fn gate(name: &str) -> &'static Gate {
    GATES
        .iter()
        .find(|g| g.name == name)
        .unwrap_or_else(|| panic!("no ratio gate named {name:?}"))
}

impl Gate {
    /// The gate's ratio as recorded in a report; `None` when either row
    /// is absent.
    pub fn ratio(&self, records: &[BenchRecord]) -> Option<f64> {
        let min_ns = |id: &str| min_ns(records, self.group, id);
        Some(min_ns(self.numerator)? / min_ns(self.denominator)?.max(1.0))
    }

    /// Whether `ratio` is on the right side of the bound.
    pub fn holds(&self, ratio: f64) -> bool {
        match self.bound {
            Bound::Floor(floor) => ratio >= floor,
            Bound::Ceiling(ceiling) => ratio <= ceiling,
        }
    }
}

/// `min_ns` of `index_vs_scan/author_posting_200k` in the baseline the
/// baked [`CostModel`] was fit against: the gather-side anchor (scales
/// the per-candidate constants).
const REF_POSTING_NS: f64 = 861.0;
/// `min_ns` of `index_vs_scan/author_mask_residual_200k` there: the
/// scan-side anchor (scales the per-id and per-mask constants).
const REF_RESIDUAL_NS: f64 = 268_024.0;

/// The planner's [`CostModel`] re-fitted to a bench report: each baked
/// constant scales by its anchor's measured/reference ratio, preserving
/// the within-shape ratios. `None` when either anchor row is absent or
/// degenerate. Nothing installs the result — engines plan under the baked
/// constants, `repro bench-check` prints the two side by side, and
/// `QueryEngine::set_cost_model` is the explicit way in.
pub fn fit_cost_model(records: &[BenchRecord]) -> Option<CostModel> {
    let anchor =
        |id: &str| min_ns(records, "index_vs_scan", id).filter(|ns| ns.is_finite() && *ns > 0.0);
    let band_ratio = anchor("author_posting_200k")? / REF_POSTING_NS;
    let scan_ratio = anchor("author_mask_residual_200k")? / REF_RESIDUAL_NS;
    let baked = CostModel::default();
    Some(CostModel {
        scan_per_id: baked.scan_per_id * scan_ratio,
        band_per_candidate: baked.band_per_candidate * band_ratio,
        dedup_per_candidate: baked.dedup_per_candidate * band_ratio,
        mask_insert: baked.mask_insert * scan_ratio,
        mask_per_word: baked.mask_per_word * scan_ratio,
    })
}

/// Outcome of one guarded comparison.
#[derive(Debug)]
pub struct Comparison {
    /// `group/id` label.
    pub label: String,
    /// Committed baseline `min_ns`.
    pub baseline_ns: f64,
    /// Freshly measured `min_ns`.
    pub current_ns: f64,
    /// `current / baseline`.
    pub ratio: f64,
    /// Whether the ratio exceeds the allowed regression.
    pub regressed: bool,
}

/// Compares the guarded subset of `baseline` against `current` records.
///
/// `max_regression` is fractional (0.25 = fail beyond +25% of the
/// baseline's `min_ns`). Guarded baseline entries missing from `current`
/// are skipped (a filtered bench run); the caller decides whether zero
/// comparisons is acceptable. When `current` holds duplicates of one
/// `(group, id)` the *first* wins — callers pass records newest-first.
pub fn compare(
    baseline: &[BenchRecord],
    current: &[BenchRecord],
    max_regression: f64,
) -> Vec<Comparison> {
    baseline
        .iter()
        .filter(|b| is_guarded(b))
        .filter_map(|b| {
            let cur = current
                .iter()
                .find(|c| c.group == b.group && c.id == b.id)?;
            let ratio = cur.min_ns / b.min_ns.max(1.0);
            Some(Comparison {
                label: format!("{}/{}", b.group, b.id),
                baseline_ns: b.min_ns,
                current_ns: cur.min_ns,
                ratio,
                regressed: ratio > 1.0 + max_regression,
            })
        })
        .collect()
}

/// A JSON value: what `BENCH_history.jsonl` lines and `e2ebench` result
/// lines are read as, and history lines written from. Objects keep their
/// key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        match p.at == p.bytes.len() {
            true => Ok(value),
            false => Err(format!("trailing characters at byte {}", p.at)),
        }
    }

    /// The value of `key` when this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number this is, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(x) => Some(x),
            _ => None,
        }
    }
}

impl std::fmt::Display for Json {
    /// Compact JSON; a non-finite number is written `null`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_json_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{}{item}", if i > 0 { ", " } else { "" })?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    f.write_str(if i > 0 { ", " } else { "" })?;
                    write_json_str(f, key)?;
                    write!(f, ": {value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// `s` as a JSON string literal.
fn write_json_str(f: &mut std::fmt::Formatter<'_>, s: &str) -> std::fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if c.is_control() => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Recursive-descent reader behind [`Json::parse`].
struct JsonParser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), String> {
        match self.bytes[self.at..].starts_with(token.as_bytes()) {
            true => {
                self.at += token.len();
                Ok(())
            }
            false => Err(format!("expected {token:?} at byte {}", self.at)),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'n') => self.expect("null").map(|_| Json::Null),
            Some(b't') => self.expect("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.bytes.get(self.at) == Some(&b']') {
                        self.at += 1;
                        return Ok(Json::Arr(items));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(":")?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    if self.bytes.get(self.at) == Some(&b'}') {
                        self.at += 1;
                        return Ok(Json::Obj(fields));
                    }
                    self.expect(",")?;
                }
            }
            Some(_) => {
                let len = self.bytes[self.at..]
                    .iter()
                    .take_while(|c| {
                        c.is_ascii_digit() || matches!(c, b'.' | b'-' | b'+' | b'e' | b'E')
                    })
                    .count();
                let text = std::str::from_utf8(&self.bytes[self.at..self.at + len]).unwrap_or("");
                let x = text
                    .parse()
                    .map_err(|_| format!("bad value at byte {}", self.at))?;
                self.at += len;
                Ok(Json::Num(x))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.bytes[self.at..]).map_err(|e| e.to_string())?;
            let mut chars = rest.chars();
            let c = chars.next().ok_or("unterminated string")?;
            self.at += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = chars.next().ok_or("unterminated escape")?;
                    self.at += 1;
                    out.push(match e {
                        'n' => '\n',
                        't' => '\t',
                        'r' => '\r',
                        'b' => '\u{8}',
                        'f' => '\u{c}',
                        'u' => {
                            let hex = rest.get(2..6).ok_or("short \\u escape")?;
                            self.at += 4;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        other => other,
                    });
                }
                c => out.push(c),
            }
        }
    }
}

/// Medians of the end-to-end metrics over the `e2ebench` result lines in
/// `text` (each run's last stdout line; any other line is skipped), with
/// how many runs there were: `{"runs": n, "<metric>": median, …}`, the
/// metrics in the first run's order.
///
/// # Errors
/// When `text` holds no result line, or a run is not `correct` or failed
/// an operation — a history records only sound runs.
pub fn e2e_medians(text: &str) -> Result<Json, String> {
    let runs: Vec<Json> = text
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|run| run.get("metrics").is_some())
        .collect();
    if runs.is_empty() {
        return Err("no e2ebench result line".into());
    }
    for run in &runs {
        let failed = run.get("failed").and_then(Json::as_f64);
        if run.get("correct") != Some(&Json::Bool(true)) || failed != Some(0.0) {
            return Err(format!("a run was not correct or failed operations: {run}"));
        }
    }
    let Some(Json::Obj(first)) = runs[0].get("metrics") else {
        return Err("`metrics` is not an object".into());
    };
    let mut medians = vec![("runs".to_string(), Json::Num(runs.len() as f64))];
    for (name, _) in first {
        let mut values: Vec<f64> = runs
            .iter()
            .filter_map(|run| run.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect();
        values.sort_by(f64::total_cmp);
        let mid = values.len() / 2;
        let median = match values.len() % 2 {
            1 => values[mid],
            _ => (values[mid - 1] + values[mid]) / 2.0,
        };
        medians.push((name.clone(), Json::Num(median)));
    }
    Ok(Json::Obj(medians))
}

/// One `BENCH_history.jsonl` line: `date`, `commit`, every [`GATES`]
/// ratio `records` hold (`null` where a row is missing) under
/// `group/name`, and the end-to-end medians of each workload in `e2e`
/// ([`e2e_medians`]).
pub fn history_line(
    date: &str,
    commit: &str,
    records: &[BenchRecord],
    e2e: Vec<(String, Json)>,
) -> String {
    let gates = GATES
        .iter()
        .map(|g| {
            let ratio = g.ratio(records).map_or(Json::Null, Json::Num);
            (format!("{}/{}", g.group, g.name), ratio)
        })
        .collect();
    let line = Json::Obj(vec![
        ("date".into(), Json::Str(date.into())),
        ("commit".into(), Json::Str(commit.into())),
        ("gates".into(), Json::Obj(gates)),
        ("e2e".into(), Json::Obj(e2e)),
    ]);
    line.to_string()
}

/// Checks one `BENCH_history.jsonl` line: an object with a `date`
/// (`YYYY-MM-DD`) and a `commit` string, `gates` mapping names to ratios
/// or `null`, and `e2e` mapping workloads to objects of numbers that
/// count their `runs`.
pub fn check_history_line(line: &str) -> Result<(), String> {
    let entry = Json::parse(line)?;
    let is_date = |s: &str| {
        let b = s.as_bytes();
        b.len() == 10
            && b[4] == b'-'
            && b[7] == b'-'
            && s.replace('-', "").bytes().all(|c| c.is_ascii_digit())
    };
    match entry.get("date") {
        Some(Json::Str(d)) if is_date(d) => {}
        other => return Err(format!("`date` is not YYYY-MM-DD: {other:?}")),
    }
    if !matches!(entry.get("commit"), Some(Json::Str(c)) if !c.is_empty()) {
        return Err("`commit` is not a string".into());
    }
    let Some(Json::Obj(gates)) = entry.get("gates") else {
        return Err("`gates` is not an object".into());
    };
    if let Some((name, _)) = gates
        .iter()
        .find(|(_, r)| !matches!(r, Json::Num(_) | Json::Null))
    {
        return Err(format!("gate {name} is neither a ratio nor null"));
    }
    let Some(Json::Obj(workloads)) = entry.get("e2e") else {
        return Err("`e2e` is not an object".into());
    };
    for (workload, medians) in workloads {
        let Json::Obj(fields) = medians else {
            return Err(format!("e2e {workload} is not an object"));
        };
        if medians
            .get("runs")
            .and_then(Json::as_f64)
            .is_none_or(|n| n < 1.0)
        {
            return Err(format!("e2e {workload} counts no runs"));
        }
        if let Some((name, _)) = fields.iter().find(|(_, v)| v.as_f64().is_none()) {
            return Err(format!("e2e {workload}: {name} is not a number"));
        }
    }
    Ok(())
}

/// The UTC calendar date `secs` seconds after the Unix epoch, as
/// `YYYY-MM-DD` (the proleptic Gregorian civil-from-days conversion).
pub fn utc_date(secs: u64) -> String {
    let days = (secs / 86_400) as i64 + 719_468;
    let era = days.div_euclid(146_097);
    let doe = days.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
  "note": "x",
  "kernels": [
    {"group": "top_k", "id": "partial_select_50k/10", "mean_ns": 130000.0, "min_ns": 100000.0, "iterations": 10},
    {"group": "kernels", "id": "stochastic_apply_20k", "mean_ns": 1.0, "min_ns": 500000.0, "iterations": 3},
    {"group": "metrics", "id": "spearman_10k", "mean_ns": 1.0, "min_ns": 9.0, "iterations": 3}
  ]
}"#;

    #[test]
    fn parses_flat_records_from_nested_document() {
        let records = parse_records(BASELINE).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].group, "top_k");
        assert_eq!(records[0].id, "partial_select_50k/10");
        assert_eq!(records[0].min_ns, 100000.0);
    }

    #[test]
    fn guard_covers_top_k_stochastic_apply_and_store_load() {
        let records = parse_records(BASELINE).unwrap();
        let guarded: Vec<_> = records.iter().filter(|r| is_guarded(r)).collect();
        assert_eq!(guarded.len(), 2);
        assert!(guarded
            .iter()
            .all(|r| r.group == "top_k" || r.id.starts_with("stochastic_apply")));
        // The store cold-start path is guarded; the (slow) TSV reference
        // is not — it exists to form the speedup ratio.
        assert!(is_guarded(&BenchRecord {
            group: "store_load".into(),
            id: "first_topk_store_200k".into(),
            min_ns: 1.0,
        }));
        assert!(!is_guarded(&BenchRecord {
            group: "store_load".into(),
            id: "first_topk_tsv_200k".into(),
            min_ns: 1.0,
        }));
    }

    #[test]
    fn query_group_guard_excludes_the_naive_reference() {
        let rec = |id: &str| BenchRecord {
            group: "query".into(),
            id: id.into(),
            min_ns: 1.0,
        };
        assert!(is_guarded(&rec("selective_venue_200k")));
        assert!(is_guarded(&rec("selective_author_50k")));
        assert!(is_guarded(&rec("broad_year_200k")));
        assert!(is_guarded(&rec("masked_venue_200k")));
        assert!(is_guarded(&rec("unfiltered_200k")));
        assert!(is_guarded(&rec("pruned_deep_cursor_200k")));
        assert!(is_guarded(&rec("venue_year_200k")));
        assert!(!is_guarded(&rec("venue_year_gather_200k")));
        assert!(!is_guarded(&rec("post_filter_200k")));
        assert!(!is_guarded(&rec("post_filter_50k")));
        assert!(!is_guarded(&rec("unfiltered_stream_200k")));
        assert!(!is_guarded(&rec("stream_deep_count_200k")));
    }

    #[test]
    fn sharded_group_guard_excludes_the_reference_rows() {
        let rec = |id: &str| BenchRecord {
            group: "sharded".into(),
            id: id.into(),
            min_ns: 1.0,
        };
        assert!(is_guarded(&rec("year_filtered_8shard_200k")));
        assert!(is_guarded(&rec("venue_year_8shard_200k")));
        assert!(is_guarded(&rec("tail_ingest_8shard_200k")));
        assert!(!is_guarded(&rec("year_filtered_scan_200k")));
        assert!(!is_guarded(&rec("year_filtered_unsharded_200k")));
        assert!(!is_guarded(&rec("venue_year_unsharded_200k")));
        assert!(!is_guarded(&rec("full_ingest_unsharded_200k")));
    }

    #[test]
    fn sharded_speedups_are_min_ns_ratios() {
        let rec = |id: &str, min_ns: f64| BenchRecord {
            group: "sharded".into(),
            id: id.into(),
            min_ns,
        };
        let records = vec![
            rec("year_filtered_8shard_200k", 40_000.0),
            rec("year_filtered_scan_200k", 400_000.0),
            rec("tail_ingest_8shard_200k", 1_000_000.0),
            rec("full_ingest_unsharded_200k", 8_000_000.0),
        ];
        assert_eq!(gate("pruned_speedup").ratio(&records), Some(10.0));
        assert_eq!(gate("tail_ingest_speedup").ratio(&records), Some(8.0));
        assert_eq!(gate("pruned_speedup").bound, Bound::Floor(3.0));
        assert!(gate("pruned_speedup").holds(3.0) && !gate("pruned_speedup").holds(2.9));
        // Either side missing → no ratio.
        assert_eq!(gate("pruned_speedup").ratio(&records[..1]), None);
        assert_eq!(gate("tail_ingest_speedup").ratio(&records[..2]), None);
        assert_eq!(gate("pruned_speedup").ratio(&[]), None);
    }

    #[test]
    fn index_group_guard_excludes_the_residual_rows() {
        let rec = |id: &str| BenchRecord {
            group: "index_vs_scan".into(),
            id: id.into(),
            min_ns: 1.0,
        };
        assert!(is_guarded(&rec("author_posting_200k")));
        assert!(is_guarded(&rec("composite_author_year_200k")));
        assert!(is_guarded(&rec("or_venues_200k")));
        assert!(!is_guarded(&rec("author_mask_residual_200k")));
        assert!(!is_guarded(&rec("residual_author_year_200k")));
    }

    #[test]
    fn index_vs_scan_speedup_is_the_min_ns_ratio() {
        let rec = |id: &str, min_ns: f64| BenchRecord {
            group: "index_vs_scan".into(),
            id: id.into(),
            min_ns,
        };
        let records = vec![
            rec("author_posting_200k", 20_000.0),
            rec("author_mask_residual_200k", 600_000.0),
        ];
        assert_eq!(gate("index_speedup").ratio(&records), Some(30.0));
        assert_eq!(gate("index_speedup").ratio(&records[..1]), None);
        assert_eq!(gate("index_speedup").ratio(&[]), None);
    }

    #[test]
    fn personalized_group_guard_excludes_the_dense_reference() {
        let rec = |id: &str| BenchRecord {
            group: "personalized".into(),
            id: id.into(),
            min_ns: 1.0,
        };
        assert!(is_guarded(&rec("cold_push_200k")));
        assert!(is_guarded(&rec("cache_hit_200k")));
        assert!(is_guarded(&rec("warm_repush_200k")));
        assert!(!is_guarded(&rec("dense_solve_200k")));
    }

    #[test]
    fn personalized_speedups_are_min_ns_ratios() {
        let rec = |id: &str, min_ns: f64| BenchRecord {
            group: "personalized".into(),
            id: id.into(),
            min_ns,
        };
        let records = vec![
            rec("dense_solve_200k", 80_000_000.0),
            rec("cold_push_200k", 4_000_000.0),
            rec("cache_hit_200k", 400.0),
            rec("warm_repush_200k", 1_000_000.0),
        ];
        assert_eq!(gate("push_speedup").ratio(&records), Some(20.0));
        assert_eq!(gate("cache_speedup").ratio(&records), Some(10_000.0));
        assert_eq!(gate("warm_speedup").ratio(&records), Some(4.0));
        // Either side missing → no ratio.
        assert_eq!(gate("push_speedup").ratio(&records[2..]), None);
        assert_eq!(gate("cache_speedup").ratio(&records[..2]), None);
        assert_eq!(gate("warm_speedup").ratio(&records[..3]), None);
        assert_eq!(gate("push_speedup").ratio(&[]), None);
    }

    #[test]
    fn metrics_group_guard_excludes_the_bare_reference() {
        let rec = |id: &str| BenchRecord {
            group: "metrics_overhead".into(),
            id: id.into(),
            min_ns: 1.0,
        };
        assert!(is_guarded(&rec("selective_venue_instrumented")));
        assert!(!is_guarded(&rec("selective_venue_bare")));
    }

    #[test]
    fn metrics_overhead_is_the_min_ns_ratio() {
        let rec = |id: &str, min_ns: f64| BenchRecord {
            group: "metrics_overhead".into(),
            id: id.into(),
            min_ns,
        };
        let records = vec![
            rec("selective_venue_bare", 40_000.0),
            rec("selective_venue_instrumented", 42_000.0),
        ];
        let overhead = gate("instrumented_ratio");
        assert_eq!(overhead.ratio(&records), Some(1.05));
        // A ceiling, not a floor: at the bound holds, above it does not.
        assert_eq!(overhead.bound, Bound::Ceiling(1.10));
        assert!(overhead.holds(1.10) && !overhead.holds(1.11));
        // Either side missing → no ratio.
        assert_eq!(gate("instrumented_ratio").ratio(&records[..1]), None);
        assert_eq!(gate("instrumented_ratio").ratio(&records[1..]), None);
        assert_eq!(gate("instrumented_ratio").ratio(&[]), None);
    }

    #[test]
    fn throughput_group_guard_excludes_the_sequential_reference() {
        let rec = |id: &str| BenchRecord {
            group: "throughput".into(),
            id: id.into(),
            min_ns: 1.0,
        };
        assert!(is_guarded(&rec("batched_mixed_200k")));
        assert!(!is_guarded(&rec("sequential_mixed_200k")));
    }

    #[test]
    fn batched_throughput_speedup_is_the_min_ns_ratio() {
        let rec = |id: &str, min_ns: f64| BenchRecord {
            group: "throughput".into(),
            id: id.into(),
            min_ns,
        };
        let records = vec![
            rec("sequential_mixed_200k", 9_000_000.0),
            rec("batched_mixed_200k", 3_000_000.0),
        ];
        assert_eq!(gate("batched_speedup").ratio(&records), Some(3.0));
        // Either side missing → no ratio.
        assert_eq!(gate("batched_speedup").ratio(&records[..1]), None);
        assert_eq!(gate("batched_speedup").ratio(&records[1..]), None);
        assert_eq!(gate("batched_speedup").ratio(&[]), None);
    }

    #[test]
    fn delta_apply_speedup_is_the_min_ns_ratio() {
        let rec = |id: &str, min_ns: f64| BenchRecord {
            group: "incremental".into(),
            id: id.into(),
            min_ns,
        };
        let records = vec![
            rec("with_delta_200k/8", 1_000_000.0),
            rec("with_delta_200k/800", 4_000_000.0),
            rec("rebuild_200k", 28_000_000.0),
        ];
        assert_eq!(gate("delta_apply_speedup").ratio(&records), Some(7.0));
        // Either side missing → no ratio; the reference rows are unguarded.
        assert_eq!(gate("delta_apply_speedup").ratio(&records[..2]), None);
        assert_eq!(gate("delta_apply_speedup").ratio(&records[2..]), None);
        assert!(records.iter().all(|r| !is_guarded(r)));
    }

    #[test]
    fn fused_push_speedup_is_the_min_ns_ratio() {
        let rec = |id: &str, min_ns: f64| BenchRecord {
            group: "incremental".into(),
            id: id.into(),
            min_ns,
        };
        let records = vec![
            rec("update_delta_200k/8", 5_000_000.0),
            rec("update_delta_200k/800", 8_000_000.0),
            rec("three_pushes_200k/800", 14_000_000.0),
        ];
        assert_eq!(gate("fused_push_speedup").ratio(&records), Some(1.75));
        // Either side missing → no ratio; the rows are unguarded (the
        // gate is the same-run ratio, not an absolute time).
        assert_eq!(gate("fused_push_speedup").ratio(&records[..2]), None);
        assert_eq!(gate("fused_push_speedup").ratio(&records[2..]), None);
        assert!(records.iter().all(|r| !is_guarded(r)));
    }

    #[test]
    fn filtered_query_speedup_is_the_min_ns_ratio() {
        let records = vec![
            BenchRecord {
                group: "query".into(),
                id: "selective_venue_200k".into(),
                min_ns: 50_000.0,
            },
            BenchRecord {
                group: "query".into(),
                id: "post_filter_200k".into(),
                min_ns: 2_000_000.0,
            },
        ];
        assert_eq!(gate("filtered_speedup").ratio(&records), Some(40.0));
        assert_eq!(gate("filtered_speedup").ratio(&records[..1]), None);
        assert_eq!(gate("filtered_speedup").ratio(&[]), None);
    }

    #[test]
    fn cold_start_speedup_is_the_min_ns_ratio() {
        let records = vec![
            BenchRecord {
                group: "store_load".into(),
                id: "first_topk_store_200k".into(),
                min_ns: 2_000_000.0,
            },
            BenchRecord {
                group: "store_load".into(),
                id: "first_topk_tsv_200k".into(),
                min_ns: 50_000_000.0,
            },
        ];
        assert_eq!(gate("cold_start_speedup").ratio(&records), Some(25.0));
        // Either record missing → no ratio.
        assert_eq!(gate("cold_start_speedup").ratio(&records[..1]), None);
        assert_eq!(gate("cold_start_speedup").ratio(&[]), None);
    }

    #[test]
    fn every_gate_finds_both_rows_in_the_committed_baseline() {
        // A row whose id matches nothing never fails — it silently never
        // gates. The committed baseline carries every gated bench, so
        // each table row must resolve there (and hold).
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
        let baseline = parse_records(&std::fs::read_to_string(path).expect("baseline")).unwrap();
        assert_eq!(GATES.len(), 17);
        for g in GATES {
            let ratio = g.ratio(&baseline);
            assert!(
                ratio.is_some_and(|r| g.holds(r)),
                "{}/{}: {ratio:?} vs {:?}",
                g.group,
                g.name,
                g.bound
            );
            assert_eq!(gate(g.name), g, "gate names are unique");
        }
    }

    #[test]
    fn every_committed_history_line_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.jsonl");
        let history = std::fs::read_to_string(path).expect("history");
        assert!(history.lines().count() > 0);
        for (i, line) in history.lines().enumerate() {
            check_history_line(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        }
    }

    #[test]
    fn a_history_line_round_trips_gates_and_medians() {
        let runs = [1.0, 3.0, 2.0]
            .iter()
            .map(|qps| {
                format!(
                    r#"{{"correct": true, "attempted": 9, "failed": 0, "metrics": {{"read_qps": {{"value": {qps}, "unit": "1/s"}}, "setup_s": {{"value": 0.5, "unit": "s"}}}}}}"#
                )
            })
            .collect::<Vec<_>>()
            .join("\nnot a result\n");
        let medians = e2e_medians(&runs).unwrap();
        assert_eq!(
            medians.to_string(),
            r#"{"runs": 3, "read_qps": 2, "setup_s": 0.5}"#
        );
        let records = parse_records(
            r#"[{"group": "store_load", "id": "first_topk_tsv_200k", "min_ns": 50.0},
                {"group": "store_load", "id": "first_topk_store_200k", "min_ns": 2.0}]"#,
        )
        .unwrap();
        let line = history_line(
            "2026-10-17",
            "abc1234",
            &records,
            vec![("read_mixed".into(), medians)],
        );
        check_history_line(&line).unwrap();
        let entry = Json::parse(&line).unwrap();
        let gates = entry.get("gates").unwrap();
        assert_eq!(
            gates.get("store_load/cold_start_speedup"),
            Some(&Json::Num(25.0))
        );
        assert_eq!(
            gates.get("query/year_head_slice_speedup"),
            Some(&Json::Null)
        );
        let qps = entry
            .get("e2e")
            .and_then(|e| e.get("read_mixed")?.get("read_qps"));
        assert_eq!(qps, Some(&Json::Num(2.0)));
        // An unsound run is refused; a malformed line is reported.
        assert!(e2e_medians(&runs.replace("\"failed\": 0", "\"failed\": 1")).is_err());
        assert!(
            check_history_line(r#"{"date": "17 Oct", "commit": "x", "gates": {}, "e2e": {}}"#)
                .is_err()
        );
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(1_792_195_200), "2026-10-17");
    }

    #[test]
    fn cost_model_refits_from_anchor_rows() {
        // Both anchors measuring 2x the reference scale every constant
        // by 2 (ratios between shapes preserved).
        let fit = |json: &str| fit_cost_model(&parse_records(json).unwrap());
        let m = fit(r#"[
          {"group": "index_vs_scan", "id": "author_posting_200k", "min_ns": 1722.0},
          {"group": "index_vs_scan", "id": "author_mask_residual_200k", "min_ns": 536048.0}
        ]"#)
        .unwrap();
        let baked = CostModel::default();
        assert!((m.band_per_candidate - 2.0 * baked.band_per_candidate).abs() < 1e-9);
        assert!((m.dedup_per_candidate - 2.0 * baked.dedup_per_candidate).abs() < 1e-9);
        assert!((m.scan_per_id - 2.0 * baked.scan_per_id).abs() < 1e-9);
        assert!((m.mask_insert - 2.0 * baked.mask_insert).abs() < 1e-9);
        // Missing or degenerate anchors → None.
        assert!(fit("{}").is_none());
        assert!(fit(
            r#"[{"group": "index_vs_scan", "id": "author_posting_200k", "min_ns": 10.0}]"#
        )
        .is_none());
        assert!(fit(
            r#"[{"group": "index_vs_scan", "id": "author_posting_200k", "min_ns": 0.0},
                {"group": "index_vs_scan", "id": "author_mask_residual_200k", "min_ns": 1.0}]"#
        )
        .is_none());
    }

    #[test]
    fn regression_detection_at_threshold() {
        let baseline = parse_records(BASELINE).unwrap();
        let current = vec![
            BenchRecord {
                group: "top_k".into(),
                id: "partial_select_50k/10".into(),
                min_ns: 124_000.0, // +24%: fine
            },
            BenchRecord {
                group: "kernels".into(),
                id: "stochastic_apply_20k".into(),
                min_ns: 700_000.0, // +40%: regression
            },
        ];
        let cmp = compare(&baseline, &current, 0.25);
        assert_eq!(cmp.len(), 2);
        assert!(!cmp[0].regressed);
        assert!(cmp[1].regressed);
    }

    #[test]
    fn missing_current_records_are_skipped() {
        let baseline = parse_records(BASELINE).unwrap();
        assert!(compare(&baseline, &[], 0.25).is_empty());
    }

    #[test]
    fn shim_report_format_parses() {
        let shim = "[\n  {\"group\": \"top_k\", \"id\": \"full_sort_50k\", \"mean_ns\": 3.1, \"min_ns\": 2.5, \"iterations\": 96}\n]\n";
        let records = parse_records(shim).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].min_ns, 2.5);
    }

    #[test]
    fn a_truncated_report_is_an_error() {
        // Cut mid-way through the second record: the first record parsed
        // whole, but the document did not, so nothing is returned.
        let shim = "[\n  {\"group\": \"top_k\", \"id\": \"a\", \"min_ns\": 2.5},\n  {\"group\": \"top_k\", \"id\": \"b\", \"min";
        assert!(parse_records(shim).is_err());
        assert!(parse_records("").is_err());
        // Objects missing a field, or with a field of the wrong type, are
        // not records.
        let records = parse_records(
            r#"[{"group": "g", "id": "x"}, {"group": "g", "id": 3, "min_ns": 1.0},
                {"group": "g", "id": "y", "min_ns": 4.0}]"#,
        )
        .unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].id, "y");
    }
}
