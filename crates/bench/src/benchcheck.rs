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
//! Parsing is a dependency-free scanner for the flat `{"group": …,
//! "id": …, "min_ns": …}` objects both file formats contain; surrounding
//! structure (top-level object vs array, pretty-printing) is irrelevant.

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

/// Extracts every flat object carrying `group`/`id`/`min_ns` fields from a
/// JSON document (objects with nested braces are skipped — records in both
/// the shim reports and the baseline are flat).
pub fn parse_records(json: &str) -> Vec<BenchRecord> {
    let bytes = json.as_bytes();
    let mut records = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    let mut nested = vec![false];
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'{' => {
                stack.push(i);
                nested.push(false);
            }
            b'}' => {
                let was_nested = nested.pop().unwrap_or(false);
                if let Some(start) = stack.pop() {
                    if let Some(top) = nested.last_mut() {
                        *top = true;
                    }
                    if !was_nested {
                        let seg = &json[start..=i];
                        if let (Some(group), Some(id), Some(min_ns)) = (
                            field_str(seg, "group"),
                            field_str(seg, "id"),
                            field_num(seg, "min_ns"),
                        ) {
                            records.push(BenchRecord { group, id, min_ns });
                        }
                    }
                }
            }
            _ => {}
        }
    }
    records
}

/// Value of a `"key": "string"` field inside a flat object segment.
fn field_str(seg: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let at = seg.find(&pat)? + pat.len();
    let rest = seg[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Value of a `"key": number` field inside a flat object segment.
fn field_num(seg: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let at = seg.find(&pat)? + pat.len();
    let rest = seg[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `true` when a record belongs to the guarded regression set.
pub fn is_guarded(r: &BenchRecord) -> bool {
    r.group == "top_k"
        || r.id.starts_with("stochastic_apply")
        || (r.group == "store_load" && r.id.starts_with("first_topk_store"))
        // The query group is guarded except its naive reference rows
        // (post_filter_*), which exist only to form the speedup ratio.
        || (r.group == "query" && !r.id.starts_with("post_filter"))
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

/// The cold-start speedup recorded in a report: `min_ns` of the TSV
/// parse + full re-rank path over the snapshot-store path (both in the
/// `store_load` group). `None` when either record is absent.
///
/// Unlike the absolute `min_ns` gates this is a *ratio*, so it holds
/// across machines — `repro bench-check` fails when it drops below
/// [`MIN_COLD_START_SPEEDUP`].
pub fn cold_start_speedup(records: &[BenchRecord]) -> Option<f64> {
    let find = |prefix: &str| {
        records
            .iter()
            .find(|r| r.group == "store_load" && r.id.starts_with(prefix))
            .map(|r| r.min_ns)
    };
    let store = find("first_topk_store")?;
    let tsv = find("first_topk_tsv")?;
    Some(tsv / store.max(1.0))
}

/// Acceptance floor for [`cold_start_speedup`] (ISSUE 4: ≥10× faster
/// cold start to first `top_k` on the 200k-paper graph).
pub const MIN_COLD_START_SPEEDUP: f64 = 10.0;

/// The filtered-query speedup recorded in a report: `min_ns` of the
/// filter-after-full-top-k materialization over the planner-driven
/// selective query (both in the `query` group, 200k-paper graph, k=10).
/// `None` when either record is absent.
///
/// A ratio of two measurements from the same run, so — like
/// [`cold_start_speedup`] — it holds across machines and is gated
/// directly by `repro bench-check`.
pub fn filtered_query_speedup(records: &[BenchRecord]) -> Option<f64> {
    let find = |prefix: &str| {
        records
            .iter()
            .find(|r| r.group == "query" && r.id.starts_with(prefix))
            .map(|r| r.min_ns)
    };
    let selective = find("selective_venue_200k")?;
    let naive = find("post_filter_200k")?;
    Some(naive / selective.max(1.0))
}

/// Acceptance floor for [`filtered_query_speedup`] (ISSUE 5: a selective
/// filtered query at k=10 on the 200k-paper graph ≥10× faster than
/// filtering the materialized full ranking).
pub const MIN_FILTERED_QUERY_SPEEDUP: f64 = 10.0;

/// The shard-pruning speedup recorded in a report: `min_ns` of the
/// unsharded full scan (`year_filtered_scan_*`) over the shard-pruned
/// scatter-gather path (`year_filtered_8shard_*`), both in the
/// `sharded` group on the same 200k-paper graph. `None` when either
/// record is absent.
///
/// A ratio of two measurements from the same run, so — like the other
/// ratio gates — it holds across machines and is enforced directly by
/// `repro bench-check`.
pub fn pruned_speedup(records: &[BenchRecord]) -> Option<f64> {
    let find = |prefix: &str| {
        records
            .iter()
            .find(|r| r.group == "sharded" && r.id.starts_with(prefix))
            .map(|r| r.min_ns)
    };
    let pruned = find("year_filtered_8shard")?;
    let scan = find("year_filtered_scan")?;
    Some(scan / pruned.max(1.0))
}

/// Acceptance floor for [`pruned_speedup`] (ISSUE 6: a year-filtered
/// top-k on an 8-shard 200k-paper corpus ≥3× faster than the unsharded
/// scan by min wall-clock).
pub const MIN_PRUNED_SPEEDUP: f64 = 3.0;

/// The tail-routed ingest speedup recorded in a report: `min_ns` of the
/// flat engine's whole-corpus ingest+publish
/// (`full_ingest_unsharded_*`) over the sharded engine's tail-band-only
/// ingest+publish (`tail_ingest_8shard_*`), both in the `sharded`
/// group. `None` when either record is absent.
pub fn tail_ingest_speedup(records: &[BenchRecord]) -> Option<f64> {
    let find = |prefix: &str| {
        records
            .iter()
            .find(|r| r.group == "sharded" && r.id.starts_with(prefix))
            .map(|r| r.min_ns)
    };
    let tail = find("tail_ingest_8shard")?;
    let full = find("full_ingest_unsharded")?;
    Some(full / tail.max(1.0))
}

/// Acceptance floor for [`tail_ingest_speedup`] (ISSUE 6: a tail-shard
/// ingest publish ≥4× faster than a whole-corpus publish at 200k).
pub const MIN_TAIL_INGEST_SPEEDUP: f64 = 4.0;

/// The index-vs-scan speedup recorded in a report: `min_ns` of the
/// IdMask-residual scan (`author_mask_residual_200k`) over the banded
/// posting-list drive (`author_posting_200k`), both in the
/// `index_vs_scan` group on the same 200k-paper graph at k=10. `None`
/// when either record is absent.
///
/// A ratio of two measurements from the same run, so — like the other
/// ratio gates — it holds across machines and is enforced directly by
/// `repro bench-check`.
pub fn index_vs_scan_speedup(records: &[BenchRecord]) -> Option<f64> {
    let find = |prefix: &str| {
        records
            .iter()
            .find(|r| r.group == "index_vs_scan" && r.id.starts_with(prefix))
            .map(|r| r.min_ns)
    };
    let indexed = find("author_posting_200k")?;
    let residual = find("author_mask_residual_200k")?;
    Some(residual / indexed.max(1.0))
}

/// Acceptance floor for [`index_vs_scan_speedup`] (ISSUE 7: a selective
/// author-filtered top-k at k=10 on the 200k-paper graph ≥10× faster
/// through the posting list than through the IdMask-residual scan).
pub const MIN_INDEX_VS_SCAN_SPEEDUP: f64 = 10.0;

/// Finds the `min_ns` of the `personalized`-group record whose id starts
/// with `prefix`.
fn personalized_min_ns(records: &[BenchRecord], prefix: &str) -> Option<f64> {
    records
        .iter()
        .find(|r| r.group == "personalized" && r.id.starts_with(prefix))
        .map(|r| r.min_ns)
}

/// The personalization cache-hit speedup recorded in a report: `min_ns`
/// of the cold push solve (`cold_push_200k`) over the cache's hit path
/// (`cache_hit_200k`), both in the `personalized` group on the same
/// 200k-paper graph. `None` when either record is absent.
///
/// A ratio of two measurements from the same run, so — like the other
/// ratio gates — it holds across machines and is enforced directly by
/// `repro bench-check`.
pub fn personalized_cache_speedup(records: &[BenchRecord]) -> Option<f64> {
    let cold = personalized_min_ns(records, "cold_push")?;
    let hit = personalized_min_ns(records, "cache_hit")?;
    Some(cold / hit.max(1.0))
}

/// Acceptance floor for [`personalized_cache_speedup`] (ISSUE 8: a
/// cached `seed=` top-k on the 200k-paper graph ≥50× faster than a cold
/// push solve).
pub const MIN_PERSONALIZED_CACHE_SPEEDUP: f64 = 50.0;

/// The seed-set push speedup recorded in a report: `min_ns` of the dense
/// power-iteration reference (`dense_solve_200k`) over the budgeted push
/// solve (`cold_push_200k`), both in the `personalized` group. `None`
/// when either record is absent.
pub fn personalized_push_speedup(records: &[BenchRecord]) -> Option<f64> {
    let dense = personalized_min_ns(records, "dense_solve")?;
    let cold = personalized_min_ns(records, "cold_push")?;
    Some(dense / cold.max(1.0))
}

/// Acceptance floor for [`personalized_push_speedup`] (ISSUE 8: a cold
/// push solve ≥5× faster than the dense solve on the 200k-paper graph).
pub const MIN_PERSONALIZED_PUSH_SPEEDUP: f64 = 5.0;

/// The warm re-push speedup recorded in a report: `min_ns` of the cold
/// push solve (`cold_push_200k`) over the warm re-push across a ~1%
/// publish batch (`warm_repush_200k`), both in the `personalized` group.
/// `None` when either record is absent.
pub fn personalized_warm_speedup(records: &[BenchRecord]) -> Option<f64> {
    let cold = personalized_min_ns(records, "cold_push")?;
    let warm = personalized_min_ns(records, "warm_repush")?;
    Some(cold / warm.max(1.0))
}

/// Acceptance floor for [`personalized_warm_speedup`] (ISSUE 8: a warm
/// re-push after a 1% delta must beat re-solving cold).
pub const MIN_PERSONALIZED_WARM_SPEEDUP: f64 = 1.0;

/// The instrumentation overhead recorded in a report: `min_ns` of the
/// metered query path (`selective_venue_instrumented`) over the bare one
/// (`selective_venue_bare`), both in the `metrics_overhead` group on the
/// same corpus and query. `None` when either record is absent.
///
/// A ratio of two measurements from the same run, so — like the other
/// ratio gates — it holds across machines and is enforced directly by
/// `repro bench-check`.
pub fn metrics_overhead_ratio(records: &[BenchRecord]) -> Option<f64> {
    let find = |needle: &str| {
        records
            .iter()
            .find(|r| r.group == "metrics_overhead" && r.id.contains(needle))
            .map(|r| r.min_ns)
    };
    let instrumented = find("instrumented")?;
    let bare = find("bare")?;
    Some(instrumented / bare.max(1.0))
}

/// Acceptance ceiling for [`metrics_overhead_ratio`] (ISSUE 9: the
/// instrumented query path within 10% of the bare one by min
/// wall-clock).
pub const MAX_METRICS_OVERHEAD_RATIO: f64 = 1.10;

/// The batched-serving speedup recorded in a report: `min_ns` of the
/// sequential per-query loop (`sequential_mixed_200k`) over one
/// `query_batch` call on the same mixed workload (`batched_mixed_200k`),
/// both in the `throughput` group on the same 200k-paper graph. `None`
/// when either record is absent.
///
/// A ratio of two measurements from the same run, so — like the other
/// ratio gates — it holds across machines and is enforced directly by
/// `repro bench-check`.
pub fn batched_throughput_speedup(records: &[BenchRecord]) -> Option<f64> {
    let find = |prefix: &str| {
        records
            .iter()
            .find(|r| r.group == "throughput" && r.id.starts_with(prefix))
            .map(|r| r.min_ns)
    };
    let batched = find("batched_mixed_200k")?;
    let sequential = find("sequential_mixed_200k")?;
    Some(sequential / batched.max(1.0))
}

/// Acceptance floor for [`batched_throughput_speedup`] (ISSUE 10: one
/// `query_batch` over the mixed 200k workload ≥2× the throughput of the
/// same queries served sequentially).
pub const MIN_BATCHED_THROUGHPUT_SPEEDUP: f64 = 2.0;

/// The delta-apply speedup recorded in a report: `min_ns` of the
/// edge-list rebuild of a 200k-paper successor network (`rebuild_200k`:
/// `Csr::from_edges` + `transpose`) over the copy-and-merge
/// `CitationNetwork::with_delta` that replaced it on the publish path
/// (`with_delta_200k/800`), both in the `incremental` group on the same
/// graph and batch. `None` when either record is absent.
///
/// A ratio of two measurements from the same run, so — like the other
/// ratio gates — it holds across machines and is enforced directly by
/// `repro bench-check`.
pub fn delta_apply_speedup(records: &[BenchRecord]) -> Option<f64> {
    let find = |id: &str| {
        records
            .iter()
            .find(|r| r.group == "incremental" && r.id == id)
            .map(|r| r.min_ns)
    };
    let merged = find("with_delta_200k/800")?;
    let rebuilt = find("rebuild_200k")?;
    Some(rebuilt / merged.max(1.0))
}

/// Acceptance floor for [`delta_apply_speedup`] (ISSUE 13: building the
/// successor network by copy-and-merge ≥4× faster than rebuilding it
/// from its edge list at 200k papers).
pub const MIN_DELTA_APPLY_SPEEDUP: f64 = 4.0;

/// The fused-push speedup recorded in a report: `min_ns` of the three
/// sequential `K = 1` pushes a publish used to make (uniform kernel, then
/// the attention and recency components against it —
/// `three_pushes_200k/800`) over the steady-state
/// `IncrementalAttRank::update_delta` that replaced them with one 3-lane
/// push (`update_delta_200k/800`, which also pays for carrying the
/// personalization across the delta), both in the `incremental` group
/// over the same transition. `None` when either record is absent.
///
/// A same-run ratio like the other ratio gates, enforced directly by
/// `repro bench-check`.
pub fn fused_push_speedup(records: &[BenchRecord]) -> Option<f64> {
    let find = |id: &str| {
        records
            .iter()
            .find(|r| r.group == "incremental" && r.id == id)
            .map(|r| r.min_ns)
    };
    let fused = find("update_delta_200k/800")?;
    let sequential = find("three_pushes_200k/800")?;
    Some(sequential / fused.max(1.0))
}

/// Acceptance floor for [`fused_push_speedup`] (ISSUE 17: one traversal
/// of the perturbed cone for AttRank's three systems ≥1.25× faster than
/// three, at 200k papers and a 100-paper batch; not 3× — the interleaved
/// residual is three times the footprint and the union of the three push
/// sets is a quarter larger than any one).
pub const MIN_FUSED_PUSH_SPEEDUP: f64 = 1.25;

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
        let records = parse_records(BASELINE);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].group, "top_k");
        assert_eq!(records[0].id, "partial_select_50k/10");
        assert_eq!(records[0].min_ns, 100000.0);
    }

    #[test]
    fn guard_covers_top_k_stochastic_apply_and_store_load() {
        let records = parse_records(BASELINE);
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
        assert!(!is_guarded(&rec("post_filter_200k")));
        assert!(!is_guarded(&rec("post_filter_50k")));
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
        assert_eq!(pruned_speedup(&records), Some(10.0));
        assert_eq!(tail_ingest_speedup(&records), Some(8.0));
        // Either side missing → no ratio.
        assert_eq!(pruned_speedup(&records[..1]), None);
        assert_eq!(tail_ingest_speedup(&records[..2]), None);
        assert_eq!(pruned_speedup(&[]), None);
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
        assert_eq!(index_vs_scan_speedup(&records), Some(30.0));
        assert_eq!(index_vs_scan_speedup(&records[..1]), None);
        assert_eq!(index_vs_scan_speedup(&[]), None);
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
        assert_eq!(personalized_push_speedup(&records), Some(20.0));
        assert_eq!(personalized_cache_speedup(&records), Some(10_000.0));
        assert_eq!(personalized_warm_speedup(&records), Some(4.0));
        // Either side missing → no ratio.
        assert_eq!(personalized_push_speedup(&records[2..]), None);
        assert_eq!(personalized_cache_speedup(&records[..2]), None);
        assert_eq!(personalized_warm_speedup(&records[..3]), None);
        assert_eq!(personalized_push_speedup(&[]), None);
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
        assert_eq!(metrics_overhead_ratio(&records), Some(1.05));
        // Either side missing → no ratio.
        assert_eq!(metrics_overhead_ratio(&records[..1]), None);
        assert_eq!(metrics_overhead_ratio(&records[1..]), None);
        assert_eq!(metrics_overhead_ratio(&[]), None);
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
        assert_eq!(batched_throughput_speedup(&records), Some(3.0));
        // Either side missing → no ratio.
        assert_eq!(batched_throughput_speedup(&records[..1]), None);
        assert_eq!(batched_throughput_speedup(&records[1..]), None);
        assert_eq!(batched_throughput_speedup(&[]), None);
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
        assert_eq!(delta_apply_speedup(&records), Some(7.0));
        // Either side missing → no ratio; the reference rows are unguarded.
        assert_eq!(delta_apply_speedup(&records[..2]), None);
        assert_eq!(delta_apply_speedup(&records[2..]), None);
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
        assert_eq!(fused_push_speedup(&records), Some(1.75));
        // Either side missing → no ratio; the rows are unguarded (the
        // gate is the same-run ratio, not an absolute time).
        assert_eq!(fused_push_speedup(&records[..2]), None);
        assert_eq!(fused_push_speedup(&records[2..]), None);
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
        assert_eq!(filtered_query_speedup(&records), Some(40.0));
        assert_eq!(filtered_query_speedup(&records[..1]), None);
        assert_eq!(filtered_query_speedup(&[]), None);
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
        assert_eq!(cold_start_speedup(&records), Some(25.0));
        // Either record missing → no ratio.
        assert_eq!(cold_start_speedup(&records[..1]), None);
        assert_eq!(cold_start_speedup(&[]), None);
    }

    #[test]
    fn regression_detection_at_threshold() {
        let baseline = parse_records(BASELINE);
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
        let baseline = parse_records(BASELINE);
        assert!(compare(&baseline, &[], 0.25).is_empty());
    }

    #[test]
    fn shim_report_format_parses() {
        let shim = "[\n  {\"group\": \"top_k\", \"id\": \"full_sort_50k\", \"mean_ns\": 3.1, \"min_ns\": 2.5, \"iterations\": 96}\n]\n";
        let records = parse_records(shim);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].min_ns, 2.5);
    }
}
