//! `repro` — regenerates every table and figure of the AttRank paper.
//!
//! ```text
//! repro <subcommand> [--scale N] [--seed N] [--out DIR]
//!
//! subcommands:
//!   summary      dataset cards (§4.1)
//!   fig1a        citation-age distributions + fitted w (§2, §4.2)
//!   fig1b        old-vs-new paper yearly citation curves (§2)
//!   methods      registry lineup: every method at its default config
//!   table1       recently-popular papers among the top-100 by STI (§3)
//!   table2       test-ratio ↔ time-horizon correspondence (§4.1)
//!   table3       AttRank tuning grid (§4.2)
//!   table4       competitor tuning grids (§4.3)
//!   fig2corr     α–β×y heatmaps, Spearman ρ, all datasets (§4.2.1, Fig. 6)
//!   fig2ndcg     α–β×y heatmaps, nDCG@50, all datasets (§4.2.2, Fig. 7)
//!   fig3         correlation vs test ratio, all methods (§4.3.1)
//!   fig4         nDCG@50 vs test ratio, all methods (§4.3.2)
//!   fig5         nDCG@k vs k at ratio 1.6, all methods (§4.3.2)
//!   convergence  iterations to ε ≤ 1e-12 at α = 0.5 (§4.4)
//!   robustness   tuned comparison across 5 seeds (mean ± std, win counts)
//!   significance paired-bootstrap CI for AR − best-competitor gaps
//!   export       <stem>: TSV → binary snapshot store (opt. --rank SPEC)
//!   import       <stem>: binary snapshot store → TSV
//!   compact      <stem>: fold <stem>.wal into <stem>.store
//!   query        <grammar>: filtered/paginated top-k on a generated DBLP
//!                graph (e.g. "venue=3,k=10" or "vs=cc,author=7,k=5";
//!                serve methods via --methods "attrank;cc"; add
//!                --shards N | year:WIDTH for sharded scatter-gather
//!                serving — with vs= the second method's rank/score is
//!                joined through the same merge; personalize with
//!                "seed=ID|ID" to push-solve from a seed set)
//!   related      <paper-id> [--k N]: papers most related to one paper —
//!                a seed-personalized top-k served through the push
//!                solver and the epoch-keyed personalization cache
//!   all          everything above (except the statistical/storage extras)
//! ```
//!
//! Output: aligned text tables on stdout, CSV series under `--out`
//! (default `results/`).

use std::process::ExitCode;

use citegraph::{stats, CitationNetwork, Ranker, ShardPlan};
use rankeval::experiment::{
    comparative_at_ratio, convergence_comparison, heatmap, table1, table2, DatasetBundle,
    DEFAULT_RATIO, PAPER_K_VALUES, PAPER_RATIOS,
};
use rankeval::report::{fmt_cell, fmt_metric, text_table, write_csv};
use rankeval::tuning::MethodSpace;
use rankeval::Metric;
use repro_bench::{paper_bundles, Options};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "bench-check") {
        return run_bench_check(&args[1..]);
    }
    let (opts, rest) = match Options::parse(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(cmd) = rest.first() else {
        eprintln!(
            "usage: repro <subcommand> [--scale N] [--seed N] [--out DIR] [--rank SPEC] \
             [--methods \"SPEC;SPEC\"] [--shards N|year:WIDTH]"
        );
        eprintln!("subcommands: summary methods fig1a fig1b table1 table2 table3 table4");
        eprintln!("             fig2corr fig2ndcg fig3 fig4 fig5 convergence");
        eprintln!("             robustness significance all");
        eprintln!("             bench-check [--append-history [WORKLOAD=E2EBENCH_RESULTS ...]]");
        eprintln!("             export <stem> | import <stem> | compact <stem>");
        eprintln!("             query <grammar> [--metrics]   (e.g. query \"venue=3,k=10\")");
        eprintln!("             query --batch FILE   (one query per line, one query_batch call)");
        eprintln!("             loadgen   (sequential vs batched QPS on the mixed workload)");
        eprintln!("             related <paper-id> [--k N]   (seed-personalized top-k)");
        eprintln!("             metrics   (scripted workload -> Prometheus exposition)");
        return ExitCode::FAILURE;
    };

    // Grid-spec / tooling / storage subcommands need no generated data.
    match cmd.as_str() {
        "table3" => return run_table3(),
        "table4" => return run_table4(),
        "export" => return run_export(&opts, rest.get(1)),
        "import" => return run_import(rest.get(1)),
        "compact" => return run_compact(rest.get(1)),
        "query" => return run_query(&opts, rest.get(1)),
        "loadgen" => return run_loadgen(&opts),
        "related" => return run_related(&opts, rest.get(1)),
        "metrics" => return run_metrics(&opts),
        _ => {}
    }

    eprintln!(
        "generating datasets (scale = {}, seed = {})...",
        opts.scale.map_or("default".into(), |s| s.to_string()),
        opts.seed
    );
    let bundles = paper_bundles(opts.scale, opts.seed);

    let ok = match cmd.as_str() {
        "summary" => run_summary(&bundles),
        "methods" => run_methods(&bundles, &opts),
        "fig1a" => run_fig1a(&bundles, &opts),
        "fig1b" => run_fig1b(&opts),
        "table1" => run_table1(&bundles, &opts),
        "table2" => run_table2(&bundles, &opts),
        "fig2corr" => run_fig2(&bundles, &opts, Metric::Spearman, "fig2_corr"),
        "fig2ndcg" => run_fig2(&bundles, &opts, Metric::NdcgAt(50), "fig2_ndcg"),
        "fig3" => run_ratio_sweep(&bundles, &opts, Metric::Spearman, "fig3_correlation"),
        "fig4" => run_ratio_sweep(&bundles, &opts, Metric::NdcgAt(50), "fig4_ndcg50"),
        "fig5" => run_fig5(&bundles, &opts),
        "convergence" => run_convergence(&bundles, &opts),
        "robustness" => run_robustness(&opts),
        "significance" => run_significance(&bundles, &opts),
        "all" => {
            run_summary(&bundles)
                && run_methods(&bundles, &opts)
                && run_fig1a(&bundles, &opts)
                && run_fig1b(&opts)
                && run_table1(&bundles, &opts)
                && run_table2(&bundles, &opts)
                && run_fig2(&bundles, &opts, Metric::Spearman, "fig2_corr")
                && run_fig2(&bundles, &opts, Metric::NdcgAt(50), "fig2_ndcg")
                && run_ratio_sweep(&bundles, &opts, Metric::Spearman, "fig3_correlation")
                && run_ratio_sweep(&bundles, &opts, Metric::NdcgAt(50), "fig4_ndcg50")
                && run_fig5(&bundles, &opts)
                && run_convergence(&bundles, &opts)
        }
        other => {
            eprintln!("unknown subcommand {other:?}");
            false
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `bench-check`: compares the criterion-shim reports under
/// `target/shim-criterion/` (or `CRITERION_SHIM_OUT_DIR`) against
/// `BENCH_baseline.json` (or `BENCH_BASELINE_PATH`) and fails on a
/// `min_ns` regression beyond `BENCH_CHECK_MAX_REGRESSION` (default 0.25)
/// of any guarded benchmark (`top_k` group, `stochastic_apply*` ids), or
/// on a same-run ratio gate. Its last line is the planner cost model as
/// the baseline's machine would fit it, beside the baked constants.
///
/// With `--append-history` it also appends one line to
/// `BENCH_history.jsonl`: today's date, `git describe --always --dirty`,
/// every gate's ratio in this run, and — for each `WORKLOAD=FILE` that
/// follows, FILE holding `e2ebench` result lines (one per run) — the
/// workload's end-to-end medians.
fn run_bench_check(args: &[String]) -> ExitCode {
    use repro_bench::benchcheck;

    let history = match args.split_first() {
        None => None,
        Some((flag, runs)) if flag == "--append-history" => Some(runs),
        Some((other, _)) => {
            eprintln!("bench-check: unknown argument {other:?} (expected --append-history)");
            return ExitCode::FAILURE;
        }
    };

    let baseline_path =
        std::env::var("BENCH_BASELINE_PATH").unwrap_or_else(|_| "BENCH_baseline.json".to_string());
    // Bench binaries run with the package directory as their cwd, so the
    // shim's default-relative output can land in either target dir
    // depending on how it was invoked; check both unless overridden.
    let shim_dirs: Vec<String> = match std::env::var("CRITERION_SHIM_OUT_DIR") {
        Ok(dir) => vec![dir],
        Err(_) => vec![
            "target/shim-criterion".to_string(),
            "crates/bench/target/shim-criterion".to_string(),
        ],
    };
    let max_regression: f64 = std::env::var("BENCH_CHECK_MAX_REGRESSION")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);

    let baseline_json = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench-check: cannot read {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match benchcheck::parse_records(&baseline_json) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("bench-check: cannot parse {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Newest report first: `compare` takes the first record per
    // (group, id), so a stale report in one target dir cannot shadow a
    // fresh run that landed in the other.
    let mut report_files: Vec<(std::time::SystemTime, std::path::PathBuf)> = Vec::new();
    for dir in &shim_dirs {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().is_some_and(|e| e == "json") {
                    let mtime = entry
                        .metadata()
                        .and_then(|m| m.modified())
                        .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                    report_files.push((mtime, path));
                }
            }
        }
    }
    report_files.sort_by_key(|(mtime, _)| std::cmp::Reverse(*mtime));
    let mut current = Vec::new();
    for (_, path) in &report_files {
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| benchcheck::parse_records(&s));
        match parsed {
            Ok(records) => current.extend(records),
            Err(e) => {
                eprintln!("bench-check: cannot read report {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let comparisons = benchcheck::compare(&baseline, &current, max_regression);
    if comparisons.is_empty() {
        eprintln!(
            "bench-check: no guarded benchmarks found under {shim_dirs:?} \
             (expected the top_k, stochastic_apply, store_load, query, sharded and \
             personalized baselines — run `cargo bench --bench kernels`, `--bench serving`, \
             `--bench store_load`, `--bench query`, `--bench sharded` and \
             `--bench personalized`)"
        );
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    println!(
        "== bench-check: min-ns vs {baseline_path} (allowed +{:.0}%) ==",
        max_regression * 100.0
    );
    for c in &comparisons {
        let verdict = if c.regressed { "REGRESSED" } else { "ok" };
        println!(
            "{:<44} {:>12.0} -> {:>12.0}  ({:+.1}%)  {verdict}",
            c.label,
            c.baseline_ns,
            c.current_ns,
            (c.ratio - 1.0) * 100.0
        );
        failed |= c.regressed;
    }
    // Ratio gates: machine-independent (both sides of each ratio run on
    // the same hardware), so they are enforced for whichever report has
    // the records — the committed baseline always does.
    for (records, origin) in [(&baseline, "baseline"), (&current, "current run")] {
        for gate in benchcheck::GATES {
            let Some(ratio) = gate.ratio(records) else {
                continue;
            };
            let verdict = if gate.holds(ratio) {
                "ok"
            } else {
                failed = true;
                "REGRESSED"
            };
            // Bounds within 2x of parity need the second decimal.
            let (kind, bound) = gate.bound.parts();
            let label = format!("{}/{} ({origin})", gate.group, gate.name);
            if bound.fract() == 0.0 {
                println!("{label:<44} {ratio:>27.1}x  ({kind} {bound:.0}x)  {verdict}");
            } else {
                println!("{label:<44} {ratio:>26.2}x  ({kind} {bound:.2}x)  {verdict}");
            }
        }
    }
    // Calibration drift, visible where the report is read: the planner's
    // constants as that machine would fit them. Informational — engines
    // plan under the baked ones.
    match benchcheck::fit_cost_model(&baseline) {
        Some(fit) => println!(
            "planner cost model fitted to {baseline_path}: {fit:.2?} (baked: {:.2?})",
            rankengine::CostModel::default()
        ),
        None => println!("planner cost model: no index_vs_scan anchor rows in {baseline_path}"),
    }
    if let Some(runs) = history {
        if let Err(e) = append_history(&current, runs) {
            eprintln!("bench-check: {e}");
            return ExitCode::FAILURE;
        }
    }
    if failed {
        eprintln!("bench-check: guarded benchmark regressed beyond the threshold");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Appends this run's line to `BENCH_history.jsonl` (see
/// [`run_bench_check`]); `runs` are its `WORKLOAD=FILE` arguments.
fn append_history(
    current: &[repro_bench::benchcheck::BenchRecord],
    runs: &[String],
) -> Result<(), String> {
    use repro_bench::benchcheck;
    use std::io::Write;

    let mut e2e = Vec::new();
    for run in runs {
        let (workload, file) = run
            .split_once('=')
            .ok_or_else(|| format!("{run:?} is not WORKLOAD=FILE"))?;
        let text = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
        let medians = benchcheck::e2e_medians(&text).map_err(|e| format!("{file}: {e}"))?;
        e2e.push((workload.to_string(), medians));
    }
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let line = benchcheck::history_line(&benchcheck::utc_date(secs), &commit, current, e2e);
    benchcheck::check_history_line(&line)?;
    let path = "BENCH_history.jsonl";
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"))
        .map_err(|e| format!("appending to {path}: {e}"))?;
    println!("appended to {path}: {line}");
    Ok(())
}

/// `export <stem>`: `<stem>.papers.tsv` + `<stem>.citations.tsv` →
/// `<stem>.store`. With `--rank SPEC` the method is run once and its
/// scores persisted as epoch 0, so the store cold-starts a server.
fn run_export(opts: &Options, stem: Option<&String>) -> ExitCode {
    let Some(stem) = stem else {
        eprintln!("usage: repro export <stem> [--rank SPEC]");
        return ExitCode::FAILURE;
    };
    let t0 = std::time::Instant::now();
    let net = match citegraph::io::load(stem) {
        Ok(net) => net,
        Err(e) => {
            eprintln!("export: cannot load TSV at {stem}.*: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parsed = t0.elapsed();
    let store_path = format!("{stem}.store");
    let mut builder = graphstore::StoreBuilder::new().network(&net);
    if let Some(spec) = &opts.rank {
        let ranker = match rankengine::parse_and_build(spec) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("export: bad --rank spec: {e}");
                return ExitCode::FAILURE;
            }
        };
        let scores = ranker.rank(&net);
        builder = builder.epoch(spec, 0, scores.as_slice());
    }
    if let Err(e) = builder.write_to(&store_path) {
        eprintln!("export: cannot write {store_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "exported {} papers / {} citations to {store_path} \
         (TSV parse {:.1} ms, total {:.1} ms{})",
        net.n_papers(),
        net.n_citations(),
        parsed.as_secs_f64() * 1e3,
        t0.elapsed().as_secs_f64() * 1e3,
        opts.rank
            .as_deref()
            .map(|s| format!(", epoch 0 scores: {s}"))
            .unwrap_or_default()
    );
    ExitCode::SUCCESS
}

/// `import <stem>`: `<stem>.store` → the two TSV files.
fn run_import(stem: Option<&String>) -> ExitCode {
    let Some(stem) = stem else {
        eprintln!("usage: repro import <stem>");
        return ExitCode::FAILURE;
    };
    let t0 = std::time::Instant::now();
    let net = match graphstore::load_network(format!("{stem}.store")) {
        Ok(net) => net,
        Err(e) => {
            eprintln!("import: cannot load {stem}.store: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = citegraph::io::save(&net, stem) {
        eprintln!("import: cannot write TSV at {stem}.*: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "imported {} papers / {} citations from {stem}.store to TSV ({:.1} ms)",
        net.n_papers(),
        net.n_citations(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    ExitCode::SUCCESS
}

/// `compact <stem>`: folds `<stem>.wal` into `<stem>.store`.
fn run_compact(stem: Option<&String>) -> ExitCode {
    let Some(stem) = stem else {
        eprintln!("usage: repro compact <stem>");
        return ExitCode::FAILURE;
    };
    match graphstore::compact(format!("{stem}.store"), format!("{stem}.wal")) {
        Ok(r) => {
            println!(
                "compacted {stem}.wal into {stem}.store: {} records folded \
                 ({} papers, {} citations), {} already-folded records skipped, \
                 {} torn bytes discarded{}",
                r.records_folded,
                r.papers_added,
                r.citations_added,
                r.records_skipped,
                r.truncated_bytes,
                if r.epochs_dropped {
                    "; stale score epochs dropped (re-run export --rank or persist_epoch)"
                } else {
                    ""
                }
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("compact: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `query`: dispatches to the four runners — flat or `--shards`, one
/// grammar or `--batch FILE` — and prints whichever error ends one.
fn run_query(opts: &Options, grammar: Option<&String>) -> ExitCode {
    let served = match (opts.shards, opts.batch.as_deref(), grammar) {
        (None, Some(path), _) => run_query_batch(opts, path),
        (Some(spec), Some(path), _) => run_query_batch_sharded(opts, spec, path),
        (None, None, Some(grammar)) => run_query_flat(opts, grammar),
        (Some(spec), None, Some(grammar)) => run_query_sharded(opts, spec, grammar),
        (_, None, None) => {
            eprintln!(
                "usage: repro query \"<grammar>\" [--scale N] [--seed N] \
                 [--methods \"SPEC;SPEC\"] [--shards N|year:WIDTH] [--batch FILE]"
            );
            eprintln!("grammar keys: method vs k year venue author seed cursor");
            eprintln!(
                "examples:     \"venue=3,k=10\"  \"method=attrank,vs=cc,author=7,year=2005..\""
            );
            eprintln!("              \"seed=17|203,k=10\"   (seed-personalized ranking)");
            eprintln!("              --batch FILE   (one grammar per line, served as one batch)");
            return ExitCode::FAILURE;
        }
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("query: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The flat stack the two unsharded runners serve from: the generated
/// DBLP corpus (deterministic in `(--scale, --seed)`), one engine per
/// `--methods` spec, metrics when `--metrics` asks.
fn flat_stack(opts: &Options) -> Result<rankengine::QueryEngine, String> {
    let scale = opts.scale.unwrap_or(20_000);
    eprintln!(
        "generating DBLP graph (scale = {scale}, seed = {}), ranking {:?}...",
        opts.seed, opts.methods
    );
    let net = citegen::generate(&citegen::DatasetProfile::dblp().scaled(scale), opts.seed);
    let t0 = std::time::Instant::now();
    let specs: Vec<&str> = opts.methods.iter().map(String::as_str).collect();
    let policy = rankengine::RerankPolicy::EveryBatch;
    let mut engine = rankengine::QueryEngine::from_configs(net, &specs, policy)
        .map_err(|e| format!("cannot build engines: {e}"))?;
    if opts.metrics {
        engine.enable_metrics();
    }
    eprintln!("ranked in {:.1} ms", t0.elapsed().as_secs_f64() * 1e3);
    Ok(engine)
}

/// The sharded stack the two `--shards` runners serve from: the same
/// corpus, its shard plan, and one [`rankengine::ShardedEngine`] ranking
/// `config` over it (the corpus and the plan come back too — `vs=` builds
/// a second engine over them).
fn sharded_stack(
    opts: &Options,
    spec: citegraph::ShardSpec,
    config: &str,
) -> Result<(CitationNetwork, ShardPlan, rankengine::ShardedEngine), String> {
    let scale = opts.scale.unwrap_or(20_000);
    eprintln!(
        "generating DBLP graph (scale = {scale}, seed = {}), shard plan {spec}, \
         ranking {config:?}...",
        opts.seed
    );
    let net = citegen::generate(&citegen::DatasetProfile::dblp().scaled(scale), opts.seed);
    let plan = spec.plan(&net).map_err(|e| e.to_string())?;
    let t0 = std::time::Instant::now();
    let policy = rankengine::RerankPolicy::EveryBatch;
    let mut engine = rankengine::ShardedEngine::from_plan(&net, &plan, config, policy)
        .map_err(|e| format!("cannot build sharded engines: {e}"))?;
    if opts.metrics {
        engine.enable_metrics();
    }
    eprintln!(
        "ranked {} shards in {:.1} ms ({} boundary edges absorbed)",
        engine.n_shards(),
        t0.elapsed().as_secs_f64() * 1e3,
        engine.boundary_edges()
    );
    Ok((net, plan, engine))
}

/// `query <grammar>`: serves a filtered/faceted/paginated top-k (or a
/// two-method comparison with `vs=`) over a generated DBLP graph. The
/// corpus is deterministic in `(--scale, --seed)` and epochs start at 0,
/// so a printed `cursor=…` token pastes into the next invocation to
/// fetch the following page.
fn run_query_flat(opts: &Options, grammar: &str) -> Result<(), String> {
    use rankengine::QueryDriver;

    let query = grammar
        .parse::<rankengine::Query>()
        .map_err(|e| e.to_string())?;
    let engine = flat_stack(opts)?;

    // Explain line: what the planner chose and why.
    let plan = engine.explain(&query).map_err(|e| e.to_string())?;
    let join = |ids: &[u32]| {
        ids.iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("|")
    };
    let driver = match &plan.driver {
        QueryDriver::Unfiltered => "unfiltered partial select".to_string(),
        QueryDriver::IdRange { start, end } => {
            format!("id-range scan [{start}, {end})")
        }
        QueryDriver::VenueBands { venues, len } => {
            format!("venue {} banded postings ({len} candidates)", join(venues))
        }
        QueryDriver::AuthorBands { authors, len } => {
            format!(
                "author {} banded postings ({len} candidates)",
                join(authors)
            )
        }
        QueryDriver::MaskAlgebra { candidates } => {
            format!("mask algebra pushdown ({candidates} candidates)")
        }
    };
    println!(
        "plan: driver = {driver}, candidates = {}, est cost = {:.0} ns, \
         residual checks = [{}]",
        plan.candidates,
        plan.cost_ns,
        plan.residuals.join(", ")
    );
    // Every shape the planner priced, not just the winner.
    let table: Vec<String> = plan
        .table
        .iter()
        .map(|c| {
            format!(
                "{}{} = {:.0} ns",
                c.driver,
                if c.chosen { "*" } else { "" },
                c.cost_ns
            )
        })
        .collect();
    println!("plan candidates (* = chosen): {}", table.join(", "));

    let metrics_before = engine.render_metrics();
    let t1 = std::time::Instant::now();
    if query.vs.is_some() {
        let cmp = engine.compare(&query).map_err(|e| e.to_string())?;
        print_comparison(&cmp, t1.elapsed());
    } else {
        let page = engine.query(&query).map_err(|e| e.to_string())?;
        let elapsed = t1.elapsed();
        let snap = engine
            .snapshot(query.method.as_deref())
            .expect("method resolved by query");
        println!(
            "== {} (epoch {}): {} of {} matches in {:.1} µs ==",
            page.method,
            page.epoch,
            page.items.len(),
            page.matched,
            elapsed.as_secs_f64() * 1e6
        );
        let rows: Vec<Vec<String>> = page
            .items
            .iter()
            .map(|h| {
                vec![
                    snap.rank_of(h.id).map_or("-".into(), |r| r.to_string()),
                    h.id.to_string(),
                    format!("{:.6}", h.score),
                    h.year.to_string(),
                    h.venue.map_or("-".into(), |v| v.to_string()),
                ]
            })
            .collect();
        println!(
            "{}",
            text_table(&["global rank", "paper", "score", "year", "venue"], &rows)
        );
        if let Some(cursor) = page.next {
            println!("next page: append cursor={cursor}");
        }
    }
    print_metric_deltas(metrics_before, engine.render_metrics());
    Ok(())
}

/// A `vs=` comparison, flat or sharded: its header (a sharded engine's
/// epochs are its pinned sets' epoch keys), the joined table and the
/// next-page hint.
fn print_comparison(cmp: &rankengine::Comparison, elapsed: std::time::Duration) {
    println!(
        "== {} (epoch {}) vs {} (epoch {}): {} of {} matches in {:.1} µs ==",
        cmp.method_a,
        cmp.epoch_a,
        cmp.method_b,
        cmp.epoch_b,
        cmp.rows.len(),
        cmp.page.matched,
        elapsed.as_secs_f64() * 1e6
    );
    let rows: Vec<Vec<String>> = cmp
        .rows
        .iter()
        .map(|r| {
            vec![
                r.id.to_string(),
                format!("{:.6}", r.score_a),
                r.rank_a.to_string(),
                r.score_b.map_or("-".into(), |s| format!("{s:.6}")),
                r.rank_b.map_or("-".into(), |r| r.to_string()),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &["paper", "score(a)", "rank(a)", "score(b)", "rank(b)"],
            &rows
        )
    );
    if let Some(cursor) = cmp.page.next {
        println!("next page: append cursor={cursor}");
    }
}

/// Reads a `--batch` workload file: one query grammar per line, blank
/// lines and `#` comments skipped.
fn read_batch_queries(path: &std::path::Path) -> Result<Vec<rankengine::Query>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut queries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        queries.push(
            line.parse::<rankengine::Query>()
                .map_err(|e| format!("{}:{}: {e}", path.display(), lineno + 1))?,
        );
    }
    if queries.is_empty() {
        return Err(format!("{}: no queries", path.display()));
    }
    Ok(queries)
}

/// `query --batch FILE`: serves every query in FILE through one
/// [`rankengine::QueryEngine::query_batch`] call — one snapshot pin per
/// method, one scratch, exact duplicates answered from the earlier
/// member's page — and prints a per-member summary line. Pages are
/// bit-identical to serving each line with `repro query`.
fn run_query_batch(opts: &Options, path: &std::path::Path) -> Result<(), String> {
    let queries = read_batch_queries(path)?;
    let engine = flat_stack(opts)?;

    let metrics_before = engine.render_metrics();
    let t1 = std::time::Instant::now();
    let pages = engine.query_batch(&queries);
    let all_served = print_batch_summary(&queries, &pages, t1.elapsed(), |page| {
        let (n, matched) = (page.items.len(), page.matched);
        let served = format!("(method {}, epoch {})", page.method, page.epoch);
        (format!("{n} of {matched} matches {served}"), page.next)
    });
    let stats = engine.plan_cache_stats();
    println!(
        "plan cache: {} hits, {} misses, {} stale, {} entries",
        stats.hits, stats.misses, stats.stale, stats.entries
    );
    print_metric_deltas(metrics_before, engine.render_metrics());
    all_served
}

/// The summary both `--batch` modes print: a header, then one line per
/// member — `describe`'s words for a served page plus its next cursor,
/// the typed error otherwise. `Err` with the tally unless every member
/// served.
fn print_batch_summary<P, E: std::fmt::Display>(
    queries: &[rankengine::Query],
    pages: &[Result<P, E>],
    elapsed: std::time::Duration,
    describe: impl Fn(&P) -> (String, Option<rankengine::Cursor>),
) -> Result<(), String> {
    let served = pages.iter().filter(|p| p.is_ok()).count();
    println!(
        "== batch: {served} of {} queries served in {:.1} µs ({:.0} queries/s) ==",
        queries.len(),
        elapsed.as_secs_f64() * 1e6,
        queries.len() as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    for (i, (q, res)) in queries.iter().zip(pages).enumerate() {
        match res.as_ref().map(&describe) {
            Ok((what, None)) => println!("[{i:>3}] {q} -> {what}"),
            Ok((what, Some(c))) => println!("[{i:>3}] {q} -> {what}, next cursor={c}"),
            Err(e) => println!("[{i:>3}] {q} -> error: {e}"),
        }
    }
    match pages.len() - served {
        0 => Ok(()),
        failed => Err(format!("{failed} of {} batch members failed", pages.len())),
    }
}

/// `loadgen`: closed-loop serving throughput on the mixed dashboard
/// workload (the `throughput` bench group's shape at CLI scale) — 64
/// pre-parsed queries, 16 each unfiltered / selective-venue /
/// author×year / seeded, served sequentially and through one
/// `query_batch` call, best-of-5 wall-clock each, plus the
/// batched/sequential speedup `repro bench-check` gates at 2x.
fn run_loadgen(opts: &Options) -> ExitCode {
    use rankengine::{Query, QueryEngine, RerankPolicy};

    let scale = opts.scale.unwrap_or(20_000);
    eprintln!(
        "generating DBLP graph (scale = {scale}, seed = {}), ranking cc + pagerank...",
        opts.seed
    );
    let net = citegen::generate(&citegen::DatasetProfile::dblp().scaled(scale), opts.seed);
    let venues = net.venues().expect("DBLP profile has venues");
    let venue = (0..venues.n_venues() as u32)
        .max_by_key(|&v| venues.n_papers_at(v))
        .expect("at least one venue");
    let authors = net.authors().expect("DBLP profile has authors");
    let author = (0..authors.n_authors() as u32)
        .max_by_key(|&a| authors.papers_of(a).len())
        .expect("at least one author");
    let mid_year = net.years()[net.n_papers() / 2];
    // Three distinct seed ids spread over the corpus.
    let n = net.n_papers() as u32;
    let seeds = format!("{}|{}|{}", n / 7, n / 3, n / 2 + 1);
    let shapes: Vec<Query> = [
        "k=10".to_string(),
        "k=25".to_string(),
        format!("venue={venue},k=10"),
        format!("venue={venue},k=25"),
        format!("author={author},year={mid_year}..,k=10"),
        format!("author={author},year={mid_year}..,k=25"),
        format!("method=pagerank,seed={seeds},k=10"),
        format!("method=pagerank,seed={seeds},k=25"),
    ]
    .iter()
    .map(|s| s.parse().expect("workload shape parses"))
    .collect();
    let queries: Vec<Query> = (0..64).map(|i| shapes[i % shapes.len()].clone()).collect();

    let t0 = std::time::Instant::now();
    let qe = match QueryEngine::from_configs(net, &["cc", "pagerank"], RerankPolicy::Manual) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("loadgen: cannot build engines: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("ranked in {:.1} ms", t0.elapsed().as_secs_f64() * 1e3);

    // Warm the plan and personalization caches: both modes measure the
    // steady state, not the first-ever seed solve.
    for page in qe.query_batch(&queries) {
        if let Err(e) = page {
            eprintln!("loadgen: workload member failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    const REPS: usize = 5;
    let mut seq_best = f64::INFINITY;
    let mut bat_best = f64::INFINITY;
    for _ in 0..REPS {
        let t = std::time::Instant::now();
        for q in &queries {
            if let Err(e) = qe.query(q) {
                eprintln!("loadgen: {e}");
                return ExitCode::FAILURE;
            }
        }
        seq_best = seq_best.min(t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        let pages = qe.query_batch(&queries);
        bat_best = bat_best.min(t.elapsed().as_secs_f64());
        if let Some(e) = pages.iter().filter_map(|p| p.as_ref().err()).next() {
            eprintln!("loadgen: {e}");
            return ExitCode::FAILURE;
        }
    }
    let nq = queries.len() as f64;
    println!(
        "== loadgen: {}-query mixed workload at {scale} papers, best of {REPS} ==",
        queries.len()
    );
    let rows = vec![
        vec![
            "sequential".to_string(),
            format!("{:.2}", seq_best * 1e3),
            format!("{:.0}", nq / seq_best),
        ],
        vec![
            "batched".to_string(),
            format!("{:.2}", bat_best * 1e3),
            format!("{:.0}", nq / bat_best),
        ],
    ];
    println!("{}", text_table(&["mode", "ms/round", "queries/s"], &rows));
    println!(
        "batched/sequential speedup: {:.1}x (bench-check floor {:.0}x on the 200k bench corpus)",
        seq_best / bat_best.max(1e-9),
        repro_bench::benchcheck::gate("batched_speedup")
            .bound
            .parts()
            .1
    );
    ExitCode::SUCCESS
}

/// Prints the samples that changed between two exposition renders — the
/// per-query footprint `repro query --metrics` shows after the page.
/// Nothing without `--metrics` (an engine with metrics off renders `None`).
fn print_metric_deltas(before: Option<String>, after: Option<String>) {
    use obsv::validate::parse_samples;
    let (Some(before), Some(after)) = (before, after) else {
        return;
    };
    let key = |s: &obsv::validate::Sample| {
        let labels: Vec<String> = s
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        if labels.is_empty() {
            s.name.clone()
        } else {
            format!("{}{{{}}}", s.name, labels.join(","))
        }
    };
    let prev: std::collections::HashMap<String, f64> = parse_samples(&before)
        .iter()
        .map(|s| (key(s), s.value))
        .collect();
    let mut any = false;
    for s in parse_samples(&after) {
        let k = key(&s);
        let old = prev.get(&k).copied().unwrap_or(0.0);
        if s.value != old {
            if !any {
                println!("-- metric deltas --");
                any = true;
            }
            println!("{k} {old} -> {}", s.value);
        }
    }
    if !any {
        println!("-- metric deltas: none --");
    }
}

/// `query --shards N|year:WIDTH`: the same filtered/paginated top-k
/// served by a [`rankengine::ShardedEngine`] over a partitioned corpus.
/// The plan line reports the shard-prune decision the read path takes;
/// `cursor=` tokens are the flat engine's, scoped to the pinned epoch
/// *set* instead of one epoch.
/// `vs=` builds a second engine over the same plan and joins the other
/// method's rank/score through the merge; `seed=` routes per-band push
/// solves through the personalization cache.
fn run_query_sharded(
    opts: &Options,
    spec: citegraph::ShardSpec,
    grammar: &str,
) -> Result<(), String> {
    use rankengine::{RerankPolicy, ShardedEngine};

    let query = grammar
        .parse::<rankengine::Query>()
        .map_err(|e| e.to_string())?;
    let config = query.method.as_ref().unwrap_or(&opts.methods[0]);
    let (net, plan, engine) = sharded_stack(opts, spec, config)?;

    // Plan line: the shard-prune decision the scatter-gather read takes.
    let scanned = plan.overlapping(query.year_min, query.year_max);
    let spans: Vec<String> = scanned
        .iter()
        .map(|&s| {
            let (a, b) = plan.year_span(s);
            format!("{s}:{a}..{b}")
        })
        .collect();
    println!(
        "plan: sharded scatter-gather, year pruning scans {} of {} shards [{}], \
         per-shard top-k + k-way merge",
        scanned.len(),
        plan.n_shards(),
        spans.join(", ")
    );
    let absorbed: Vec<String> = engine
        .boundary_edges_by_shard()
        .iter()
        .enumerate()
        .map(|(s, n)| format!("{s}:{n}"))
        .collect();
    println!(
        "plan: teleport-absorbed boundary edges per shard = [{}]",
        absorbed.join(", ")
    );
    let metrics_before = engine.render_metrics();

    // vs=: a second sharded engine over the *same* plan, the comparison
    // column joined through the scatter-gather merge (composed ranks).
    if let Some(vs) = &query.vs {
        let t_b = std::time::Instant::now();
        let other = ShardedEngine::from_plan(&net, &plan, vs, RerankPolicy::EveryBatch)
            .map_err(|e| format!("cannot build vs= sharded engines: {e}"))?;
        eprintln!(
            "ranked vs-method {vs:?} over the same plan in {:.1} ms",
            t_b.elapsed().as_secs_f64() * 1e3
        );
        let t1 = std::time::Instant::now();
        let cmp = engine
            .compare(&other, &query, None)
            .map_err(|e| e.to_string())?;
        print_comparison(&cmp, t1.elapsed());
    } else {
        let t1 = std::time::Instant::now();
        let page = engine.query(&query, None).map_err(|e| e.to_string())?;
        let elapsed = t1.elapsed();
        println!(
            "== {} (epoch set {:x}): {} of {} matches in {:.1} µs ({} of {} shards scanned) ==",
            page.method,
            page.epoch_key,
            page.items.len(),
            page.matched,
            elapsed.as_secs_f64() * 1e6,
            page.shards_scanned,
            page.shards_total
        );
        let starts = engine.starts();
        let rows: Vec<Vec<String>> = page
            .items
            .iter()
            .map(|h| {
                let shard = starts.partition_point(|&b| b <= h.id) - 1;
                vec![
                    h.id.to_string(),
                    format!("{:.6}", h.score),
                    h.year.to_string(),
                    h.venue.map_or("-".into(), |v| v.to_string()),
                    shard.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            text_table(&["paper", "score", "year", "venue", "shard"], &rows)
        );
        if let Some(c) = page.next {
            println!("next page: append cursor={c}");
        }
    }
    print_metric_deltas(metrics_before, engine.render_metrics());
    Ok(())
}

/// `query --shards … --batch FILE`: serves every query in FILE through
/// one [`rankengine::ShardedEngine::query_batch`] call over the
/// partitioned corpus (cursors come per line as `cursor=` components,
/// like single-query mode). All members run against the method in
/// `--methods` (first spec); pages match serving each line alone.
fn run_query_batch_sharded(
    opts: &Options,
    spec: citegraph::ShardSpec,
    path: &std::path::Path,
) -> Result<(), String> {
    use rankengine::{Query, ShardCursor};

    let queries = read_batch_queries(path)?;
    let batch: Vec<(Query, Option<ShardCursor>)> =
        queries.iter().map(|q| (q.clone(), None)).collect();
    let (_, _, engine) = sharded_stack(opts, spec, &opts.methods[0])?;

    let metrics_before = engine.render_metrics();
    let t1 = std::time::Instant::now();
    let pages = engine.query_batch(&batch);
    let all_served = print_batch_summary(&queries, &pages, t1.elapsed(), |page| {
        let (n, matched) = (page.items.len(), page.matched);
        let scanned = format!(
            "({} of {} shards scanned)",
            page.shards_scanned, page.shards_total
        );
        (format!("{n} of {matched} matches {scanned}"), page.next)
    });
    print_metric_deltas(metrics_before, engine.render_metrics());
    all_served
}

/// `metrics`: runs a scripted serving workload — a WAL-backed flat
/// engine plus a sharded engine sharing one registry, ingest + publish,
/// one query per plan driver, a seeded solve, a stale cursor, an
/// admission k-clamp and a shed — then validates and dumps the
/// registry's Prometheus text exposition to stdout.
fn run_metrics(opts: &Options) -> ExitCode {
    use rankengine::{AdmissionPolicy, Query, QueryEngine, RerankPolicy, ShardedEngine};

    let scale = opts.scale.unwrap_or(2_000);
    let specs: Vec<&str> = opts.methods.iter().map(String::as_str).collect();
    eprintln!(
        "generating DBLP graph (scale = {scale}, seed = {}), ranking {:?}...",
        opts.seed, opts.methods
    );
    let net = citegen::generate(&citegen::DatasetProfile::dblp().scaled(scale), opts.seed);

    let mut engine = match QueryEngine::from_configs(net.clone(), &specs, RerankPolicy::EveryBatch)
    {
        Ok(e) => e,
        Err(e) => {
            eprintln!("metrics: cannot build engines: {e}");
            return ExitCode::FAILURE;
        }
    };
    let registry = engine.enable_metrics();
    engine.set_admission(AdmissionPolicy::default());

    // WAL the default method's engine in a scratch dir so the append /
    // fsync histograms have samples.
    let wal_dir = std::env::temp_dir().join(format!("repro-metrics-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&wal_dir) {
        eprintln!("metrics: cannot create {}: {e}", wal_dir.display());
        return ExitCode::FAILURE;
    }
    let wal_ok = engine
        .engine(None)
        .expect("default method")
        .attach_wal(wal_dir.join("metrics.wal"));
    if let Err(e) = wal_ok {
        eprintln!("metrics: cannot attach WAL: {e}");
        return ExitCode::FAILURE;
    }

    // A batch of new papers citing old ones: WAL appends + one publish
    // per method.
    let n0 = net.n_papers() as u32;
    let mut delta = citegraph::GraphDelta::new();
    for j in 0..8u32 {
        delta.add_paper(2021);
        delta.add_citation(n0 + j, j);
    }
    if let Err(e) = engine.ingest(&delta) {
        eprintln!("metrics: ingest failed: {e}");
        return ExitCode::FAILURE;
    }

    // One query per plan driver, plus a seeded solve; remember the
    // year query's cursor so the next publish can strand it.
    let venues = net.venues().expect("DBLP profile has venues");
    let venue = (0..venues.n_venues() as u32)
        .max_by_key(|&v| venues.n_papers_at(v))
        .expect("at least one venue");
    let authors = net.authors().expect("DBLP profile has authors");
    let author = (0..authors.n_authors() as u32)
        .max_by_key(|&a| authors.papers_of(a).len())
        .expect("at least one author");
    let mid_year = net.years()[net.n_papers() / 2];
    let default_method = engine.methods()[0].to_string();
    let grammars = [
        "k=10".to_string(),
        format!("k=10,year={mid_year}.."),
        format!("k=10,venue={venue}"),
        format!("k=10,author={author}"),
        format!("k=10,venue={venue},author={author},year={mid_year}.."),
        format!("k=10,method={default_method},seed=0|1"),
    ];
    let mut stale: Option<(String, rankengine::Cursor)> = None;
    for (i, g) in grammars.iter().enumerate() {
        let q: Query = g.parse().expect("scripted grammar parses");
        match engine.query(&q) {
            Ok(page) => {
                if i == 1 {
                    stale = page.next.map(|c| (g.clone(), c));
                }
            }
            Err(e) => {
                eprintln!("metrics: scripted query {g:?} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Publish again, then replay the old cursor: a counted stale-cursor
    // error.
    engine.rerank();
    if let Some((g, c)) = stale {
        let q: Query = format!("{g},cursor={c}")
            .parse()
            .expect("cursor grammar parses");
        if engine.query(&q).is_ok() {
            eprintln!("metrics: expected a stale-cursor error after publish");
            return ExitCode::FAILURE;
        }
    }

    // Capture the permissive controller's counters before swapping it
    // out (render-time refresh is a monotone fetch_max), then tighten
    // admission: a wide page k-clamps under a 5 µs ceiling...
    let _ = engine.render_metrics();
    engine.set_admission(AdmissionPolicy {
        max_query_cost_ns: 5_000.0,
        degraded_k: 1,
        ..AdmissionPolicy::default()
    });
    let wide: Query = format!("k=500,year={mid_year}..")
        .parse()
        .expect("scripted grammar parses");
    match engine.query(&wide) {
        Ok(page) if page.items.len() <= 1 => {}
        Ok(page) => {
            eprintln!(
                "metrics: expected a k-clamp to 1, got {} items",
                page.items.len()
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("metrics: expected a k-clamp, got: {e}");
            return ExitCode::FAILURE;
        }
    }
    // ...capture this controller's counters before swapping it out
    // (render-time refresh is a monotone fetch_max).
    let _ = engine.render_metrics();
    // ...and sheds outright under a 100 ns ceiling.
    engine.set_admission(AdmissionPolicy {
        max_query_cost_ns: 100.0,
        degraded_k: 1,
        ..AdmissionPolicy::default()
    });
    if engine.query(&wide).is_ok() {
        eprintln!("metrics: expected the 100 ns ceiling to shed");
        return ExitCode::FAILURE;
    }

    // The sharded stack on the same registry: a boundary-edge ingest
    // and one query per shape.
    let spec = opts.shards.unwrap_or(citegraph::ShardSpec::Fixed(4));
    let plan = match spec.plan(&net) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("metrics: shard plan failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut sharded =
        match ShardedEngine::from_plan(&net, &plan, &default_method, RerankPolicy::EveryBatch) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("metrics: cannot build sharded engines: {e}");
                return ExitCode::FAILURE;
            }
        };
    sharded.enable_metrics_on(registry.clone());
    sharded.set_admission(AdmissionPolicy::default());
    if let Err(e) = sharded.ingest(&delta) {
        eprintln!("metrics: sharded ingest failed: {e}");
        return ExitCode::FAILURE;
    }
    let sharded_grammars = [
        "k=10".to_string(),
        format!("k=10,year={mid_year}.."),
        format!("k=10,venue={venue}"),
        "k=10,seed=0|1".to_string(),
    ];
    for g in &sharded_grammars {
        let q: Query = g.parse().expect("scripted grammar parses");
        if let Err(e) = sharded.query(&q, None) {
            eprintln!("metrics: scripted sharded query {g:?} failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Refresh both stacks' sampled families, then render once.
    let _ = sharded.render_metrics();
    let text = engine.render_metrics().expect("metrics are enabled");
    let _ = std::fs::remove_dir_all(&wal_dir);
    if let Err(e) = obsv::validate::validate(&text) {
        eprintln!("metrics: exposition failed self-validation: {e}");
        return ExitCode::FAILURE;
    }
    print!("{text}");
    ExitCode::SUCCESS
}

/// `related <paper-id> [--k N]`: the papers most related to one paper —
/// a seed-personalized top-k (`seed=<id>`) on the default method, served
/// through the push solver and the epoch-keyed personalization cache.
fn run_related(opts: &Options, id: Option<&String>) -> ExitCode {
    use rankengine::{QueryEngine, RerankPolicy};

    let Some(id) = id else {
        eprintln!(
            "usage: repro related <paper-id> [--k N] [--scale N] [--seed N] \
             [--methods \"SPEC\"]"
        );
        return ExitCode::FAILURE;
    };
    let paper: u32 = match id.parse() {
        Ok(p) => p,
        Err(_) => {
            eprintln!("related: paper id must be a non-negative integer, got {id:?}");
            return ExitCode::FAILURE;
        }
    };
    let k = opts.k.unwrap_or(10);

    let scale = opts.scale.unwrap_or(20_000);
    eprintln!(
        "generating DBLP graph (scale = {scale}, seed = {}), ranking {:?}...",
        opts.seed, opts.methods
    );
    let net = citegen::generate(&citegen::DatasetProfile::dblp().scaled(scale), opts.seed);
    let t0 = std::time::Instant::now();
    let specs: Vec<&str> = opts.methods.iter().map(String::as_str).collect();
    let engine = match QueryEngine::from_configs(net, &specs, RerankPolicy::EveryBatch) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("related: cannot build engines: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("ranked in {:.1} ms", t0.elapsed().as_secs_f64() * 1e3);

    // `k+1` because the seed paper itself tops its own personalization.
    let query: rankengine::Query = match format!("k={},seed={paper}", k + 1).parse() {
        Ok(q) => q,
        Err(e) => {
            eprintln!("related: {e}");
            return ExitCode::FAILURE;
        }
    };
    let t1 = std::time::Instant::now();
    let page = match engine.query(&query) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("related: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = t1.elapsed();
    println!(
        "== papers related to {paper} under {} (epoch {}): {} of {} in {:.1} µs ==",
        page.method,
        page.epoch,
        page.items.len(),
        page.matched,
        elapsed.as_secs_f64() * 1e6
    );
    let rows: Vec<Vec<String>> = page
        .items
        .iter()
        .map(|h| {
            vec![
                if h.id == paper {
                    "seed".into()
                } else {
                    String::new()
                },
                h.id.to_string(),
                format!("{:.6}", h.score),
                h.year.to_string(),
                h.venue.map_or("-".into(), |v| v.to_string()),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(&["", "paper", "score", "year", "venue"], &rows)
    );
    let stats = engine.personalization_stats();
    println!(
        "cache: {} hits, {} warm re-pushes, {} cold pushes ({} entries, {} bytes)",
        stats.hits, stats.warm_repushes, stats.cold_pushes, stats.entries, stats.bytes
    );
    ExitCode::SUCCESS
}

fn run_summary(bundles: &[DatasetBundle]) -> bool {
    println!("== Dataset summary (cf. paper §4.1) ==");
    let rows: Vec<Vec<String>> = bundles
        .iter()
        .map(|b| {
            let s = stats::summarize(&b.net);
            let (y0, y1) = s.year_range.unwrap_or((0, 0));
            vec![
                b.name.clone(),
                s.papers.to_string(),
                s.citations.to_string(),
                format!("{:.2}", s.mean_refs),
                format!("{y0}-{y1}"),
                s.authors.to_string(),
                s.venues.to_string(),
                format!("{:.3}", b.decay_w),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "dataset",
                "papers",
                "citations",
                "refs/paper",
                "years",
                "authors",
                "venues",
                "fitted w"
            ],
            &rows
        )
    );
    true
}

fn run_methods(bundles: &[DatasetBundle], opts: &Options) -> bool {
    println!("== Registry lineup: every method at its default config (ratio {DEFAULT_RATIO}) ==");
    println!("(the same specs `examples/method_comparison.rs` and the serving engine accept)");
    let mut ok = true;
    for b in bundles {
        let s = rankeval::experiment::setting(b, DEFAULT_RATIO);
        let current = &s.split.current;
        let mut rows = Vec::new();
        for spec in rankengine::default_comparison_specs() {
            let method = rankengine::build(&spec).expect("default specs are valid");
            let scores = method.rank(current);
            let rho = Metric::Spearman.evaluate(scores.as_slice(), &s.sti);
            let ndcg = Metric::NdcgAt(50).evaluate(scores.as_slice(), &s.sti);
            rows.push(vec![
                method.name().to_string(),
                spec.to_string(),
                fmt_metric(rho),
                fmt_metric(ndcg),
            ]);
        }
        println!("-- {} --", b.name);
        println!(
            "{}",
            text_table(&["method", "spec", "spearman", "ndcg@50"], &rows)
        );
        ok &= write_csv(
            opts.out_dir
                .join(format!("methods_{}.csv", b.name.replace('-', ""))),
            &["method", "spec", "spearman", "ndcg50"],
            &rows,
        )
        .is_ok();
    }
    ok
}

fn run_fig1a(bundles: &[DatasetBundle], opts: &Options) -> bool {
    println!("== Fig. 1a: % of citations received n years after publication ==");
    let max_age = 10u32;
    let mut rows = Vec::new();
    for b in bundles {
        let dist = stats::citation_age_distribution(&b.net, max_age);
        let mut row = vec![b.name.clone()];
        row.extend(dist.iter().map(|f| format!("{:.1}", f * 100.0)));
        rows.push(row);
    }
    let mut headers: Vec<String> = vec!["dataset".into()];
    headers.extend((0..=max_age).map(|n| format!("n={n}")));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    println!("{}", text_table(&headers_ref, &rows));
    println!(
        "(fitted decay w per dataset: {})\n",
        bundles
            .iter()
            .map(|b| format!("{} {:.2}", b.name, b.decay_w))
            .collect::<Vec<_>>()
            .join(", ")
    );
    write_csv(
        opts.out_dir.join("fig1a_citation_age.csv"),
        &headers_ref,
        &rows,
    )
    .is_ok()
}

fn run_fig1b(opts: &Options) -> bool {
    println!("== Fig. 1b: comparative yearly citations, established vs bursting paper ==");
    // A dedicated scenario with strong delayed bursts (the BLAST-1997
    // motif): find the clearest late-bloomer and compare it against an
    // older paper that led at the bloomer's debut.
    let mut profile = citegen::DatasetProfile::aps().scaled(6000);
    profile.burst_fraction = 0.03;
    profile.burst_boost = 1.2;
    let net = citegen::generate(&profile, opts.seed);

    // Late bloomer: maximize (citations in years 2..5) − (years 0..2).
    let mut best: Option<(u32, i64)> = None;
    for p in 0..net.n_papers() as u32 {
        let series = stats::yearly_citations(&net, p);
        if series.len() < 6 {
            continue;
        }
        let early: i64 = series[..2].iter().map(|&(_, c)| c as i64).sum();
        let late: i64 = series[2..6].iter().map(|&(_, c)| c as i64).sum();
        let gain = late - early;
        if best.is_none_or(|(_, g)| gain > g) {
            best = Some((p, gain));
        }
    }
    let Some((bloomer, _)) = best else {
        eprintln!("no late bloomer found — increase scale");
        return false;
    };
    // Established rival: most-cited strictly older paper at the bloomer's
    // publication year.
    let debut = net.year(bloomer);
    let snapshot = net.snapshot_at(debut);
    let mut rival = None;
    let mut rival_count = 0usize;
    for p in 0..snapshot.n_papers() as u32 {
        if net.year(p) < debut - 2 {
            let c = snapshot.citation_count(p);
            if c > rival_count {
                rival_count = c;
                rival = Some(p);
            }
        }
    }
    let Some(rival) = rival else {
        eprintln!("no rival found");
        return false;
    };

    let series_a = stats::yearly_citations(&net, rival);
    let series_b = stats::yearly_citations(&net, bloomer);
    let years: Vec<i32> = (debut - 3..=net.current_year().unwrap().min(debut + 6)).collect();
    let find = |series: &[(i32, u32)], y: i32| -> String {
        series
            .iter()
            .find(|&&(sy, _)| sy == y)
            .map_or("-".into(), |&(_, c)| c.to_string())
    };
    let rows: Vec<Vec<String>> = years
        .iter()
        .map(|&y| vec![y.to_string(), find(&series_a, y), find(&series_b, y)])
        .collect();
    println!(
        "established paper: id {rival} ({}), bursting paper: id {bloomer} ({debut})",
        net.year(rival)
    );
    println!(
        "{}",
        text_table(
            &[
                "year",
                "established (yearly cites)",
                "bursting (yearly cites)"
            ],
            &rows
        )
    );
    write_csv(
        opts.out_dir.join("fig1b_two_papers.csv"),
        &["year", "established", "bursting"],
        &rows,
    )
    .is_ok()
}

fn run_table1(bundles: &[DatasetBundle], opts: &Options) -> bool {
    println!("== Table 1: recently popular papers in the top-100 by STI ==");
    println!("(paper reports hep-th 41, APS 54, PMC 54, DBLP 63)");
    let rows: Vec<Vec<String>> = bundles
        .iter()
        .map(|b| vec![b.name.clone(), table1(b, 100, 5).to_string()])
        .collect();
    println!(
        "{}",
        text_table(&["dataset", "recently popular (of 100)"], &rows)
    );
    write_csv(
        opts.out_dir.join("table1_recently_popular.csv"),
        &["dataset", "recently_popular"],
        &rows,
    )
    .is_ok()
}

fn run_table2(bundles: &[DatasetBundle], opts: &Options) -> bool {
    println!("== Table 2: test ratio ↔ time horizon τ (years) ==");
    let mut rows = Vec::new();
    for &ratio in &PAPER_RATIOS {
        let mut row = vec![format!("{ratio:.1}")];
        for b in bundles {
            let horizons = table2(b);
            let tau = horizons
                .iter()
                .find(|(r, _)| (r - ratio).abs() < 1e-9)
                .map(|&(_, t)| t)
                .unwrap_or(0);
            row.push(tau.to_string());
        }
        rows.push(row);
    }
    let mut headers = vec!["test ratio".to_string()];
    headers.extend(bundles.iter().map(|b| b.name.clone()));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    println!("{}", text_table(&headers_ref, &rows));
    write_csv(
        opts.out_dir.join("table2_horizons.csv"),
        &headers_ref,
        &rows,
    )
    .is_ok()
}

fn run_table3() -> ExitCode {
    println!("== Table 3: AttRank parameterization space ==");
    let rows = vec![
        vec!["α".into(), "0.0".into(), "0.5".into(), "0.1".into()],
        vec!["β".into(), "0.0".into(), "1.0".into(), "0.1".into()],
        vec![
            "γ".into(),
            "0.0".into(),
            "0.9".into(),
            "0.1 (γ = 1−α−β)".into(),
        ],
        vec!["y".into(), "1".into(), "5".into(), "1".into()],
    ];
    println!(
        "{}",
        text_table(&["parameter", "min", "max", "step"], &rows)
    );
    let n = MethodSpace::AttRank { decay_w: -0.16 }.candidates().len();
    println!("total settings: {n}\n");
    ExitCode::SUCCESS
}

fn run_table4() -> ExitCode {
    println!("== Table 4: competitor parameterization spaces ==");
    let spaces = [
        MethodSpace::CiteRank,
        MethodSpace::FutureRank,
        MethodSpace::Ram,
        MethodSpace::Ecm,
        MethodSpace::Wsdm,
    ];
    let rows: Vec<Vec<String>> = spaces
        .iter()
        .map(|m| vec![m.name().to_string(), m.candidates().len().to_string()])
        .collect();
    println!("{}", text_table(&["method", "settings"], &rows));
    ExitCode::SUCCESS
}

fn run_fig2(bundles: &[DatasetBundle], opts: &Options, metric: Metric, stem: &str) -> bool {
    println!(
        "== Fig. 2/6/7: AttRank {} heatmaps over α–β per y (ratio {DEFAULT_RATIO}) ==",
        metric.label()
    );
    let mut ok = true;
    for b in bundles {
        let h = heatmap(b, DEFAULT_RATIO, metric);
        println!("-- {} --", b.name);
        for y in 1..=5u32 {
            if let Some((v, a, beta)) = h.best_for_y(y) {
                println!("  y={y}: best {} at α={a:.1}, β={beta:.1}", fmt_metric(v));
            }
        }
        if let Some((v, a, beta, y)) = h.best() {
            println!(
                "  BEST: {} at {{α={a:.1}, β={beta:.1}, γ={:.1}, y={y}}}",
                fmt_metric(v),
                1.0 - a - beta
            );
        }
        if let (Some(na), Some(ao)) = (h.best_no_att(), h.best_att_only()) {
            println!(
                "  NO-ATT (β=0) max: {}   ATT-ONLY (β=1) max: {}\n",
                fmt_metric(na),
                fmt_metric(ao)
            );
        }
        // Full grid to CSV: one row per (y, β) with α columns.
        let mut rows = Vec::new();
        for (yi, grid) in h.values.iter().enumerate() {
            for (bi, row) in grid.iter().enumerate() {
                let mut r = vec![(yi + 1).to_string(), format!("{:.1}", bi as f64 / 10.0)];
                r.extend(row.iter().map(|c| fmt_cell(*c).trim().to_string()));
                rows.push(r);
            }
        }
        let headers = ["y", "beta", "a0.0", "a0.1", "a0.2", "a0.3", "a0.4", "a0.5"];
        ok &= write_csv(
            opts.out_dir
                .join(format!("{stem}_{}.csv", b.name.replace('-', ""))),
            &headers,
            &rows,
        )
        .is_ok();
    }
    ok
}

fn run_ratio_sweep(bundles: &[DatasetBundle], opts: &Options, metric: Metric, stem: &str) -> bool {
    println!(
        "== Figs. 3/4: best {} per method, varying test ratio ==",
        metric.label()
    );
    let mut ok = true;
    for b in bundles {
        println!("-- {} --", b.name);
        let mut method_names: Vec<String> = Vec::new();
        let mut per_ratio: Vec<Vec<Option<f64>>> = Vec::new();
        for &ratio in &PAPER_RATIOS {
            let results = comparative_at_ratio(b, ratio, metric);
            if method_names.is_empty() {
                method_names = results.iter().map(|r| r.method.clone()).collect();
            }
            per_ratio.push(
                method_names
                    .iter()
                    .map(|name| {
                        results
                            .iter()
                            .find(|r| &r.method == name)
                            .map(|r| r.best_value)
                    })
                    .collect(),
            );
        }
        let mut headers = vec!["ratio".to_string()];
        headers.extend(method_names.iter().cloned());
        let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<String>> = PAPER_RATIOS
            .iter()
            .zip(&per_ratio)
            .map(|(r, vals)| {
                let mut row = vec![format!("{r:.1}")];
                row.extend(vals.iter().map(|v| fmt_cell(*v).trim().to_string()));
                row
            })
            .collect();
        println!("{}", text_table(&headers_ref, &rows));
        ok &= write_csv(
            opts.out_dir
                .join(format!("{stem}_{}.csv", b.name.replace('-', ""))),
            &headers_ref,
            &rows,
        )
        .is_ok();
    }
    ok
}

fn run_fig5(bundles: &[DatasetBundle], opts: &Options) -> bool {
    println!("== Fig. 5: best nDCG@k per method at ratio {DEFAULT_RATIO}, varying k ==");
    let mut ok = true;
    for b in bundles {
        println!("-- {} --", b.name);
        let mut method_names: Vec<String> = Vec::new();
        let mut per_k: Vec<Vec<Option<f64>>> = Vec::new();
        for &k in &PAPER_K_VALUES {
            let results = comparative_at_ratio(b, DEFAULT_RATIO, Metric::NdcgAt(k));
            if method_names.is_empty() {
                method_names = results.iter().map(|r| r.method.clone()).collect();
            }
            per_k.push(
                method_names
                    .iter()
                    .map(|name| {
                        results
                            .iter()
                            .find(|r| &r.method == name)
                            .map(|r| r.best_value)
                    })
                    .collect(),
            );
        }
        let mut headers = vec!["k".to_string()];
        headers.extend(method_names.iter().cloned());
        let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<String>> = PAPER_K_VALUES
            .iter()
            .zip(&per_k)
            .map(|(k, vals)| {
                let mut row = vec![k.to_string()];
                row.extend(vals.iter().map(|v| fmt_cell(*v).trim().to_string()));
                row
            })
            .collect();
        println!("{}", text_table(&headers_ref, &rows));
        ok &= write_csv(
            opts.out_dir
                .join(format!("fig5_ndcg_at_k_{}.csv", b.name.replace('-', ""))),
            &headers_ref,
            &rows,
        )
        .is_ok();
    }
    ok
}

fn run_robustness(opts: &Options) -> bool {
    println!("== Robustness: tuned nDCG@50 across 5 seeds (ratio {DEFAULT_RATIO}) ==");
    let scale = opts.scale.unwrap_or(6_000);
    let seeds: Vec<u64> = (0..5).map(|i| opts.seed.wrapping_add(i)).collect();
    let mut ok = true;
    for profile in citegen::DatasetProfile::all_paper_datasets() {
        let profile = profile.scaled(scale);
        let rows = rankeval::seed_sweep(&profile, &seeds, DEFAULT_RATIO, Metric::NdcgAt(50));
        println!("-- {} ({} papers/seed) --", profile.name, scale);
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.method.clone(),
                    format!("{:.4}", r.mean),
                    format!("{:.4}", r.std_dev),
                    format!("{}/{}", r.wins, seeds.len()),
                ]
            })
            .collect();
        println!("{}", text_table(&["method", "mean", "std", "wins"], &table));
        ok &= write_csv(
            opts.out_dir
                .join(format!("robustness_{}.csv", profile.name.replace('-', ""))),
            &["method", "mean", "std", "wins"],
            &table,
        )
        .is_ok();
    }
    ok
}

fn run_significance(bundles: &[DatasetBundle], opts: &Options) -> bool {
    println!("== Significance: paired bootstrap (95% CI) for AR vs best competitor ==");
    println!("(nDCG@50, ratio {DEFAULT_RATIO}, 1000 resamples)");
    let mut rows = Vec::new();
    for b in bundles {
        let s = rankeval::experiment::setting(b, DEFAULT_RATIO);
        let results = comparative_at_ratio(b, DEFAULT_RATIO, Metric::NdcgAt(50));
        let ar = results
            .iter()
            .find(|r| r.method == "AR")
            .expect("AR always runs");
        let rival = results
            .iter()
            .filter(|r| r.method != "AR" && r.method != "NO-ATT" && r.method != "ATT-ONLY")
            .max_by(|a, b| a.best_value.partial_cmp(&b.best_value).unwrap())
            .expect("at least one competitor");
        let cmp = rankeval::paired_bootstrap(
            ar.scores.as_slice(),
            rival.scores.as_slice(),
            &s.sti,
            Metric::NdcgAt(50),
            1000,
            0.95,
            opts.seed,
        );
        rows.push(vec![
            b.name.clone(),
            rival.method.clone(),
            fmt_metric(cmp.observed_diff),
            format!("[{}, {}]", fmt_metric(cmp.ci_low), fmt_metric(cmp.ci_high)),
            format!("{:.0}%", cmp.win_rate * 100.0),
            cmp.significant().to_string(),
        ]);
    }
    println!(
        "{}",
        text_table(
            &[
                "dataset",
                "vs",
                "Δ ndcg@50",
                "95% CI",
                "AR win rate",
                "significant"
            ],
            &rows
        )
    );
    write_csv(
        opts.out_dir.join("significance.csv"),
        &["dataset", "vs", "diff", "ci", "win_rate", "significant"],
        &rows,
    )
    .is_ok()
}

fn run_convergence(bundles: &[DatasetBundle], opts: &Options) -> bool {
    println!("== §4.4: iterations to ε ≤ 1e-12 at α = 0.5 ==");
    println!("(paper: AR <30 on hep-th/APS/DBLP, <20 on PMC; CR up to 51; FR up to 35)");
    let mut rows = Vec::new();
    for b in bundles {
        for (method, iters, converged) in convergence_comparison(b) {
            rows.push(vec![
                b.name.clone(),
                method,
                iters.to_string(),
                converged.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        text_table(&["dataset", "method", "iterations", "converged"], &rows)
    );
    write_csv(
        opts.out_dir.join("convergence.csv"),
        &["dataset", "method", "iterations", "converged"],
        &rows,
    )
    .is_ok()
}
