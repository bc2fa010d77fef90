//! `e2ebench` — one seeded end-to-end benchmark of the AttRank serving
//! stack: four workloads, the end-to-end metrics a caller of the library
//! feels, and a traced run that times every layer from outside through
//! its public functions. See `README.md` beside this file.
//!
//! ```text
//! e2ebench --workload <name|all> --seed <u64> [--seconds N] [--trace [0|1]]
//!          [--out DIR] [--quick] [--aa]
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! carries the same metrics with sample counts, pass-to-pass spreads and
//! the ambient settings the numbers depend on.

#![forbid(unsafe_code)]

mod gen;
mod oracle;
mod phases;
mod probes;
mod stack;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::{json_num, json_str, metrics_detail, metrics_object, Metrics};

/// The workloads; names are stable identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadMixed,
    ReadSelective,
    ReadSharded,
    WriteDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReadMixed,
        Workload::ReadSelective,
        Workload::ReadSharded,
        Workload::WriteDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadMixed => "read_mixed",
            Workload::ReadSelective => "read_selective",
            Workload::ReadSharded => "read_sharded",
            Workload::WriteDurable => "write_durable",
        }
    }

    /// One line on why the workload exists (`BENCHMARK.json`'s `why`).
    fn why(self) -> &'static str {
        match self {
            Workload::ReadMixed => {
                "64 request shapes that fit every cache: time goes to selection kernels over full score vectors, so kernel work must show here and bookkeeping must not"
            }
            Workload::ReadSelective => {
                "4096 selective shapes under Zipf(1), 16x the plan cache: parse, fingerprint, plan lookup, pin and cursor encode dominate, so a kernel change predicts no change"
            }
            Workload::ReadSharded => {
                "the same grammar through the 8-band scatter-gather path with tail-routed ingest and per-shard logs: the second read path must move with the first"
            }
            Workload::WriteDurable => {
                "fsynced ingest of 1 to 1000 papers timed to a page served on the new epoch, restart with eight batches to replay: work moved to publish time or into I/O pays here"
            }
        }
    }
}

/// A metric the benchmark promises to report.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics carry none.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics: every workload reports every one, untraced (the
/// driver's contract; README, "The contract").
///
/// The timing bounds are the widest the contract allows. Ten seeds of
/// unchanged code on the reference machine — a two-vCPU VM whose speed
/// steps by a third for seconds to minutes at a time — land with a
/// quartile distance of 2–16 % of the median depending on the metric and
/// the hour, and a bound has to clear what the machine does to identical
/// code.
pub const END_TO_END: [MetricDef; 9] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("read_qps", "1/s", "higher", 0.25),
    e2e("read_p50_us", "us", "lower", 0.25),
    e2e("read_heavy_p99_us", "us", "lower", 0.25),
    e2e("batch_qps", "1/s", "higher", 0.25),
    e2e("ingest_visible_p50_ms", "ms", "lower", 0.25),
    e2e("coldstart_first_page_ms", "ms", "lower", 0.25),
    e2e("coldstart_caught_up_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.15),
];

/// `--seconds` as `BENCHMARK.json` runs it, and the default.
const RUN_SECONDS: u32 = 15;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds of measured windows (set-up, warm-up and checks excluded).
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Where `trace-<workload>.jsonl` goes.
    pub out: PathBuf,
    /// Fresh directory for WALs and stores, removed on exit.
    pub tmp: PathBuf,
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: bool,
    out: Option<PathBuf>,
    print_benchmark_json: bool,
}

const USAGE: &str =
    "usage: e2ebench --workload <read_mixed|read_selective|read_sharded|write_durable|all> \
--seed <u64> [--seconds N] [--trace [0|1]] [--out DIR] [--quick] [--aa]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        quick: false,
        aa: false,
        out: None,
        print_benchmark_json: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let v = value(&mut i, "--workload")?;
                args.workloads = match v.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![*Workload::ALL
                        .iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name}"))?],
                };
            }
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value(&mut i, "--seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {v}"))?;
            }
            // `--trace` alone switches tracing on; the driver's form
            // passes 0 or 1.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    args.trace = false;
                    i += 1;
                }
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--out" => args.out = Some(value(&mut i, "--out")?.into()),
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if args.workloads.is_empty() && !args.print_benchmark_json {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// `BENCHMARK.json`, rendered from the tables in this program so the file
/// and the names the program prints cannot drift apart (a test compares
/// them byte for byte).
fn benchmark_json() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                json_num(m.bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = trace::PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"crates/bench/src/bin/e2ebench/Cargo.toml\", \"--\"],\n  \"paths\": [\"crates/bench/src/bin/e2ebench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The result of one run of one workload.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Every promised metric is present and finite.
    complete: bool,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.complete
    }
}

fn run_once(cfg: &Config) -> Outcome {
    std::fs::create_dir_all(&cfg.tmp).expect("temp dir is writable");
    let (metrics, tally) = if cfg.trace {
        trace::run(cfg)
    } else {
        phases::run(cfg)
    };
    let _ = std::fs::remove_dir_all(&cfg.tmp);
    let promised: Vec<&str> = if cfg.trace {
        trace::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut errors = tally.errors;
    let mut complete = metrics.0.len() == promised.len();
    for name in &promised {
        let n = metrics.0.iter().filter(|m| m.name == *name).count();
        let finite = metrics.get(name).is_some_and(f64::is_finite);
        if n != 1 || !finite {
            complete = false;
            errors.push(format!(
                "metric {name} reported {n} times (finite: {finite})"
            ));
        }
    }
    if tally.attempted == 0 {
        complete = false;
        errors.push("the run attempted no operation".into());
    }
    Outcome {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        errors,
        complete,
    }
}

/// The two lines a run prints: detail for people, result for the driver.
fn print_outcome(cfg: &Config, outcome: &Outcome) {
    let errors: Vec<String> = outcome.errors.iter().map(|e| json_str(e)).collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
         \"nproc\": {}, \"sparsela_threads\": {}, \"load\": \"closed loop, 1 client, 1 thread\", \
         \"wal_sync_on_append\": true, \"bench_baseline_path\": {}, \"errors\": [{}], \"metrics\": {}}}",
        json_str(cfg.workload.name()),
        cfg.seed,
        json_num(cfg.seconds),
        cfg.trace,
        cfg.quick,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        sparsela::parallel::thread_count(),
        json_str(&std::env::var("BENCH_BASELINE_PATH").unwrap_or_default()),
        errors.join(", "),
        metrics_detail(&outcome.metrics)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_object(&outcome.metrics)
    );
}

/// What a child run's last line said.
struct ChildResult {
    correct: bool,
    attempted: u64,
    metrics: Metrics,
}

/// Runs one workload in a process of its own — as the driver does — and
/// relays what it printed. Peak memory and allocator state are then the
/// run's own, not the suite's.
fn run_child(args: &Args, workload: Workload, out: &std::path::Path) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let mut child = std::process::Command::new(exe);
    child
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out);
    if args.quick {
        child.arg("--quick");
    }
    let output = child.output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let (correct, attempted, metrics) = stats::parse_result_line(stdout.lines().last()?)?;
    Some(ChildResult {
        correct: correct && output.status.success(),
        attempted,
        metrics,
    })
}

/// `--aa`: the suite twice, back to back, on the same code. An end-to-end
/// metric may differ by its own bound, an exact-repeat count not at all.
fn aa_check(name: &str, first: &ChildResult, second: &ChildResult, trace: bool) -> Vec<String> {
    let mut complaints = Vec::new();
    if first.attempted != second.attempted && trace {
        complaints.push(format!(
            "{name}: attempted {} then {}",
            first.attempted, second.attempted
        ));
    }
    for m in &first.metrics.0 {
        let (a, Some(b)) = (m.value, second.metrics.get(&m.name)) else {
            complaints.push(format!("{name}: {} missing from the second run", m.name));
            continue;
        };
        // `setup_s` is one second of single-threaded work: how fast the
        // host is that minute decides it, and two single runs differ by
        // more than any bound. The driver leaves it out of its own spread
        // check for the same reason and compares medians of ten.
        if m.name == "setup_s" {
            continue;
        }
        if let Some(def) = END_TO_END.iter().find(|d| d.name == m.name) {
            let ratio = if a > b { a / b } else { b / a };
            if ratio > 1.0 + def.bound {
                complaints.push(format!(
                    "{name}: {} read {a} then {b}, outside its {} bound",
                    m.name, def.bound
                ));
            }
        } else if m.unit == "count" && a != b {
            complaints.push(format!("{name}: count {} read {a} then {b}", m.name));
        }
    }
    complaints
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }

    // Pin ambient behaviour before any engine exists: the planner re-fits
    // its cost model from `$BENCH_BASELINE_PATH` (default: a file in the
    // working directory) at engine construction, and `ShardedEngine` has
    // no setter to undo that.
    std::env::set_var("BENCH_BASELINE_PATH", "e2ebench-no-baseline.json");

    // Scratch files live beside the executable, under a name no other run
    // uses. Not `std::env::temp_dir()`: the driver's contract has a run
    // read and write only inside its checkout, and the build directory
    // (`CARGO_TARGET_DIR`, ignored by git) is the one place in a checkout
    // that is not a source tree. It is also on the checkout's own file
    // system, so the WAL's fsync is a real one, which a tmpfs `/tmp`
    // would not give.
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(std::env::temp_dir);
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let tmp = exe_dir.join(format!("e2ebench-tmp-{}-{nonce}", std::process::id()));
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| exe_dir.join("e2ebench-out"));

    // One workload runs here; a suite runs each workload in a child.
    if let ([workload], false) = (args.workloads.as_slice(), args.aa) {
        let cfg = Config {
            workload: *workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            quick: args.quick,
            out,
            tmp,
        };
        let outcome = run_once(&cfg);
        print_outcome(&cfg, &outcome);
        for e in &outcome.errors {
            eprintln!("{}: {e}", workload.name());
        }
        return if outcome.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let run_suite = || -> Vec<Option<ChildResult>> {
        args.workloads
            .iter()
            .map(|&workload| run_child(&args, workload, &out))
            .collect()
    };
    let all_correct =
        |suite: &[Option<ChildResult>]| suite.iter().all(|r| r.as_ref().is_some_and(|r| r.correct));
    let first = run_suite();
    let mut ok = all_correct(&first);
    if args.aa {
        let second = run_suite();
        ok &= all_correct(&second);
        for ((workload, a), b) in args.workloads.iter().zip(&first).zip(&second) {
            let (Some(a), Some(b)) = (a, b) else { continue };
            for complaint in aa_check(workload.name(), a, b, args.trace) {
                eprintln!("aa: {complaint}");
                ok = false;
            }
        }
        eprintln!("aa: {}", if ok { "pass" } else { "FAIL" });
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: Workload, trace: bool, tag: &str) -> Outcome {
        std::env::set_var("BENCH_BASELINE_PATH", "e2ebench-no-baseline.json");
        let base = std::env::temp_dir().join(format!(
            "e2ebench-test-{}-{}-{tag}",
            std::process::id(),
            workload.name()
        ));
        let cfg = Config {
            workload,
            seed: 11,
            seconds: 0.2,
            trace,
            quick: true,
            out: base.join("out"),
            tmp: base.join("tmp"),
        };
        let outcome = run_once(&cfg);
        let _ = std::fs::remove_dir_all(&base);
        outcome
    }

    fn assert_clean(outcome: &Outcome, promised: &[&str]) {
        assert_eq!(outcome.errors, Vec::<String>::new());
        assert!(outcome.correct() && outcome.attempted > 0);
        let names: Vec<&str> = outcome.metrics.0.iter().map(|m| m.name.as_str()).collect();
        for name in promised {
            assert_eq!(names.iter().filter(|n| *n == name).count(), 1, "{name}");
        }
        assert_eq!(names.len(), promised.len());
        for m in &outcome.metrics.0 {
            assert!(!m.unit.is_empty() && m.value.is_finite(), "{}", m.name);
        }
    }

    #[test]
    fn every_workload_reports_every_end_to_end_metric() {
        let promised: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        for workload in Workload::ALL {
            let outcome = quick(workload, false, "e2e");
            assert_clean(&outcome, &promised);
            for m in &outcome.metrics.0 {
                assert!(m.value > 0.0, "{} is {}", m.name, m.value);
                let def = END_TO_END.iter().find(|d| d.name == m.name).unwrap();
                assert_eq!(def.unit, m.unit, "{}", m.name);
            }
        }
    }

    #[test]
    fn every_workload_reports_every_per_layer_metric() {
        let promised: Vec<&str> = trace::PER_LAYER.iter().map(|m| m.name).collect();
        for workload in Workload::ALL {
            let outcome = quick(workload, true, "trace");
            assert_clean(&outcome, &promised);
            for m in &outcome.metrics.0 {
                let def = trace::PER_LAYER.iter().find(|d| d.name == m.name).unwrap();
                assert_eq!(def.unit, m.unit, "{}", m.name);
            }
        }
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        assert_eq!(
            include_str!("../../../../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `e2ebench --print-benchmark-json > BENCHMARK.json`"
        );
    }

    /// The package `BENCHMARK.json` builds is its own workspace root and
    /// cannot inherit the workspace's release profile; the benchmarked
    /// build and the tier-1 build must still be the same code generation.
    #[test]
    fn package_profile_matches_the_workspace() {
        let release_profile = |manifest: &str| -> Vec<String> {
            manifest
                .lines()
                .map(str::trim)
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect()
        };
        let workspace = release_profile(include_str!("../../../../../Cargo.toml"));
        assert!(!workspace.is_empty());
        assert_eq!(release_profile(include_str!("Cargo.toml")), workspace);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(trace::PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(trace::PER_LAYER.len() <= 128);
        assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200));
    }

    #[test]
    fn driver_and_human_argument_forms_parse() {
        let argv = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        let a = parse_args(&argv(
            "--workload read_mixed --seed 9 --seconds 12 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.workloads, vec![Workload::ReadMixed]);
        assert!(a.seed == 9 && a.seconds == 12.0 && !a.trace);
        let a = parse_args(&argv("--workload all --seed 3 --trace 1 --quick")).unwrap();
        assert!(a.workloads.len() == 4 && a.trace && a.quick);
        let a = parse_args(&argv("--trace --workload write_durable --aa")).unwrap();
        assert!(a.trace && a.aa && a.workloads == vec![Workload::WriteDurable]);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload all --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload all --frobnicate")).is_err());
    }

    #[test]
    fn aa_check_applies_bounds_and_exact_counts() {
        let result = |qps: f64, count: f64| {
            let mut metrics = Metrics::default();
            metrics.put("read_qps", qps, "1/s", 1);
            metrics.put("some.count", count, "count", 1);
            ChildResult {
                correct: true,
                attempted: 10,
                metrics,
            }
        };
        assert!(aa_check("w", &result(100.0, 5.0), &result(108.0, 5.0), true).is_empty());
        assert_eq!(
            aa_check("w", &result(100.0, 5.0), &result(70.0, 5.0), true).len(),
            1
        );
        assert_eq!(
            aa_check("w", &result(100.0, 5.0), &result(100.0, 6.0), true).len(),
            1
        );
    }

    #[test]
    fn a_printed_result_reads_back() {
        let mut metrics = Metrics::default();
        metrics.put("read_qps", 1234.5, "1/s", 1);
        metrics.put("rankengine.parse_ns", 0.30000000000000004, "ns", 1);
        let line = format!(
            "{{\"correct\": true, \"attempted\": 42, \"failed\": 0, \"metrics\": {}}}",
            metrics_object(&metrics)
        );
        let (correct, attempted, back) = stats::parse_result_line(&line).unwrap();
        assert!(correct && attempted == 42);
        assert_eq!(back.0.len(), 2);
        assert_eq!(back.get("read_qps"), Some(1234.5));
        assert_eq!(back.get("rankengine.parse_ns"), Some(0.30000000000000004));
        assert_eq!(back.0[0].unit, "1/s");
        assert!(stats::parse_result_line("not a result").is_none());
    }
}
