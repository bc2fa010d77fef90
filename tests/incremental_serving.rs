//! Acceptance pin for push-based incremental re-ranking: on a 50k-paper
//! graph, a 1%-of-edges delta re-ranks ≥5× faster via residual push than
//! a power-iteration solve of the new network (`AttRank`, the paper's
//! reference solver; min wall-clock over repeated runs, in release builds
//! — unoptimized builds pin a softer 2.5× floor because the push loop's
//! branchy inner kernel loses more to `-C opt-level=0` than the streaming
//! SpMV does), with push scores within 1e-9 of that solve. The ratio of
//! the push to the scorer's own one-pass full solve is printed, not
//! pinned. Release numbers are recorded in BENCH_baseline.json
//! (`incremental` group).
//!
//! Parameters are the paper's primary convergence setting (§4.4 studies
//! α = 0.5, where a full solve needs ~30 iterations).

use std::time::{Duration, Instant};

use attrank::{AttRank, AttRankParams, IncrementalAttRank};
use citegen::{generate, publish_delta, DatasetProfile};
use citegraph::DeltaStrategy;

const SCALE: usize = 50_000;

fn params() -> AttRankParams {
    AttRankParams::new(0.5, 0.4, 3, -0.16).unwrap()
}

fn min_wall<T>(runs: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best: Option<(Duration, T)> = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed();
        best = match best {
            Some((b, o)) if b <= dt => Some((b, o)),
            _ => Some((dt, out)),
        };
    }
    best.unwrap()
}

#[test]
fn one_percent_delta_publish_is_5x_faster_via_push() {
    let net = generate(&DatasetProfile::dblp().scaled(SCALE), 7);
    let e = net.n_citations();

    // Prime the incremental scorer: initial rank, then one small delta
    // publish that pushes from the state `update` kept. All gates and
    // budgets are the production defaults.
    let mut inc = IncrementalAttRank::new(params());
    inc.update(&net);
    let prime = publish_delta(&net, 10, 10, 5);
    let primed = net.with_delta(&prime).unwrap();
    let (_, s0) = inc.update_delta(&net, &prime, &primed);
    assert!(
        matches!(s0, DeltaStrategy::Push { .. }),
        "update keeps its push state: {s0:?}"
    );

    // The measured publish: a 1%-of-edges batch.
    let delta = publish_delta(&primed, e / 100, 10, 99);
    let new = primed.with_delta(&delta).unwrap();

    let (push_time, (push_scores, strategy)) = min_wall(3, || {
        let mut scorer = inc.clone();
        let (diag, strategy) = scorer.update_delta(&primed, &delta, &new);
        (diag.scores, strategy)
    });
    let DeltaStrategy::Push { edge_work, .. } = strategy else {
        panic!("1% delta must take the push path under default gates, got {strategy:?}");
    };

    // The reference: power iteration over the new network.
    let method = AttRank::new(params());
    let (power_time, power) = min_wall(3, || method.rank_with_diagnostics(&new));

    // Work comparison is deterministic: the push must cost a fraction of
    // the power solve's `iterations × (E + n)` traversals.
    let power_work = power.iterations as u64 * (new.n_citations() + new.n_papers()) as u64;
    assert!(
        edge_work * 5 <= power_work,
        "push edge work {edge_work} vs power solve work {power_work}"
    );

    // The scorer's own full solve over the same network, for the record.
    let mut full = IncrementalAttRank::new(params());
    let (full_time, full_pushes) = min_wall(3, || full.update(&new).iterations);

    // Wall clock: ≥5× in optimized builds (the recorded acceptance
    // number), ≥2.5× even unoptimized.
    let required = if cfg!(debug_assertions) { 2.5 } else { 5.0 };
    let speedup = power_time.as_secs_f64() / push_time.as_secs_f64();
    eprintln!(
        "push {push_time:?} ({edge_work} edge traversals) vs power {power_time:?} \
         ({} iterations, {power_work} traversals): {speedup:.2}x; \
         vs the one-pass full solve {full_time:?} ({full_pushes} pushes): {:.2}x",
        power.iterations,
        full_time.as_secs_f64() / push_time.as_secs_f64()
    );
    assert!(
        speedup >= required,
        "push {push_time:?} vs power {power_time:?} — only {speedup:.2}×, need {required}×"
    );

    // And the push answer matches the power solve to 1e-9.
    let scratch = &power.scores;
    for p in 0..new.n_papers() {
        assert!(
            (push_scores[p] - scratch[p]).abs() < 1e-9,
            "paper {p}: push {} vs scratch {}",
            push_scores[p],
            scratch[p]
        );
    }
}
