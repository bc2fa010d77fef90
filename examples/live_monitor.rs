//! Live monitoring: re-rank a growing corpus batch after batch with the
//! incremental solver and watch the trending set evolve — the deployment
//! pattern behind the paper's "identify papers that currently impact the
//! research field" motivation. Each batch is a delta publish, a residual
//! push over the part of the network the new papers perturbed; a fresh
//! scorer's full solve (one push pass over every paper) checks it.
//!
//! ```sh
//! cargo run --release --example live_monitor
//! ```

use attrank::IncrementalAttRank;
use attrank_repro::prelude::*;
use citegraph::DeltaStrategy;

/// The papers `from..to` of `full` and their reference lists, as a delta
/// onto `full.prefix(from)`.
fn batch(full: &CitationNetwork, from: usize, to: usize) -> GraphDelta {
    let mut delta = GraphDelta::new();
    for &year in &full.years()[from..to] {
        delta.add_paper(year);
    }
    for citing in from as u32..to as u32 {
        for &cited in full.references(citing) {
            delta.add_citation(citing, cited);
        }
    }
    delta
}

fn main() {
    let profile = DatasetProfile::hepth().scaled(8_000);
    println!(
        "generating a {}-paper {} corpus ({}–{})...",
        profile.n_papers, profile.name, profile.start_year, profile.end_year
    );
    let full = generate(&profile, 2024);

    let params = AttRankParams::new(0.5, 0.3, 1, -0.48).expect("valid parameters");
    let mut scorer = IncrementalAttRank::new(params);

    // Replay the newest half of the corpus in ~1.5% batches — the cadence
    // of a weekly/monthly index refresh.
    let n = full.n_papers();
    let mut net = full.prefix(n / 2);
    scorer.update(&net);
    let mut previous_top: Vec<u32> = Vec::new();
    let mut total_delta_pushes = 0usize;
    let mut total_full_pushes = 0usize;
    let step = n / 64;

    println!("\nyear   papers   publish  pushes  full-solve pushes  top-5 (↑ = new entrant)");
    while net.n_papers() < n {
        let to = (net.n_papers() + step).min(n);
        let delta = batch(&full, net.n_papers(), to);
        let next = net.with_delta(&delta).expect("a prefix batch is valid");
        let year = next.current_year().unwrap_or(profile.start_year);

        let (ranked, strategy) = scorer.update_delta(&net, &delta, &next);
        let publish = match strategy {
            DeltaStrategy::Push { .. } => "push",
            DeltaStrategy::Full => "full",
        };
        let full_run = IncrementalAttRank::new(params).update(&next);
        total_delta_pushes += ranked.iterations;
        total_full_pushes += full_run.iterations;

        let top: Vec<u32> = ranked.scores.top_k(5);
        let rendered: Vec<String> = top
            .iter()
            .map(|p| {
                let marker = if previous_top.contains(p) { "" } else { "↑" };
                format!("#{p}{marker}")
            })
            .collect();
        println!(
            "{year}   {:>6}   {publish:>7}  {:>6}  {:>17}  {}",
            next.n_papers(),
            ranked.iterations,
            full_run.iterations,
            rendered.join("  ")
        );
        previous_top = top;

        // The publish and the full solve must agree — only the path
        // differs.
        for p in 0..next.n_papers() {
            assert!(
                (ranked.scores[p] - full_run.scores[p]).abs() < 1e-9,
                "publish/full divergence at paper {p} in {year}"
            );
        }
        net = next;
    }

    println!(
        "\ntotal pushes: publishes {total_delta_pushes} vs full solves {total_full_pushes} \
         ({:.0}% saved by pushing only the perturbed cone)",
        (1.0 - total_delta_pushes as f64 / total_full_pushes as f64) * 100.0
    );
    assert!(
        total_delta_pushes < total_full_pushes,
        "delta publishes must push less than full solves across a replay"
    );
}
