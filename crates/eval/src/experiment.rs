//! End-to-end experiment pipelines — one function per paper table/figure.
//!
//! All pipelines follow §4.1's protocol: generate (or accept) a dataset,
//! split it at a test ratio, compute the ground-truth STI from the future
//! state, run methods on the current state only, and measure rank
//! agreement. Tuning is re-done per setting exactly as the paper does.

// The convergence study (§4.4) keeps concrete method types: it overrides
// solver options and reads per-iteration diagnostics, which the boxed
// registry interface deliberately does not expose. Everything else goes
// through `MethodSpec` + the registry.
use attrank::{fit_decay_from_network, AttRank, AttRankParams};
use baselines::{CiteRank, FutureRank};
use citegen::DatasetProfile;
use citegraph::{ratio_split, CitationNetwork, RatioSplit, Year};
use rankengine::MethodSpec;
use sparsela::{PowerOptions, ScoreVec};

use crate::metrics::Metric;
use crate::sti::{ground_truth_sti, recently_popular_in_top_sti};
use crate::tuning::{evaluate_all, tune, Candidate, MethodSpace, TunedResult};

/// The test ratios of §4.1.
pub const PAPER_RATIOS: [f64; 5] = [1.2, 1.4, 1.6, 1.8, 2.0];
/// The default test ratio used by the heatmap and nDCG@k experiments.
pub const DEFAULT_RATIO: f64 = 1.6;
/// The nDCG cutoffs of Fig. 5.
pub const PAPER_K_VALUES: [usize; 5] = [5, 10, 50, 100, 500];

/// A generated dataset with its fitted recency decay (§4.2).
pub struct DatasetBundle {
    /// Dataset display name.
    pub name: String,
    /// The full network (current + future states both come from it).
    pub net: CitationNetwork,
    /// Decay `w` fitted from the citation-age distribution of the full
    /// network's Fig. 1a curve.
    pub decay_w: f64,
}

/// Generates a dataset from a profile and fits its decay factor.
pub fn prepare(profile: &DatasetProfile, seed: u64) -> DatasetBundle {
    let net = citegen::generate(profile, seed);
    let decay_w = fit_decay_from_network(&net, 10, profile.recency_decay);
    DatasetBundle {
        name: profile.name.to_string(),
        net,
        decay_w,
    }
}

/// Splits a bundle and materializes the ground truth.
pub struct ExperimentSetting {
    /// The current/future split.
    pub split: RatioSplit,
    /// STI per current-state paper.
    pub sti: Vec<f64>,
}

/// Builds the experimental setting for one test ratio.
pub fn setting(bundle: &DatasetBundle, ratio: f64) -> ExperimentSetting {
    let split = ratio_split(&bundle.net, ratio);
    let sti = ground_truth_sti(&split);
    ExperimentSetting { split, sti }
}

/// One tuned method result in a comparative experiment.
pub type MethodResult = TunedResult;

/// Figs. 3 & 4 (one point): tunes every applicable method at `ratio` and
/// reports the best `metric` value each achieves.
///
/// WSDM is skipped when the dataset carries no venue metadata, matching
/// the paper (§4.3 runs it on PMC and DBLP only).
pub fn comparative_at_ratio(
    bundle: &DatasetBundle,
    ratio: f64,
    metric: Metric,
) -> Vec<MethodResult> {
    let s = setting(bundle, ratio);
    let sti = &s.sti;
    let current = &s.split.current;
    let has_venues = current.venues().map_or(0, |v| v.n_venues()) > 0;
    let objective = move |scores: &ScoreVec| metric.evaluate(scores.as_slice(), sti);

    MethodSpace::all(bundle.decay_w)
        .into_iter()
        .filter(|m| !m.requires_venues() || has_venues)
        .filter_map(|m| tune(m.name(), m.candidates(), current, &objective))
        .collect()
}

/// A Fig. 2/6/7 heatmap: for each `y ∈ [1,5]`, the metric value over the
/// α–β grid (α ∈ {0, .1, …, .5} columns, β ∈ {0, .1, …, 1} rows); cells
/// with α+β > 1 are `None`.
pub struct Heatmap {
    /// Metric used.
    pub metric: Metric,
    /// `values[y-1][bi][ai]` for y ∈ 1..=5.
    pub values: Vec<Vec<Vec<Option<f64>>>>,
}

impl Heatmap {
    /// Best value for a given `y` (1-based), with its (α, β).
    pub fn best_for_y(&self, y: u32) -> Option<(f64, f64, f64)> {
        let grid = &self.values[(y - 1) as usize];
        let mut best: Option<(f64, f64, f64)> = None;
        for (bi, row) in grid.iter().enumerate() {
            for (ai, cell) in row.iter().enumerate() {
                if let Some(v) = cell {
                    if best.is_none_or(|(bv, _, _)| *v > bv) {
                        best = Some((*v, ai as f64 / 10.0, bi as f64 / 10.0));
                    }
                }
            }
        }
        best
    }

    /// Global best: `(value, α, β, y)`.
    pub fn best(&self) -> Option<(f64, f64, f64, u32)> {
        (1..=5u32)
            .filter_map(|y| self.best_for_y(y).map(|(v, a, b)| (v, a, b, y)))
            .max_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Best value along the β=0 (NO-ATT) slice across all y.
    pub fn best_no_att(&self) -> Option<f64> {
        self.values
            .iter()
            .flat_map(|grid| grid[0].iter().flatten())
            .copied()
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            })
    }

    /// Best value along the β=1 (ATT-ONLY) slice across all y.
    pub fn best_att_only(&self) -> Option<f64> {
        self.values
            .iter()
            .flat_map(|grid| grid[10].iter().flatten())
            .copied()
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            })
    }
}

/// Computes the Fig. 2-style heatmap at `ratio` for `metric`.
pub fn heatmap(bundle: &DatasetBundle, ratio: f64, metric: Metric) -> Heatmap {
    let s = setting(bundle, ratio);
    let sti = &s.sti;
    let current = &s.split.current;
    let objective = move |scores: &ScoreVec| metric.evaluate(scores.as_slice(), sti);

    // Build candidates in deterministic (y, β, α) order, then scatter the
    // parallel results back into the grid.
    let mut candidates = Vec::new();
    let mut coords = Vec::new();
    for y in 1..=5u32 {
        for bi in 0..=10u32 {
            for ai in 0..=5u32 {
                let (alpha, beta) = (ai as f64 / 10.0, bi as f64 / 10.0);
                if alpha + beta > 1.0 + 1e-9 {
                    continue;
                }
                candidates.push(Candidate::from_spec(MethodSpec::AttRank {
                    alpha,
                    beta,
                    y,
                    w: bundle.decay_w,
                }));
                coords.push((y, bi, ai));
            }
        }
    }
    let flat = evaluate_all(&candidates, current, &objective);

    let mut values = vec![vec![vec![None; 6]; 11]; 5];
    for ((y, bi, ai), v) in coords.into_iter().zip(flat) {
        values[(y - 1) as usize][bi as usize][ai as usize] = v;
    }
    Heatmap { metric, values }
}

/// Table 1: number of top-`top` papers by STI (at the default ratio) that
/// were among the top-`top` most cited papers of the current state's last
/// `window_years`.
pub fn table1(bundle: &DatasetBundle, top: usize, window_years: u32) -> usize {
    let s = setting(bundle, DEFAULT_RATIO);
    recently_popular_in_top_sti(&s.split, top, window_years)
}

/// Table 2: the time-horizon τ (years) realized by each test ratio.
pub fn table2(bundle: &DatasetBundle) -> Vec<(f64, Year)> {
    PAPER_RATIOS
        .iter()
        .map(|&r| (r, ratio_split(&bundle.net, r).horizon_years()))
        .collect()
}

/// §4.4: iterations to reach `ε ≤ 10⁻¹²` at α = 0.5 for AttRank, CiteRank
/// and FutureRank on the current state of the default split.
pub fn convergence_comparison(bundle: &DatasetBundle) -> Vec<(String, usize, bool)> {
    let s = setting(bundle, DEFAULT_RATIO);
    let net = &s.split.current;
    let opts = PowerOptions {
        epsilon: 1e-12,
        max_iterations: 300,
        record_errors: false,
    };

    let ar = AttRank::with_options(
        AttRankParams::new(0.5, 0.3, 3, bundle.decay_w).expect("valid"),
        opts,
    )
    .rank_with_diagnostics(net);

    let mut cr = CiteRank::new(0.5, 2.0);
    cr.options = opts;
    let cr_out = cr.rank_with_diagnostics(net);

    let mut fr = FutureRank::new(0.5, 0.1, 0.3, -0.62);
    fr.options = opts;
    let fr_out = fr.rank_with_diagnostics(net);

    vec![
        ("AR".into(), ar.iterations, ar.converged),
        ("CR".into(), cr_out.iterations, cr_out.converged),
        ("FR".into(), fr_out.iterations, fr_out.converged),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bundle() -> DatasetBundle {
        prepare(&DatasetProfile::hepth().scaled(800), 99)
    }

    #[test]
    fn prepare_fits_negative_decay() {
        let b = tiny_bundle();
        assert!(b.decay_w < 0.0);
        assert_eq!(b.name, "hep-th");
        assert_eq!(b.net.n_papers(), 800);
    }

    #[test]
    fn setting_shapes_are_consistent() {
        let b = tiny_bundle();
        let s = setting(&b, 1.6);
        assert_eq!(s.sti.len(), s.split.current.n_papers());
        assert_eq!(s.split.current.n_papers(), 400);
    }

    #[test]
    fn comparative_skips_wsdm_without_venues() {
        let b = tiny_bundle(); // hep-th: no venues
        let results = comparative_at_ratio(&b, 1.6, Metric::Spearman);
        let names: Vec<_> = results.iter().map(|r| r.method.as_str()).collect();
        assert!(!names.contains(&"WSDM"));
        assert!(names.contains(&"AR"));
        assert!(names.contains(&"RAM"));
        assert_eq!(names.len(), 7);
        for r in &results {
            assert!(
                r.best_value.is_finite() && r.best_value >= -1.0 && r.best_value <= 1.0,
                "{}: {}",
                r.method,
                r.best_value
            );
        }
    }

    #[test]
    fn heatmap_grid_shape_and_simplex_masking() {
        let b = tiny_bundle();
        let h = heatmap(&b, 1.6, Metric::NdcgAt(10));
        assert_eq!(h.values.len(), 5);
        for grid in &h.values {
            assert_eq!(grid.len(), 11);
            for row in grid {
                assert_eq!(row.len(), 6);
            }
        }
        // α=0.5, β=0.6 violates the simplex → masked.
        assert!(h.values[0][6][5].is_none());
        // α=0.5, β=0.5 is exactly on the boundary → present.
        assert!(h.values[0][5][5].is_some());
        let (best, _, _, _) = h.best().unwrap();
        assert!(best > 0.0 && best <= 1.0);
        assert!(h.best_no_att().is_some());
        assert!(h.best_att_only().is_some());
    }

    #[test]
    fn table2_horizons_monotone() {
        let b = tiny_bundle();
        let rows = table2(&b);
        assert_eq!(rows.len(), 5);
        for w in rows.windows(2) {
            assert!(w[1].1 >= w[0].1, "horizon grows with ratio");
        }
    }

    #[test]
    fn table1_counts_in_range() {
        let b = tiny_bundle();
        let top = 50;
        let n = table1(&b, top, 5);
        assert!(n <= top);
    }

    #[test]
    fn convergence_comparison_reports_three_methods() {
        let b = tiny_bundle();
        let rows = convergence_comparison(&b);
        assert_eq!(rows.len(), 3);
        for (name, iters, converged) in &rows {
            assert!(*converged, "{name} must converge");
            assert!(*iters > 0 && *iters < 300, "{name}: {iters}");
        }
    }
}
