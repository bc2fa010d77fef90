//! The recency vector `T` (paper Eq. 3) and the decay-fitting procedure
//! (paper §4.2).
//!
//! `T(p_i) = c · e^{w·(t_N − t_{p_i})}` with `c` chosen so `Σ T = 1`; `w`
//! is non-positive, so recent papers get the most mass. Because the
//! exponential never reaches zero, `T(p) > 0` for every paper — the fact
//! Theorem 1's irreducibility/aperiodicity argument rests on.
//!
//! The paper derives `w` per dataset by fitting an exponential to the tail
//! of the citation-age distribution (Fig. 1a); [`fit_decay_from_network`]
//! reproduces that procedure with the workspace's least-squares fitter.

use citegraph::{stats, CitationNetwork, Year};
use sparsela::{fit_exponential, ScoreVec};

/// Computes the normalized recency vector for the current state of `net`.
///
/// `w` must be non-positive ([`crate::AttRankParams`] enforces this); `w =
/// 0` yields the uniform vector, recovering PageRank's random jump.
/// Returns an empty vector for an empty network.
pub fn recency_vector(net: &CitationNetwork, w: f64) -> ScoreVec {
    let mut v = ScoreVec::zeros(net.n_papers());
    recency_into(net, w, &mut v);
    v
}

/// [`recency_vector`] written into `out` (one entry per paper).
pub(crate) fn recency_into(net: &CitationNetwork, w: f64, out: &mut ScoreVec) {
    assert!(w <= 0.0, "recency decay must be non-positive, got {w}");
    assert_eq!(out.len(), net.n_papers(), "recency: length mismatch");
    let Some(t_n) = net.current_year() else {
        return;
    };
    // Papers are time-sorted: one `exp` per run of equal years, not one
    // per paper.
    let mut filled = 0;
    for run in net.years().chunk_by(|a, b| a == b) {
        out.as_mut_slice()[filled..filled + run.len()].fill(recency_weight(w, t_n, run[0]));
        filled += run.len();
    }
    out.normalize_l1();
}

/// The recency weight of a paper of `year` against the reference year
/// `year0`: `e^{w·(year0 − year)}`, the unnormalized `T` entry when
/// `year0` is `t_N`. Normalizing cancels `t_N`, so the incremental scorer
/// keeps it per paper against a fixed `year0` and never rewrites it.
pub(crate) fn recency_weight(w: f64, year0: Year, year: Year) -> f64 {
    (w * (year0 - year) as f64).exp()
}

/// `Σ_p recency_weight(w, year0, years[p])` over time-sorted `years`: one
/// `exp` and one binary search per distinct year.
pub(crate) fn recency_mass(years: &[Year], w: f64, year0: Year) -> f64 {
    let mut mass = 0.0;
    let mut at = 0;
    while let Some(&year) = years.get(at) {
        let run = years[at..].partition_point(|&y| y <= year);
        mass += run as f64 * recency_weight(w, year0, year);
        at += run;
    }
    mass
}

/// Fits the exponential decay rate `w` from the network's citation-age
/// distribution, following §4.2: fit `a·e^{w̃·n}` to the empirical
/// distribution of the citation-age random variable for ages
/// `1..=max_age` (age 0 is excluded — it sits below the peak and the paper
/// fits "the tail of the distribution") and return `min(w̃, 0)`.
///
/// Returns `fallback` when the network has too few citations to fit.
pub fn fit_decay_from_network(net: &CitationNetwork, max_age: u32, fallback: f64) -> f64 {
    let dist = stats::citation_age_distribution(net, max_age);
    let xs: Vec<f64> = (1..=max_age).map(f64::from).collect();
    let ys: Vec<f64> = dist[1..].to_vec();
    match fit_exponential(&xs, &ys) {
        Some(fit) => fit.rate.min(0.0),
        None => fallback,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citegen::{generate, DatasetProfile};
    use citegraph::NetworkBuilder;

    fn three_ages() -> CitationNetwork {
        let mut b = NetworkBuilder::new();
        b.add_paper(2000);
        b.add_paper(2010);
        b.add_paper(2020);
        b.build().unwrap()
    }

    #[test]
    fn recency_sums_to_one_and_orders_by_age() {
        let net = three_ages();
        let t = recency_vector(&net, -0.16);
        assert!((t.sum() - 1.0).abs() < 1e-12);
        assert!(t[2] > t[1] && t[1] > t[0], "newer papers score higher");
    }

    #[test]
    fn recency_all_positive() {
        let net = three_ages();
        let t = recency_vector(&net, -2.0);
        assert!(
            t.iter().all(|&x| x > 0.0),
            "Theorem 1 requires T(p) > 0 for all p"
        );
    }

    #[test]
    fn zero_decay_gives_uniform() {
        let net = three_ages();
        let t = recency_vector(&net, 0.0);
        for &x in t.iter() {
            assert!((x - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn relative_weights_follow_exponential() {
        let net = three_ages();
        let w = -0.1;
        let t = recency_vector(&net, w);
        // ages 20, 10, 0 → ratios e^{-2} : e^{-1} : 1
        assert!((t[2] / t[1] - (10.0 * -w).exp()).abs() < 1e-9);
        assert!((t[1] / t[0] - (10.0 * -w).exp()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn positive_decay_panics() {
        let net = three_ages();
        let _ = recency_vector(&net, 0.5);
    }

    #[test]
    fn empty_network_empty_vector() {
        let net = NetworkBuilder::new().build().unwrap();
        assert!(recency_vector(&net, -0.1).is_empty());
    }

    #[test]
    fn fitted_decay_is_negative_on_generated_data() {
        let net = generate(&DatasetProfile::hepth().scaled(3000), 41);
        let w = fit_decay_from_network(&net, 10, -0.2);
        assert!(w < 0.0, "citation ages decay, so w must be negative: {w}");
        // hep-th is calibrated to decay fast; the fit should land in a
        // clearly-fast band even with sampling noise.
        assert!(w < -0.15, "hep-th decay should be fast, got {w}");
    }

    #[test]
    fn fit_falls_back_without_citations() {
        let net = three_ages(); // no citations at all
        assert_eq!(fit_decay_from_network(&net, 10, -0.33), -0.33);
    }
}
