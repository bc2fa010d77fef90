//! Descriptive statistics over citation networks.
//!
//! These back the paper's descriptive figures: the citation-age distribution
//! of Fig. 1a (input to the `w`-fitting procedure of §4.2), the per-paper
//! yearly citation curves of Fig. 1b, and assorted degree statistics used in
//! dataset summaries.

use crate::network::{CitationNetwork, PaperId, Year};

/// Empirical distribution of citation age: entry `n` is the fraction of all
/// citations whose citing paper appeared `n` years after the cited paper,
/// for `n ∈ [0, max_age]`. Citations older than `max_age` are dropped from
/// the numerator *and* denominator, matching the paper's Fig. 1a which plots
/// `n ≤ 10`.
///
/// Returns all zeros when the network has no citations within the cap.
pub fn citation_age_distribution(net: &CitationNetwork, max_age: u32) -> Vec<f64> {
    let mut histogram = vec![0u64; max_age as usize + 1];
    let mut total = 0u64;
    for citing in 0..net.n_papers() as u32 {
        let cy = net.year(citing);
        for &cited in net.references(citing) {
            let age = cy - net.year(cited);
            debug_assert!(age >= 0, "builder guarantees no future citations");
            if age as u32 <= max_age {
                histogram[age as usize] += 1;
                total += 1;
            }
        }
    }
    if total == 0 {
        return vec![0.0; max_age as usize + 1];
    }
    histogram.iter().map(|&h| h as f64 / total as f64).collect()
}

/// Yearly citation counts of a single paper: `(year, citations received
/// from papers published that year)`, covering every year from the paper's
/// publication to the network's current year (zeros included, so the series
/// plots directly as Fig. 1b).
pub fn yearly_citations(net: &CitationNetwork, p: PaperId) -> Vec<(Year, u32)> {
    let start = net.year(p);
    let Some(end) = net.current_year() else {
        return Vec::new();
    };
    let mut counts = vec![0u32; (end - start + 1).max(0) as usize];
    for &citing in net.citations(p) {
        let y = net.year(citing);
        counts[(y - start) as usize] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| (start + i as Year, c))
        .collect()
}

/// Summary statistics of a network, printable as a dataset card.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSummary {
    /// Number of papers.
    pub papers: usize,
    /// Number of citation edges.
    pub citations: usize,
    /// Mean references per paper.
    pub mean_refs: f64,
    /// Maximum in-degree.
    pub max_citations: usize,
    /// Fraction of papers with zero references.
    pub dangling_fraction: f64,
    /// First and last publication year.
    pub year_range: Option<(Year, Year)>,
    /// Number of distinct authors (0 when metadata absent).
    pub authors: usize,
    /// Number of distinct venues (0 when metadata absent).
    pub venues: usize,
}

/// Computes a [`NetworkSummary`].
pub fn summarize(net: &CitationNetwork) -> NetworkSummary {
    let papers = net.n_papers();
    let citations = net.n_citations();
    let max_citations = (0..papers as u32)
        .map(|p| net.citation_count(p))
        .max()
        .unwrap_or(0);
    let dangling = net.dangling_papers().count();
    NetworkSummary {
        papers,
        citations,
        mean_refs: if papers > 0 {
            citations as f64 / papers as f64
        } else {
            0.0
        },
        max_citations,
        dangling_fraction: if papers > 0 {
            dangling as f64 / papers as f64
        } else {
            0.0
        },
        year_range: net.first_year().zip(net.current_year()),
        authors: net.authors().map_or(0, |a| a.n_authors()),
        venues: net.venues().map_or(0, |v| v.n_venues()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    /// 1990 paper cited in 1991 (×2 papers) and 1993 (×1).
    fn aged() -> CitationNetwork {
        let mut b = NetworkBuilder::new();
        let root = b.add_paper(1990);
        let a = b.add_paper(1991);
        let c = b.add_paper(1991);
        let d = b.add_paper(1993);
        for p in [a, c, d] {
            b.add_citation(p, root).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn age_distribution_fractions() {
        let net = aged();
        let dist = citation_age_distribution(&net, 5);
        assert_eq!(dist.len(), 6);
        assert!((dist[1] - 2.0 / 3.0).abs() < 1e-12);
        assert!((dist[3] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(dist[0], 0.0);
        let sum: f64 = dist.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn age_distribution_caps_old_citations() {
        let net = aged();
        // max_age 2 drops the age-3 citation from numerator and denominator.
        let dist = citation_age_distribution(&net, 2);
        assert!((dist[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn age_distribution_empty_network() {
        let net = NetworkBuilder::new().build().unwrap();
        let dist = citation_age_distribution(&net, 3);
        assert_eq!(dist, vec![0.0; 4]);
    }

    #[test]
    fn yearly_citations_series() {
        let net = aged();
        let series = yearly_citations(&net, 0);
        assert_eq!(series, vec![(1990, 0), (1991, 2), (1992, 0), (1993, 1)]);
    }

    #[test]
    fn yearly_citations_uncited_paper() {
        let net = aged();
        let series = yearly_citations(&net, 3); // 1993 paper, never cited
        assert_eq!(series, vec![(1993, 0)]);
    }

    #[test]
    fn summary_values() {
        let net = aged();
        let s = summarize(&net);
        assert_eq!(s.papers, 4);
        assert_eq!(s.citations, 3);
        assert!((s.mean_refs - 0.75).abs() < 1e-12);
        assert_eq!(s.max_citations, 3);
        assert!((s.dangling_fraction - 0.25).abs() < 1e-12);
        assert_eq!(s.year_range, Some((1990, 1993)));
        assert_eq!(s.authors, 0);
        assert_eq!(s.venues, 0);
    }

    #[test]
    fn summary_empty() {
        let net = NetworkBuilder::new().build().unwrap();
        let s = summarize(&net);
        assert_eq!(s.papers, 0);
        assert_eq!(s.year_range, None);
        assert_eq!(s.mean_refs, 0.0);
    }
}
