//! The attention vector `A` (paper Eq. 2).
//!
//! `A(p_i)` is the fraction of all citations made during the last `y` years
//! that paper `p_i` received:
//!
//! ```text
//! A(p_i) = Σ_j C[t_N−y : t_N][i,j]  /  Σ_i Σ_j C[t_N−y : t_N][i,j]
//! ```
//!
//! The vector is a probability distribution over papers (Σ A = 1) except in
//! the degenerate case of an empty window, where it is all-zero — the model
//! handles that case by construction (β·0 contributes nothing and the
//! Theorem-1 argument falls back on `γ·T > 0`).

use citegraph::{window, CitationNetwork, GraphDelta, PaperId};
use sparsela::ScoreVec;

/// Computes the attention vector for the trailing `y`-year window of `net`.
///
/// # Panics
/// Panics if `y == 0` (Eq. 2 needs a non-empty window; the parameter type
/// in [`crate::AttRankParams`] already forbids it).
pub fn attention_vector(net: &CitationNetwork, y: u32) -> ScoreVec {
    let counts = window::recent_citation_counts(net, y);
    let mut v = ScoreVec::zeros(counts.len());
    scaled_attention_into(&counts, 1.0, &mut v);
    v
}

/// Writes `scale · A` into `out`, `A` being the attention vector of the
/// window counts `counts` — the one normalization every caller goes
/// through, so a vector built from carried counts equals one built from a
/// recount bit for bit. All-zero counts give the all-zero vector.
pub(crate) fn scaled_attention_into(counts: &[u32], scale: f64, out: &mut [f64]) {
    assert_eq!(counts.len(), out.len(), "attention: length mismatch");
    let total: u64 = counts.iter().map(|&c| u64::from(c)).sum();
    let inv = if total == 0 { 0.0 } else { 1.0 / total as f64 };
    for (a, &c) in out.iter_mut().zip(counts) {
        *a = scale * (f64::from(c) * inv);
    }
}

/// The attention window's integer citation counts
/// ([`window::recent_citation_counts`]) and their total, maintained
/// across deltas: a batch changes a handful of counts, so the incremental
/// scorer updates them from the batch instead of recounting the window's
/// edges, and recounts only when the window itself moves.
#[derive(Debug, Clone)]
pub(crate) struct WindowCounts {
    /// First citing id of the window ([`window::recent_window_start`]).
    start: usize,
    counts: Vec<u32>,
    /// `Σ counts`: the attention vector's normalizer.
    total: u64,
}

impl WindowCounts {
    /// Counts the trailing `y`-year window of `net` from its edges.
    pub(crate) fn count(net: &CitationNetwork, y: u32) -> Self {
        let counts = window::recent_citation_counts(net, y);
        Self {
            start: window::recent_window_start(net, y),
            total: counts.iter().map(|&c| u64::from(c)).sum(),
            counts,
        }
    }

    /// Citations received inside the window, one entry per paper.
    pub(crate) fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Citations made inside the window.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Carries the counts of `old` over to `new = old.with_delta(delta)`,
    /// reporting each change as `changed(paper, Δcount)` — repeats of a
    /// paper add up.
    pub(crate) fn advance(
        &mut self,
        old: &CitationNetwork,
        delta: &GraphDelta,
        new: &CitationNetwork,
        y: u32,
        mut changed: impl FnMut(PaperId, f64),
    ) {
        if window::recent_window_start(new, y) != self.start {
            // The batch advanced `t_N`: citing papers fell out of the
            // window, and only a recount knows which edges were theirs.
            let fresh = Self::count(new, y);
            for (p, &c) in fresh.counts.iter().enumerate() {
                let before = self.counts.get(p).copied().unwrap_or(0);
                if c != before {
                    changed(p as PaperId, f64::from(c) - f64::from(before));
                }
            }
            *self = fresh;
            return;
        }
        self.counts.resize(new.n_papers(), 0);
        let mut citing: Vec<PaperId> = delta
            .citations
            .iter()
            .map(|&(citing, _)| citing)
            .filter(|&citing| citing as usize >= self.start)
            .collect();
        citing.sort_unstable();
        citing.dedup();
        for citing in citing {
            // Reference rows are sorted and duplicate-free and a delta
            // only adds to them, so the edges the batch really added —
            // not its duplicates of existing edges or of itself — are the
            // new row minus the old one.
            let old_row: &[PaperId] = if (citing as usize) < old.n_papers() {
                old.references(citing)
            } else {
                &[]
            };
            let mut before = old_row.iter().peekable();
            for &cited in new.references(citing) {
                if before.peek() == Some(&&cited) {
                    before.next();
                } else {
                    self.counts[cited as usize] += 1;
                    self.total += 1;
                    changed(cited, 1.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citegraph::NetworkBuilder;

    /// 2000..=2004 chain, each paper citing all predecessors.
    fn chain() -> CitationNetwork {
        let mut b = NetworkBuilder::new();
        let ids: Vec<_> = (2000..2005).map(|y| b.add_paper(y)).collect();
        for (i, &citing) in ids.iter().enumerate() {
            for &cited in &ids[..i] {
                b.add_citation(citing, cited).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn attention_is_probability_vector() {
        let net = chain();
        for y in 1..=4 {
            let a = attention_vector(&net, y);
            assert!((a.sum() - 1.0).abs() < 1e-12, "y={y}");
            assert!(a.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn attention_matches_window_shares() {
        let net = chain();
        // y=2 → citing papers 2003, 2004 → counts [2,2,2,1,0], total 7.
        let a = attention_vector(&net, 2);
        assert!((a[0] - 2.0 / 7.0).abs() < 1e-12);
        assert!((a[3] - 1.0 / 7.0).abs() < 1e-12);
        assert_eq!(a[4], 0.0);
    }

    #[test]
    fn empty_window_gives_zero_vector() {
        // Singleton network: no citations at all.
        let mut b = NetworkBuilder::new();
        b.add_paper(2000);
        let net = b.build().unwrap();
        let a = attention_vector(&net, 5);
        assert_eq!(a.as_slice(), &[0.0]);
    }

    #[test]
    fn recently_hot_paper_dominates() {
        // An old paper with many total citations but none recent must lose
        // to a newer paper hot in the window.
        let mut b = NetworkBuilder::new();
        let old = b.add_paper(1990);
        let mids: Vec<_> = (0..5).map(|i| b.add_paper(1991 + i)).collect();
        for &m in &mids {
            b.add_citation(m, old).unwrap();
        }
        let hot = b.add_paper(2018);
        let f1 = b.add_paper(2019);
        let f2 = b.add_paper(2020);
        b.add_citation(f1, hot).unwrap();
        b.add_citation(f2, hot).unwrap();
        let net = b.build().unwrap();
        let a = attention_vector(&net, 3);
        assert!(a[hot as usize] > a[old as usize]);
        assert_eq!(a[old as usize], 0.0, "no citation in window");
    }
}
