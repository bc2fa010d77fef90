//! Time-windowed views of the citation matrix.
//!
//! Paper §3 defines `C[t_N−y : t_N]` — the citation matrix containing only
//! citations *made* during the past `y` years. The attention score of a
//! paper is its share of those citations (Eq. 2). Citations are dated by the
//! publication year of the *citing* paper (the only timestamp the citation
//! datasets carry).

use crate::network::{CitationNetwork, PaperId, Year};

/// Per-paper count of citations received from papers published in the
/// half-open year interval `(from, to]`.
///
/// `from < to` is required; use [`recent_citation_counts`] for the common
/// "last `y` years" case anchored at `t_N`.
pub fn citations_in_window(net: &CitationNetwork, from: Year, to: Year) -> Vec<u32> {
    assert!(from < to, "empty or inverted window ({from}, {to}]");
    let mut counts = vec![0u32; net.n_papers()];
    // Papers are time-sorted, so the citing papers within the window form a
    // contiguous id range — iterate only those rows.
    let lo = net.papers_until(from); // first index with year > from
    let hi = net.papers_until(to); // one past last index with year <= to
    for citing in lo as u32..hi as u32 {
        for &cited in net.references(citing) {
            counts[cited as usize] += 1;
        }
    }
    counts
}

/// Citations received by every paper during the last `y` years of the
/// network's life, i.e. from citing papers published in
/// `(t_N − y, t_N]` where `t_N` is the newest publication year.
///
/// Returns all zeros for an empty network; `y ≥ 1` is required.
pub fn recent_citation_counts(net: &CitationNetwork, y: u32) -> Vec<u32> {
    assert!(y >= 1, "window must span at least one year");
    let Some(t_n) = net.current_year() else {
        return Vec::new();
    };
    citations_in_window(net, t_n - y as Year, t_n)
}

/// Id of the first citing paper inside the trailing window
/// `(t_N − y, t_N]`. Papers are time-sorted, so the window's citing papers
/// are exactly the ids from here on, and the id moves only when `t_N`
/// does — which is what lets [`recent_citation_counts`] be maintained
/// across appended batches. 0 for an empty network; `y ≥ 1` is required.
pub fn recent_window_start(net: &CitationNetwork, y: u32) -> usize {
    assert!(y >= 1, "window must span at least one year");
    net.current_year()
        .map_or(0, |t_n| net.papers_until(t_n - y as Year))
}

/// The ids of the `k` papers with the most citations received in the last
/// `y` years (ties broken by smaller id). Used for the Table-1
/// "recently popular" analysis.
pub fn top_recent_papers(net: &CitationNetwork, y: u32, k: usize) -> Vec<PaperId> {
    let counts = recent_citation_counts(net, y);
    let mut idx: Vec<PaperId> = (0..counts.len() as u32).collect();
    idx.sort_by(|&a, &b| counts[b as usize].cmp(&counts[a as usize]).then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    /// Years 2000..2004, one paper per year; each paper cites all
    /// predecessors.
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
    fn window_counts_only_citations_made_inside() {
        let net = chain();
        // Window (2002, 2004]: citing papers are 2003 (id 3) and 2004 (id 4).
        let counts = citations_in_window(&net, 2002, 2004);
        // id0 cited by both, id1 by both, id2 by both, id3 by id4 only.
        assert_eq!(counts, vec![2, 2, 2, 1, 0]);
    }

    #[test]
    fn window_excludes_lower_bound_includes_upper() {
        let net = chain();
        // (2003, 2004]: only the 2004 paper cites.
        let counts = citations_in_window(&net, 2003, 2004);
        assert_eq!(counts, vec![1, 1, 1, 1, 0]);
    }

    #[test]
    fn full_window_equals_total_citation_counts() {
        let net = chain();
        let counts = citations_in_window(&net, 1999, 2004);
        let expected: Vec<u32> = net.citation_counts().iter().map(|&c| c as u32).collect();
        assert_eq!(counts, expected);
    }

    #[test]
    fn recent_counts_anchor_at_t_n() {
        let net = chain();
        // y=1 → (2003, 2004]
        assert_eq!(recent_citation_counts(&net, 1), vec![1, 1, 1, 1, 0]);
        // y=2 → (2002, 2004]
        assert_eq!(recent_citation_counts(&net, 2), vec![2, 2, 2, 1, 0]);
    }

    #[test]
    fn window_start_is_the_first_citing_id() {
        let net = chain();
        // y=2 → (2002, 2004]: the 2003 paper (id 3) is the first inside.
        assert_eq!(recent_window_start(&net, 2), 3);
        assert_eq!(recent_window_start(&net, 10), 0);
        let empty = NetworkBuilder::new().build().unwrap();
        assert_eq!(recent_window_start(&empty, 3), 0);
    }

    #[test]
    fn recent_counts_empty_network() {
        let net = NetworkBuilder::new().build().unwrap();
        assert!(recent_citation_counts(&net, 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty or inverted")]
    fn inverted_window_panics() {
        let net = chain();
        let _ = citations_in_window(&net, 2004, 2002);
    }

    #[test]
    #[should_panic(expected = "at least one year")]
    fn zero_year_window_panics() {
        let net = chain();
        let _ = recent_citation_counts(&net, 0);
    }

    #[test]
    fn top_recent_papers_ordering() {
        let net = chain();
        // y=2 counts: [2,2,2,1,0] → top 3 = ids 0,1,2 (ties by id).
        assert_eq!(top_recent_papers(&net, 2, 3), vec![0, 1, 2]);
        assert_eq!(top_recent_papers(&net, 2, 10).len(), 5);
    }

    #[test]
    fn window_sums_match_edges_in_range() {
        let net = chain();
        let counts = citations_in_window(&net, 2001, 2003);
        let total: u32 = counts.iter().sum();
        // Citing papers 2002 (2 refs) and 2003 (3 refs) → 5 citations.
        assert_eq!(total, 5);
    }
}
