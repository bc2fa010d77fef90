//! Secondary-index probes over the time-sorted id space.
//!
//! The workspace's facet indexes are sorted posting lists: venue→papers
//! and author→papers CSR arrays whose lists hold ascending paper ids
//! (see [`crate::metadata`]). Because paper ids are assigned in
//! publication-time order, a year predicate compiles to one contiguous id
//! range ([`crate::CitationNetwork::id_range_for_years`]) — and a
//! *composite* (facet, year-range) predicate reduces to [`band`]: two
//! binary searches that cut the facet's posting list down to the ids
//! inside the range. No residual scan, no per-candidate year check.

use std::ops::Range;

use crate::network::PaperId;

/// The contiguous slice of a sorted posting list whose ids fall inside
/// `ids` — the composite (facet, year-range) index probe.
///
/// `postings` must be sorted ascending (every posting list in this
/// workspace is; construction is a counting sort over ascending paper
/// ids). Cost: two binary searches, O(log len), plus nothing — the result
/// borrows the list.
pub fn band<'a>(postings: &'a [PaperId], ids: &Range<PaperId>) -> &'a [PaperId] {
    &postings[band_span(postings, ids)]
}

/// The positions in `postings` of [`band`]'s slice — what a block walk
/// over the list's per-block maxima needs, where the slice alone loses
/// its alignment to the list's blocks.
pub fn band_span(postings: &[PaperId], ids: &Range<PaperId>) -> Range<usize> {
    let lo = postings.partition_point(|&p| p < ids.start);
    let hi = postings.partition_point(|&p| p < ids.end);
    lo..hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::network::CitationNetwork;

    /// 12 papers, 2000..=2011; venue = id % 3 except 2 (none);
    /// author id % 2, plus author 2 on multiples of 4.
    fn corpus() -> CitationNetwork {
        let mut b = NetworkBuilder::new();
        for id in 0..12u32 {
            let venue = if id % 3 == 2 { None } else { Some(id % 3) };
            let mut authors = vec![id % 2];
            if id % 4 == 0 {
                authors.push(2);
            }
            b.add_paper_with_metadata(2000 + id as i32, authors, venue);
        }
        b.build().unwrap()
    }

    #[test]
    fn band_is_the_sorted_range_slice() {
        let postings = [2u32, 5, 7, 11, 20, 31];
        assert_eq!(band(&postings, &(5..21)), &[5, 7, 11, 20]);
        assert_eq!(band(&postings, &(0..100)), &postings);
        assert_eq!(band(&postings, &(8..11)), &[] as &[u32]);
        assert_eq!(band(&postings, &(6..6)), &[] as &[u32]);
        assert_eq!(band(&[], &(0..10)), &[] as &[u32]);
    }

    #[test]
    fn every_venue_year_band_starts_on_a_cut() {
        // The cuts are exactly where each venue's `year=Y..` bands start:
        // position 0 of each list and each year's first posting in it.
        let net = corpus();
        let venues = net.venues().unwrap();
        let mut want = Vec::new();
        for v in 0..venues.n_venues() as u32 {
            let list = venues.papers_at(v);
            for year in 1999..=2012 {
                let span = band_span(list, &net.id_range_for_years(Some(year), None));
                if span.start < list.len() {
                    want.push((v as usize, span.start));
                }
            }
        }
        want.dedup();
        let cuts: Vec<(usize, usize)> = net.venue_year_cuts().iter().collect();
        assert_eq!(cuts, want);
        assert_eq!(cuts.len(), 8, "two venues of four papers each");
    }

    #[test]
    fn band_matches_residual_filter_on_real_postings() {
        let net = corpus();
        let venues = net.venues().unwrap();
        for v in 0..venues.n_venues() as u32 {
            for (lo, hi) in [(2002, 2007), (2000, 2011), (2010, 2001)] {
                let range = net.id_range_for_years(Some(lo), Some(hi));
                let expect: Vec<u32> = venues
                    .papers_at(v)
                    .iter()
                    .copied()
                    .filter(|p| range.contains(p))
                    .collect();
                assert_eq!(band(venues.papers_at(v), &range), expect.as_slice());
            }
        }
    }
}
