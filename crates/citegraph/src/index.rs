//! Secondary-index probes and set algebra over the time-sorted id space.
//!
//! The workspace's facet indexes are sorted posting lists: venue→papers
//! and author→papers CSR arrays whose lists hold ascending paper ids
//! (see [`crate::metadata`]). Because paper ids are assigned in
//! publication-time order, a year predicate compiles to one contiguous id
//! range ([`CitationNetwork::id_range_for_years`]) — and a *composite*
//! (facet, year-range) predicate reduces to [`band`]: two binary searches
//! that cut the facet's posting list down to the ids inside the range. No
//! residual scan, no per-candidate year check.
//!
//! For predicates that don't reduce to a single list — OR over several
//! facets, AND across facet classes, negation — [`FacetExpr`] composes
//! posting lists and year ranges into an [`IdMask`] with plain set
//! algebra (AND/OR/NOT), so the query planner can push a whole predicate
//! tree down to word-wide bit operations instead of testing candidates
//! one at a time.

use std::ops::Range;

use sparsela::IdMask;

use crate::metadata::{AuthorId, VenueId};
use crate::network::{CitationNetwork, PaperId, Year};

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

/// A set-algebra expression over posting lists and year ranges,
/// evaluated to an [`IdMask`] covering the network's id space.
///
/// Leaves resolve through the network's secondary indexes; `Any`/`All`/
/// `Not` compose with word-wide OR/AND/NOT. Facet ids that are missing
/// from the network (no metadata table, or an id outside the table's id
/// space) evaluate to the empty set — the algebra layer is total, and
/// callers wanting typed errors for unknown ids (the query layer)
/// bounds-check before building the expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FacetExpr {
    /// Papers published at a venue.
    Venue(VenueId),
    /// Papers written by an author.
    Author(AuthorId),
    /// Papers published within `[lo, hi]` (either bound optional).
    Years(Option<Year>, Option<Year>),
    /// Union: papers matching *any* sub-expression (empty = empty set).
    Any(Vec<FacetExpr>),
    /// Intersection: papers matching *all* sub-expressions (empty = all
    /// papers).
    All(Vec<FacetExpr>),
    /// Complement within the id space.
    Not(Box<FacetExpr>),
}

impl FacetExpr {
    /// Evaluates the expression to a mask over `net`'s full id space.
    pub fn mask(&self, net: &CitationNetwork) -> IdMask {
        let n = net.n_papers();
        match self {
            FacetExpr::Venue(v) => {
                let postings = net
                    .venues()
                    .filter(|t| (*v as usize) < t.n_venues())
                    .map(|t| t.papers_at(*v))
                    .unwrap_or(&[]);
                IdMask::from_ids(n, postings.iter().copied())
            }
            FacetExpr::Author(a) => {
                let postings = net
                    .authors()
                    .filter(|t| (*a as usize) < t.n_authors())
                    .map(|t| t.papers_of(*a))
                    .unwrap_or(&[]);
                IdMask::from_ids(n, postings.iter().copied())
            }
            FacetExpr::Years(lo, hi) => IdMask::from_range(n, net.id_range_for_years(*lo, *hi)),
            FacetExpr::Any(terms) => {
                let mut acc = IdMask::new(n);
                for t in terms {
                    acc.union_with(&t.mask(net));
                }
                acc
            }
            FacetExpr::All(terms) => {
                let mut acc = IdMask::from_range(n, 0..n as PaperId);
                for t in terms {
                    acc.intersect_with(&t.mask(net));
                }
                acc
            }
            FacetExpr::Not(inner) => {
                let mut m = inner.mask(net);
                m.negate();
                m
            }
        }
    }

    /// An upper bound on the expression's cardinality, computed from
    /// posting-list lengths and range widths without materializing any
    /// mask — what a cost-based planner compares against scan widths.
    /// Exact for leaves; `Any` sums (over-counts overlap), `All` takes
    /// the tightest term, `Not` falls back to the id-space size.
    pub fn upper_bound(&self, net: &CitationNetwork) -> usize {
        let n = net.n_papers();
        match self {
            FacetExpr::Venue(v) => net
                .venues()
                .filter(|t| (*v as usize) < t.n_venues())
                .map_or(0, |t| t.n_papers_at(*v)),
            FacetExpr::Author(a) => net
                .authors()
                .filter(|t| (*a as usize) < t.n_authors())
                .map_or(0, |t| t.papers_of(*a).len()),
            FacetExpr::Years(lo, hi) => net.id_range_for_years(*lo, *hi).len(),
            FacetExpr::Any(terms) => terms
                .iter()
                .map(|t| t.upper_bound(net))
                .sum::<usize>()
                .min(n),
            FacetExpr::All(terms) => terms.iter().map(|t| t.upper_bound(net)).min().unwrap_or(n),
            FacetExpr::Not(_) => n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

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

    fn ids(mask: &IdMask) -> Vec<u32> {
        mask.ones().collect()
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

    #[test]
    fn leaf_masks_match_postings() {
        let net = corpus();
        assert_eq!(
            ids(&FacetExpr::Venue(0).mask(&net)),
            net.venues().unwrap().papers_at(0)
        );
        assert_eq!(
            ids(&FacetExpr::Author(2).mask(&net)),
            net.authors().unwrap().papers_of(2)
        );
        assert_eq!(
            ids(&FacetExpr::Years(Some(2003), Some(2005)).mask(&net)),
            vec![3, 4, 5]
        );
    }

    #[test]
    fn unknown_facets_evaluate_empty_not_panic() {
        let net = corpus();
        assert_eq!(FacetExpr::Venue(99).mask(&net).count_ones(), 0);
        assert_eq!(FacetExpr::Author(99).mask(&net).count_ones(), 0);
        assert_eq!(FacetExpr::Venue(99).upper_bound(&net), 0);
        // A network without metadata: every facet leaf is empty.
        let mut b = NetworkBuilder::new();
        b.add_paper(2000);
        let bare = b.build().unwrap();
        assert_eq!(FacetExpr::Venue(0).mask(&bare).count_ones(), 0);
        assert_eq!(FacetExpr::Author(0).mask(&bare).count_ones(), 0);
    }

    #[test]
    fn composed_expressions_match_brute_force() {
        let net = corpus();
        // (venue 0 OR venue 1) AND years 2002..=2009 AND NOT author 2
        let expr = FacetExpr::All(vec![
            FacetExpr::Any(vec![FacetExpr::Venue(0), FacetExpr::Venue(1)]),
            FacetExpr::Years(Some(2002), Some(2009)),
            FacetExpr::Not(Box::new(FacetExpr::Author(2))),
        ]);
        let venues = net.venues().unwrap();
        let authors = net.authors().unwrap();
        let expect: Vec<u32> = (0..12u32)
            .filter(|&p| {
                matches!(venues.venue_of(p), Some(0) | Some(1))
                    && (2002..=2009).contains(&net.year(p))
                    && !authors.authors_of(p).contains(&2)
            })
            .collect();
        assert_eq!(ids(&expr.mask(&net)), expect);
        assert!(expr.upper_bound(&net) >= expect.len());
    }

    #[test]
    fn empty_any_and_all_are_identities() {
        let net = corpus();
        assert_eq!(FacetExpr::Any(vec![]).mask(&net).count_ones(), 0);
        assert_eq!(FacetExpr::All(vec![]).mask(&net).count_ones(), 12);
        assert_eq!(FacetExpr::All(vec![]).upper_bound(&net), 12);
    }
}
