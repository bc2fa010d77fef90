//! Validated construction of [`CitationNetwork`]s.
//!
//! The builder accepts papers and citations in any order, then canonicalizes
//! at [`NetworkBuilder::build`]:
//!
//! 1. papers are stably sorted by publication year (insertion order breaks
//!    ties), and all ids are remapped to the sorted order — downstream code
//!    relies on "paper id order = time order" for prefix snapshots;
//! 2. every citation is checked for temporal consistency: a paper may only
//!    cite papers published in the same year or earlier (real bibliographies
//!    contain same-year citations, so equality is allowed);
//! 3. self-citations and references to unknown papers are rejected;
//!    duplicate citations collapse silently (citation matrices are 0/1).

use sparsela::Csr;
use std::fmt;

use crate::metadata::{AuthorId, AuthorTable, VenueId, VenueTable};
use crate::network::{CitationNetwork, PaperId, Year};

/// Errors produced by [`NetworkBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A citation referenced a paper id that was never added.
    UnknownPaper {
        /// The offending id.
        id: PaperId,
    },
    /// A paper cited itself.
    SelfCitation {
        /// The paper citing itself.
        id: PaperId,
    },
    /// A paper cited a paper published strictly later.
    FutureCitation {
        /// The citing paper (earlier year).
        citing: PaperId,
        /// The cited paper (later year).
        cited: PaperId,
        /// Year of the citing paper.
        citing_year: Year,
        /// Year of the cited paper.
        cited_year: Year,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownPaper { id } => write!(f, "unknown paper id {id}"),
            BuildError::SelfCitation { id } => write!(f, "paper {id} cites itself"),
            BuildError::FutureCitation {
                citing,
                cited,
                citing_year,
                cited_year,
            } => write!(
                f,
                "paper {citing} ({citing_year}) cites paper {cited} published later ({cited_year})"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental builder for [`CitationNetwork`].
///
/// ```
/// use citegraph::NetworkBuilder;
///
/// let mut b = NetworkBuilder::new();
/// let p0 = b.add_paper(1995);
/// let p1 = b.add_paper(1998);
/// b.add_citation(p1, p0).unwrap();
/// let net = b.build().unwrap();
/// assert_eq!(net.n_papers(), 2);
/// assert_eq!(net.citation_count(p0), 1);
/// ```
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    years: Vec<Year>,
    citations: Vec<(PaperId, PaperId)>, // (citing, cited), pre-remap ids
    authors: Vec<Vec<AuthorId>>,
    venues: Vec<Option<VenueId>>,
    has_metadata: bool,
    max_author: Option<AuthorId>,
    max_venue: Option<VenueId>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocates for an expected number of papers and citations.
    pub fn with_capacity(papers: usize, citations: usize) -> Self {
        Self {
            years: Vec::with_capacity(papers),
            citations: Vec::with_capacity(citations),
            authors: Vec::with_capacity(papers),
            venues: Vec::with_capacity(papers),
            ..Self::default()
        }
    }

    /// Adds a paper published in `year`; returns its provisional id (ids may
    /// be remapped at build time if papers arrive out of time order).
    pub fn add_paper(&mut self, year: Year) -> PaperId {
        let id = self.years.len() as PaperId;
        self.years.push(year);
        self.authors.push(Vec::new());
        self.venues.push(None);
        id
    }

    /// Adds a paper with author list and optional venue.
    pub fn add_paper_with_metadata(
        &mut self,
        year: Year,
        authors: Vec<AuthorId>,
        venue: Option<VenueId>,
    ) -> PaperId {
        let id = self.add_paper(year);
        if !authors.is_empty() || venue.is_some() {
            self.has_metadata = true;
        }
        for &a in &authors {
            self.max_author = Some(self.max_author.map_or(a, |m| m.max(a)));
        }
        if let Some(v) = venue {
            self.max_venue = Some(self.max_venue.map_or(v, |m| m.max(v)));
        }
        self.authors[id as usize] = authors;
        self.venues[id as usize] = venue;
        id
    }

    /// Records that `citing` cites `cited`.
    ///
    /// Temporal validation needs both papers' years, so errors for unknown
    /// ids surface here while year-ordering errors surface at [`build`].
    ///
    /// [`build`]: NetworkBuilder::build
    pub fn add_citation(&mut self, citing: PaperId, cited: PaperId) -> Result<(), BuildError> {
        let n = self.years.len() as u32;
        if citing >= n {
            return Err(BuildError::UnknownPaper { id: citing });
        }
        if cited >= n {
            return Err(BuildError::UnknownPaper { id: cited });
        }
        if citing == cited {
            return Err(BuildError::SelfCitation { id: citing });
        }
        self.citations.push((citing, cited));
        Ok(())
    }

    /// Publication year of the paper with provisional id `id`, if added.
    pub fn year(&self, id: PaperId) -> Option<Year> {
        self.years.get(id as usize).copied()
    }

    /// Number of papers added so far.
    pub fn n_papers(&self) -> usize {
        self.years.len()
    }

    /// Number of citations added so far (duplicates included).
    pub fn n_citations(&self) -> usize {
        self.citations.len()
    }

    /// Finalizes the network: sorts papers by year, remaps ids, validates
    /// temporal consistency, and builds the CSR adjacency.
    ///
    /// NOTE: when papers were added out of publication order, the ids
    /// returned by `add_paper` are *remapped* here (papers are stably
    /// sorted by year). Use [`build_with_mapping`] to translate provisional
    /// ids into final ones.
    ///
    /// [`build_with_mapping`]: NetworkBuilder::build_with_mapping
    pub fn build(self) -> Result<CitationNetwork, BuildError> {
        self.build_impl().map(|(net, _)| net)
    }

    /// Cost: the citation list is remapped in place and handed to
    /// [`Csr::from_edges`], and each author list is moved, not cloned, into
    /// final order — the build holds the builder's lists plus the network
    /// it lays out, no second copy of either (at 200k generated papers the
    /// edge list is 16 MB and the author lists are 200k `Vec`s).
    fn build_impl(self) -> Result<(CitationNetwork, Vec<PaperId>), BuildError> {
        let NetworkBuilder {
            years: provisional_years,
            mut citations,
            mut authors,
            venues,
            has_metadata,
            max_author,
            max_venue,
        } = self;
        let n = provisional_years.len();
        // Stable sort by year: preserves insertion order within a year.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&i| provisional_years[i as usize]);
        // old id → new id
        let mut remap = vec![0u32; n];
        for (new_id, &old_id) in order.iter().enumerate() {
            remap[old_id as usize] = new_id as u32;
        }
        let years: Vec<Year> = order
            .iter()
            .map(|&i| provisional_years[i as usize])
            .collect();
        drop(provisional_years);

        // Each entry is read (provisional ids) before it is overwritten
        // (final ids), so an error names the provisional ids the caller
        // passed to `add_citation`; the entries before it are already
        // remapped, which is harmless as the builder is consumed.
        for edge in citations.iter_mut() {
            let (citing_old, cited_old) = *edge;
            let citing = remap[citing_old as usize];
            let cited = remap[cited_old as usize];
            let (cy, dy) = (years[citing as usize], years[cited as usize]);
            if dy > cy {
                return Err(BuildError::FutureCitation {
                    citing: citing_old,
                    cited: cited_old,
                    citing_year: cy,
                    cited_year: dy,
                });
            }
            *edge = (citing, cited);
        }
        let refs = Csr::from_edges(n, n, &citations);
        drop(citations);

        let (authors, venues) = if has_metadata {
            let per_paper: Vec<Vec<AuthorId>> = order
                .iter()
                .map(|&old| std::mem::take(&mut authors[old as usize]))
                .collect();
            drop(authors);
            let venue: Vec<Option<VenueId>> =
                order.iter().map(|&old| venues[old as usize]).collect();
            let n_authors = max_author.map_or(0, |m| m as usize + 1);
            let n_venues = max_venue.map_or(0, |m| m as usize + 1);
            (
                Some(AuthorTable::new(&per_paper, n_authors)),
                Some(VenueTable::new(venue, n_venues)),
            )
        } else {
            (None, None)
        };

        Ok((
            CitationNetwork::from_parts(years, refs, authors, venues),
            remap,
        ))
    }

    /// Like [`build`], but also returns the id mapping: `mapping[p]` is the
    /// final id of the paper whose `add_paper` call returned `p`.
    ///
    /// Needed whenever papers were added out of publication order and the
    /// caller kept provisional ids around (the builder stably sorts papers
    /// by year, so provisional ids move).
    ///
    /// [`build`]: NetworkBuilder::build
    pub fn build_with_mapping(self) -> Result<(CitationNetwork, Vec<PaperId>), BuildError> {
        self.build_impl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorted_input() {
        let mut b = NetworkBuilder::new();
        let a = b.add_paper(2000);
        let c = b.add_paper(2001);
        b.add_citation(c, a).unwrap();
        let net = b.build().unwrap();
        assert_eq!(net.n_papers(), 2);
        assert_eq!(net.citations(0), &[1]);
    }

    #[test]
    fn build_with_mapping_translates_provisional_ids() {
        let mut b = NetworkBuilder::new();
        let newer = b.add_paper(2010);
        let older = b.add_paper(2001);
        let middle = b.add_paper(2005);
        let (net, mapping) = b.build_with_mapping().unwrap();
        assert_eq!(mapping[newer as usize], 2);
        assert_eq!(mapping[older as usize], 0);
        assert_eq!(mapping[middle as usize], 1);
        assert_eq!(net.year(mapping[newer as usize]), 2010);
    }

    #[test]
    fn build_with_mapping_identity_when_sorted() {
        let mut b = NetworkBuilder::new();
        for y in [2000, 2001, 2002] {
            b.add_paper(y);
        }
        let (_, mapping) = b.build_with_mapping().unwrap();
        assert_eq!(mapping, vec![0, 1, 2]);
    }

    #[test]
    fn build_remaps_out_of_order_papers() {
        let mut b = NetworkBuilder::new();
        let newer = b.add_paper(2005); // will become id 1
        let older = b.add_paper(2000); // will become id 0
        b.add_citation(newer, older).unwrap();
        let net = b.build().unwrap();
        assert_eq!(net.years(), &[2000, 2005]);
        // After remap, paper 1 (2005) cites paper 0 (2000).
        assert_eq!(net.references(1), &[0]);
        assert_eq!(net.citation_count(0), 1);
    }

    #[test]
    fn stable_order_within_year() {
        let mut b = NetworkBuilder::new();
        let p0 = b.add_paper(2000);
        let p1 = b.add_paper(2000);
        let p2 = b.add_paper(1999);
        let net = b.build().unwrap();
        assert_eq!(net.years(), &[1999, 2000, 2000]);
        // p2 → 0; p0 → 1; p1 → 2 (insertion order preserved within 2000)
        let _ = (p0, p1, p2);
        assert_eq!(net.n_papers(), 3);
    }

    #[test]
    fn same_year_citation_allowed() {
        let mut b = NetworkBuilder::new();
        let a = b.add_paper(2010);
        let c = b.add_paper(2010);
        b.add_citation(c, a).unwrap();
        assert!(b.build().is_ok());
    }

    #[test]
    fn future_citation_rejected() {
        let mut b = NetworkBuilder::new();
        let old = b.add_paper(1990);
        let new = b.add_paper(1995);
        b.add_citation(old, new).unwrap(); // temporal error caught at build
        let err = b.build().unwrap_err();
        assert!(matches!(err, BuildError::FutureCitation { .. }));
        assert!(err.to_string().contains("published later"));
    }

    #[test]
    fn future_citation_after_remapped_entries_names_provisional_ids() {
        // Provisional → final: p0 (2005) → 3, p1 (2003) → 2, p2 (1999) → 0,
        // p3 (2000) → 1. The remap rewrites the citation list in place, so
        // the two valid edges ahead of the bad one are already in final ids
        // when it is reached; the error must still speak provisional ids.
        let mut b = NetworkBuilder::new();
        let p0 = b.add_paper(2005);
        let p1 = b.add_paper(2003);
        let p2 = b.add_paper(1999);
        let p3 = b.add_paper(2000);
        b.add_citation(p0, p2).unwrap();
        b.add_citation(p1, p3).unwrap();
        b.add_citation(p3, p1).unwrap(); // 2000 cites 2003
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::FutureCitation {
                citing: p3,
                cited: p1,
                citing_year: 2000,
                cited_year: 2003,
            }
        );
    }

    #[test]
    fn build_with_mapping_remaps_edges_and_metadata_out_of_order() {
        let mut b = NetworkBuilder::new();
        let p0 = b.add_paper_with_metadata(2005, vec![4], Some(2));
        let p1 = b.add_paper_with_metadata(2003, vec![1, 2], None);
        let p2 = b.add_paper_with_metadata(1999, vec![0], Some(0));
        let p3 = b.add_paper(2000);
        b.add_citation(p0, p2).unwrap();
        b.add_citation(p1, p3).unwrap();
        b.add_citation(p0, p1).unwrap();
        b.add_citation(p0, p2).unwrap(); // duplicate
        let (net, mapping) = b.build_with_mapping().unwrap();
        assert_eq!(mapping, vec![3, 2, 0, 1]);
        assert_eq!(net.years(), &[1999, 2000, 2003, 2005]);
        assert_eq!(net.references(3), &[0, 2]);
        assert_eq!(net.references(2), &[1]);
        assert_eq!(net.n_citations(), 3);
        let authors = net.authors().unwrap();
        assert_eq!(authors.authors_of(mapping[p0 as usize]), &[4]);
        assert_eq!(authors.authors_of(mapping[p1 as usize]), &[1, 2]);
        assert_eq!(authors.authors_of(mapping[p2 as usize]), &[0]);
        assert!(authors.authors_of(mapping[p3 as usize]).is_empty());
        let venues = net.venues().unwrap();
        assert_eq!(venues.slots(), &[Some(0), None, None, Some(2)]);
    }

    #[test]
    fn self_citation_rejected_eagerly() {
        let mut b = NetworkBuilder::new();
        let p = b.add_paper(2000);
        assert_eq!(
            b.add_citation(p, p),
            Err(BuildError::SelfCitation { id: p })
        );
    }

    #[test]
    fn unknown_paper_rejected_eagerly() {
        let mut b = NetworkBuilder::new();
        let p = b.add_paper(2000);
        assert_eq!(
            b.add_citation(p, 99),
            Err(BuildError::UnknownPaper { id: 99 })
        );
        assert_eq!(
            b.add_citation(99, p),
            Err(BuildError::UnknownPaper { id: 99 })
        );
    }

    #[test]
    fn duplicate_citations_collapse() {
        let mut b = NetworkBuilder::new();
        let a = b.add_paper(2000);
        let c = b.add_paper(2001);
        b.add_citation(c, a).unwrap();
        b.add_citation(c, a).unwrap();
        let net = b.build().unwrap();
        assert_eq!(net.n_citations(), 1);
    }

    #[test]
    fn metadata_remapped_with_papers() {
        let mut b = NetworkBuilder::new();
        b.add_paper_with_metadata(2005, vec![7], Some(1)); // → id 1
        b.add_paper_with_metadata(2000, vec![3, 4], Some(0)); // → id 0
        let net = b.build().unwrap();
        let authors = net.authors().unwrap();
        assert_eq!(authors.authors_of(0), &[3, 4]);
        assert_eq!(authors.authors_of(1), &[7]);
        assert_eq!(authors.n_authors(), 8);
        let venues = net.venues().unwrap();
        assert_eq!(venues.venue_of(0), Some(0));
        assert_eq!(venues.venue_of(1), Some(1));
    }

    #[test]
    fn no_metadata_when_never_provided() {
        let mut b = NetworkBuilder::new();
        b.add_paper(2000);
        let net = b.build().unwrap();
        assert!(net.authors().is_none());
        assert!(net.venues().is_none());
    }

    #[test]
    fn empty_network_builds() {
        let net = NetworkBuilder::new().build().unwrap();
        assert_eq!(net.n_papers(), 0);
        assert_eq!(net.n_citations(), 0);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut b = NetworkBuilder::with_capacity(10, 10);
        b.add_paper(1999);
        assert_eq!(b.n_papers(), 1);
        assert_eq!(b.year(0), Some(1999));
        assert_eq!(b.year(1), None);
        assert_eq!(b.n_citations(), 0);
    }
}
