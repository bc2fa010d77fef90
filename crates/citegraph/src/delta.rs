//! Batched deltas against an immutable [`CitationNetwork`].
//!
//! A serving deployment does not rebuild its corpus from scratch every time
//! a day's worth of papers lands — it applies a *delta*: newly published
//! papers (appended at the end of the time-sorted id space, so every
//! existing id stays valid) plus newly observed citations (from new papers,
//! or bibliography corrections to existing ones).
//!
//! [`CitationNetwork::with_delta`] validates a [`GraphDelta`] and produces
//! the successor network. Because ids are stable, push solvers
//! (`attrank`'s incremental module) can carry their fixed point across the
//! transition, which is exactly what the engine crate's re-rank path does.

use std::fmt;

use crate::metadata::{AuthorId, AuthorTable, VenueId, VenueTable};
use crate::network::{CitationNetwork, PaperId, Year};

/// A batch of additions to apply on top of an existing network.
///
/// New papers receive ids `n, n+1, …` in the order they appear in
/// [`Self::papers`] (where `n` is the base network's paper count); citation
/// pairs may reference both existing and new ids.
///
/// Papers may optionally carry venue/author metadata (see
/// [`Self::add_paper_with_metadata`]): when any paper in the batch does,
/// [`Self::authors`] and [`Self::venues`] run parallel to
/// [`Self::papers`]; when none does, both stay empty and the batch is a
/// plain v1-style delta. Applying a metadata-bearing delta appends to the
/// network's facet posting lists, so facet queries see the new papers
/// immediately — no rebuild.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Publication years of the appended papers, in id order.
    pub papers: Vec<Year>,
    /// New `(citing, cited)` edges. Duplicates of existing edges collapse
    /// silently, mirroring the builder (citation matrices are 0/1).
    pub citations: Vec<(PaperId, PaperId)>,
    /// Author lists per appended paper — empty when the batch carries no
    /// metadata, otherwise parallel to [`Self::papers`] (papers without
    /// authors hold an empty list). Ids may exceed the base network's
    /// author id space; the space grows on apply.
    pub authors: Vec<Vec<AuthorId>>,
    /// Venue per appended paper — empty when the batch carries no
    /// metadata, otherwise parallel to [`Self::papers`].
    pub venues: Vec<Option<VenueId>>,
}

impl GraphDelta {
    /// An empty delta (applying it yields an identical network).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a paper published in `year`; returns its *offset within the
    /// delta* — its final id is `base.n_papers() + offset`.
    pub fn add_paper(&mut self, year: Year) -> usize {
        if self.has_metadata() {
            self.authors.push(Vec::new());
            self.venues.push(None);
        }
        self.papers.push(year);
        self.papers.len() - 1
    }

    /// Appends a paper with venue/author metadata, mirroring
    /// [`crate::NetworkBuilder::add_paper_with_metadata`]; returns its
    /// offset within the delta. The first metadata-bearing paper
    /// materializes the parallel metadata vectors (earlier papers get
    /// empty entries); trivially-empty metadata on a metadata-free batch
    /// degrades to [`Self::add_paper`] so the delta — and its WAL encoding
    /// — stays v1-shaped.
    pub fn add_paper_with_metadata(
        &mut self,
        year: Year,
        authors: Vec<AuthorId>,
        venue: Option<VenueId>,
    ) -> usize {
        if authors.is_empty() && venue.is_none() && !self.has_metadata() {
            return self.add_paper(year);
        }
        self.authors.resize(self.papers.len(), Vec::new());
        self.venues.resize(self.papers.len(), None);
        self.papers.push(year);
        self.authors.push(authors);
        self.venues.push(venue);
        self.papers.len() - 1
    }

    /// `true` when any paper in the batch carries venue/author metadata
    /// (equivalently: the metadata vectors are materialized).
    pub fn has_metadata(&self) -> bool {
        !self.authors.is_empty() || !self.venues.is_empty()
    }

    /// Records a new citation edge by final ids.
    pub fn add_citation(&mut self, citing: PaperId, cited: PaperId) {
        self.citations.push((citing, cited));
    }

    /// Number of new papers.
    pub fn n_papers(&self) -> usize {
        self.papers.len()
    }

    /// Number of new edges (duplicates included).
    pub fn n_citations(&self) -> usize {
        self.citations.len()
    }

    /// `true` when the delta adds nothing.
    pub fn is_empty(&self) -> bool {
        self.papers.is_empty() && self.citations.is_empty()
    }

    /// Appends another delta's additions onto this one.
    ///
    /// Because new-paper ids are assigned sequentially past the base
    /// network, staging `a` then `b` is equivalent to staging the merged
    /// delta — which is how the serving engine batches many small ingests
    /// into one successor network at publish time.
    pub fn merge(&mut self, other: &GraphDelta) {
        if self.has_metadata() || other.has_metadata() {
            self.authors.resize(self.papers.len(), Vec::new());
            self.venues.resize(self.papers.len(), None);
            let merged = self.papers.len() + other.papers.len();
            self.authors.extend_from_slice(&other.authors);
            self.venues.extend_from_slice(&other.venues);
            self.authors.resize(merged, Vec::new());
            self.venues.resize(merged, None);
        }
        self.papers.extend_from_slice(&other.papers);
        self.citations.extend_from_slice(&other.citations);
    }

    /// Empties the delta (keeps allocations).
    pub fn clear(&mut self) {
        self.papers.clear();
        self.citations.clear();
        self.authors.clear();
        self.venues.clear();
    }
}

/// Why a [`GraphDelta`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// A new paper's year precedes the base network's current year (or an
    /// earlier paper within the same delta), which would break the
    /// "id order = time order" invariant every snapshot relies on.
    YearRegression {
        /// Offset of the offending paper within the delta.
        offset: usize,
        /// Its year.
        year: Year,
        /// The minimum admissible year at that position.
        min_year: Year,
    },
    /// An edge referenced an id that exists in neither the base network nor
    /// the delta.
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
        /// The citing paper.
        citing: PaperId,
        /// The cited paper (later year).
        cited: PaperId,
    },
    /// A hand-constructed delta's metadata vector was neither empty nor
    /// parallel to `papers` (the `add_paper*` methods maintain this
    /// invariant; raw field writes can break it).
    MetadataShape {
        /// Which vector is malformed (`"authors"` or `"venues"`).
        field: &'static str,
        /// Its length.
        len: usize,
        /// The length it must match (or be zero).
        n_papers: usize,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::YearRegression {
                offset,
                year,
                min_year,
            } => write!(
                f,
                "delta paper at offset {offset} published {year}, before the \
                 current year {min_year} (papers must arrive in time order)"
            ),
            DeltaError::UnknownPaper { id } => write!(f, "unknown paper id {id}"),
            DeltaError::SelfCitation { id } => write!(f, "paper {id} cites itself"),
            DeltaError::FutureCitation { citing, cited } => {
                write!(f, "paper {citing} cites paper {cited} published later")
            }
            DeltaError::MetadataShape {
                field,
                len,
                n_papers,
            } => write!(
                f,
                "delta {field} vector has {len} entries but the delta adds \
                 {n_papers} papers (must be empty or parallel)"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

impl CitationNetwork {
    /// Applies a batch of additions, returning the successor network.
    ///
    /// Existing paper ids are preserved verbatim (new papers are appended at
    /// the end of the time-sorted order), so per-paper state computed on
    /// `self` — cached fixed points, rank positions — remains addressable on
    /// the result. Metadata tables are maintained incrementally: a
    /// metadata-bearing delta appends to the venue/author posting lists in
    /// O(batch) (growing the facet id spaces as needed), so facet queries
    /// see the new papers immediately; a metadata-free delta carries the
    /// tables over with empty entries for the new papers.
    ///
    /// Cost: an `O(V + E)` copy of the existing arrays (row spans between
    /// touched rows move as whole slices — memcpy speed, no per-edge work)
    /// plus `O(batch · log batch)` to sort the batch, merge it into the
    /// reference rows it touches ([`sparsela::Csr::merged_with`]) and add
    /// the edges it really added to the parent's in-degrees. The citers
    /// transpose is not merged: the result builds it on first use, like
    /// every network. The result is structurally identical to a
    /// from-scratch [`crate::NetworkBuilder`] build. When
    /// this network's venue cuts were found, the result carries them
    /// ([`CitationNetwork::venue_year_cuts`]), searching again only where
    /// the delta appended papers to a venue.
    ///
    /// Validation mirrors the builder: new papers must not be older than the
    /// current year (ids are time-sorted), edges must point backwards (or
    /// sideways) in time, and self-citations are rejected. The delta is
    /// checked before anything is built, so an `Err` leaves no partial
    /// state.
    pub fn with_delta(&self, delta: &GraphDelta) -> Result<CitationNetwork, DeltaError> {
        self.validate_delta(&GraphDelta::new(), delta)?;
        Ok(self.apply_validated(delta))
    }

    /// Validates `delta` against this network with `staged` (an
    /// already-validated, not-yet-applied delta) logically appended.
    ///
    /// This is the cheap half of [`Self::with_delta`] — `O(delta)`, no
    /// copy of the corpus — and what lets a caller accumulate many small
    /// batches and materialize the successor network once: errors still
    /// surface at ingest time, against the full staged state.
    pub fn validate_delta(
        &self,
        staged: &GraphDelta,
        delta: &GraphDelta,
    ) -> Result<(), DeltaError> {
        let n_old = self.n_papers();
        let n_staged = n_old + staged.papers.len();
        let n_new = n_staged + delta.papers.len();

        // 0. Metadata vectors, when materialized, run parallel to papers.
        for (field, len) in [
            ("authors", delta.authors.len()),
            ("venues", delta.venues.len()),
        ] {
            if len != 0 && len != delta.papers.len() {
                return Err(DeltaError::MetadataShape {
                    field,
                    len,
                    n_papers: delta.papers.len(),
                });
            }
        }

        // 1. Years stay non-decreasing across the append boundary.
        let mut min_year = staged
            .papers
            .last()
            .copied()
            .or(self.current_year())
            .unwrap_or(Year::MIN);
        for (offset, &year) in delta.papers.iter().enumerate() {
            if year < min_year {
                return Err(DeltaError::YearRegression {
                    offset,
                    year,
                    min_year,
                });
            }
            min_year = year;
        }

        let year_of = |p: PaperId| -> Year {
            let p = p as usize;
            if p < n_old {
                self.years()[p]
            } else if p < n_staged {
                staged.papers[p - n_old]
            } else {
                delta.papers[p - n_staged]
            }
        };

        // 2. Edges reference known papers and point backwards in time.
        for &(citing, cited) in &delta.citations {
            for id in [citing, cited] {
                if id as usize >= n_new {
                    return Err(DeltaError::UnknownPaper { id });
                }
            }
            if citing == cited {
                return Err(DeltaError::SelfCitation { id: citing });
            }
            if year_of(cited) > year_of(citing) {
                return Err(DeltaError::FutureCitation { citing, cited });
            }
        }
        Ok(())
    }

    /// The build half of [`Self::with_delta`]; `delta` must already have
    /// passed [`Self::validate_delta`] against this network.
    fn apply_validated(&self, delta: &GraphDelta) -> CitationNetwork {
        let n_old = self.n_papers();
        let n_new = n_old + delta.papers.len();

        let mut years = Vec::with_capacity(n_new);
        years.extend_from_slice(self.years());
        years.extend_from_slice(&delta.papers);

        // `refs` takes the batch as a sorted union-merge by (citing,
        // cited). The in-degrees are the parent's plus the edges the batch
        // really added: deduplicated, an edge the parent already held
        // counts nothing, so they stay the column counts of `refs`.
        let mut extra = delta.citations.clone();
        extra.sort_unstable();
        extra.dedup();
        let old_refs = self.refs_csr();
        let refs = old_refs
            .merged_with(n_new, n_new, &extra)
            .expect("a validated delta's edges are in range");
        let mut in_degree = Vec::with_capacity(n_new);
        in_degree.extend_from_slice(self.in_degrees());
        in_degree.resize(n_new, 0);
        for &(citing, cited) in &extra {
            if citing as usize >= n_old || !old_refs.contains(citing, cited) {
                in_degree[cited as usize] += 1;
            }
        }

        // Metadata: append the delta's rows to the existing tables in one
        // linear pass (`extend` — O(batch) new postings, no re-sort), so
        // facet posting lists cover the new papers the moment the delta
        // publishes. Facet id spaces grow to admit unseen author/venue
        // ids; a metadata-bearing delta onto a metadata-less base creates
        // the tables (old papers get empty entries). Metadata-free deltas
        // carry the tables over with empty entries for the new papers.
        let no_authors;
        let author_rows: &[Vec<AuthorId>] = if delta.authors.is_empty() {
            no_authors = vec![Vec::new(); delta.papers.len()];
            &no_authors
        } else {
            &delta.authors
        };
        let authors =
            (self.authors().is_some() || author_rows.iter().any(|r| !r.is_empty())).then(|| {
                let base_n = self.authors().map_or(0, |a| a.n_authors());
                let delta_n = author_rows
                    .iter()
                    .flatten()
                    .map(|&a| a as usize + 1)
                    .max()
                    .unwrap_or(0);
                let n_authors = base_n.max(delta_n);
                match self.authors() {
                    Some(a) => a.extend(author_rows, n_authors),
                    None => {
                        let mut per_paper = vec![Vec::new(); n_old];
                        per_paper.extend_from_slice(author_rows);
                        AuthorTable::new(&per_paper, n_authors)
                    }
                }
            });
        let no_venues;
        let venue_slots: &[Option<VenueId>] = if delta.venues.is_empty() {
            no_venues = vec![None; delta.papers.len()];
            &no_venues
        } else {
            &delta.venues
        };
        let venues =
            (self.venues().is_some() || venue_slots.iter().any(|v| v.is_some())).then(|| {
                let base_n = self.venues().map_or(0, |v| v.n_venues());
                let delta_n = venue_slots
                    .iter()
                    .flatten()
                    .map(|&v| v as usize + 1)
                    .max()
                    .unwrap_or(0);
                let n_venues = base_n.max(delta_n);
                match self.venues() {
                    Some(v) => v.extend(venue_slots, n_venues),
                    None => {
                        let mut slots = vec![None; n_old];
                        slots.extend_from_slice(venue_slots);
                        VenueTable::new(slots, n_venues)
                    }
                }
            });

        let next =
            CitationNetwork::from_parts_with_in_degrees(years, refs, in_degree, authors, venues);
        self.carry_venue_cuts(&next);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    fn base() -> CitationNetwork {
        let mut b = NetworkBuilder::new();
        for year in [1990, 1991, 1992] {
            b.add_paper(year);
        }
        for (citing, cited) in [(1, 0), (2, 0), (2, 1)] {
            b.add_citation(citing, cited).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn empty_delta_is_identity() {
        let net = base();
        let next = net.with_delta(&GraphDelta::new()).unwrap();
        assert_eq!(next.n_papers(), net.n_papers());
        assert_eq!(next.n_citations(), net.n_citations());
        assert_eq!(next.years(), net.years());
    }

    #[test]
    fn delta_appends_papers_and_edges() {
        let net = base();
        let mut d = GraphDelta::new();
        let offset = d.add_paper(1995);
        let new_id = (net.n_papers() + offset) as PaperId;
        d.add_citation(new_id, 0);
        d.add_citation(new_id, 2);
        assert_eq!(d.n_papers(), 1);
        assert_eq!(d.n_citations(), 2);
        assert!(!d.is_empty());

        let next = net.with_delta(&d).unwrap();
        assert_eq!(next.n_papers(), 4);
        assert_eq!(next.n_citations(), 5);
        assert_eq!(next.year(new_id), 1995);
        assert_eq!(next.references(new_id), &[0, 2]);
        // Existing ids are untouched.
        assert_eq!(next.references(2), net.references(2));
        assert_eq!(next.citations(0), &[1, 2, 3]);
    }

    #[test]
    fn a_successor_carries_in_degrees_and_no_transpose() {
        let net = base();
        let mut d = GraphDelta::new();
        d.add_paper(1995);
        d.add_citation(3, 0);
        d.add_citation(3, 0); // a duplicate inside the batch counts once
        d.add_citation(2, 1); // already held — counts nothing
        let next = net.with_delta(&d).unwrap();
        assert!(!next.citers_built());
        assert_eq!(next.citation_counts(), [3, 1, 0, 0]);
        // A parent's built transpose is not carried either.
        net.stochastic_operator();
        let next = net.with_delta(&d).unwrap();
        assert!(!next.citers_built());
        assert_eq!(next.citation_counts(), next.citers_csr().degrees());
        assert_eq!(next.citers_csr(), &next.refs_csr().transpose());
    }

    #[test]
    fn delta_can_correct_existing_bibliography() {
        // An edge between two *existing* papers (a late-arriving reference).
        let net = base();
        let mut d = GraphDelta::new();
        d.add_citation(2, 1); // duplicate — collapses
        d.add_citation(1, 0); // duplicate — collapses
        let next = net.with_delta(&d).unwrap();
        assert_eq!(next.n_citations(), 3);
    }

    #[test]
    fn year_regression_rejected() {
        let net = base();
        let mut d = GraphDelta::new();
        d.add_paper(1991); // older than current year 1992
        assert!(matches!(
            net.with_delta(&d),
            Err(DeltaError::YearRegression {
                offset: 0,
                year: 1991,
                min_year: 1992
            })
        ));
        // Regression *within* the delta is also caught.
        let mut d = GraphDelta::new();
        d.add_paper(1995);
        d.add_paper(1993);
        assert!(matches!(
            net.with_delta(&d),
            Err(DeltaError::YearRegression { offset: 1, .. })
        ));
    }

    #[test]
    fn same_year_append_allowed() {
        let net = base();
        let mut d = GraphDelta::new();
        d.add_paper(1992);
        let next = net.with_delta(&d).unwrap();
        assert_eq!(next.years(), &[1990, 1991, 1992, 1992]);
    }

    #[test]
    fn unknown_self_and_future_citations_rejected() {
        let net = base();
        let mut d = GraphDelta::new();
        d.add_citation(7, 0);
        assert_eq!(
            net.with_delta(&d).unwrap_err(),
            DeltaError::UnknownPaper { id: 7 }
        );

        let mut d = GraphDelta::new();
        d.add_citation(1, 1);
        assert_eq!(
            net.with_delta(&d).unwrap_err(),
            DeltaError::SelfCitation { id: 1 }
        );

        let mut d = GraphDelta::new();
        d.add_paper(1999);
        d.add_citation(0, 3); // 1990 paper citing a 1999 paper
        assert_eq!(
            net.with_delta(&d).unwrap_err(),
            DeltaError::FutureCitation {
                citing: 0,
                cited: 3
            }
        );
    }

    #[test]
    fn failed_delta_leaves_base_untouched() {
        let net = base();
        let mut d = GraphDelta::new();
        d.add_paper(1999);
        d.add_citation(0, 3);
        assert!(net.with_delta(&d).is_err());
        assert_eq!(net.n_papers(), 3);
        assert_eq!(net.n_citations(), 3);
    }

    #[test]
    fn metadata_extended_with_empty_entries() {
        let mut b = NetworkBuilder::new();
        b.add_paper_with_metadata(2000, vec![0, 1], Some(0));
        b.add_paper_with_metadata(2001, vec![1], Some(1));
        let net = b.build().unwrap();

        let mut d = GraphDelta::new();
        d.add_paper(2002);
        d.add_citation(2, 0);
        let next = net.with_delta(&d).unwrap();
        let authors = next.authors().unwrap();
        assert_eq!(authors.n_papers(), 3);
        assert_eq!(authors.authors_of(0), &[0, 1]);
        assert!(authors.authors_of(2).is_empty());
        assert_eq!(authors.n_authors(), 2);
        let venues = next.venues().unwrap();
        assert_eq!(venues.venue_of(1), Some(1));
        assert_eq!(venues.venue_of(2), None);
    }

    #[test]
    fn delta_matches_equivalent_from_scratch_build() {
        let net = base();
        let mut d = GraphDelta::new();
        d.add_paper(1994);
        d.add_paper(1995);
        d.add_citation(3, 2);
        d.add_citation(4, 3);
        d.add_citation(4, 0);
        let incremental = net.with_delta(&d).unwrap();

        let mut b = NetworkBuilder::new();
        for year in [1990, 1991, 1992, 1994, 1995] {
            b.add_paper(year);
        }
        for (citing, cited) in [(1, 0), (2, 0), (2, 1), (3, 2), (4, 3), (4, 0)] {
            b.add_citation(citing as PaperId, cited as PaperId).unwrap();
        }
        let scratch = b.build().unwrap();

        assert_eq!(incremental.years(), scratch.years());
        for p in 0..scratch.n_papers() as u32 {
            assert_eq!(incremental.references(p), scratch.references(p));
            assert_eq!(incremental.citations(p), scratch.citations(p));
        }
    }

    #[test]
    fn staged_validation_matches_merged_application() {
        // Validating batch-by-batch against staged state, then applying the
        // merged delta once, equals applying the batches one at a time.
        let net = base();
        let mut d1 = GraphDelta::new();
        d1.add_paper(1994);
        d1.add_citation(3, 2);
        let mut d2 = GraphDelta::new();
        d2.add_paper(1995);
        d2.add_citation(4, 3); // cites a paper that only exists in d1
        d2.add_citation(4, 0);

        net.validate_delta(&GraphDelta::new(), &d1).unwrap();
        net.validate_delta(&d1, &d2).unwrap();
        let mut merged = d1.clone();
        merged.merge(&d2);
        let once = net.with_delta(&merged).unwrap();
        let stepwise = net.with_delta(&d1).unwrap().with_delta(&d2).unwrap();
        assert_eq!(once.years(), stepwise.years());
        assert_eq!(once.n_citations(), stepwise.n_citations());
        for p in 0..once.n_papers() as u32 {
            assert_eq!(once.references(p), stepwise.references(p));
        }
    }

    #[test]
    fn staged_validation_catches_cross_batch_errors() {
        let net = base();
        let mut staged = GraphDelta::new();
        staged.add_paper(1999);

        // Year regression relative to the *staged* paper, not the base.
        let mut d = GraphDelta::new();
        d.add_paper(1995);
        assert!(matches!(
            net.validate_delta(&staged, &d),
            Err(DeltaError::YearRegression { min_year: 1999, .. })
        ));

        // A forward citation into a staged paper is rejected.
        let mut d = GraphDelta::new();
        d.add_citation(0, 3); // base paper (1990) citing staged paper (1999)
        assert_eq!(
            net.validate_delta(&staged, &d).unwrap_err(),
            DeltaError::FutureCitation {
                citing: 0,
                cited: 3
            }
        );

        // Ids past base + staged + delta are unknown.
        let mut d = GraphDelta::new();
        d.add_citation(4, 0);
        assert_eq!(
            net.validate_delta(&staged, &d).unwrap_err(),
            DeltaError::UnknownPaper { id: 4 }
        );
    }

    #[test]
    fn metadata_delta_updates_posting_lists_immediately() {
        let mut b = NetworkBuilder::new();
        b.add_paper_with_metadata(2000, vec![0, 1], Some(0));
        b.add_paper_with_metadata(2001, vec![1], Some(1));
        let net = b.build().unwrap();

        let mut d = GraphDelta::new();
        d.add_paper_with_metadata(2002, vec![1, 3], Some(2));
        d.add_paper(2002); // metadata-free paper in the same batch
        d.add_citation(2, 0);
        let next = net.with_delta(&d).unwrap();

        // Facet id spaces grew to admit the unseen ids.
        let authors = next.authors().unwrap();
        assert_eq!(authors.n_authors(), 4);
        assert_eq!(authors.authors_of(2), &[1, 3]);
        assert!(authors.authors_of(3).is_empty());
        // Posting lists cover the new paper with no rebuild.
        assert_eq!(authors.papers_of(1), &[0, 1, 2]);
        assert_eq!(authors.papers_of(3), &[2]);
        assert_eq!(authors.papers_of(2), &[] as &[u32]); // grown, empty

        let venues = next.venues().unwrap();
        assert_eq!(venues.n_venues(), 3);
        assert_eq!(venues.venue_of(2), Some(2));
        assert_eq!(venues.venue_of(3), None);
        assert_eq!(venues.papers_at(2), &[2]);
    }

    #[test]
    fn metadata_delta_matches_scratch_build() {
        let mut b = NetworkBuilder::new();
        b.add_paper_with_metadata(2000, vec![0, 1], Some(0));
        b.add_paper_with_metadata(2001, vec![1], None);
        let net = b.build().unwrap();

        let mut d = GraphDelta::new();
        d.add_paper_with_metadata(2002, vec![2, 0], Some(1));
        d.add_paper_with_metadata(2003, vec![], Some(0));
        d.add_citation(2, 1);
        d.add_citation(3, 2);
        let incremental = net.with_delta(&d).unwrap();

        let mut b = NetworkBuilder::new();
        b.add_paper_with_metadata(2000, vec![0, 1], Some(0));
        b.add_paper_with_metadata(2001, vec![1], None);
        b.add_paper_with_metadata(2002, vec![2, 0], Some(1));
        b.add_paper_with_metadata(2003, vec![], Some(0));
        b.add_citation(2, 1).unwrap();
        b.add_citation(3, 2).unwrap();
        let scratch = b.build().unwrap();

        assert_eq!(incremental.authors(), scratch.authors());
        assert_eq!(incremental.venues(), scratch.venues());
    }

    #[test]
    fn metadata_delta_onto_bare_base_creates_tables() {
        let net = base(); // no metadata at all
        assert!(net.authors().is_none() && net.venues().is_none());
        let mut d = GraphDelta::new();
        d.add_paper_with_metadata(1995, vec![7], Some(2));
        let next = net.with_delta(&d).unwrap();
        let authors = next.authors().unwrap();
        assert_eq!(authors.n_authors(), 8);
        assert!(authors.authors_of(0).is_empty()); // old papers: empty rows
        assert_eq!(authors.papers_of(7), &[3]);
        let venues = next.venues().unwrap();
        assert_eq!(venues.venue_of(3), Some(2));
        assert_eq!(venues.papers_at(2), &[3]);
        assert_eq!(venues.papers_at(0), &[] as &[u32]);
    }

    #[test]
    fn metadata_shape_violation_is_typed() {
        let net = base();
        let mut d = GraphDelta::new();
        d.add_paper(1995);
        d.authors = vec![vec![0], vec![1]]; // 2 rows, 1 paper
        assert_eq!(
            net.with_delta(&d).unwrap_err(),
            DeltaError::MetadataShape {
                field: "authors",
                len: 2,
                n_papers: 1
            }
        );
        let mut d = GraphDelta::new();
        d.add_paper(1995);
        d.venues = vec![None, Some(0)];
        assert!(matches!(
            net.with_delta(&d),
            Err(DeltaError::MetadataShape {
                field: "venues",
                ..
            })
        ));
    }

    #[test]
    fn metadata_merge_keeps_vectors_parallel() {
        let mut a = GraphDelta::new();
        a.add_paper(2000); // metadata-free so far
        let mut b = GraphDelta::new();
        b.add_paper_with_metadata(2001, vec![4], Some(1));
        a.merge(&b);
        assert_eq!(a.authors, vec![vec![], vec![4]]);
        assert_eq!(a.venues, vec![None, Some(1)]);

        // Merging a metadata-free delta onto a metadata-bearing one pads.
        let mut c = GraphDelta::new();
        c.add_paper(2002);
        a.merge(&c);
        assert_eq!(a.authors.len(), 3);
        assert_eq!(a.venues, vec![None, Some(1), None]);
        assert!(a.has_metadata());
        a.clear();
        assert!(!a.has_metadata() && a.is_empty());
    }

    #[test]
    fn trivially_empty_metadata_degrades_to_v1_shape() {
        let mut d = GraphDelta::new();
        d.add_paper_with_metadata(2000, vec![], None);
        assert!(!d.has_metadata());
        assert_eq!(d, {
            let mut plain = GraphDelta::new();
            plain.add_paper(2000);
            plain
        });
    }

    #[test]
    fn merge_and_clear() {
        let mut a = GraphDelta::new();
        a.add_paper(2000);
        a.add_citation(1, 0);
        let mut b = GraphDelta::new();
        b.add_paper(2001);
        a.merge(&b);
        assert_eq!(a.n_papers(), 2);
        assert_eq!(a.n_citations(), 1);
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn delta_onto_empty_network() {
        let net = NetworkBuilder::new().build().unwrap();
        let mut d = GraphDelta::new();
        d.add_paper(2000);
        d.add_paper(2001);
        d.add_citation(1, 0);
        let next = net.with_delta(&d).unwrap();
        assert_eq!(next.n_papers(), 2);
        assert_eq!(next.n_citations(), 1);
    }
}
