//! The core [`CitationNetwork`] type.

use std::sync::OnceLock;

use sparsela::{CitationOperator, Csr, HeadCuts};

use crate::metadata::{AuthorTable, VenueTable};

/// Papers are dense `u32` ids assigned in publication order: if `i < j`
/// then paper `i` was published no later than paper `j`.
pub type PaperId = u32;

/// Publication time, in years. Integer years are what the paper's datasets
/// and all its time-aware formulas use.
pub type Year = i32;

/// An immutable citation network (paper §2).
///
/// Papers are stored sorted by `(year, original insertion order)`; the
/// invariant that every reference points to a paper with
/// `year(cited) ≤ year(citing)` is enforced by the builder and relied on by
/// snapshotting: restricting to the first `k` papers automatically keeps the
/// edge set closed.
#[derive(Debug, Clone)]
pub struct CitationNetwork {
    /// Publication year per paper; non-decreasing in paper id.
    years: Vec<Year>,
    /// Row `j`: papers that `j` cites ("reference lists", edges j → i).
    /// The one adjacency every network carries: AttRank pushes along it
    /// and counts its attention window from it.
    refs: Csr,
    /// Citations received per paper — the column counts of `refs`, which
    /// is all CC needs.
    in_degree: Vec<u32>,
    /// Optional paper–author incidence.
    authors: Option<AuthorTable>,
    /// Optional paper–venue assignment.
    venues: Option<VenueTable>,
    /// The stochastic operator `S`, which holds the citers transpose of
    /// `refs` (row `i`: papers citing `i`): built on the first call to
    /// [`Self::stochastic_operator`], [`Self::citers_csr`] or
    /// [`Self::citations`] and kept, since the network is immutable. Only
    /// the reproduction's power-iteration baselines ask for it, so a
    /// serving network never builds it.
    operator: OnceLock<CitationOperator>,
    /// The venue lists' year cuts, found on first use or carried from the
    /// network a delta grew this one from.
    venue_cuts: OnceLock<HeadCuts>,
}

/// Why raw network parts were rejected by
/// [`CitationNetwork::from_store_parts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartsError {
    /// Component lengths disagree (`refs` shape vs `years`, metadata table
    /// sizes).
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        message: String,
    },
    /// `years` is not non-decreasing — "paper id order = time order" is
    /// the invariant every snapshot and delta relies on.
    UnsortedYears {
        /// First offending paper id (its year precedes its predecessor's).
        id: PaperId,
    },
    /// An edge points forward in time (a paper citing a strictly later
    /// one) or at itself.
    InvalidEdge {
        /// The citing paper.
        citing: PaperId,
        /// The cited paper.
        cited: PaperId,
    },
}

impl std::fmt::Display for PartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartsError::ShapeMismatch { message } => write!(f, "shape mismatch: {message}"),
            PartsError::UnsortedYears { id } => {
                write!(f, "years not sorted: paper {id} precedes its predecessor")
            }
            PartsError::InvalidEdge { citing, cited } => {
                write!(
                    f,
                    "invalid edge {citing} -> {cited} (self or future citation)"
                )
            }
        }
    }
}

impl std::error::Error for PartsError {}

impl CitationNetwork {
    /// Assembles a network from already-validated parts. Crate-internal;
    /// external construction goes through [`crate::NetworkBuilder`].
    pub(crate) fn from_parts(
        years: Vec<Year>,
        refs: Csr,
        authors: Option<AuthorTable>,
        venues: Option<VenueTable>,
    ) -> Self {
        let mut in_degree = vec![0u32; refs.ncols()];
        for &cited in refs.indices() {
            in_degree[cited as usize] += 1;
        }
        Self::from_parts_with_in_degrees(years, refs, in_degree, authors, venues)
    }

    /// [`Self::from_parts`] for a caller that already holds the in-degrees
    /// (the delta path carries its parent's and adds the batch's new
    /// edges; the store load counts them while it validates the edges);
    /// `in_degree` must equal the column counts of `refs`.
    pub(crate) fn from_parts_with_in_degrees(
        years: Vec<Year>,
        refs: Csr,
        in_degree: Vec<u32>,
        authors: Option<AuthorTable>,
        venues: Option<VenueTable>,
    ) -> Self {
        debug_assert_eq!(refs.nrows(), years.len());
        debug_assert_eq!(refs.ncols(), years.len());
        debug_assert_eq!(in_degree.len(), years.len());
        debug_assert!(
            years.windows(2).all(|w| w[0] <= w[1]),
            "years must be sorted"
        );
        Self {
            years,
            refs,
            in_degree,
            authors,
            venues,
            operator: OnceLock::new(),
            venue_cuts: OnceLock::new(),
        }
    }

    /// Rebuilds a network from raw parts, re-validating every invariant
    /// the builder normally guarantees — the snapshot store's load path.
    ///
    /// Unlike [`crate::NetworkBuilder`], ids are taken as-is (no re-sort,
    /// no remap): `years` must already be non-decreasing and `refs` row
    /// `j` must list only papers with `year ≤ year(j)`, `j` excluded.
    /// Validation is `O(V + E)` integer comparisons — orders of magnitude
    /// cheaper than re-parsing text, but strong enough that a corrupted
    /// snapshot cannot smuggle in a state the solvers would misbehave on.
    /// The in-degrees are counted in the same pass over the edges; the
    /// citers transpose is neither loaded nor built (it is built on first
    /// use, like every network's), so a round-tripped network is
    /// structurally identical to the one that was saved.
    pub fn from_store_parts(
        years: Vec<Year>,
        refs: sparsela::Csr,
        authors: Option<AuthorTable>,
        venues: Option<VenueTable>,
    ) -> Result<Self, PartsError> {
        let n = years.len();
        if refs.nrows() != n || refs.ncols() != n {
            return Err(PartsError::ShapeMismatch {
                message: format!(
                    "refs is {}x{} but there are {n} papers",
                    refs.nrows(),
                    refs.ncols()
                ),
            });
        }
        if let Some(a) = &authors {
            if a.n_papers() != n {
                return Err(PartsError::ShapeMismatch {
                    message: format!("author table covers {} of {n} papers", a.n_papers()),
                });
            }
        }
        if let Some(v) = &venues {
            if v.n_papers() != n {
                return Err(PartsError::ShapeMismatch {
                    message: format!("venue table covers {} of {n} papers", v.n_papers()),
                });
            }
        }
        if let Some(w) = years.windows(2).position(|w| w[0] > w[1]) {
            return Err(PartsError::UnsortedYears {
                id: (w + 1) as PaperId,
            });
        }
        let mut in_degree = vec![0u32; n];
        for citing in 0..n as u32 {
            for &cited in refs.row(citing) {
                // Column bounds were validated by the Csr constructor;
                // here we enforce the temporal contract.
                if cited == citing || years[cited as usize] > years[citing as usize] {
                    return Err(PartsError::InvalidEdge { citing, cited });
                }
                in_degree[cited as usize] += 1;
            }
        }
        Ok(Self::from_parts_with_in_degrees(
            years, refs, in_degree, authors, venues,
        ))
    }

    /// Number of papers `|P|`.
    pub fn n_papers(&self) -> usize {
        self.years.len()
    }

    /// Number of citations (directed edges).
    pub fn n_citations(&self) -> usize {
        self.refs.nnz()
    }

    /// Publication year of paper `p`.
    pub fn year(&self, p: PaperId) -> Year {
        self.years[p as usize]
    }

    /// All publication years, indexed by paper id (non-decreasing).
    pub fn years(&self) -> &[Year] {
        &self.years
    }

    /// Year of the earliest paper; `None` for an empty network.
    pub fn first_year(&self) -> Option<Year> {
        self.years.first().copied()
    }

    /// Year of the latest paper — the "current time" `t_N` of this state of
    /// the network; `None` for an empty network.
    pub fn current_year(&self) -> Option<Year> {
        self.years.last().copied()
    }

    /// The reference list of paper `p` (the papers `p` cites).
    pub fn references(&self, p: PaperId) -> &[PaperId] {
        self.refs.row(p)
    }

    /// The papers citing `p`. The first call builds the citers transpose
    /// ([`Self::citers_csr`]).
    pub fn citations(&self, p: PaperId) -> &[PaperId] {
        self.citers_csr().row(p)
    }

    /// Citation count `CC(p)` — in-degree of `p` (paper §2).
    pub fn citation_count(&self, p: PaperId) -> usize {
        self.in_degree[p as usize] as usize
    }

    /// Reference count `k_p` — out-degree of `p`.
    pub fn reference_count(&self, p: PaperId) -> usize {
        self.refs.degree(p)
    }

    /// The reference adjacency (row `j` = papers cited by `j`).
    pub fn refs_csr(&self) -> &Csr {
        &self.refs
    }

    /// The citation adjacency (row `i` = papers citing `i`): the transpose
    /// of [`Self::refs_csr`], held by the stochastic operator and built
    /// with it on first use.
    pub fn citers_csr(&self) -> &Csr {
        self.stochastic_operator().citers()
    }

    /// Whether the citers transpose (and the operator holding it) has been
    /// built — what a serving path must never cause.
    pub fn citers_built(&self) -> bool {
        self.operator.get().is_some()
    }

    /// Papers with no references (dangling columns of the citation matrix).
    pub fn dangling_papers(&self) -> impl Iterator<Item = PaperId> + '_ {
        (0..self.n_papers() as u32).filter(move |&p| self.refs.degree(p) == 0)
    }

    /// The column-stochastic operator `S` of paper §2 for this state of the
    /// network, built on first use and cached (the network is immutable):
    /// one transpose of `refs`, which [`Self::citers_csr`] also reads.
    pub fn stochastic_operator(&self) -> &CitationOperator {
        self.operator
            .get_or_init(|| CitationOperator::from_references(&self.refs))
    }

    /// Author metadata, if present.
    pub fn authors(&self) -> Option<&AuthorTable> {
        self.authors.as_ref()
    }

    /// Venue metadata, if present.
    pub fn venues(&self) -> Option<&VenueTable> {
        self.venues.as_ref()
    }

    /// The snapshot `C(t)` containing only the first `k` papers (papers are
    /// time-sorted, so this is the state of the network when the `k`-th
    /// paper appeared). Metadata is restricted accordingly.
    ///
    /// # Panics
    /// Panics if `k > n_papers()`.
    pub fn prefix(&self, k: usize) -> CitationNetwork {
        assert!(
            k <= self.n_papers(),
            "prefix {k} exceeds {}",
            self.n_papers()
        );
        let years = self.years[..k].to_vec();
        let edges: Vec<(u32, u32)> = (0..k as u32)
            .flat_map(|j| {
                self.refs
                    .row(j)
                    .iter()
                    .filter(|&&i| (i as usize) < k)
                    .map(move |&i| (j, i))
            })
            .collect();
        let refs = Csr::from_edges(k, k, &edges);
        let authors = self.authors.as_ref().map(|a| a.prefix(k));
        let venues = self.venues.as_ref().map(|v| v.prefix(k));
        CitationNetwork::from_parts(years, refs, authors, venues)
    }

    /// Number of papers published in or before `year`.
    ///
    /// Because papers are time-sorted this is a prefix length, computed with
    /// a binary search.
    pub fn papers_until(&self, year: Year) -> usize {
        self.years.partition_point(|&y| y <= year)
    }

    /// The snapshot `C(t)` of all papers published in or before `year`.
    pub fn snapshot_at(&self, year: Year) -> CitationNetwork {
        self.prefix(self.papers_until(year))
    }

    /// The first id of each year that has papers, ascending: where every
    /// `year=Y..` id range can start. One binary search per year.
    pub fn year_starts(&self) -> Vec<PaperId> {
        let mut starts = Vec::new();
        let mut at = 0;
        while let Some(&year) = self.years.get(at) {
            starts.push(at as PaperId);
            at += self.years[at..].partition_point(|&y| y <= year);
        }
        starts
    }

    /// The head cuts of the venue posting lists at the start of each year
    /// ([`VenueTable::cut_positions`] at [`Self::year_starts`]), where a
    /// `venue=V,year=Y..` band starts: found on first use — or carried
    /// across [`Self::with_delta`] from a network whose cuts were found —
    /// and kept with the network, so every vector summarized over it
    /// shares one set. Empty without venue metadata.
    pub fn venue_year_cuts(&self) -> &HeadCuts {
        self.venue_cuts.get_or_init(|| {
            self.venues
                .as_ref()
                .map_or_else(HeadCuts::default, |t| t.cut_positions(&self.year_starts()))
        })
    }

    /// Hands `next` — this network grown by a delta — its venue cuts,
    /// carried from this network's when they were found
    /// ([`VenueTable::carried_cut_positions`]): only the venues the delta
    /// appended papers to are searched again, from their last old posting
    /// on.
    pub(crate) fn carry_venue_cuts(&self, next: &CitationNetwork) {
        let (Some(cuts), Some(table)) = (self.venue_cuts.get(), next.venues()) else {
            return;
        };
        let n_old = self.n_papers() as PaperId;
        let carried = table.carried_cut_positions(cuts, n_old, &next.year_starts());
        // `next` is fresh, so its cell is empty.
        let _ = next.venue_cuts.set(carried);
    }

    /// The contiguous id range of papers published within `[lo, hi]`
    /// (either bound optional; `None` means unbounded on that side).
    ///
    /// Paper ids are assigned in chronological order, so the sorted
    /// `years` array *is* a year → id-range index: two binary searches
    /// compile a year predicate into an id range without touching all `n`
    /// papers — the query planner's cheapest possible driver. An
    /// inverted bound (`lo > hi`) yields an empty range, not an error.
    pub fn id_range_for_years(
        &self,
        lo: Option<Year>,
        hi: Option<Year>,
    ) -> std::ops::Range<PaperId> {
        let start = match lo {
            Some(lo) => self.years.partition_point(|&y| y < lo),
            None => 0,
        };
        let end = match hi {
            Some(hi) => self.years.partition_point(|&y| y <= hi),
            None => self.n_papers(),
        };
        start as PaperId..end.max(start) as PaperId
    }

    /// The carried in-degrees, one per paper.
    pub(crate) fn in_degrees(&self) -> &[u32] {
        &self.in_degree
    }

    /// In-degree of every paper as a dense vector (`CC` for all papers).
    pub fn citation_counts(&self) -> Vec<usize> {
        self.in_degree.iter().map(|&c| c as usize).collect()
    }

    /// Heap bytes held: the years, `refs`, the in-degrees, the author and
    /// venue tables and, once found, the venue cuts; the citers transpose
    /// and its operator only once built.
    pub fn heap_bytes(&self) -> usize {
        self.years.capacity() * std::mem::size_of::<Year>()
            + self.refs.heap_bytes()
            + self.in_degree.capacity() * std::mem::size_of::<u32>()
            + self.authors.as_ref().map_or(0, AuthorTable::heap_bytes)
            + self.venues.as_ref().map_or(0, VenueTable::heap_bytes)
            + self.venue_cuts.get().map_or(0, HeadCuts::heap_bytes)
            + self.operator.get().map_or(0, CitationOperator::heap_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    /// Five-paper fixture spanning 1990–1994; paper ids equal insertion
    /// order (already time-sorted).
    ///
    /// refs: 1→0, 2→{0,1}, 3→{1,2}, 4→{0,3}
    pub(crate) fn small() -> CitationNetwork {
        let mut b = NetworkBuilder::new();
        for year in [1990, 1991, 1992, 1993, 1994] {
            b.add_paper(year);
        }
        for (citing, cited) in [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (4, 0), (4, 3)] {
            b.add_citation(citing, cited).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn no_construction_builds_the_transpose() {
        let net = small();
        assert!(!net.citers_built(), "builder");
        assert!(!net.prefix(3).citers_built(), "prefix");
        let plan = crate::ShardPlan::fixed(&net, 2).unwrap();
        for s in 0..plan.n_shards() {
            assert!(!plan.extract(&net, s).0.citers_built(), "extract {s}");
        }
        let back = CitationNetwork::from_store_parts(
            net.years().to_vec(),
            net.refs_csr().clone(),
            None,
            None,
        )
        .unwrap();
        assert!(!back.citers_built(), "from_store_parts");
        assert_eq!(back.citation_counts(), net.citation_counts());
        // Counts, degrees and heap bytes read no transpose either.
        assert_eq!(net.citation_count(0), 3);
        let bytes = net.heap_bytes();
        assert!(!net.citers_built());
        net.stochastic_operator();
        assert!(net.heap_bytes() > bytes, "a built transpose is counted");
    }

    #[test]
    fn the_first_reader_builds_the_transpose_once() {
        let readers: [fn(&CitationNetwork); 3] = [
            |net| assert_eq!(net.citations(0), &[1, 2, 4]),
            |net| assert_eq!(net.citers_csr().nnz(), 7),
            |net| assert_eq!(net.stochastic_operator().n(), 5),
        ];
        for read in readers {
            let net = small();
            read(&net);
            assert!(net.citers_built());
            let built: *const Csr = net.citers_csr();
            assert_eq!(net.citers_csr(), &net.refs_csr().transpose());
            // Every reader shares the one transpose the operator holds.
            assert!(std::ptr::eq(built, net.stochastic_operator().citers()));
            assert!(std::ptr::eq(built, net.citers_csr()));
            assert_eq!(net.citations(4), &[] as &[PaperId]);
        }
    }

    #[test]
    fn a_successor_carries_the_venue_cuts_its_parent_found() {
        let mut b = NetworkBuilder::new();
        for (year, venue) in [(1990, 0), (1990, 1), (1991, 0), (1992, 1)] {
            b.add_paper_with_metadata(year, Vec::new(), Some(venue));
        }
        let net = b.build().unwrap();
        let mut d = crate::GraphDelta::new();
        d.add_paper_with_metadata(1993, Vec::new(), Some(0));
        d.add_paper_with_metadata(1993, Vec::new(), Some(2));
        let unfound = net.with_delta(&d).unwrap();
        assert!(
            unfound.venue_cuts.get().is_none(),
            "nothing found, nothing carried"
        );
        net.venue_year_cuts();
        let next = net.with_delta(&d).unwrap();
        let carried = next.venue_cuts.get().expect("found cuts are carried");
        let table = next.venues().unwrap();
        assert_eq!(carried, &table.cut_positions(&next.year_starts()));
        // Venue 0 now runs past 1992 and gains a cut there; venue 2 is new.
        assert_eq!(carried.len(), 6);
    }

    #[test]
    fn basic_accessors() {
        let net = small();
        assert_eq!(net.n_papers(), 5);
        assert_eq!(net.n_citations(), 7);
        assert_eq!(net.year(0), 1990);
        assert_eq!(net.current_year(), Some(1994));
        assert_eq!(net.first_year(), Some(1990));
        assert_eq!(net.references(2), &[0, 1]);
        assert_eq!(net.citations(0), &[1, 2, 4]);
        assert_eq!(net.citation_count(0), 3);
        assert_eq!(net.reference_count(4), 2);
    }

    #[test]
    fn dangling_detection() {
        let net = small();
        let dangling: Vec<_> = net.dangling_papers().collect();
        assert_eq!(dangling, vec![0]); // only paper 0 cites nothing
    }

    #[test]
    fn prefix_restricts_edges() {
        let net = small();
        let snap = net.prefix(3);
        assert_eq!(snap.n_papers(), 3);
        assert_eq!(snap.n_citations(), 3); // 1→0, 2→0, 2→1
        assert_eq!(snap.citations(0), &[1, 2]);
        assert_eq!(snap.current_year(), Some(1992));
    }

    #[test]
    fn prefix_full_is_identity_shaped() {
        let net = small();
        let snap = net.prefix(5);
        assert_eq!(snap.n_papers(), net.n_papers());
        assert_eq!(snap.n_citations(), net.n_citations());
    }

    #[test]
    fn prefix_zero_is_empty() {
        let net = small();
        let snap = net.prefix(0);
        assert_eq!(snap.n_papers(), 0);
        assert_eq!(snap.n_citations(), 0);
        assert_eq!(snap.current_year(), None);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn prefix_out_of_range_panics() {
        let _ = small().prefix(6);
    }

    #[test]
    fn papers_until_binary_search() {
        let net = small();
        assert_eq!(net.papers_until(1989), 0);
        assert_eq!(net.papers_until(1990), 1);
        assert_eq!(net.papers_until(1992), 3);
        assert_eq!(net.papers_until(2000), 5);
    }

    #[test]
    fn id_range_for_years_compiles_to_prefix_bounds() {
        let net = small(); // years 1990..=1994, one paper each
        assert_eq!(net.id_range_for_years(None, None), 0..5);
        assert_eq!(net.id_range_for_years(Some(1991), Some(1993)), 1..4);
        assert_eq!(net.id_range_for_years(Some(1991), None), 1..5);
        assert_eq!(net.id_range_for_years(None, Some(1992)), 0..3);
        // Out-of-corpus bounds clamp to empty ranges at the ends.
        assert_eq!(net.id_range_for_years(Some(1999), None), 5..5);
        assert_eq!(net.id_range_for_years(None, Some(1980)), 0..0);
        // Inverted bounds are an empty range, not a panic.
        assert!(net.id_range_for_years(Some(1993), Some(1991)).is_empty());
        // Agrees with the prefix arithmetic.
        assert_eq!(
            net.id_range_for_years(None, Some(1992)).end as usize,
            net.papers_until(1992)
        );
    }

    #[test]
    fn year_starts_are_every_years_first_id() {
        let mut b = NetworkBuilder::new();
        for year in [1990, 1990, 1992, 1992, 1992, 1995] {
            b.add_paper(year);
        }
        let net = b.build().unwrap();
        assert_eq!(net.year_starts(), [0, 2, 5]);
        for (lo, start) in [(1990, 0), (1991, 2), (1993, 5)] {
            assert_eq!(net.id_range_for_years(Some(lo), None).start, start);
        }
        assert!(NetworkBuilder::new()
            .build()
            .unwrap()
            .year_starts()
            .is_empty());
    }

    #[test]
    fn id_range_for_years_with_duplicate_years() {
        let mut b = NetworkBuilder::new();
        for year in [1990, 1991, 1991, 1991, 1994] {
            b.add_paper(year);
        }
        let net = b.build().unwrap();
        assert_eq!(net.id_range_for_years(Some(1991), Some(1991)), 1..4);
        assert_eq!(net.id_range_for_years(Some(1992), Some(1993)), 4..4);
    }

    #[test]
    fn snapshot_at_year() {
        let net = small();
        let snap = net.snapshot_at(1992);
        assert_eq!(snap.n_papers(), 3);
        assert_eq!(snap.current_year(), Some(1992));
    }

    #[test]
    fn stochastic_operator_shape() {
        let net = small();
        let op = net.stochastic_operator();
        assert_eq!(op.n(), 5);
        assert_eq!(op.dangling_count(), 1);
    }

    #[test]
    fn citation_counts_vector() {
        let net = small();
        assert_eq!(net.citation_counts(), vec![3, 2, 1, 1, 0]);
    }

    #[test]
    fn store_parts_roundtrip_is_identical() {
        let net = small();
        let back = CitationNetwork::from_store_parts(
            net.years().to_vec(),
            net.refs_csr().clone(),
            None,
            None,
        )
        .unwrap();
        assert_eq!(back.years(), net.years());
        for p in 0..net.n_papers() as u32 {
            assert_eq!(back.references(p), net.references(p));
            assert_eq!(back.citations(p), net.citations(p));
        }
    }

    #[test]
    fn store_parts_validation() {
        use sparsela::Csr;
        let refs = Csr::from_edges(3, 3, &[(1, 0)]);
        // Shape mismatch: 2 years, 3x3 refs.
        assert!(matches!(
            CitationNetwork::from_store_parts(vec![1990, 1991], refs.clone(), None, None),
            Err(PartsError::ShapeMismatch { .. })
        ));
        // Unsorted years.
        assert!(matches!(
            CitationNetwork::from_store_parts(vec![1992, 1991, 1993], refs.clone(), None, None),
            Err(PartsError::UnsortedYears { id: 1 })
        ));
        // Future citation: paper 0 (1990) citing paper 1 (1991).
        let fwd = Csr::from_edges(2, 2, &[(0, 1)]);
        assert!(matches!(
            CitationNetwork::from_store_parts(vec![1990, 1991], fwd, None, None),
            Err(PartsError::InvalidEdge {
                citing: 0,
                cited: 1
            })
        ));
        // Metadata table of the wrong size.
        let authors = crate::metadata::AuthorTable::new(&[vec![0]], 1);
        assert!(matches!(
            CitationNetwork::from_store_parts(vec![1990, 1991, 1992], refs, Some(authors), None),
            Err(PartsError::ShapeMismatch { .. })
        ));
    }
}
