//! Year-band / fixed-size sharding of a [`CitationNetwork`].
//!
//! Papers are stored time-sorted (ids ascend with publication year), so a
//! partition into **contiguous id bands** is simultaneously a partition
//! into year ranges: a [`ShardPlan`] is just `S + 1` id boundaries, a
//! global id maps to `(shard, local id)` with one binary search
//! ([`ShardPlan::locate`]), and each shard carries an inclusive year span
//! ([`ShardPlan::year_span`]) that year-filtered queries prune whole
//! shards with before touching a score array. New papers are always
//! newest (delta validation rejects year regressions), so every delta
//! lands on the **tail** shard — the reason sharded re-rank cost stops
//! scaling with corpus size.
//!
//! # Boundary edges and the score-composition model
//!
//! [`ShardPlan::extract`] builds each shard's subgraph from its paper
//! window. Citations with both endpoints inside the window keep their
//! (re-based) edge; citations crossing a shard boundary — typically a
//! new paper citing an older shard's paper — are **dropped and counted**
//! as boundary edges. In the stochastic-operator view this absorbs the
//! crossing mass into the teleport distribution: the citing paper's rank
//! mass redistributes over its remaining intra-shard references, and a
//! paper left with no intra-shard references becomes dangling, exactly
//! like a paper with an empty reference list. Per-shard scores are
//! therefore *local* stationary distributions (each summing to 1 within
//! its shard), and the composed global ranking is the per-shard score
//! runs merged under `sparsela::cmp_score_desc` — comparable because
//! every shard normalizes over its own paper count. The degenerate
//! 1-shard plan drops no edges, so its scores are **bit-identical** to
//! the unsharded solve (property-tested in the engine crate).

use crate::network::{CitationNetwork, PaperId, Year};
use sparsela::Csr;

/// How to partition a network into shards — the parsed form of the CLI's
/// `--shards N` / `--shards year:WIDTH` syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSpec {
    /// `N` equal-width id bands (the last may be short).
    Fixed(usize),
    /// Year bands of `WIDTH` consecutive years, aligned to the corpus's
    /// first year; bands containing no papers are skipped.
    YearBands(Year),
}

impl std::str::FromStr for ShardSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        if let Some(width) = s.strip_prefix("year:") {
            let width: Year = width
                .parse()
                .map_err(|_| format!("bad year width in shard spec {s:?}"))?;
            if width <= 0 {
                return Err(format!("year width must be positive, got {width}"));
            }
            return Ok(ShardSpec::YearBands(width));
        }
        let n: usize = s
            .parse()
            .map_err(|_| format!("bad shard spec {s:?} (want N or year:WIDTH)"))?;
        if n == 0 {
            return Err("shard count must be at least 1".into());
        }
        Ok(ShardSpec::Fixed(n))
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardSpec::Fixed(n) => write!(f, "{n}"),
            ShardSpec::YearBands(w) => write!(f, "year:{w}"),
        }
    }
}

impl ShardSpec {
    /// Compiles this spec against a concrete network.
    ///
    /// # Errors
    /// See [`ShardPlan::fixed`] / [`ShardPlan::year_bands`].
    pub fn plan(&self, net: &CitationNetwork) -> Result<ShardPlan, ShardPlanError> {
        match *self {
            ShardSpec::Fixed(n) => ShardPlan::fixed(net, n),
            ShardSpec::YearBands(w) => ShardPlan::year_bands(net, w),
        }
    }
}

/// Why a [`ShardPlan`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardPlanError {
    /// The network has no papers — there is nothing to band.
    EmptyNetwork,
    /// A zero shard count or non-positive year width.
    BadSpec {
        /// Human-readable description.
        message: String,
    },
}

impl std::fmt::Display for ShardPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardPlanError::EmptyNetwork => write!(f, "cannot shard an empty network"),
            ShardPlanError::BadSpec { message } => write!(f, "bad shard spec: {message}"),
        }
    }
}

impl std::error::Error for ShardPlanError {}

/// A partition of the paper id space into `S` contiguous bands.
///
/// `boundaries` has `S + 1` strictly increasing entries with
/// `boundaries[0] == 0` and `boundaries[S] == n_papers`; shard `s` owns
/// global ids `boundaries[s]..boundaries[s + 1]`. Because ids are
/// time-sorted, each shard also owns an inclusive year span, cached at
/// construction for O(1) pruning decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    boundaries: Vec<PaperId>,
    /// Inclusive `(first, last)` publication year per shard.
    year_spans: Vec<(Year, Year)>,
}

impl ShardPlan {
    /// `count` equal-width id bands over `net` (the last band may be
    /// short; bands beyond the paper count are dropped, so the actual
    /// shard count is `min(count, n_papers)`).
    ///
    /// # Errors
    /// [`ShardPlanError::EmptyNetwork`] on an empty network,
    /// [`ShardPlanError::BadSpec`] when `count == 0`.
    pub fn fixed(net: &CitationNetwork, count: usize) -> Result<Self, ShardPlanError> {
        let n = net.n_papers();
        if n == 0 {
            return Err(ShardPlanError::EmptyNetwork);
        }
        if count == 0 {
            return Err(ShardPlanError::BadSpec {
                message: "shard count must be at least 1".into(),
            });
        }
        let width = n.div_ceil(count);
        let mut boundaries: Vec<PaperId> = vec![0];
        let mut at = 0usize;
        while at < n {
            at = (at + width).min(n);
            boundaries.push(at as PaperId);
        }
        Ok(Self::with_boundaries(net, boundaries))
    }

    /// Year bands of `width` consecutive years, aligned to the corpus's
    /// first year. Bands containing no papers are skipped, so every
    /// shard is non-empty.
    ///
    /// # Errors
    /// [`ShardPlanError::EmptyNetwork`] on an empty network,
    /// [`ShardPlanError::BadSpec`] when `width <= 0`.
    pub fn year_bands(net: &CitationNetwork, width: Year) -> Result<Self, ShardPlanError> {
        let n = net.n_papers();
        if n == 0 {
            return Err(ShardPlanError::EmptyNetwork);
        }
        if width <= 0 {
            return Err(ShardPlanError::BadSpec {
                message: format!("year width must be positive, got {width}"),
            });
        }
        let years = net.years();
        let first = years[0];
        let mut boundaries: Vec<PaperId> = vec![0];
        let mut at = 0usize;
        while at < n {
            // Last year of the band containing years[at], on the grid
            // anchored at the first year.
            let band = (years[at] - first) / width;
            let band_last = first + (band + 1) * width - 1;
            at = years.partition_point(|&y| y <= band_last);
            boundaries.push(at as PaperId);
        }
        Ok(Self::with_boundaries(net, boundaries))
    }

    /// Caches per-shard year spans; boundaries must already be valid.
    fn with_boundaries(net: &CitationNetwork, boundaries: Vec<PaperId>) -> Self {
        let years = net.years();
        let year_spans = boundaries
            .windows(2)
            .map(|w| (years[w[0] as usize], years[w[1] as usize - 1]))
            .collect();
        Self {
            boundaries,
            year_spans,
        }
    }

    /// Number of shards `S`.
    pub fn n_shards(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// The `S + 1` id boundaries (what the sharded manifest persists).
    pub fn boundaries(&self) -> &[PaperId] {
        &self.boundaries
    }

    /// Global id range owned by shard `s`.
    pub fn shard_range(&self, s: usize) -> std::ops::Range<PaperId> {
        self.boundaries[s]..self.boundaries[s + 1]
    }

    /// Papers in shard `s`.
    pub fn shard_len(&self, s: usize) -> usize {
        (self.boundaries[s + 1] - self.boundaries[s]) as usize
    }

    /// Inclusive `(first, last)` publication year of shard `s`.
    pub fn year_span(&self, s: usize) -> (Year, Year) {
        self.year_spans[s]
    }

    /// Index of the tail shard (the one every delta routes to).
    pub fn tail(&self) -> usize {
        self.n_shards() - 1
    }

    /// Maps a global paper id to `(shard, local id)` with one binary
    /// search over the boundaries.
    ///
    /// # Panics
    /// Panics if `id` is outside the partitioned id space.
    pub fn locate(&self, id: PaperId) -> (usize, PaperId) {
        let n = *self.boundaries.last().expect("non-empty");
        assert!(id < n, "paper id {id} outside the sharded id space {n}");
        // First boundary strictly greater than id is the shard's end.
        let s = self.boundaries.partition_point(|&b| b <= id) - 1;
        (s, id - self.boundaries[s])
    }

    /// Shards whose year span intersects `[lo, hi]` (either bound
    /// optional) — the scatter-gather read path's pruning decision.
    /// Returns shard indices in ascending order.
    pub fn overlapping(&self, lo: Option<Year>, hi: Option<Year>) -> Vec<usize> {
        (0..self.n_shards())
            .filter(|&s| {
                let (first, last) = self.year_spans[s];
                lo.is_none_or(|lo| last >= lo) && hi.is_none_or(|hi| first <= hi)
            })
            .collect()
    }

    /// Extracts shard `s`'s subgraph: papers re-based to local ids
    /// `0..shard_len(s)`, intra-shard citations kept, cross-shard
    /// citations dropped and counted (the teleport-absorbed boundary
    /// edges of the module-level score model). Metadata is windowed with
    /// author/venue id spaces preserved.
    pub fn extract(&self, net: &CitationNetwork, s: usize) -> (CitationNetwork, usize) {
        let range = self.shard_range(s);
        let (start, end) = (range.start, range.end);
        let k = (end - start) as usize;
        let years = net.years()[start as usize..end as usize].to_vec();
        let mut boundary = 0usize;
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for j in start..end {
            for &i in net.references(j) {
                if i >= start && i < end {
                    edges.push((j - start, i - start));
                } else {
                    boundary += 1;
                }
            }
        }
        let refs = Csr::from_edges(k, k, &edges);
        let authors = net
            .authors()
            .map(|a| a.window(start as usize, end as usize));
        let venues = net.venues().map(|v| v.window(start as usize, end as usize));
        (
            CitationNetwork::from_parts(years, refs, authors, venues),
            boundary,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::metadata::{AuthorTable, VenueTable};

    /// Nine papers over 1990–1996 with venue/author metadata.
    fn sample() -> CitationNetwork {
        let mut b = NetworkBuilder::new();
        for (i, year) in [1990, 1990, 1991, 1992, 1992, 1993, 1995, 1996, 1996]
            .into_iter()
            .enumerate()
        {
            let venue = if i % 3 == 0 { Some(0) } else { Some(1) };
            b.add_paper_with_metadata(year, vec![(i % 2) as u32], venue);
        }
        for (citing, cited) in [
            (1, 0),
            (2, 0),
            (3, 1),
            (4, 2),
            (4, 3),
            (5, 0),
            (6, 4),
            (6, 5),
            (7, 0),
            (7, 6),
            (8, 7),
        ] {
            b.add_citation(citing, cited).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn fixed_plan_partitions_evenly() {
        let net = sample();
        let plan = ShardPlan::fixed(&net, 3).unwrap();
        assert_eq!(plan.n_shards(), 3);
        assert_eq!(plan.boundaries(), &[0, 3, 6, 9]);
        assert_eq!(plan.shard_range(1), 3..6);
        assert_eq!(plan.shard_len(2), 3);
        // More shards than papers: one paper per shard.
        let plan = ShardPlan::fixed(&net, 100).unwrap();
        assert_eq!(plan.n_shards(), 9);
        // Single shard covers everything.
        let plan = ShardPlan::fixed(&net, 1).unwrap();
        assert_eq!(plan.boundaries(), &[0, 9]);
    }

    #[test]
    fn year_band_plan_follows_year_grid() {
        let net = sample(); // years 1990,1990,1991,1992,1992,1993,1995,1996,1996
        let plan = ShardPlan::year_bands(&net, 2).unwrap();
        // Bands anchored at 1990: [1990,1991] [1992,1993] [1994,1995] [1996,1997]
        assert_eq!(plan.boundaries(), &[0, 3, 6, 7, 9]);
        assert_eq!(plan.year_span(0), (1990, 1991));
        assert_eq!(plan.year_span(1), (1992, 1993));
        assert_eq!(plan.year_span(2), (1995, 1995)); // 1994 empty, band kept by its papers
        assert_eq!(plan.year_span(3), (1996, 1996));
        // Width covering everything = one shard.
        let plan = ShardPlan::year_bands(&net, 100).unwrap();
        assert_eq!(plan.n_shards(), 1);
        assert_eq!(plan.year_span(0), (1990, 1996));
    }

    #[test]
    fn year_band_skips_empty_bands() {
        let mut b = NetworkBuilder::new();
        for year in [1990, 2000, 2000, 2010] {
            b.add_paper(year);
        }
        let net = b.build().unwrap();
        let plan = ShardPlan::year_bands(&net, 1).unwrap();
        assert_eq!(plan.n_shards(), 3);
        assert_eq!(plan.boundaries(), &[0, 1, 3, 4]);
        assert_eq!(plan.year_span(1), (2000, 2000));
    }

    #[test]
    fn locate_by_binary_search() {
        let net = sample();
        let plan = ShardPlan::fixed(&net, 3).unwrap();
        assert_eq!(plan.locate(0), (0, 0));
        assert_eq!(plan.locate(2), (0, 2));
        assert_eq!(plan.locate(3), (1, 0));
        assert_eq!(plan.locate(8), (2, 2));
        for id in 0..9u32 {
            let (s, local) = plan.locate(id);
            assert!(plan.shard_range(s).contains(&id));
            assert_eq!(plan.boundaries()[s] + local, id);
        }
    }

    #[test]
    #[should_panic(expected = "outside the sharded id space")]
    fn locate_out_of_range_panics() {
        let net = sample();
        ShardPlan::fixed(&net, 2).unwrap().locate(9);
    }

    #[test]
    fn overlapping_prunes_by_year_span() {
        let net = sample();
        let plan = ShardPlan::year_bands(&net, 2).unwrap();
        // Spans: (1990,1991) (1992,1993) (1995,1995) (1996,1996)
        assert_eq!(plan.overlapping(None, None), vec![0, 1, 2, 3]);
        assert_eq!(plan.overlapping(Some(1992), Some(1993)), vec![1]);
        assert_eq!(plan.overlapping(Some(1993), None), vec![1, 2, 3]);
        assert_eq!(plan.overlapping(None, Some(1990)), vec![0]);
        assert_eq!(
            plan.overlapping(Some(1994), Some(1994)),
            Vec::<usize>::new()
        );
        assert_eq!(plan.overlapping(Some(1991), Some(1995)), vec![0, 1, 2]);
    }

    #[test]
    fn extract_rebases_and_counts_boundary_edges() {
        let net = sample();
        let plan = ShardPlan::fixed(&net, 3).unwrap();
        let (shard1, boundary) = plan.extract(&net, 1);
        assert_eq!(shard1.n_papers(), 3);
        // Shard 1 owns globals 3,4,5. Intra: 4→3. Boundary: 3→1, 4→2, 5→0.
        assert_eq!(shard1.n_citations(), 1);
        assert_eq!(boundary, 3);
        assert_eq!(shard1.references(1), &[0]); // global 4→3 re-based
        assert_eq!(shard1.years(), &[1992, 1992, 1993]);
        // Metadata windows: venue/author id spaces preserved, paper ids local.
        let venues = shard1.venues().unwrap();
        assert_eq!(venues.n_venues(), net.venues().unwrap().n_venues());
        for local in 0..3u32 {
            assert_eq!(
                venues.venue_of(local),
                net.venues().unwrap().venue_of(3 + local)
            );
            assert_eq!(
                shard1.authors().unwrap().authors_of(local),
                net.authors().unwrap().authors_of(3 + local)
            );
        }
    }

    #[test]
    fn one_shard_extract_is_the_whole_network() {
        let net = sample();
        let plan = ShardPlan::fixed(&net, 1).unwrap();
        let (whole, boundary) = plan.extract(&net, 0);
        assert_eq!(boundary, 0, "a 1-shard plan drops no edges");
        assert_eq!(whole.n_papers(), net.n_papers());
        assert_eq!(whole.n_citations(), net.n_citations());
        for p in 0..net.n_papers() as u32 {
            assert_eq!(whole.references(p), net.references(p));
            assert_eq!(whole.citations(p), net.citations(p));
        }
        assert_eq!(whole.years(), net.years());
    }

    #[test]
    fn extract_covers_every_edge_exactly_once() {
        let net = sample();
        for spec in [
            ShardSpec::Fixed(2),
            ShardSpec::Fixed(4),
            ShardSpec::YearBands(2),
        ] {
            let plan = spec.plan(&net).unwrap();
            let mut kept = 0;
            let mut dropped = 0;
            for s in 0..plan.n_shards() {
                let (sub, boundary) = plan.extract(&net, s);
                kept += sub.n_citations();
                dropped += boundary;
            }
            assert_eq!(kept + dropped, net.n_citations(), "{spec}");
        }
    }

    #[test]
    fn spec_parse_roundtrip() {
        assert_eq!("8".parse::<ShardSpec>().unwrap(), ShardSpec::Fixed(8));
        assert_eq!(
            "year:5".parse::<ShardSpec>().unwrap(),
            ShardSpec::YearBands(5)
        );
        assert_eq!(ShardSpec::Fixed(8).to_string(), "8");
        assert_eq!(ShardSpec::YearBands(5).to_string(), "year:5");
        for bad in ["0", "year:0", "year:-2", "year:", "x", ""] {
            assert!(bad.parse::<ShardSpec>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn empty_and_bad_specs_are_typed_errors() {
        let empty = NetworkBuilder::new().build().unwrap();
        assert_eq!(
            ShardPlan::fixed(&empty, 2),
            Err(ShardPlanError::EmptyNetwork)
        );
        assert_eq!(
            ShardPlan::year_bands(&empty, 2),
            Err(ShardPlanError::EmptyNetwork)
        );
        let net = sample();
        assert!(matches!(
            ShardPlan::fixed(&net, 0),
            Err(ShardPlanError::BadSpec { .. })
        ));
        assert!(matches!(
            ShardPlan::year_bands(&net, 0),
            Err(ShardPlanError::BadSpec { .. })
        ));
    }

    #[test]
    fn metadata_window_rebases_postings() {
        let venues = VenueTable::new(vec![Some(0), Some(1), Some(0), None, Some(0)], 2);
        let w = venues.window(2, 5);
        assert_eq!(w.n_papers(), 3);
        assert_eq!(w.papers_at(0), &[0, 2]); // globals 2 and 4, re-based
        assert_eq!(w.papers_at(1), &[] as &[u32]);
        let authors = AuthorTable::new(&[vec![0], vec![1], vec![0, 1], vec![], vec![1]], 2);
        let w = authors.window(2, 5);
        assert_eq!(w.authors_of(0), &[0, 1]);
        assert_eq!(w.papers_of(1), &[0, 2]); // globals 2 and 4, re-based
        assert_eq!(w.n_authors(), 2);
    }
}
