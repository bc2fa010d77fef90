//! Exactness of the copy-and-merge successor: a chain of
//! [`CitationNetwork::with_delta`] calls must be structurally identical to
//! one from-scratch [`NetworkBuilder`] build of the same papers and edges —
//! years, both adjacencies, the in-degrees, both metadata tables — and the
//! citers (built on first use) must be the exact transpose of the
//! references. The in-degrees a successor carries from its parent must
//! count each citation once: an edge the parent held, or a duplicate inside
//! the batch, adds nothing. The venue cuts a successor carries from its
//! parent must equal a fresh search of its own lists.

use citegraph::{AuthorId, CitationNetwork, GraphDelta, NetworkBuilder, PaperId, VenueId, Year};
use proptest::collection::vec;
use proptest::prelude::*;
use sparsela::HeadCuts;

/// Everything ingested so far, in id order — the input of the scratch
/// build each successor is compared with.
#[derive(Default)]
struct Mirror {
    papers: Vec<(Year, Vec<AuthorId>, Option<VenueId>)>,
    edges: Vec<(PaperId, PaperId)>,
}

impl Mirror {
    fn scratch(&self) -> CitationNetwork {
        let mut b = NetworkBuilder::new();
        for (year, authors, venue) in &self.papers {
            b.add_paper_with_metadata(*year, authors.clone(), *venue);
        }
        for &(citing, cited) in &self.edges {
            b.add_citation(citing, cited).unwrap();
        }
        b.build().unwrap()
    }
}

/// Raw material of one batch: per paper `(year bump, authors, venue code)`,
/// a metadata mode, and `(a, b, kind)` edge seeds that [`stage`] resolves
/// against the papers known when the batch is staged.
type RawBatch = (Vec<(Year, Vec<AuthorId>, u32)>, u8, Vec<(u32, u32, u8)>);

fn batch_strategy(max_papers: usize, max_edges: usize) -> impl Strategy<Value = RawBatch> {
    let paper = (0..2, vec(0u32..6, 0..3), 0u32..5);
    let edge = (0u32..1000, 0u32..1000, 0u8..6);
    (vec(paper, 0..max_papers), 0u8..3, vec(edge, 0..max_edges))
}

/// Turns a raw batch into a valid delta against `mirror` and records it
/// there. Metadata mode 0 is a metadata-free batch, 1 gives every paper
/// metadata, 2 alternates; the first metadata paper of a batch always has
/// an author and a venue, so both tables exist from that batch on (as they
/// do in the builder). Edge kinds: a new paper citing anything (0, 1), a
/// bibliography correction on the first or last old paper (2) or on any old
/// paper (3), a copy of an edge that already exists (4), a repeat of the
/// previous edge of this batch (5).
fn stage(mirror: &mut Mirror, (papers, mode, edges): &RawBatch) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let n_old = mirror.papers.len();
    let mut year = mirror.papers.last().map_or(2000, |p| p.0);
    for (i, (bump, authors, venue)) in papers.iter().enumerate() {
        year += bump;
        if *mode == 0 || (*mode == 2 && i % 2 == 1) {
            delta.add_paper(year);
            mirror.papers.push((year, Vec::new(), None));
            continue;
        }
        let mut authors = authors.clone();
        authors.dedup();
        let mut venue = (*venue < 4).then_some(*venue);
        if i == 0 {
            authors.push(6);
            venue = venue.or(Some(4));
        }
        delta.add_paper_with_metadata(year, authors.clone(), venue);
        mirror.papers.push((year, authors, venue));
    }
    let n_total = mirror.papers.len();
    let n_new = n_total - n_old;
    for &(a, b, kind) in edges {
        let (a, b) = (a as usize, b as usize);
        let edge = match kind {
            0 | 1 if n_new > 0 => (n_old + a % n_new, b % n_total),
            2 if n_old > 0 => ([0, n_old - 1][a % 2], b % n_total),
            3 if n_old > 0 => (a % n_old, b % n_total),
            4 if !mirror.edges.is_empty() => {
                let (citing, cited) = mirror.edges[a % mirror.edges.len()];
                (citing as usize, cited as usize)
            }
            5 => match delta.citations.last() {
                Some(&(citing, cited)) => (citing as usize, cited as usize),
                None => continue,
            },
            _ => continue,
        };
        let (citing, cited) = edge;
        if citing != cited && mirror.papers[cited].0 <= mirror.papers[citing].0 {
            delta.add_citation(citing as PaperId, cited as PaperId);
            mirror.edges.push((citing as PaperId, cited as PaperId));
        }
    }
    delta
}

fn assert_same(incremental: &CitationNetwork, scratch: &CitationNetwork) {
    assert_eq!(incremental.years(), scratch.years());
    assert_eq!(incremental.refs_csr(), scratch.refs_csr());
    assert_eq!(incremental.citation_counts(), scratch.citation_counts());
    assert_eq!(
        incremental.citation_counts(),
        incremental.citers_csr().degrees()
    );
    assert_eq!(incremental.citers_csr(), scratch.citers_csr());
    assert_eq!(
        incremental.citers_csr(),
        &incremental.refs_csr().transpose()
    );
    assert_eq!(incremental.authors(), scratch.authors());
    assert_eq!(incremental.venues(), scratch.venues());
}

proptest! {
    /// The base goes through the builder alone (an empty base batch makes
    /// the first delta land on an empty network); every later batch goes
    /// through `with_delta` and is compared after each step.
    #[test]
    fn chained_deltas_equal_a_scratch_build(
        base in batch_strategy(12, 30),
        batches in vec(batch_strategy(4, 14), 1..5),
    ) {
        let mut mirror = Mirror::default();
        stage(&mut mirror, &base);
        let mut net = mirror.scratch();
        for raw in &batches {
            let delta = stage(&mut mirror, raw);
            net = net.with_delta(&delta).unwrap();
            assert_same(&net, &mirror.scratch());
        }
    }

    /// Each parent's venue cuts are found before its delta applies, so
    /// every successor carries them: over new years, new venues, and
    /// batches with and without metadata (and a base without any), they
    /// equal `cut_positions` at the successor's own year starts.
    #[test]
    fn carried_venue_cuts_equal_a_fresh_search(
        base in batch_strategy(12, 30),
        batches in vec(batch_strategy(6, 8), 1..6),
    ) {
        let mut mirror = Mirror::default();
        stage(&mut mirror, &base);
        let mut net = mirror.scratch();
        for raw in &batches {
            net.venue_year_cuts();
            let delta = stage(&mut mirror, raw);
            net = net.with_delta(&delta).unwrap();
            let fresh = net
                .venues()
                .map_or_else(HeadCuts::default, |t| t.cut_positions(&net.year_starts()));
            prop_assert_eq!(net.venue_year_cuts(), &fresh);
        }
    }
}

#[test]
fn corrections_on_the_first_and_last_old_rows_with_duplicates() {
    let mut mirror = Mirror::default();
    for year in [2000, 2000, 2000, 2001] {
        mirror.papers.push((year, Vec::new(), None));
    }
    mirror.edges.push((3, 0));
    let net = mirror.scratch();

    let mut delta = GraphDelta::new();
    delta.add_paper(2001);
    mirror.papers.push((2001, Vec::new(), None));
    for edge in [(0, 1), (3, 2), (4, 3), (4, 0), (3, 0), (4, 0), (0, 2)] {
        delta.add_citation(edge.0, edge.1);
        mirror.edges.push(edge);
    }
    let next = net.with_delta(&delta).unwrap();
    assert_same(&next, &mirror.scratch());
    assert_eq!(next.references(0), &[1, 2]);
    assert_eq!(next.references(3), &[0, 2]);
    assert_eq!(next.citations(0), &[3, 4]);
    assert_eq!(next.n_citations(), 6);
    // (3, 0) was held already and (4, 0) comes twice: paper 0 counts each
    // citer once. (0, 2) and (3, 2) are new, so paper 2 gains two.
    assert_eq!(next.citation_count(0), 2);
    assert_eq!(next.citation_count(1), 1);
    assert_eq!(next.citation_count(2), 2);
    assert_eq!(next.citation_count(3), 1);
    assert_eq!(next.citation_counts(), [2, 1, 2, 1, 0]);
}
