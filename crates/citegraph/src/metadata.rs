//! Author and venue metadata.
//!
//! FutureRank (Sayyadi & Getoor 2009) mutually reinforces papers and
//! authors over the paper–author bipartite graph; the WSDM-2016 winning
//! method (Feng et al.) additionally propagates scores from venues. Both
//! structures are optional on a [`crate::CitationNetwork`] — the paper runs
//! WSDM only on PMC and DBLP "for which this data was available" (§4.3).

use sparsela::HeadCuts;

use crate::network::PaperId;

/// Dense author identifier.
pub type AuthorId = u32;
/// Dense venue identifier.
pub type VenueId = u32;

/// Paper–author incidence: which authors wrote which paper.
///
/// Stored as a ragged array in paper order plus the transposed
/// author→papers view, both built once at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthorTable {
    /// `offsets[p]..offsets[p+1]` indexes `author_ids` for paper `p`.
    offsets: Vec<usize>,
    author_ids: Vec<AuthorId>,
    /// Transposed view: `papers_of[a]` lists papers by author `a`.
    rev_offsets: Vec<usize>,
    rev_paper_ids: Vec<PaperId>,
    n_authors: usize,
}

impl AuthorTable {
    /// Builds the table from per-paper author lists.
    ///
    /// `n_authors` must exceed every id appearing in `per_paper`. An
    /// author repeated on one paper's list is kept once (first
    /// occurrence): authorship is a set, and downstream consumers — the
    /// FutureRank/WSDM bipartite propagation, the query layer's author
    /// posting lists — rely on each `(paper, author)` pair appearing at
    /// most once.
    pub fn new(per_paper: &[Vec<AuthorId>], n_authors: usize) -> Self {
        let mut offsets = Vec::with_capacity(per_paper.len() + 1);
        offsets.push(0usize);
        let mut author_ids: Vec<AuthorId> = Vec::new();
        for authors in per_paper {
            let start = author_ids.len();
            for &a in authors {
                assert!(
                    (a as usize) < n_authors,
                    "author id {a} out of range {n_authors}"
                );
                if !author_ids[start..].contains(&a) {
                    author_ids.push(a);
                }
            }
            offsets.push(author_ids.len());
        }
        let (rev_offsets, rev_paper_ids) = Self::invert(&offsets, &author_ids, n_authors);
        Self {
            offsets,
            author_ids,
            rev_offsets,
            rev_paper_ids,
            n_authors,
        }
    }

    fn invert(
        offsets: &[usize],
        author_ids: &[AuthorId],
        n_authors: usize,
    ) -> (Vec<usize>, Vec<PaperId>) {
        let mut counts = vec![0usize; n_authors];
        for &a in author_ids {
            counts[a as usize] += 1;
        }
        let mut rev_offsets = Vec::with_capacity(n_authors + 1);
        rev_offsets.push(0usize);
        let mut acc = 0;
        for &c in &counts {
            acc += c;
            rev_offsets.push(acc);
        }
        let mut rev_paper_ids = vec![0 as PaperId; author_ids.len()];
        let mut cursor = rev_offsets[..n_authors].to_vec();
        for p in 0..offsets.len() - 1 {
            for &a in &author_ids[offsets[p]..offsets[p + 1]] {
                rev_paper_ids[cursor[a as usize]] = p as PaperId;
                cursor[a as usize] += 1;
            }
        }
        (rev_offsets, rev_paper_ids)
    }

    /// Number of papers covered.
    pub fn n_papers(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Heap bytes held by both views.
    pub fn heap_bytes(&self) -> usize {
        (self.offsets.capacity() + self.rev_offsets.capacity()) * std::mem::size_of::<usize>()
            + (self.author_ids.capacity() + self.rev_paper_ids.capacity())
                * std::mem::size_of::<u32>()
    }

    /// Number of distinct authors.
    pub fn n_authors(&self) -> usize {
        self.n_authors
    }

    /// Authors of paper `p`.
    pub fn authors_of(&self, p: PaperId) -> &[AuthorId] {
        let p = p as usize;
        &self.author_ids[self.offsets[p]..self.offsets[p + 1]]
    }

    /// Papers written by author `a` (ascending paper id).
    pub fn papers_of(&self, a: AuthorId) -> &[PaperId] {
        let a = a as usize;
        &self.rev_paper_ids[self.rev_offsets[a]..self.rev_offsets[a + 1]]
    }

    /// The flat paper→author offset array (length `n_papers + 1`):
    /// `offsets()[p]..offsets()[p+1]` indexes [`Self::flat_author_ids`].
    /// With it, the snapshot store serializes the table as two raw arrays.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The flat author-id array, papers concatenated in id order.
    pub fn flat_author_ids(&self) -> &[AuthorId] {
        &self.author_ids
    }

    /// Rebuilds a table from the flat arrays of [`Self::offsets`] /
    /// [`Self::flat_author_ids`] (the snapshot store's load path). The
    /// author→papers inverse is recomputed, so a round-trip is exact.
    ///
    /// # Errors
    /// Returns a description when the offsets are empty, don't start at 0,
    /// decrease, overrun `author_ids`, an author id is `>= n_authors`, or
    /// an author repeats within one paper's slice (the save path never
    /// writes duplicates — see [`Self::new`] — so a duplicate here is
    /// corruption, and accepting it would break the at-most-once pair
    /// invariant the posting lists serve under).
    pub fn from_flat(
        offsets: Vec<usize>,
        author_ids: Vec<AuthorId>,
        n_authors: usize,
    ) -> Result<Self, String> {
        if offsets.is_empty() {
            return Err("author offsets empty (need n_papers + 1 entries)".into());
        }
        if offsets[0] != 0 {
            return Err("author offsets do not start at 0".into());
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("author offsets decrease".into());
        }
        if *offsets.last().expect("non-empty") != author_ids.len() {
            return Err(format!(
                "author offsets end at {} but there are {} author ids",
                offsets.last().expect("non-empty"),
                author_ids.len()
            ));
        }
        if let Some(&a) = author_ids.iter().find(|&&a| a as usize >= n_authors) {
            return Err(format!("author id {a} out of range {n_authors}"));
        }
        let (rev_offsets, rev_paper_ids) = Self::invert(&offsets, &author_ids, n_authors);
        // The inversion visits papers in ascending order, so an author
        // repeated within one paper's slice is that paper twice in a row
        // on the author's list.
        for (a, w) in rev_offsets.windows(2).enumerate() {
            if let Some(p) = rev_paper_ids[w[0]..w[1]].windows(2).find(|p| p[0] == p[1]) {
                return Err(format!("author id {a} repeated for paper {}", p[0]));
            }
        }
        Ok(Self {
            offsets,
            author_ids,
            rev_offsets,
            rev_paper_ids,
            n_authors,
        })
    }

    /// The transposed author→papers posting arrays: offsets of length
    /// `n_authors + 1` into the flat paper-id array. This is the index the
    /// query layer probes; the snapshot store persists both arrays, and a
    /// cold start checks its copy against the rebuilt inversion.
    pub fn postings(&self) -> (&[usize], &[PaperId]) {
        (&self.rev_offsets, &self.rev_paper_ids)
    }

    /// Rebuilds a table from the flat forward arrays (see
    /// [`Self::from_flat`], which computes the author→papers inversion)
    /// and checks a persisted copy of that inversion against it.
    ///
    /// The persisted pair is accepted only when it equals the rebuilt
    /// inversion array for array — one sequential comparison, instead of
    /// probing every `(author, paper)` pair in the forward view at
    /// random. Equality is exactly what strictly increasing lists,
    /// membership of every pair and equal cardinality force, so the same
    /// corruption is caught; the table returned is the rebuilt one.
    ///
    /// # Errors
    /// Returns a description on any forward-array defect (see
    /// [`Self::from_flat`]), or naming the first author whose persisted
    /// list differs from the inversion.
    pub fn from_flat_with_postings(
        offsets: Vec<usize>,
        author_ids: Vec<AuthorId>,
        n_authors: usize,
        rev_offsets: &[usize],
        rev_paper_ids: &[PaperId],
    ) -> Result<Self, String> {
        let table = Self::from_flat(offsets, author_ids, n_authors)?;
        check_postings("author", table.postings(), (rev_offsets, rev_paper_ids))?;
        Ok(table)
    }

    /// Appends per-paper author rows for papers `n_papers()..`, growing the
    /// author id space to `n_authors` (which must not shrink), and merges
    /// the new `(author, paper)` pairs into the posting lists in one linear
    /// pass — no re-sort, no re-inversion. New paper ids exceed every
    /// existing id, so each author's appended postings land at the end of
    /// its (sorted) list and the result is identical to a from-scratch
    /// build. Authors that gained no papers keep (or are created with)
    /// empty posting lists.
    ///
    /// The existing arrays are copied in spans between touched authors
    /// (`extend_postings`), so beyond that copy the work is
    /// O(batch log batch) with no per-author pass — this is the
    /// delta-publish maintenance path, and a shard's table pays for its
    /// own papers, not for the global author id space.
    pub fn extend(&self, new_per_paper: &[Vec<AuthorId>], n_authors: usize) -> AuthorTable {
        assert!(
            n_authors >= self.n_authors,
            "author id space cannot shrink: {} -> {n_authors}",
            self.n_authors
        );
        let n_old_papers = self.n_papers();
        let mut offsets = Vec::with_capacity(self.offsets.len() + new_per_paper.len());
        offsets.extend_from_slice(&self.offsets);
        let added: usize = new_per_paper.iter().map(Vec::len).sum();
        let mut author_ids = Vec::with_capacity(self.author_ids.len() + added);
        author_ids.extend_from_slice(&self.author_ids);
        let mut postings: Vec<(AuthorId, PaperId)> = Vec::with_capacity(added);
        for (i, authors) in new_per_paper.iter().enumerate() {
            let start = author_ids.len();
            for &a in authors {
                assert!(
                    (a as usize) < n_authors,
                    "author id {a} out of range {n_authors}"
                );
                if !author_ids[start..].contains(&a) {
                    author_ids.push(a);
                    postings.push((a, (n_old_papers + i) as PaperId));
                }
            }
            offsets.push(author_ids.len());
        }
        postings.sort_unstable();
        let (rev_offsets, rev_paper_ids) =
            extend_postings(&self.rev_offsets, &self.rev_paper_ids, n_authors, &postings);
        Self {
            offsets,
            author_ids,
            rev_offsets,
            rev_paper_ids,
            n_authors,
        }
    }

    /// Restricts the table to the first `k` papers (author id space is kept
    /// so ids remain comparable across snapshots).
    pub fn prefix(&self, k: usize) -> AuthorTable {
        assert!(k <= self.n_papers());
        let per_paper: Vec<Vec<AuthorId>> =
            (0..k as u32).map(|p| self.authors_of(p).to_vec()).collect();
        AuthorTable::new(&per_paper, self.n_authors)
    }

    /// Restricts the table to the contiguous paper window `[start, end)`,
    /// re-basing paper ids to the window (global id `p` becomes local
    /// `p - start`). The author id space is kept so author ids remain
    /// comparable across shards — the property the sharded read path's
    /// per-shard author postings rely on.
    pub fn window(&self, start: usize, end: usize) -> AuthorTable {
        assert!(start <= end && end <= self.n_papers());
        let per_paper: Vec<Vec<AuthorId>> = (start as u32..end as u32)
            .map(|p| self.authors_of(p).to_vec())
            .collect();
        AuthorTable::new(&per_paper, self.n_authors)
    }
}

/// Paper–venue assignment (at most one venue per paper).
///
/// Alongside the per-paper slots, the table prebuilds CSR posting lists
/// (venue → papers, ascending paper id) so venue predicates in the query
/// layer resolve to an id slice in O(1) instead of scanning all `n`
/// papers per call. The posting lists are derived state: every
/// construction path — including [`Self::prefix`] and a snapshot load
/// (`graphstore` persists a copy and checks it against the rebuild, see
/// [`Self::from_parts`]) — rebuilds them, so round-trips stay bit-exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VenueTable {
    /// `venue[p]` is `Some(v)` when paper `p` appeared at venue `v`.
    venue: Vec<Option<VenueId>>,
    n_venues: usize,
    /// `post_offsets[v]..post_offsets[v+1]` indexes [`Self::post_papers`]
    /// for venue `v` (length `n_venues + 1`).
    post_offsets: Vec<usize>,
    /// Papers concatenated per venue, ascending paper id within a venue.
    post_papers: Vec<PaperId>,
}

impl VenueTable {
    /// Builds the table from per-paper venue assignments.
    pub fn new(venue: Vec<Option<VenueId>>, n_venues: usize) -> Self {
        for v in venue.iter().flatten() {
            assert!((*v as usize) < n_venues, "venue id {v} out of range");
        }
        let (post_offsets, post_papers) = Self::build_postings(&venue, n_venues);
        Self {
            venue,
            n_venues,
            post_offsets,
            post_papers,
        }
    }

    /// Counting-sort construction of the venue → papers posting lists.
    /// Paper ids are visited in ascending order, so each list comes out
    /// sorted — the property the query planner's range intersections and
    /// deterministic pagination rely on.
    fn build_postings(venue: &[Option<VenueId>], n_venues: usize) -> (Vec<usize>, Vec<PaperId>) {
        let mut counts = vec![0usize; n_venues];
        for v in venue.iter().flatten() {
            counts[*v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n_venues + 1);
        offsets.push(0usize);
        let mut acc = 0;
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut papers = vec![0 as PaperId; acc];
        let mut cursor = offsets[..n_venues].to_vec();
        for (p, v) in venue.iter().enumerate() {
            if let Some(v) = v {
                papers[cursor[*v as usize]] = p as PaperId;
                cursor[*v as usize] += 1;
            }
        }
        (offsets, papers)
    }

    /// Number of papers covered.
    pub fn n_papers(&self) -> usize {
        self.venue.len()
    }

    /// Heap bytes held by the slots and the posting lists.
    pub fn heap_bytes(&self) -> usize {
        self.venue.capacity() * std::mem::size_of::<Option<VenueId>>()
            + self.post_offsets.capacity() * std::mem::size_of::<usize>()
            + self.post_papers.capacity() * std::mem::size_of::<PaperId>()
    }

    /// Number of distinct venues.
    pub fn n_venues(&self) -> usize {
        self.n_venues
    }

    /// Venue of paper `p`, if known.
    pub fn venue_of(&self, p: PaperId) -> Option<VenueId> {
        self.venue[p as usize]
    }

    /// The per-paper assignment slots, indexed by paper id (what the
    /// snapshot store serializes, with `None` as a `u32::MAX` sentinel).
    pub fn slots(&self) -> &[Option<VenueId>] {
        &self.venue
    }

    /// Papers at venue `v`, ascending paper id — a borrowed slice of the
    /// prebuilt posting list (O(1); this used to be an O(n) scan per
    /// call).
    ///
    /// # Panics
    /// Panics if `v >= n_venues()`; callers resolving untrusted venue ids
    /// (the query layer) bounds-check first and return a typed error.
    pub fn papers_at(&self, v: VenueId) -> &[PaperId] {
        let v = v as usize;
        assert!(v < self.n_venues, "venue id {v} out of range");
        &self.post_papers[self.post_offsets[v]..self.post_offsets[v + 1]]
    }

    /// The head cuts of the venue posting lists ([`Self::postings`]) at
    /// `starts` (ids, ascending): each venue's list is cut where each of
    /// them starts in it — the start of [`crate::band_span`] for an id
    /// range from it — so at the network's year starts
    /// ([`crate::CitationNetwork::year_starts`]) every `venue=V,year=Y..`
    /// band starts on a cut. One binary search per venue and start, each
    /// past the last.
    pub fn cut_positions(&self, starts: &[PaperId]) -> HeadCuts {
        HeadCuts::new((0..self.n_venues as VenueId).map(|v| {
            let list = self.papers_at(v);
            (list.len(), positions_in(list, starts))
        }))
    }

    /// [`Self::cut_positions`] at `starts` for a table that extends the
    /// lists `parent` cut (a delta's successor, whose new papers start at
    /// id `n_old`). Every list keeps `parent`'s cuts, since the start of
    /// an old year finds the same old postings before it. Only the starts
    /// past the last old posting of a list the delta appended to can move
    /// or add a cut (a start past a list's last posting cuts nothing), so
    /// only they are searched.
    pub(crate) fn carried_cut_positions(
        &self,
        parent: &HeadCuts,
        n_old: PaperId,
        starts: &[PaperId],
    ) -> HeadCuts {
        let kept: Vec<(usize, usize)> = parent.iter().collect();
        let mut at = 0;
        HeadCuts::new((0..self.n_venues as VenueId).map(|v| {
            let list = self.papers_at(v);
            let len = kept[at..].partition_point(|&(l, _)| l == v as usize);
            let old = kept[at..at + len].iter().map(|&(_, p)| p);
            at += len;
            let n_old_postings = list.partition_point(|&p| p < n_old);
            let moved = (n_old_postings < list.len()).then(|| {
                let last_old = list[..n_old_postings].last();
                let from = last_old.map_or(0, |&p| starts.partition_point(|&s| s <= p));
                positions_in(list, &starts[from..])
            });
            (list.len(), old.chain(moved.into_iter().flatten()))
        }))
    }

    /// Number of papers at venue `v` (posting-list length, O(1)) — the
    /// exact selectivity estimate the query planner orders predicates by.
    ///
    /// # Panics
    /// Panics if `v >= n_venues()`.
    pub fn n_papers_at(&self, v: VenueId) -> usize {
        self.papers_at(v).len()
    }

    /// The venue→papers posting arrays: offsets of length `n_venues + 1`
    /// into the flat paper-id array (what the snapshot store persists; a
    /// cold start checks its copy against the rebuilt lists).
    pub fn postings(&self) -> (&[usize], &[PaperId]) {
        (&self.post_offsets, &self.post_papers)
    }

    /// Builds the table from the per-paper slots and checks a persisted
    /// copy of its posting arrays against the counting-sort rebuild.
    ///
    /// The persisted pair is accepted only when it equals the rebuilt
    /// lists array for array — exactly what strictly increasing lists,
    /// every listed paper's slot naming the venue and one pair per
    /// assigned slot force, so corruption is detected, not absorbed.
    ///
    /// # Errors
    /// Returns a description when a slot is out of range, or naming the
    /// first venue whose persisted list differs from the rebuild.
    pub fn from_parts(
        venue: Vec<Option<VenueId>>,
        n_venues: usize,
        post_offsets: &[usize],
        post_papers: &[PaperId],
    ) -> Result<Self, String> {
        if let Some(v) = venue.iter().flatten().find(|&&v| v as usize >= n_venues) {
            return Err(format!("venue id {v} out of range {n_venues}"));
        }
        let table = Self::new(venue, n_venues);
        check_postings("venue", table.postings(), (post_offsets, post_papers))?;
        Ok(table)
    }

    /// Appends venue slots for papers `n_papers()..`, growing the venue id
    /// space to `n_venues` (which must not shrink), and merges the new
    /// papers into the posting lists in one linear pass — the counting-sort
    /// rebuild is skipped because appended paper ids exceed every existing
    /// id, so each venue's new postings land at the end of its (sorted)
    /// list. Venues that gained no papers keep (or are created with) empty
    /// posting lists, so [`Self::papers_at`] returns an empty slice for
    /// them, never panicking on an in-range id.
    ///
    /// The existing arrays are copied in spans between touched venues
    /// (`extend_postings`), so beyond that copy the work is
    /// O(batch log batch) — this is the delta-publish maintenance path.
    pub fn extend(&self, new_slots: &[Option<VenueId>], n_venues: usize) -> VenueTable {
        assert!(
            n_venues >= self.n_venues,
            "venue id space cannot shrink: {} -> {n_venues}",
            self.n_venues
        );
        for v in new_slots.iter().flatten() {
            assert!((*v as usize) < n_venues, "venue id {v} out of range");
        }
        let n_old = self.venue.len();
        let mut venue = Vec::with_capacity(n_old + new_slots.len());
        venue.extend_from_slice(&self.venue);
        venue.extend_from_slice(new_slots);
        let mut postings: Vec<(VenueId, PaperId)> = new_slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (v, (n_old + i) as PaperId)))
            .collect();
        postings.sort_unstable();
        let (post_offsets, post_papers) =
            extend_postings(&self.post_offsets, &self.post_papers, n_venues, &postings);
        Self {
            venue,
            n_venues,
            post_offsets,
            post_papers,
        }
    }

    /// Restricts to the first `k` papers (posting lists are rebuilt for
    /// the prefix, so [`Self::papers_at`] stays correct on snapshots).
    pub fn prefix(&self, k: usize) -> VenueTable {
        assert!(k <= self.n_papers());
        VenueTable::new(self.venue[..k].to_vec(), self.n_venues)
    }

    /// Restricts to the contiguous paper window `[start, end)`, re-basing
    /// paper ids (global `p` becomes local `p - start`) and rebuilding the
    /// posting lists for the window. The venue id space is kept so venue
    /// ids remain comparable across shards.
    pub fn window(&self, start: usize, end: usize) -> VenueTable {
        assert!(start <= end && end <= self.n_papers());
        VenueTable::new(self.venue[start..end].to_vec(), self.n_venues)
    }
}

/// Where each of `starts` (ascending) begins in `list`: one binary search
/// per start, each past the last.
fn positions_in<'a>(
    list: &'a [PaperId],
    starts: &'a [PaperId],
) -> impl Iterator<Item = usize> + 'a {
    let mut from = 0;
    starts.iter().map(move |&s| {
        from += list[from..].partition_point(|&p| p < s);
        from
    })
}

/// Checks a persisted copy of facet posting lists against the `built`
/// ones, naming the first `facet` id whose list (or offset) differs.
fn check_postings(
    facet: &str,
    built: (&[usize], &[PaperId]),
    stored: (&[usize], &[PaperId]),
) -> Result<(), String> {
    let ((offsets, papers), (stored_offsets, stored_papers)) = (built, stored);
    if offsets == stored_offsets && papers == stored_papers {
        return Ok(());
    }
    if offsets.len() != stored_offsets.len() {
        return Err(format!(
            "{facet} posting offsets have {} entries, want {}",
            stored_offsets.len(),
            offsets.len()
        ));
    }
    for (k, w) in offsets.windows(2).enumerate() {
        if stored_offsets[k..k + 2] != *w
            || stored_papers.get(w[0]..w[1]) != Some(&papers[w[0]..w[1]])
        {
            return Err(format!(
                "{facet} {k} posting list differs from the rebuilt inversion"
            ));
        }
    }
    Err(format!(
        "{facet} posting arrays differ from the rebuilt inversion ({} pairs stored, {} rebuilt)",
        stored_papers.len(),
        papers.len()
    ))
}

/// Facet posting lists (`offsets[k]..offsets[k + 1]` indexes `papers` for
/// facet id `k`) grown to `n_keys` lists with the `extra` `(key, paper)`
/// pairs appended. `extra` is sorted, and its papers exceed every paper
/// already listed, so each key's additions land at the end of its list and
/// every list stays ascending. The lists between two touched keys are
/// copied as one span with shifted offsets — the cost is a copy of the
/// arrays plus the batch, with no per-key work for untouched keys.
fn extend_postings(
    offsets: &[usize],
    papers: &[PaperId],
    n_keys: usize,
    extra: &[(u32, PaperId)],
) -> (Vec<usize>, Vec<PaperId>) {
    let n_old = offsets.len() - 1;
    let mut out_offsets: Vec<usize> = Vec::with_capacity(n_keys + 1);
    let mut out_papers: Vec<PaperId> = Vec::with_capacity(papers.len() + extra.len());
    // Emits the lists of keys `out_offsets.len()..to` as they were (empty
    // for keys past the old id space).
    let copy_lists_until =
        |to: usize, out_offsets: &mut Vec<usize>, out_papers: &mut Vec<PaperId>| {
            let (from, old_to) = (out_offsets.len(), to.min(n_old));
            if from < old_to {
                let (s, e) = (offsets[from], offsets[old_to]);
                let shift = out_papers.len() - s;
                out_offsets.extend(offsets[from..old_to].iter().map(|&o| o + shift));
                out_papers.extend_from_slice(&papers[s..e]);
            }
            out_offsets.resize(to, out_papers.len());
        };
    let mut rest = extra;
    while let Some(&(key, _)) = rest.first() {
        let (added, tail) = rest.split_at(rest.partition_point(|e| e.0 == key));
        rest = tail;
        copy_lists_until(key as usize + 1, &mut out_offsets, &mut out_papers);
        out_papers.extend(added.iter().map(|e| e.1));
    }
    copy_lists_until(n_keys, &mut out_offsets, &mut out_papers);
    out_offsets.push(out_papers.len());
    (out_offsets, out_papers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_authors() -> AuthorTable {
        // paper 0: authors {0,1}; paper 1: {1}; paper 2: {}; paper 3: {2,0}
        AuthorTable::new(&[vec![0, 1], vec![1], vec![], vec![2, 0]], 3)
    }

    #[test]
    fn authors_of_roundtrip() {
        let t = sample_authors();
        assert_eq!(t.n_papers(), 4);
        assert_eq!(t.n_authors(), 3);
        assert_eq!(t.authors_of(0), &[0, 1]);
        assert_eq!(t.authors_of(2), &[] as &[u32]);
        assert_eq!(t.authors_of(3), &[2, 0]);
    }

    #[test]
    fn papers_of_is_inverse() {
        let t = sample_authors();
        assert_eq!(t.papers_of(0), &[0, 3]);
        assert_eq!(t.papers_of(1), &[0, 1]);
        assert_eq!(t.papers_of(2), &[3]);
    }

    #[test]
    fn inverse_consistency_exhaustive() {
        let t = sample_authors();
        for p in 0..t.n_papers() as u32 {
            for &a in t.authors_of(p) {
                assert!(t.papers_of(a).contains(&p));
            }
        }
        for a in 0..t.n_authors() as u32 {
            for &p in t.papers_of(a) {
                assert!(t.authors_of(p).contains(&a));
            }
        }
    }

    #[test]
    fn author_prefix() {
        let t = sample_authors().prefix(2);
        assert_eq!(t.n_papers(), 2);
        assert_eq!(t.papers_of(0), &[0]); // paper 3 gone
        assert_eq!(t.papers_of(2), &[] as &[u32]);
        assert_eq!(t.n_authors(), 3); // id space preserved
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn author_out_of_range_panics() {
        AuthorTable::new(&[vec![5]], 3);
    }

    #[test]
    fn flat_roundtrip_is_exact() {
        let t = sample_authors();
        let back = AuthorTable::from_flat(
            t.offsets().to_vec(),
            t.flat_author_ids().to_vec(),
            t.n_authors(),
        )
        .unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn flat_validation_rejects_corruption() {
        assert!(AuthorTable::from_flat(vec![], vec![], 1).is_err());
        assert!(AuthorTable::from_flat(vec![1, 1], vec![0], 1).is_err());
        assert!(AuthorTable::from_flat(vec![0, 2, 1], vec![0, 0], 1).is_err());
        assert!(AuthorTable::from_flat(vec![0, 3], vec![0, 0], 1).is_err());
        assert!(AuthorTable::from_flat(vec![0, 1], vec![9], 3).is_err());
        // An author repeated within one paper's slice is corruption (the
        // save path never writes it); the same author on *different*
        // papers is fine.
        let err = AuthorTable::from_flat(vec![0, 2], vec![1, 1], 2).unwrap_err();
        assert!(err.contains("repeated"), "{err}");
        assert!(AuthorTable::from_flat(vec![0, 1, 2], vec![1, 1], 2).is_ok());
    }

    #[test]
    fn duplicate_authors_on_one_paper_collapse() {
        // Authorship is a set: a duplicate listing must not double the
        // paper in the author's posting list (the query layer serves
        // pages straight off `papers_of`).
        let t = AuthorTable::new(&[vec![0, 0, 1], vec![1, 0, 1]], 2);
        assert_eq!(t.authors_of(0), &[0, 1]);
        assert_eq!(t.authors_of(1), &[1, 0]);
        assert_eq!(t.papers_of(0), &[0, 1]);
        assert_eq!(t.papers_of(1), &[0, 1]);
    }

    #[test]
    fn author_extend_equals_scratch_build() {
        let base_rows = vec![vec![0, 1], vec![1], vec![], vec![2, 0]];
        let new_rows = vec![vec![1, 4], vec![], vec![0, 0, 3]]; // dup collapses
        let t = AuthorTable::new(&base_rows, 3).extend(&new_rows, 5);
        let mut all = base_rows;
        all.extend(new_rows);
        assert_eq!(t, AuthorTable::new(&all, 5));
        assert_eq!(t.papers_of(0), &[0, 3, 6]);
        assert_eq!(t.papers_of(4), &[4]);
    }

    #[test]
    fn author_extend_grown_empty_ids_return_empty_slices() {
        // Author ids 3 and 4 exist in the grown id space but gained no
        // papers yet: probing them must be an empty slice, not a panic.
        let t = sample_authors().extend(&[vec![2]], 5);
        assert_eq!(t.n_authors(), 5);
        assert_eq!(t.papers_of(3), &[] as &[u32]);
        assert_eq!(t.papers_of(4), &[] as &[u32]);
        assert_eq!(t.papers_of(2), &[3, 4]);
    }

    #[test]
    fn author_extend_with_no_new_papers_is_identity_plus_id_space() {
        let t = sample_authors();
        let e = t.extend(&[], 3);
        assert_eq!(e, t);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn author_extend_shrinking_id_space_panics() {
        sample_authors().extend(&[], 2);
    }

    #[test]
    fn author_postings_roundtrip_with_persisted_inverse() {
        let t = sample_authors();
        let (ro, rp) = t.postings();
        let back = AuthorTable::from_flat_with_postings(
            t.offsets().to_vec(),
            t.flat_author_ids().to_vec(),
            t.n_authors(),
            ro,
            rp,
        )
        .unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn author_postings_validation_rejects_corruption() {
        let t = sample_authors();
        let (ro, rp) = t.postings();
        let check = |ro: &[usize], rp: &[PaperId]| {
            AuthorTable::from_flat_with_postings(
                t.offsets().to_vec(),
                t.flat_author_ids().to_vec(),
                3,
                ro,
                rp,
            )
            .unwrap_err()
        };
        // Wrong offsets length.
        let err = check(&ro[..3], rp);
        assert!(err.contains("have 3 entries, want 4"), "{err}");
        // A pair swapped to an author that did not write the paper.
        let mut bad = rp.to_vec();
        bad[0] = 2; // author 0's list now claims paper 2 (no authors at all)
        let err = check(ro, &bad);
        assert!(err.contains("author 0 posting list differs"), "{err}");
        // Out-of-order list.
        let mut bad = rp.to_vec();
        bad.swap(0, 1); // author 0: [3, 0]
        let err = check(ro, &bad);
        assert!(err.contains("author 0 posting list differs"), "{err}");
        // A paper moved to the last author's list: the first two lists
        // are intact, so the error names author 2.
        let mut bad = rp.to_vec();
        *bad.last_mut().unwrap() = 1; // author 2: [1], but paper 1 is {1}
        let err = check(ro, &bad);
        assert!(err.contains("author 2 posting list differs"), "{err}");
        // A dropped pair (cardinality), and a stray extra one.
        let err = check(&[0, 2, 4, 4], &rp[..4]);
        assert!(err.contains("author 2 posting list differs"), "{err}");
        let mut extra = rp.to_vec();
        extra.push(3);
        let err = check(ro, &extra);
        assert!(err.contains("6 pairs stored, 5 rebuilt"), "{err}");
    }

    #[test]
    fn venue_extend_equals_scratch_build() {
        let base = vec![Some(0), None, Some(1), Some(0)];
        let added = vec![None, Some(3), Some(0)];
        let t = VenueTable::new(base.clone(), 2).extend(&added, 4);
        let mut all = base;
        all.extend(added.clone());
        assert_eq!(t, VenueTable::new(all, 4));
        assert_eq!(t.papers_at(0), &[0, 3, 6]);
        assert_eq!(t.papers_at(3), &[5]);
    }

    #[test]
    fn venue_extend_grown_empty_ids_return_empty_slices() {
        // Venue 2 and 3 exist in the grown id space but no paper landed
        // there: papers_at must be an empty slice, not a panic.
        let t = VenueTable::new(vec![Some(0), Some(1)], 2).extend(&[Some(1)], 4);
        assert_eq!(t.n_venues(), 4);
        assert_eq!(t.papers_at(2), &[] as &[u32]);
        assert_eq!(t.papers_at(3), &[] as &[u32]);
        assert_eq!(t.n_papers_at(3), 0);
        assert_eq!(t.papers_at(1), &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn venue_extend_shrinking_id_space_panics() {
        VenueTable::new(vec![Some(0)], 1).extend(&[], 0);
    }

    #[test]
    fn venue_from_parts_roundtrip_and_corruption() {
        let t = VenueTable::new(vec![Some(2), None, Some(0), Some(2)], 3);
        let (po, pp) = t.postings();
        let back = VenueTable::from_parts(t.slots().to_vec(), 3, po, pp).unwrap();
        assert_eq!(back, t);
        // A posting pointing at a paper whose slot names another venue.
        let mut bad = pp.to_vec();
        bad[0] = 3; // venue 0's list now claims paper 3 (venue 2)
        let err = VenueTable::from_parts(t.slots().to_vec(), 3, po, &bad).unwrap_err();
        assert!(err.contains("venue 0 posting list differs"), "{err}");
        // A dropped pair (count mismatch against assigned slots).
        let err =
            VenueTable::from_parts(t.slots().to_vec(), 3, &[0, 1, 1, 2], &pp[..2]).unwrap_err();
        assert!(err.contains("venue 2 posting list differs"), "{err}");
        // Out-of-order list, wrong offsets length, out-of-range slot.
        let mut bad = pp.to_vec();
        bad.swap(1, 2); // venue 2: [3, 0]
        let err = VenueTable::from_parts(t.slots().to_vec(), 3, po, &bad).unwrap_err();
        assert!(err.contains("venue 2 posting list differs"), "{err}");
        let err = VenueTable::from_parts(t.slots().to_vec(), 3, &po[..3], pp).unwrap_err();
        assert!(err.contains("have 3 entries, want 4"), "{err}");
        let err = VenueTable::from_parts(vec![Some(3)], 3, &[0, 0, 0, 0], &[]).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn venue_slots_expose_assignment() {
        let t = VenueTable::new(vec![Some(0), None], 1);
        assert_eq!(t.slots(), &[Some(0), None]);
    }

    #[test]
    fn venue_basics() {
        let t = VenueTable::new(vec![Some(0), None, Some(1), Some(0)], 2);
        assert_eq!(t.venue_of(0), Some(0));
        assert_eq!(t.venue_of(1), None);
        assert_eq!(t.papers_at(0), &[0, 3]);
        assert_eq!(t.papers_at(1), &[2]);
        assert_eq!(t.n_papers_at(0), 2);
        assert_eq!(t.n_venues(), 2);
    }

    #[test]
    fn venue_postings_match_slot_scan() {
        // The prebuilt posting lists must be exactly what the old O(n)
        // scan produced: every paper at `v`, ascending id.
        let slots = vec![Some(2), None, Some(0), Some(2), None, Some(1), Some(2)];
        let t = VenueTable::new(slots.clone(), 3);
        for v in 0..3u32 {
            let scanned: Vec<PaperId> = slots
                .iter()
                .enumerate()
                .filter(|(_, &x)| x == Some(v))
                .map(|(p, _)| p as PaperId)
                .collect();
            assert_eq!(t.papers_at(v), scanned.as_slice(), "venue {v}");
            assert!(t.papers_at(v).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn venue_empty_venue_has_empty_postings() {
        // Venue 1 exists in the id space but no paper was assigned to it.
        let t = VenueTable::new(vec![Some(0), Some(0)], 2);
        assert_eq!(t.papers_at(1), &[] as &[u32]);
        assert_eq!(t.n_papers_at(1), 0);
    }

    #[test]
    fn venue_prefix() {
        let t = VenueTable::new(vec![Some(0), None, Some(1)], 2).prefix(2);
        assert_eq!(t.n_papers(), 2);
        assert_eq!(t.papers_at(1), &[] as &[u32]);
    }

    #[test]
    fn venue_prefix_rebuilds_postings() {
        let t = VenueTable::new(vec![Some(0), Some(1), Some(0), Some(0)], 2);
        assert_eq!(t.papers_at(0), &[0, 2, 3]);
        let p = t.prefix(3);
        assert_eq!(p.papers_at(0), &[0, 2], "paper 3 dropped from postings");
        assert_eq!(p.papers_at(1), &[1]);
        // A prefix round-trips through slots exactly like a fresh build.
        assert_eq!(p, VenueTable::new(p.slots().to_vec(), p.n_venues()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn venue_out_of_range_panics() {
        VenueTable::new(vec![Some(9)], 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn venue_postings_out_of_range_panics() {
        VenueTable::new(vec![Some(0)], 1).papers_at(1);
    }
}
