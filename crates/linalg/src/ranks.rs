//! Rank assignment utilities.
//!
//! Rank-correlation metrics (Spearman's ρ, Kendall's τ) operate on *ranks*
//! rather than raw scores. Two conventions are provided:
//!
//! * [`ordinal_ranks`] — distinct ranks `1..=n` with deterministic
//!   tie-breaking by index (used when a method must output a total order),
//! * [`average_ranks`] — tied values share the mean of the ranks they span
//!   (the standard convention for Spearman's ρ with ties, which citation
//!   data has in abundance: most papers receive 0 future citations).
//!
//! # Top-k selection
//!
//! The serving layer reads the *top* of a score vector, under the same
//! total order ([`cmp_score_desc`]). Every kernel here returns exactly
//! *full sort → filter → truncate*; they differ in what they enumerate.
//! Candidates are *offered* to one accumulator (a `2k` buffer and a running
//! k-th threshold): [`top_k_indices`], [`top_k_where`] and
//! [`top_k_masked`] offer every id of a vector, a predicate-filtered range
//! or a bitmask; [`top_k_pruned_into`] walks a vector's [`BlockMaxima`]
//! over an id range or a union of posting bands and offers only the
//! blocks that can still reach the page — about `k` blocks whatever the
//! order of the scores, with an exact count of what lies behind a
//! pagination [`Frontier`] — and serves a shallow page of an id range or
//! of a union of bands from the summary's ordered heads (one per list and
//! year cut, each built on first use) without reading a block.
//! [`top_k_filtered`]
//! copies a short explicit candidate list and partitions it instead.
//! [`merge_k_sorted`] merges per-partition pages.
//!
//! The kernels the serving layer runs on frozen vectors —
//! [`top_k_pruned_into`], [`top_k_filtered_into`], the builds of
//! [`BlockMaxima`] and their head builds and slices — read scores through
//! [`Scores`], so a cached personalized solve is summarized and selected
//! from its cone form ([`crate::Cone`]) with the same results, bit for
//! bit, as from a dense copy.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::cone::Scores;
use crate::mask::IdMask;

/// The total descending order on `(score, id)` pairs every ranking helper
/// shares: higher score first, equal scores broken by smaller id, NaN
/// after every number (NaN pairs break by smaller id).
///
/// `Less` means `(x, a)` ranks *before* `(y, b)`. Exposed so consumers
/// that paginate (the query layer's offset-free cursors) can test "does
/// this item sort strictly after the cursor position" with exactly the
/// semantics the selection kernels use — including NaN totality
/// (`sort`/`select_nth` panic outright on comparators that violate it,
/// and a non-convergent solve must not surface its papers at the top of a
/// ranking).
#[inline]
pub fn cmp_score_desc(x: f64, a: u32, y: f64, b: u32) -> std::cmp::Ordering {
    match (x.is_nan(), y.is_nan()) {
        (false, false) => y
            .partial_cmp(&x)
            .expect("non-NaN floats are comparable")
            .then(a.cmp(&b)),
        (true, true) => a.cmp(&b),
        (true, false) => std::cmp::Ordering::Greater, // NaN ranks last
        (false, true) => std::cmp::Ordering::Less,
    }
}

/// The index comparator form of [`cmp_score_desc`] over a score source.
#[inline]
fn desc_by_score<S: Scores + ?Sized>(scores: &S) -> impl Fn(&u32, &u32) -> std::cmp::Ordering + '_ {
    |&a, &b| cmp_score_desc(scores.at(a as usize), a, scores.at(b as usize), b)
}

/// Indices that sort `scores` in descending order; ties break by smaller
/// index first, making every downstream ranking deterministic.
pub fn sort_indices_desc(scores: &[f64]) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
    idx.sort_by(desc_by_score(scores));
    idx
}

/// Indices of the `k` largest entries in decreasing score order, without
/// sorting all `n` scores.
///
/// One pass of the streaming core ([`top_k_where`] with no predicate over
/// `0..n`): a `2k` buffer and a running `(score, id)` threshold, `O(n)`
/// compares plus `O(k log k)` for the final sort. The result is
/// *identical* to `sort_indices_desc(scores).truncate(k)` — including the
/// tie-break by smaller index — which the serving layer's `top_k` query
/// relies on (property-tested in `tests/proptests.rs`).
pub fn top_k_indices(scores: &[f64], k: usize) -> Vec<u32> {
    let mut out = Vec::new();
    top_k_indices_into(scores, k, &mut out);
    out
}

/// [`top_k_indices`] writing into a caller-provided buffer.
///
/// `out` is cleared first and doubles as the bounded `2k` stream buffer;
/// once warm it is never reallocated, so a steady-state caller performs
/// zero heap allocations. The contents written are identical to
/// [`top_k_indices`].
///
/// This is the kernel for callers *without* a [`BlockMaxima`] summary of
/// the vector: it reads every score, and scores strictly ascending in id
/// make it re-select its buffer every `k` ids. A caller that selects over
/// the same vector more than once builds the summary and calls
/// [`top_k_pruned_into`], which reads a bounded number of blocks whatever
/// the order of the scores.
pub fn top_k_indices_into(scores: &[f64], k: usize, out: &mut Vec<u32>) {
    top_k_stream(scores, 0..scores.len() as u32, k, out);
}

/// Indices of the `k` best-scoring entries among an explicit candidate
/// list, in decreasing score order (ties by smaller id).
///
/// This is the subset generalization of [`top_k_indices`]: cost is
/// `O(m + k log k)` in the candidate count `m`, independent of the full
/// score length — a selective predicate (one author's posting list) pays
/// for its own selectivity, never for the corpus. The result is
/// *identical* to filtering `sort_indices_desc(scores)` down to
/// `candidates` and truncating to `k` (property-tested), which is what
/// makes cursor pagination over filtered rankings gap- and overlap-free.
///
/// Candidates must be in-bounds indices into `scores`; duplicate ids
/// yield duplicate results (posting lists are deduplicated by
/// construction).
pub fn top_k_filtered(scores: &[f64], candidates: &[u32], k: usize) -> Vec<u32> {
    let mut out = Vec::new();
    top_k_filtered_into(scores, candidates, k, &mut out);
    out
}

/// [`top_k_filtered`] writing into a caller-provided buffer.
///
/// `out` is cleared first and doubles as the quickselect working set;
/// once its capacity has grown to the largest candidate list seen it is
/// never reallocated. The contents written are identical to
/// [`top_k_filtered`].
///
/// The one kernel that copies its candidates and partitions them instead
/// of streaming: on the short lists a selective facet produces (a few
/// hundred to a few thousand ids) one copy plus one `select_nth` beats
/// the stream's per-id threshold compare, most clearly at large `k`; the
/// stream only wins from ~10k candidates up, where the planner has
/// usually picked a scan anyway. A caller with a [`BlockMaxima`] summary
/// of its posting lists walks them with [`top_k_pruned_into`] instead.
///
/// Generic over the score source: a dense slice, or a [`crate::Cone`].
pub fn top_k_filtered_into<S: Scores + ?Sized>(
    scores: &S,
    candidates: &[u32],
    k: usize,
    out: &mut Vec<u32>,
) {
    out.clear();
    let k = k.min(candidates.len());
    if k == 0 {
        return;
    }
    out.extend_from_slice(candidates);
    if k < out.len() {
        out.select_nth_unstable_by(k - 1, desc_by_score(scores));
        out.truncate(k);
    }
    out.sort_unstable_by(desc_by_score(scores));
}

/// The one selection accumulator behind every streaming kernel: a bounded
/// buffer of at most `2k` candidate ids over one score slice and a running
/// `(score, id)` threshold — the current k-th best — that an id must rank
/// strictly before to be kept. [`top_k_stream`] offers it every candidate;
/// [`top_k_pruned_into`] offers it only the blocks that can still beat
/// the threshold, and seeds the threshold before the first offer. With
/// `k = 0` there is nothing to keep and callers offer nothing.
///
/// The candidates live in `buf[base..]`; `buf[..base]` is the caller's
/// scratch (a block order), dropped by [`Self::finish`].
struct TopK<'a, S: Scores + ?Sized> {
    scores: &'a S,
    buf: &'a mut Vec<u32>,
    base: usize,
    k: usize,
    cap: usize,
    threshold: Option<(f64, u32)>,
}

impl<'a, S: Scores + ?Sized> TopK<'a, S> {
    /// An empty accumulator over `buf` (cleared; warmed to `2k` once).
    fn new(scores: &'a S, k: usize, buf: &'a mut Vec<u32>) -> Self {
        Self::after_scratch(scores, k, buf, 0)
    }

    /// [`Self::new`] behind `base` ids of scratch at the front of `buf`.
    fn after_scratch(scores: &'a S, k: usize, buf: &'a mut Vec<u32>, base: usize) -> Self {
        buf.clear();
        buf.resize(base, 0);
        let cap = 2 * k.min(scores.len().max(1));
        buf.reserve(cap);
        Self {
            scores,
            buf,
            base,
            k,
            cap,
            threshold: None,
        }
    }

    /// The scratch in front of the candidates.
    fn scratch(&mut self) -> &mut [u32] {
        &mut self.buf[..self.base]
    }

    /// Offers every id of `ids`: each is kept unless it cannot make the
    /// page — is not strictly better than the current k-th item.
    ///
    /// The select logic's one loop. It takes a run of ids, not one, so
    /// that the threshold is a local variable of the loop: the compiler
    /// then spins rejected ids in an inner loop with the threshold's NaN
    /// test hoisted out of it. Offered one id at a time through
    /// `&mut self`, the plain stream measured 1.35–2× slower.
    #[inline]
    fn offer_all<I: Iterator<Item = u32>>(&mut self, ids: I) {
        debug_assert!(self.k > 0, "nothing is offered to an empty page");
        let (scores, k, base) = (self.scores, self.k, self.base);
        let full = base + self.cap;
        let buf = &mut *self.buf;
        let mut threshold = self.threshold;
        for id in ids {
            if let Some((ts, tid)) = threshold {
                if cmp_score_desc(scores.at(id as usize), id, ts, tid) != std::cmp::Ordering::Less {
                    continue;
                }
            }
            buf.push(id);
            if buf.len() == full {
                buf[base..].select_nth_unstable_by(k - 1, desc_by_score(scores));
                buf.truncate(base + k);
                let worst = buf[base + k - 1];
                threshold = Some((scores.at(worst as usize), worst));
            }
        }
        self.threshold = threshold;
    }

    /// Whether a block of ids whose best score is `block_max` (NaN
    /// ignored) holds no keeper: iff its maximum is strictly below the
    /// threshold's score — an equal score may still win on id, and a NaN
    /// threshold is below no number.
    #[inline]
    fn skips(&self, block_max: f64) -> bool {
        self.threshold.is_some_and(|(ts, _)| block_max < ts)
    }

    /// Offers the ids at positions `at` of a segment's list (`postings`,
    /// or the id space when `None`).
    #[inline]
    fn offer_span(&mut self, postings: Option<&[u32]>, at: std::ops::Range<usize>) {
        match postings {
            None => self.offer_all(at.start as u32..at.end as u32),
            Some(list) => self.offer_all(list[at].iter().copied()),
        }
    }

    /// The `k`-th best offered id, when at least `k` were offered — what
    /// [`Self::finish`] would leave last, found without sorting the rest
    /// (the buffer is left in no order). A head's seed over a 25k-score
    /// vector's 400 block maxima, caches flushed: 10–11 µs found this way,
    /// 23–24 µs sorted.
    fn kth(self) -> Option<u32> {
        let Self {
            scores,
            buf,
            base,
            k,
            ..
        } = self;
        let offered = &mut buf[base..];
        (offered.len() >= k).then(|| {
            *offered
                .select_nth_unstable_by(k - 1, desc_by_score(scores))
                .1
        })
    }

    /// Leaves the best `k` offered ids in the buffer, best first, and
    /// nothing else.
    fn finish(self) {
        let Self {
            scores,
            buf,
            base,
            k,
            ..
        } = self;
        if k < buf.len() - base {
            buf[base..].select_nth_unstable_by(k - 1, desc_by_score(scores));
            buf.truncate(base + k);
        }
        buf[base..].sort_unstable_by(desc_by_score(scores));
        buf.drain(..base);
    }
}

/// The plain stream behind [`top_k_indices`], [`top_k_where`] and
/// [`top_k_masked`]: offers every candidate id to one [`TopK`]. Memory is
/// `O(k)` and the scan never revisits an id, so a broad predicate costs
/// one pass over its candidates.
fn top_k_stream<I: Iterator<Item = u32>>(scores: &[f64], ids: I, k: usize, buf: &mut Vec<u32>) {
    let mut top = TopK::new(scores, k, buf);
    if k > 0 {
        top.offer_all(ids);
    }
    top.finish();
}

/// Indices of the `k` best-scoring entries within the id range `ids`
/// that satisfy `pred`, in decreasing score order (ties by smaller id).
///
/// The full-scan counterpart of [`top_k_filtered`]: one sequential pass
/// over the (clamped) range with `O(k)` memory, for predicates that have
/// no precomputed candidate list — or whose candidate list would be
/// larger than the range itself. The planner picks whichever of the two
/// kernels touches fewer ids; the results are identical either way.
pub fn top_k_where<F>(scores: &[f64], ids: std::ops::Range<u32>, k: usize, pred: F) -> Vec<u32>
where
    F: FnMut(u32) -> bool,
{
    let mut out = Vec::new();
    top_k_where_into(scores, ids, k, pred, &mut out);
    out
}

/// [`top_k_where`] writing into a caller-provided buffer.
///
/// `out` is cleared first and doubles as the bounded `2k` stream buffer;
/// once warm it is never reallocated. The contents written are identical
/// to [`top_k_where`].
pub fn top_k_where_into<F>(
    scores: &[f64],
    ids: std::ops::Range<u32>,
    k: usize,
    mut pred: F,
    out: &mut Vec<u32>,
) where
    F: FnMut(u32) -> bool,
{
    let n = scores.len() as u32;
    let start = ids.start.min(n);
    let end = ids.end.min(n).max(start);
    top_k_stream(scores, (start..end).filter(move |&id| pred(id)), k, out);
}

/// Indices of the `k` best-scoring set ids of `mask`, in decreasing
/// score order (ties by smaller id) — the bitmask variant of
/// [`top_k_filtered`] for callers that compose predicates with set
/// algebra ([`IdMask::intersect_with`]) instead of materializing a
/// candidate list. Costs `O(len/64 + ones)` for the scan plus the
/// bounded-buffer maintenance of [`top_k_where`].
///
/// # Panics
/// Panics if the mask covers a different id space than `scores`.
pub fn top_k_masked(scores: &[f64], mask: &IdMask, k: usize) -> Vec<u32> {
    let mut out = Vec::new();
    top_k_masked_into(scores, mask, k, &mut out);
    out
}

/// [`top_k_masked`] writing into a caller-provided buffer.
///
/// `out` is cleared first and doubles as the bounded `2k` stream buffer;
/// once warm it is never reallocated. The contents written are identical
/// to [`top_k_masked`].
///
/// # Panics
/// Panics if the mask covers a different id space than `scores`.
pub fn top_k_masked_into(scores: &[f64], mask: &IdMask, k: usize, out: &mut Vec<u32>) {
    assert_eq!(
        mask.len(),
        scores.len(),
        "mask covers {} ids but there are {} scores",
        mask.len(),
        scores.len()
    );
    top_k_stream(scores, mask.ones(), k, out);
}

/// Ids per block of the summaries [`BlockMaxima::new`] builds. Sized on
/// the serving corpus's three published vectors (200k scores; the sum over
/// 102 unfiltered, year-window and cursor selections, a third of them 20
/// pages deep): 32 ids 3.5 ms, 64 ids 3.5 ms, 128 ids 4.1 ms, 256 ids
/// 4.9 ms, against 30.8 ms for the plain stream. 64 is the largest block
/// on the plateau — half the summary of 32 — and a scanned block is eight
/// cache lines.
pub const BLOCK_LEN: usize = 64;

/// Postings per block of the summaries [`BlockMaxima::over_postings`]
/// builds. Sized on the serving corpus's venue pages (200k papers, 112
/// venues, `k = 10` over each venue's last seven years — 860–960
/// postings a band; median per page over every venue): 16 postings
/// 2.9 / 3.3 µs (attrank / cc), 32 postings 2.6 / 3.0 µs, 64 postings
/// 5.1–5.7 µs, against 8.0 / 11.6 µs for the gather and quickselect. At
/// 64 a band holds too few whole blocks to seed the threshold (rule 2 of
/// [`top_k_pruned_into`] wants two per wanted item); 32 is the largest
/// block that still seeds, and its summary builds in 0.16 ms per 200k
/// scores. These time the walk, which serves deeper venue pages, author
/// residuals and head builds; a shallow venue page is a slice of its
/// list's heads (rule 0).
pub const POSTING_BLOCK_LEN: usize = 32;

/// Ids in each ordered head of a [`BlockMaxima`]: the first ids, in
/// [`cmp_score_desc`] order, of the suffix of one list (the id space, or
/// one venue's postings) from one year cut on, from which rule 0 of
/// [`top_k_pruned_into`] serves a page without reading a block. Each head
/// is built on first use, by one walk of its suffix at `k` = 128. Sized on
/// the serving corpus's three published vectors (200k scores; attrank /
/// cc / pagerank; medians on a 2-vCPU VM): the whole-vector head costs
/// 48–96 µs at 128 ids, 87–144 µs at 256 and 198–268 µs at 512, and a 25k
/// tail partition's 47 µs at 128. Every page the workloads ask for fits
/// in 128 — page 1 to `k = 100`, page 2 to depth 50 — and, since each
/// `year=Y..` suffix of the vector and of each venue's list has a head of
/// its own, so do all of the workloads' `year=Y..` and
/// `venue=V,year=Y..` pages (the whole vector's head held 0 of 128 ids
/// from the last seven years). A head slice costs 90–150 ns at `k` =
/// 10–25, page 2 140–280 ns, against 3.5–43 µs for the walk.
pub const HEAD_LEN: usize = 128;

/// Block maxima a summary's storage grows by. A served vector grows with
/// every publish and is re-summarized with it; sized exactly, each summary
/// would be a few bytes larger than the one retired just before it, fit
/// none of the holes its predecessors leave, and be placed ever higher in
/// the heap — where a block that lives for two publishes keeps the
/// allocator from trimming what the publishes in between free (200k-paper
/// write path, glibc defaults: peak RSS 470 → 550 MB at identical live
/// bytes). In steps, consecutive summaries are the same size and take each
/// other's place (460–495 MB). The head cells grow in steps of the same
/// 8 KiB ([`CELL_STEP`]): a venue gains a cut with its first paper of a
/// year.
const STORAGE_STEP: usize = 1024;

/// One head of a [`BlockMaxima`], built on first use.
type HeadCell = OnceLock<Box<[u32]>>;

/// Head cells a summary's storage grows by: the bytes of [`STORAGE_STEP`]
/// maxima.
const CELL_STEP: usize =
    STORAGE_STEP * std::mem::size_of::<f64>() / std::mem::size_of::<HeadCell>();

/// The key of position `at` of list `list`: keys sorted are by list, then
/// position, and one integer compare orders two (searched by a `(list,
/// position)` tuple, a head lookup read 10 ns slower).
fn head_key(list: usize, at: usize) -> u64 {
    (list as u64) << 32 | at as u64
}

/// Where the heads of a [`BlockMaxima`] start: one **cut** at position 0
/// of each non-empty list and more at given positions inside it, sorted by
/// list, then position. Cuts depend only on the lists, not on the scores,
/// so one set serves every summary over the same lists — an epoch's
/// network finds its venue cuts once (`CitationNetwork::venue_year_cuts`)
/// and each vector summarized over it shares them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HeadCuts(Arc<[u64]>);

impl HeadCuts {
    /// The cuts of `lists`, each given as its length and positions (in any
    /// order; 0, repeats and those at or past the length add nothing).
    pub fn new<P: IntoIterator<Item = usize>>(lists: impl IntoIterator<Item = (usize, P)>) -> Self {
        let mut keys = Vec::new();
        for (list, (len, positions)) in lists.into_iter().enumerate() {
            let from = keys.len();
            keys.extend(
                positions
                    .into_iter()
                    .chain((len > 0).then_some(0))
                    .filter(|&at| at < len)
                    .map(|at| head_key(list, at)),
            );
            keys[from..].sort_unstable();
        }
        keys.dedup();
        Self(keys.into())
    }

    /// How many cuts there are: heads a summary over the lists can hold.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there is no cut (no list holds an id).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Heap bytes held (one key per cut), counted by whoever owns the set.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.0)
    }

    /// Each cut as `(list, position)`, by list, then position.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.0
            .iter()
            .map(|&key| ((key >> 32) as usize, key as u32 as usize))
    }
}

/// The maximum of `xs`, NaN ignored, `-inf` when it holds no number.
#[inline]
fn max_number(xs: impl Iterator<Item = f64>) -> f64 {
    let mut max = f64::NEG_INFINITY;
    for x in xs {
        // False for NaN: a NaN never becomes the maximum.
        if x > max {
            max = x;
        }
    }
    max
}

/// Per-block maxima of a score vector over one or more id lists: one
/// `f64` per fixed-length run of each list, blocks aligned to the list's
/// start, NaN ignored, `-inf` for a block holding no number.
///
/// [`Self::new`] summarizes the id space itself — one list whose position
/// `i` is id `i`. [`Self::over_postings`] summarizes posting lists (a
/// venue table's), where the block maxima gather the scores of the ids
/// each run lists. Built in one `O(n)` pass when a vector is frozen (an
/// epoch's scores, a cached personalized solve), a summary lets
/// [`top_k_pruned_into`] skip every block whose best score cannot reach
/// the page. `n / block length × 8` bytes, rounded up to 8 KiB.
///
/// A summary also keeps one **head** per [`HeadCuts`] cut: the first
/// [`HEAD_LEN`] ids, in [`cmp_score_desc`] order, of the list's suffix
/// from that position on. Position 0 of every list is a cut; an epoch's
/// id space is also cut at the first id of each year of the network it
/// ranks, and each venue's list where each year starts in it. Rule 0 of
/// [`top_k_pruned_into`] serves a shallow page of an id range —
/// everything, a year window, either behind a cursor — or of a union of
/// posting bands — `venue=a|b`, within a year window — as slices of the
/// heads of the largest cuts at or below each segment's start. A freeze
/// lays out no head: the first page that reads one lays out a cell per
/// cut, and each head is one walk of its suffix over the maxima, run on
/// the first page that reads it (a `OnceLock` per cell, so racing readers
/// build it once). A head keeps what that walk was given, so a summary
/// must only ever be handed the scores it was built from — as every
/// walk's exactness already requires.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMaxima {
    block_len: usize,
    /// Scores summarized.
    len: usize,
    /// First block of each list, then one past the last block.
    lists: Vec<usize>,
    maxima: Vec<f64>,
    /// Ids in each head; 0 without heads.
    head_len: usize,
    /// Where each head starts; empty without heads.
    cuts: HeadCuts,
    /// One cell per cut (in [`CELL_STEP`]s), laid out on the first head
    /// read.
    heads: OnceLock<Box<[HeadCell]>>,
    /// What the heads built so far hold.
    built: BuiltHeads,
}

/// The heads of a [`BlockMaxima`] built so far and the ids they hold,
/// counted where each is built: read in `O(1)` by
/// [`BlockMaxima::heads_built`] and [`BlockMaxima::bytes`].
#[derive(Debug, Default)]
struct BuiltHeads {
    heads: AtomicUsize,
    ids: AtomicUsize,
}

impl BuiltHeads {
    fn add(&self, ids: usize) {
        self.heads.fetch_add(1, Ordering::Relaxed);
        self.ids.fetch_add(ids, Ordering::Relaxed);
    }

    fn get(&self) -> (usize, usize) {
        (
            self.heads.load(Ordering::Relaxed),
            self.ids.load(Ordering::Relaxed),
        )
    }
}

impl Clone for BuiltHeads {
    fn clone(&self) -> Self {
        let (heads, ids) = self.get();
        Self {
            heads: heads.into(),
            ids: ids.into(),
        }
    }
}

impl PartialEq for BuiltHeads {
    fn eq(&self, other: &Self) -> bool {
        self.get() == other.get()
    }
}

impl BlockMaxima {
    /// The summary of `scores` over the id space at the serving block
    /// length ([`BLOCK_LEN`]), with a head of [`HEAD_LEN`] ids at cut 0.
    pub fn new<S: Scores + ?Sized>(scores: &S) -> Self {
        Self::with_cuts(scores, &[])
    }

    /// [`Self::new`] with a head also at each of `cuts` (ids, in any
    /// order; those past the vector add nothing).
    pub fn with_cuts<S: Scores + ?Sized>(scores: &S, cuts: &[u32]) -> Self {
        Self::with_block_len(scores, BLOCK_LEN, HEAD_LEN, cuts)
    }

    /// The summary of `scores` over the id space with `block_len` ids per
    /// block and heads of `head_len` ids at 0 and at each of `cuts` (0:
    /// none, so every page is walked) — for tests, which reach every
    /// block-boundary case at small sizes with a tiny block, for timing
    /// the walk a head spares, and for re-sizing [`BLOCK_LEN`] and
    /// [`HEAD_LEN`].
    ///
    /// # Panics
    /// When `block_len` is 0.
    pub fn with_block_len<S: Scores + ?Sized>(
        scores: &S,
        block_len: usize,
        head_len: usize,
        cuts: &[u32],
    ) -> Self {
        assert!(block_len > 0, "a block holds at least one id");
        let n = scores.len();
        let n_blocks = n.div_ceil(block_len);
        let mut maxima = Vec::with_capacity(n_blocks.next_multiple_of(STORAGE_STEP));
        maxima.extend(
            (0..n)
                .step_by(block_len)
                .map(|start| max_number((start..(start + block_len).min(n)).map(|i| scores.at(i)))),
        );
        let cuts = HeadCuts::new([(n, cuts.iter().map(|&c| c as usize))]);
        Self::with_heads(block_len, n, vec![0, n_blocks], maxima, head_len, cuts)
    }

    /// A summary of `len` scores over lists whose blocks start at
    /// `lists`, with heads of `head_len` ids (0: none) at `cuts`, none laid
    /// out yet.
    fn with_heads(
        block_len: usize,
        len: usize,
        lists: Vec<usize>,
        maxima: Vec<f64>,
        head_len: usize,
        cuts: HeadCuts,
    ) -> Self {
        let cuts = if head_len == 0 {
            HeadCuts::default()
        } else {
            cuts
        };
        Self {
            block_len,
            len,
            lists,
            maxima,
            head_len,
            cuts,
            heads: OnceLock::new(),
            built: BuiltHeads::default(),
        }
    }

    /// The summary of `scores` over posting lists at the serving posting
    /// block length ([`POSTING_BLOCK_LEN`]), with a head of [`HEAD_LEN`]
    /// ids at each of `cuts` (made over these lists): list `l` is
    /// `postings[offsets[l]..offsets[l + 1]]`, as `VenueTable::postings`
    /// lays them out, each ascending.
    ///
    /// # Panics
    /// When `offsets` is empty or decreasing, runs past `postings`, a
    /// posting is not an index into `scores`, or a cut is past its list.
    pub fn over_postings<S: Scores + ?Sized>(
        scores: &S,
        offsets: &[usize],
        postings: &[u32],
        cuts: &HeadCuts,
    ) -> Self {
        Self::over_postings_with_block_len(
            scores,
            offsets,
            postings,
            POSTING_BLOCK_LEN,
            HEAD_LEN,
            cuts,
        )
    }

    /// [`Self::over_postings`] with `block_len` postings per block and
    /// heads of `head_len` ids (0: none) — for tests and for re-sizing
    /// [`POSTING_BLOCK_LEN`].
    ///
    /// # Panics
    /// As [`Self::over_postings`], and when `block_len` is 0.
    pub fn over_postings_with_block_len<S: Scores + ?Sized>(
        scores: &S,
        offsets: &[usize],
        postings: &[u32],
        block_len: usize,
        head_len: usize,
        cuts: &HeadCuts,
    ) -> Self {
        assert!(block_len > 0, "a block holds at least one id");
        assert!(!offsets.is_empty(), "posting offsets start at 0");
        let lists = offsets.windows(2).map(|w| &postings[w[0]..w[1]]);
        let n_blocks: usize = lists.clone().map(|l| l.len().div_ceil(block_len)).sum();
        let mut starts = Vec::with_capacity(offsets.len());
        let mut maxima = Vec::with_capacity(n_blocks.next_multiple_of(STORAGE_STEP));
        for list in lists {
            starts.push(maxima.len());
            maxima.extend(
                list.chunks(block_len)
                    .map(|block| max_number(block.iter().map(|&id| scores.at(id as usize)))),
            );
        }
        starts.push(maxima.len());
        let cuts = cuts.clone();
        Self::with_heads(block_len, scores.len(), starts, maxima, head_len, cuts)
    }

    /// Heap bytes held now: the maxima, the list starts, the head cells
    /// once the first head read has laid them out, and each head once it
    /// is built — so the figure grows as pages read heads. The cuts are
    /// shared with every summary over the same lists, and not counted.
    pub fn bytes(&self) -> usize {
        let cells = self.heads.get().map_or(0, |cells| cells.len());
        self.maxima.capacity() * std::mem::size_of::<f64>()
            + self.lists.capacity() * std::mem::size_of::<usize>()
            + cells * std::mem::size_of::<HeadCell>()
            + self.built.get().1 * std::mem::size_of::<u32>()
    }

    /// Cells the heads take once laid out: one per cut, in [`CELL_STEP`]s.
    fn cells_len(&self) -> usize {
        self.cuts.len().next_multiple_of(CELL_STEP)
    }

    /// The head of an id-space summary's largest cut at or below id
    /// `start` — the first ids, in [`cmp_score_desc`] order, of the suffix
    /// from that cut on; all of them when it has at most the head's length
    /// — built now if no page has read it yet. Empty without heads.
    ///
    /// # Panics
    /// When `scores` is not as long as the vector summarized; they must
    /// be the scores it was built from.
    pub fn head<S: Scores + ?Sized>(&self, scores: &S, start: u32) -> &[u32] {
        self.check_len(scores);
        let n = self.len as u32;
        self.head_from(scores, Segment::range(start.min(n)..n))
            .map_or(&[], |((_, head), _)| head)
    }

    /// How many heads have been built so far (a count kept where each is
    /// built, not a scan of the cells).
    pub fn heads_built(&self) -> usize {
        self.built.get().0
    }

    fn check_len<S: Scores + ?Sized>(&self, scores: &S) {
        assert_eq!(
            self.len,
            scores.len(),
            "summary covers {} scores but there are {}",
            self.len,
            scores.len()
        );
    }

    /// The cut of its list a resolved segment is served from, with its
    /// head, built by one walk of the suffix on first use — and whether
    /// this call built it; `None` when the list has no head at or below
    /// the segment's start.
    fn head_from<S: Scores + ?Sized>(
        &self,
        scores: &S,
        seg: Segment<'_>,
    ) -> Option<((usize, &[u32]), bool)> {
        let key = head_key(seg.list, seg.start);
        let at = self
            .cuts
            .0
            .partition_point(|&cut| cut <= key)
            .checked_sub(1)?;
        let cut = self.cuts.0[at];
        if cut >> 32 != key >> 32 {
            return None;
        }
        let cut = cut as u32 as usize;
        let cells = self
            .heads
            .get_or_init(|| (0..self.cells_len()).map(|_| OnceLock::new()).collect());
        let mut built = false;
        let head = cells[at].get_or_init(|| {
            let list_len = seg.postings.map_or(self.len, <[u32]>::len);
            let list = |at: usize| at..list_len.min(at + self.block_len);
            let block_max = |at| max_number(list(at).map(|p| scores.at(seg.id_at(p) as usize)));
            debug_assert!(
                (0..list_len)
                    .step_by(self.block_len)
                    .map(block_max)
                    .eq(self.maxima[self.lists[seg.list]..self.lists[seg.list + 1]]
                        .iter()
                        .copied()),
                "a head is built from the scores its summary was built from"
            );
            built = true;
            let mut head = Vec::new();
            let suffix = [Segment {
                start: cut,
                end: list_len,
                ..seg
            }];
            walk_blocks(scores, self, suffix, self.head_len, None, None, &mut head);
            self.built.add(head.len());
            head.into_boxed_slice()
        });
        Some(((cut, head), built))
    }

    /// `segment` clamped to its list, with its list's first block.
    ///
    /// # Panics
    /// When the summary holds no such list, or holds it at another
    /// length: the segment's ids are not the ones summarized.
    fn resolve<'a>(&self, segment: Segment<'a>) -> (Segment<'a>, usize) {
        let Segment {
            list,
            postings,
            start,
            end,
        } = segment;
        let list_len = postings.map_or(self.len, <[u32]>::len);
        let blocks = self.lists.get(list..=list + 1);
        assert!(
            blocks.is_some_and(|b| b[1] - b[0] == list_len.div_ceil(self.block_len)),
            "summary does not cover list {list} of {list_len} ids"
        );
        let end = end.min(list_len);
        let segment = Segment {
            list,
            postings,
            start: start.min(end),
            end,
        };
        (segment, self.lists[list])
    }

    /// Rule 0 of [`top_k_pruned_into`]: the page as slices of the heads of
    /// `segments` — one id range, or bands of posting lists — or `None`
    /// when a head cannot decide it. Each non-empty segment is sliced from
    /// the head of its list's largest cut at or below its start; the bands
    /// are disjoint, so the best `k` of their slices are the page, and
    /// `matched` is summed over them. Adds the heads it built to `built`.
    fn head_slices<'a, S: Scores + ?Sized>(
        &self,
        scores: &S,
        segments: impl Iterator<Item = Segment<'a>> + Clone,
        k: usize,
        frontier: Option<&Frontier>,
        built: &mut usize,
        out: &mut Vec<u32>,
    ) -> Option<BlockWalk> {
        // Two id ranges are walked: a range is one segment.
        let mut each = segments.clone();
        let one = each.next().is_some() && each.next().is_none();
        if !one && segments.clone().any(|s| s.postings.is_none()) {
            return None;
        }
        out.clear();
        let mut walk = BlockWalk::default();
        for seg in segments {
            let (seg, _) = self.resolve(seg);
            if seg.start == seg.end {
                continue;
            }
            let (head, fresh) = self.head_from(scores, seg)?;
            *built += fresh as usize;
            let page = out.len();
            let band = self.head_slice(scores, head, seg, k, frontier, out)?;
            merge_front(scores, out, page, k);
            walk.matched += band.matched;
            walk.blocks_in_range += band.blocks_in_range;
            walk.head_slices = 1;
        }
        Some(walk)
    }

    /// One segment of rule 0: appends to `out` the first `k` ids in the
    /// segment and after `frontier` of `head`, the head of the suffix of
    /// its list from `cut` (at or below the segment's start), or returns
    /// `None` when the head cannot decide them. It decides when it is the
    /// whole suffix, or when it holds `k` such ids and every suffix id
    /// past it sorts after the frontier — there is none, or the head's last
    /// score clears it (later scores are no higher, or NaN). Then the ids
    /// behind the frontier are all in the head, and `matched` is the
    /// segment less those.
    fn head_slice<S: Scores + ?Sized>(
        &self,
        scores: &S,
        (cut, head): (usize, &[u32]),
        seg: Segment<'_>,
        k: usize,
        frontier: Option<&Frontier>,
        out: &mut Vec<u32>,
    ) -> Option<BlockWalk> {
        let &last = head.last()?;
        let whole = head.len() == seg.postings.map_or(self.len, <[u32]>::len) - cut;
        if !whole && frontier.is_some_and(|f| !f.clears(scores.at(last as usize))) {
            return None;
        }
        let ids = seg.ids();
        let (mut taken, mut behind) = (0, 0);
        // Only a frontier reads a score: without one, the slice is the
        // head's order itself.
        let score = |id: u32| scores.at(id as usize);
        for &id in head.iter().filter(|id| ids.contains(id)) {
            if frontier.is_some_and(|f| !f.admits(score(id), id)) {
                behind += 1;
            } else if taken < k {
                out.push(id);
                taken += 1;
            } else if frontier.is_none_or(|f| f.clears(score(id))) {
                // The page is full, and no id from here on is behind.
                break;
            }
        }
        (whole || taken == k).then(|| BlockWalk {
            matched: seg.end - seg.start - behind,
            blocks_in_range: seg.blocks(self.block_len).len(),
            ..BlockWalk::default()
        })
    }
}

/// Leaves in `out` the best `k` of its two runs `..mid` and `mid..`, each
/// in [`cmp_score_desc`] order and of distinct ids, in that order: one
/// pass over their fronts, the result written behind them, then moved to
/// the front.
fn merge_front<S: Scores + ?Sized>(scores: &S, out: &mut Vec<u32>, mid: usize, k: usize) {
    let end = out.len();
    if mid == 0 || mid == end {
        return;
    }
    let (mut a, mut b) = (0, mid);
    for _ in 0..k.min(end) {
        let first = b == end
            || a < mid && desc_by_score(scores)(&out[a], &out[b]) == std::cmp::Ordering::Less;
        let at = if first { &mut a } else { &mut b };
        out.push(out[*at]);
        *at += 1;
    }
    out.drain(..end);
}

/// One span of ids a block walk ([`top_k_pruned_into`]) reads: positions
/// `start..end` of one list of a [`BlockMaxima`] summary. Segments of one
/// walk must name disjoint ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment<'a> {
    list: usize,
    /// The list's ids; `None` for the id space, where position `i` is
    /// id `i`.
    postings: Option<&'a [u32]>,
    start: usize,
    end: usize,
}

impl<'a> Segment<'a> {
    /// The ids `ids` of a vector summarized by [`BlockMaxima::new`]
    /// (clamped to the vector).
    pub fn range(ids: std::ops::Range<u32>) -> Self {
        Self {
            list: 0,
            postings: None,
            start: ids.start as usize,
            end: ids.end as usize,
        }
    }

    /// The blocks, at `block_len` per block, its positions overlap.
    fn blocks(&self, block_len: usize) -> std::ops::Range<usize> {
        match self.start < self.end {
            true => self.start / block_len..self.end.div_ceil(block_len),
            false => 0..0,
        }
    }

    /// The id at position `at` of its list.
    fn id_at(&self, at: usize) -> u32 {
        self.postings.map_or(at as u32, |list| list[at])
    }

    /// The ids from its first to its last, as a range: of the ids of its
    /// list (ascending), exactly its own. Empty for an empty segment.
    fn ids(&self) -> std::ops::Range<u32> {
        match self.start < self.end {
            true => self.id_at(self.start)..self.id_at(self.end - 1) + 1,
            false => 0..0,
        }
    }

    /// Positions `positions` (clamped to the list) of posting list `list`
    /// of a summary built by [`BlockMaxima::over_postings`], whose ids are
    /// `postings` — the whole list, not the band.
    pub fn band(list: usize, postings: &'a [u32], positions: std::ops::Range<usize>) -> Self {
        Self {
            list,
            postings: Some(postings),
            start: positions.start,
            end: positions.end,
        }
    }
}

/// A pagination frontier as one partition of the id space sees it: the
/// `(score, id)` of the last item served, on the scale and in the id space
/// pages are merged under, plus what maps a partition-local `(score, id)`
/// onto them — `(score · scale, base + id)`. A flat vector is `scale` 1.0
/// (bit-exact) and `base` 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frontier {
    /// Score of the last item served.
    pub score: f64,
    /// Id of the last item served.
    pub id: u32,
    /// Multiplier from partition-local scores to frontier scores; positive.
    pub scale: f64,
    /// Frontier-space id of the partition's local id 0.
    pub base: u32,
}

impl Frontier {
    /// Whether the local item `(score, id)` sorts strictly after the
    /// frontier under [`cmp_score_desc`] — is still to be served.
    #[inline]
    pub fn admits(&self, score: f64, id: u32) -> bool {
        cmp_score_desc(score * self.scale, self.base + id, self.score, self.id)
            == std::cmp::Ordering::Greater
    }

    /// Whether *every* item of a block with this maximum sorts after the
    /// frontier: rounding is monotone, so `x ≤ max` gives
    /// `x · scale ≤ max · scale < score`, and a NaN sorts after every
    /// number. False for a NaN frontier (only ids decide there).
    #[inline]
    fn clears(&self, block_max: f64) -> bool {
        block_max * self.scale < self.score
    }
}

/// What one [`top_k_pruned_into`] walk counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockWalk {
    /// Ids of the segments at and after the frontier (all of them when
    /// there is none) that pass the residual — what later pages would
    /// still return, plus this page.
    pub matched: usize,
    /// Blocks whose ids were read.
    pub blocks_scanned: usize,
    /// Blocks overlapping the segments.
    pub blocks_in_range: usize,
    /// 1 when the page was served as slices of heads (rule 0), reading no
    /// block; 0 when it was walked. Summed by callers over partitions.
    pub head_slices: usize,
    /// Heads built by this call, each on its first use, whether the page
    /// was then sliced or walked.
    pub heads_built: usize,
}

/// Runs `$visit` on each block `$b` of a segment's `$blocks`: in id
/// order, or, given the maxima of its list (`$by_max`), best maximum
/// first. A macro and not a function taking a closure: through a closure
/// the id-order loop, the walk's hot path, read 8–27 % slower.
macro_rules! each_block {
    ($top:ident, $blocks:expr, $by_max:expr, |$b:ident| $visit:block) => {
        match $by_max {
            None => {
                for $b in $blocks $visit
            }
            Some(maxima) => {
                for at in 0..sort_best_first(&mut $top, $blocks, maxima) {
                    let $b = $top.scratch()[at] as usize;
                    $visit
                }
            }
        }
    };
}

/// The block walk: the best `k` ids of `segments` strictly after
/// `frontier` that pass `residual`, best first, into `out` (cleared
/// first, warm at `2k`), over a vector that has a [`BlockMaxima`] summary
/// of the lists the segments cut. *Identical* to full sort → segments →
/// residual → frontier → truncate (property-tested), reading only the
/// blocks that can matter:
///
/// 0. **one id range, or a union of bands, without a residual is a slice
///    of heads**: of the summary's head for the largest cut of each
///    segment's list at or below the segment's start (built now if no
///    page has read it yet), when every such head decides its segment.
///    A segment's slice is its head's first `k` ids in the segment and
///    after the frontier, its `matched` the segment less the head ids in
///    it behind the frontier. The head decides when it is the whole
///    suffix from its cut, or when it holds `k` such ids and the frontier
///    is absent or strictly above its last score (as a block's maximum
///    clears it), so no id past it is behind the frontier. Bands are
///    disjoint, so the page is the best `k` of their slices, `matched`
///    the sum, and no block is read. A page deeper than a head, and one
///    a head cannot decide, is walked as below;
/// 1. a block is **skipped** iff its maximum is strictly below the running
///    k-th score (an equal score may still win on id);
/// 2. the k-th score is **seeded before the walk** with the k-th largest
///    maximum among blocks wholly inside a segment and wholly after the
///    frontier — each witnesses one eligible item at least that good — so
///    about `k` blocks are read however the scores are ordered;
/// 3. `matched` is **counted wholesale**: a block wholly after the
///    frontier adds its length unread, so only the blocks straddling the
///    frontier (at most its rank, plus its tie run) are read for the count;
/// 4. when rule 2 cannot seed, a posting band's blocks are **visited best
///    maximum first** instead of in id order, so scores that climb with
///    id do not pass the running k-th one after another.
///
/// An id range is one [`Segment::range`] of an id-space summary; an OR of
/// posting lists is one [`Segment::band`] per list, all feeding one
/// selection. A `residual` predicate voids rules 2 and 3 — a block's
/// maximum need not pass it — so every id is tested for the count, and
/// only the blocks rule 1 keeps are offered. `out` also holds rule 4's
/// block order while the walk runs.
///
/// # Panics
/// When `maxima` summarizes a vector of a different length, or lists
/// other than the segments'.
pub fn top_k_pruned_into<'a, V, I>(
    scores: &V,
    maxima: &BlockMaxima,
    segments: I,
    k: usize,
    frontier: Option<&Frontier>,
    residual: Option<&mut dyn FnMut(u32) -> bool>,
    out: &mut Vec<u32>,
) -> BlockWalk
where
    V: Scores + ?Sized,
    I: IntoIterator<Item = Segment<'a>>,
    I::IntoIter: Clone,
{
    maxima.check_len(scores);
    let segments = segments.into_iter();
    // Rule 0. A page deeper than a head is walked, and builds no head.
    let mut built = 0;
    if maxima.head_len > 0 && k <= maxima.head_len && residual.is_none() {
        let sliced = maxima.head_slices(scores, segments.clone(), k, frontier, &mut built, out);
        if let Some(walk) = sliced {
            return BlockWalk {
                heads_built: built,
                ..walk
            };
        }
    }
    BlockWalk {
        heads_built: built,
        ..walk_blocks(scores, maxima, segments, k, frontier, residual, out)
    }
}

/// Rules 1–4 of [`top_k_pruned_into`]: its walk, which also builds the
/// heads rule 0 slices.
fn walk_blocks<'a, V, I>(
    scores: &V,
    maxima: &BlockMaxima,
    segments: I,
    k: usize,
    frontier: Option<&Frontier>,
    mut residual: Option<&mut dyn FnMut(u32) -> bool>,
    out: &mut Vec<u32>,
) -> BlockWalk
where
    V: Scores + ?Sized,
    I: IntoIterator<Item = Segment<'a>>,
    I::IntoIter: Clone,
{
    let segments = segments.into_iter();
    let segments = segments.map(|s| maxima.resolve(s));
    let len = maxima.block_len;
    // Rule 2. `out` serves the pre-pass too: only the k-th maximum leaves
    // it. With fewer than two blocks per wanted item the k-th maximum is
    // too low to skip much, and finding it is not free.
    let whole = |(s, first): (Segment, usize)| first + s.start.div_ceil(len)..first + s.end / len;
    let n_whole: usize = segments.clone().map(|s| whole(s).len()).sum();
    let mut seed = None;
    if k > 0 && residual.is_none() && n_whole / 2 >= k {
        // One offer per segment: a tight loop over each one's blocks.
        let mut blocks = TopK::new(&maxima.maxima, k, out);
        for segment in segments.clone() {
            let ids = whole(segment).map(|b| b as u32);
            match frontier {
                None => blocks.offer_all(ids),
                Some(f) => blocks.offer_all(ids.filter(|&b| f.clears(maxima.maxima[b as usize]))),
            }
        }
        // `-inf` is also an all-NaN block, which witnesses no number.
        seed = blocks
            .kth()
            .map(|b| maxima.maxima[b as usize])
            .filter(|&kth| kth > f64::NEG_INFINITY);
    }
    let keeps = k > 0;
    // Rule 4. Unseeded, the k-th score rises only with what is offered,
    // and scores that climb in walk order would be kept one after
    // another, re-selecting the buffer every `k` ids. A posting band's
    // blocks are then visited best maximum first, their order sorted in
    // scratch in front of the buffer: the first blocks fill the page and
    // rule 1 skips most of the rest. The sort is `O(b log b)` in a band's
    // `b` blocks, and unseeded there are fewer than `2k` whole blocks, or
    // every id is read for the count anyway. A band reads scattered
    // scores in any order; an id range keeps id order, which streams its
    // scores (out of order, `k` at the block count read 2.2× slower).
    let best_first = keeps && seed.is_none();
    let by_max = |s: &Segment| best_first && s.postings.is_some();
    let scratch = segments
        .clone()
        .filter(|(s, _)| by_max(s))
        .map(|(s, _)| s.blocks(len).len())
        .max();
    let mut top = TopK::after_scratch(scores, k, out, scratch.unwrap_or(0));
    if let Some(kth) = seed {
        // Every id ranks before `u32::MAX`: a score equal to the seed is kept.
        top.threshold = Some((kth, u32::MAX));
    }

    let mut walk = BlockWalk::default();
    for (seg, first) in segments {
        let blocks = seg.blocks(len);
        if blocks.is_empty() {
            continue;
        }
        walk.blocks_in_range += blocks.len();
        let span = |b: usize| (b * len).max(seg.start)..((b + 1) * len).min(seg.end);
        let list_maxima = &maxima.maxima[first..first + blocks.end];
        let max = |b: usize| list_maxima[b];
        let order = by_max(&seg).then_some(list_maxima);
        match (frontier, &mut residual) {
            // Rule 3 for the whole segment, then rule 1 block by block.
            (None, None) => {
                walk.matched += seg.end - seg.start;
                if keeps {
                    each_block!(top, blocks, order, |b| {
                        if !top.skips(max(b)) {
                            walk.blocks_scanned += 1;
                            top.offer_span(seg.postings, span(b));
                        }
                    });
                }
            }
            // Rules 3 and 1 where the frontier clears a block; where it
            // straddles one, every id is tested, for the count.
            (Some(&f), None) => {
                walk.matched += seg.end - seg.start;
                each_block!(top, blocks, order, |b| {
                    let offer = keeps && !top.skips(max(b));
                    if f.clears(max(b)) {
                        if offer {
                            walk.blocks_scanned += 1;
                            top.offer_span(seg.postings, span(b));
                        }
                    } else {
                        walk.blocks_scanned += 1;
                        let (at, after) = (span(b), |id: u32| f.admits(scores.at(id as usize), id));
                        let behind =
                            at.len() - offer_passing(&mut top, offer, seg.postings, at, after);
                        walk.matched -= behind;
                    }
                });
            }
            // Every id is tested, for the count; only the blocks rule 1
            // keeps are offered.
            (frontier, Some(residual)) => {
                each_block!(top, blocks, order, |b| {
                    walk.blocks_scanned += 1;
                    let offer = keeps && !top.skips(max(b));
                    let passes = |id: u32| {
                        frontier.is_none_or(|f| f.admits(scores.at(id as usize), id))
                            && residual(id)
                    };
                    walk.matched += offer_passing(&mut top, offer, seg.postings, span(b), passes);
                });
            }
        }
    }
    top.finish();
    walk
}

/// Sorts a segment's `blocks` into `top`'s scratch best maximum first
/// (`maxima` is its list's) and returns how many there are.
fn sort_best_first<S: Scores + ?Sized>(
    top: &mut TopK<'_, S>,
    blocks: std::ops::Range<usize>,
    maxima: &[f64],
) -> usize {
    let order = &mut top.scratch()[..blocks.len()];
    for (slot, b) in order.iter_mut().zip(blocks) {
        *slot = b as u32;
    }
    // Maxima are never NaN (`-inf` for a block without a number).
    order.sort_unstable_by(|&a, &b| maxima[b as usize].total_cmp(&maxima[a as usize]));
    order.len()
}

/// Counts the ids at positions `at` of a segment's list (`postings`,
/// or the id space when `None`) that pass `test`, and offers them to
/// `top` when `offer`. Returns the count.
#[inline]
fn offer_passing<S: Scores + ?Sized>(
    top: &mut TopK<'_, S>,
    offer: bool,
    postings: Option<&[u32]>,
    at: std::ops::Range<usize>,
    test: impl FnMut(u32) -> bool,
) -> usize {
    match postings {
        None => offer_passing_ids(top, offer, at.start as u32..at.end as u32, test),
        Some(list) => offer_passing_ids(top, offer, list[at].iter().copied(), test),
    }
}

/// [`offer_passing`] over one id source.
#[inline]
fn offer_passing_ids<S: Scores + ?Sized>(
    top: &mut TopK<'_, S>,
    offer: bool,
    ids: impl Iterator<Item = u32>,
    mut test: impl FnMut(u32) -> bool,
) -> usize {
    let mut passed = 0;
    let eligible = ids.filter(|&id| {
        let ok = test(id);
        passed += ok as usize;
        ok
    });
    if offer {
        top.offer_all(eligible);
    } else {
        eligible.for_each(drop);
    }
    passed
}

/// One run head inside [`merge_k_sorted`]'s heap. Ordered so that the
/// pair ranking *first* under [`cmp_score_desc`] is the heap maximum
/// (`BinaryHeap` pops the max); pairs identical across runs break by
/// lower run index, matching the stable concat-then-sort reference.
struct MergeHead {
    score: f64,
    id: u32,
    run: usize,
    pos: usize,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for MergeHead {}
impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        cmp_score_desc(self.score, self.id, other.score, other.id)
            .reverse()
            .then_with(|| other.run.cmp(&self.run))
    }
}

/// Merges `runs` — each already sorted by [`cmp_score_desc`] over
/// `(score, global id)` pairs — and returns the first `k` entries of
/// their combined total order.
///
/// A binary heap holds one head per non-empty run: `O(S)` to build and
/// `O(log S)` per emitted pair, so a merged page costs `O(S + k log S)`
/// in the run count `S` — the scatter-gather read path pays for the
/// page it returns, never for the shards' full candidate sets. The
/// result is *identical* to concatenating all runs and stably sorting
/// by `cmp_score_desc` (property-tested in `tests/proptests.rs`),
/// including NaN totality (NaN pairs rank after every number) and
/// score-ties interleaving by ascending id across runs. A pair
/// duplicated across runs ties by lower run index, matching the stable
/// reference.
///
/// Runs that are not themselves sorted produce an unspecified (but
/// non-panicking) order, exactly like a mis-sorted input to a binary
/// search.
pub fn merge_k_sorted(runs: &[&[(f64, u32)]], k: usize) -> Vec<(f64, u32)> {
    let mut out = Vec::new();
    let mut scratch = MergeScratch::new();
    merge_k_sorted_into(runs, k, &mut scratch, &mut out);
    out
}

/// Reusable heap storage for [`merge_k_sorted_into`].
///
/// The merge heap never grows past one head per non-empty run, so a
/// scratch warmed on the first merge is never reallocated by later
/// merges over the same (or fewer) runs.
#[derive(Default)]
pub struct MergeScratch {
    heads: Vec<MergeHead>,
}

impl MergeScratch {
    /// An empty scratch; the first merge sizes it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// [`merge_k_sorted`] writing into a caller-provided buffer, with the
/// merge heap's storage recycled through `scratch`. Runs are anything
/// that derefs to a pair slice, so a caller holding `Vec` run buffers
/// passes them as they are instead of collecting borrowed slices first.
///
/// `out` is cleared first; once `out` holds capacity `k` and `scratch`
/// holds one head per run, the merge performs zero heap allocations.
/// The contents written are identical to [`merge_k_sorted`].
pub fn merge_k_sorted_into<R: AsRef<[(f64, u32)]>>(
    runs: &[R],
    k: usize,
    scratch: &mut MergeScratch,
    out: &mut Vec<(f64, u32)>,
) {
    out.clear();
    let total: usize = runs.iter().map(|r| r.as_ref().len()).sum();
    let k = k.min(total);
    if k == 0 {
        return;
    }
    // One run is its own merge: a copy of its prefix, no heap.
    if let [run] = runs {
        out.extend_from_slice(&run.as_ref()[..k]);
        return;
    }
    let mut heads = std::mem::take(&mut scratch.heads);
    heads.clear();
    heads.extend(runs.iter().enumerate().filter_map(|(run, r)| {
        r.as_ref().first().map(|&(score, id)| MergeHead {
            score,
            id,
            run,
            pos: 0,
        })
    }));
    // Heapify in place: reuses the scratch Vec's allocation, and pops
    // always precede pushes so the heap never outgrows its initial size.
    let mut heap = std::collections::BinaryHeap::from(heads);
    out.reserve(k);
    while let Some(head) = heap.pop() {
        out.push((head.score, head.id));
        if out.len() == k {
            break;
        }
        let next = head.pos + 1;
        if let Some(&(score, id)) = runs[head.run].as_ref().get(next) {
            heap.push(MergeHead {
                score,
                id,
                run: head.run,
                pos: next,
            });
        }
    }
    scratch.heads = heap.into_vec();
}

/// Ordinal ranks: the highest score gets rank 1, and so on. Ties break by
/// index, so ranks are a permutation of `1..=n`.
pub fn ordinal_ranks(scores: &[f64]) -> Vec<f64> {
    let order = sort_indices_desc(scores);
    let mut ranks = vec![0.0; scores.len()];
    for (pos, &item) in order.iter().enumerate() {
        ranks[item as usize] = (pos + 1) as f64;
    }
    ranks
}

/// Fractional (tie-averaged) ranks: items with equal scores all receive the
/// mean of the ordinal ranks they would occupy. Rank 1 is the highest score.
///
/// Equality is exact `f64` equality: ranking methods in this workspace
/// produce identical scores only through genuinely identical computations
/// (e.g. zero citation counts), which is precisely the tie semantics
/// Spearman's ρ needs.
pub fn average_ranks(scores: &[f64]) -> Vec<f64> {
    let order = sort_indices_desc(scores);
    let n = scores.len();
    let mut ranks = vec![0.0; n];
    let mut pos = 0;
    while pos < n {
        let mut end = pos + 1;
        let value = scores[order[pos] as usize];
        while end < n && scores[order[end] as usize] == value {
            end += 1;
        }
        // Ordinal positions pos+1 ..= end share the average rank.
        let avg = (pos + 1 + end) as f64 / 2.0;
        for &item in &order[pos..end] {
            ranks[item as usize] = avg;
        }
        pos = end;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_indices_descending_with_ties() {
        let s = [0.1, 0.9, 0.5, 0.9];
        assert_eq!(sort_indices_desc(&s), vec![1, 3, 2, 0]);
    }

    #[test]
    fn sort_indices_empty() {
        assert!(sort_indices_desc(&[]).is_empty());
    }

    #[test]
    fn top_k_matches_full_sort_prefix() {
        let s = [0.1, 0.9, 0.5, 0.9, 0.0, 0.5];
        let full = sort_indices_desc(&s);
        for k in 0..=s.len() + 2 {
            assert_eq!(
                top_k_indices(&s, k),
                full[..k.min(s.len())].to_vec(),
                "k = {k}"
            );
        }
    }

    #[test]
    fn top_k_empty_and_zero() {
        assert!(top_k_indices(&[], 3).is_empty());
        assert!(top_k_indices(&[1.0, 2.0], 0).is_empty());
    }

    #[test]
    fn top_k_all_tied_breaks_by_index() {
        let s = [7.0; 5];
        assert_eq!(top_k_indices(&s, 3), vec![0, 1, 2]);
    }

    #[test]
    fn nan_scores_sort_last_without_panicking() {
        // A non-convergent solve yields NaN scores; the ranking helpers
        // must stay total-ordered (std sort panics on non-total
        // comparators) and keep NaN entries at the bottom.
        let s = [0.5, f64::NAN, 2.0, f64::NAN, -1.0, f64::INFINITY];
        let full = sort_indices_desc(&s);
        assert_eq!(full, vec![5, 2, 0, 4, 1, 3]);
        for k in 0..=s.len() {
            assert_eq!(top_k_indices(&s, k), full[..k], "k = {k}");
        }
        assert_eq!(
            top_k_indices(&s, 2),
            vec![5, 2],
            "NaN never reaches the top"
        );
    }

    #[test]
    fn top_k_all_nan_ranks_by_index() {
        // A fully non-convergent solve: every score NaN. The order must
        // stay total (no panic) and deterministic — ascending index.
        let s = [f64::NAN; 4];
        assert_eq!(sort_indices_desc(&s), vec![0, 1, 2, 3]);
        for k in 0..=5 {
            assert_eq!(
                top_k_indices(&s, k),
                (0..k.min(4) as u32).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn top_k_k_at_least_n_is_full_sort() {
        let s = [0.3, 0.9, 0.1];
        for k in [3, 4, 1000] {
            assert_eq!(top_k_indices(&s, k), sort_indices_desc(&s), "k = {k}");
        }
    }

    /// The naive reference the filtered kernels are pinned against: full
    /// descending sort, keep candidates, truncate to k.
    fn sort_filter_truncate(scores: &[f64], keep: impl Fn(u32) -> bool, k: usize) -> Vec<u32> {
        let mut full: Vec<u32> = sort_indices_desc(scores)
            .into_iter()
            .filter(|&i| keep(i))
            .collect();
        full.truncate(k);
        full
    }

    #[test]
    fn top_k_filtered_matches_sort_filter_truncate() {
        let s = [0.1, 0.9, 0.5, 0.9, 0.0, 0.5, f64::NAN, 0.9];
        let candidates = [1u32, 3, 4, 6, 7];
        for k in 0..=candidates.len() + 2 {
            assert_eq!(
                top_k_filtered(&s, &candidates, k),
                sort_filter_truncate(&s, |i| candidates.contains(&i), k),
                "k = {k}"
            );
        }
        // Empty candidate list and empty scores.
        assert!(top_k_filtered(&s, &[], 3).is_empty());
        assert!(top_k_filtered(&[], &[], 3).is_empty());
    }

    #[test]
    fn top_k_filtered_ties_break_by_ascending_id() {
        let s = [7.0; 6];
        // Candidate order must not matter: ties resolve by id.
        assert_eq!(top_k_filtered(&s, &[5, 1, 3], 2), vec![1, 3]);
        assert_eq!(top_k_filtered(&s, &[3, 1, 5], 2), vec![1, 3]);
    }

    #[test]
    fn top_k_where_matches_sort_filter_truncate() {
        let s: Vec<f64> = (0..300)
            .map(|i| ((i * 7919) % 63) as f64) // heavy ties
            .collect();
        let pred = |i: u32| i.is_multiple_of(3);
        for k in [0, 1, 9, 100, 300, 500] {
            assert_eq!(
                top_k_where(&s, 0..300, k, pred),
                sort_filter_truncate(&s, pred, k),
                "k = {k}"
            );
        }
        // Sub-range scan: only ids within the range are considered.
        assert_eq!(
            top_k_where(&s, 100..200, 5, |_| true),
            sort_filter_truncate(&s, |i| (100..200).contains(&i), 5)
        );
        // Out-of-bounds ranges clamp instead of panicking.
        assert_eq!(
            top_k_where(&s, 250..1000, 4, |_| true),
            sort_filter_truncate(&s, |i| i >= 250, 4)
        );
        assert!(top_k_where(&s, 400..500, 4, |_| true).is_empty());
        assert!(top_k_where(&s, 0..300, 3, |_| false).is_empty());
    }

    #[test]
    fn top_k_where_all_nan_and_mixed() {
        let s = [f64::NAN, 1.0, f64::NAN, 2.0];
        assert_eq!(top_k_where(&s, 0..4, 10, |_| true), vec![3, 1, 0, 2]);
        let nan_only = [f64::NAN; 5];
        assert_eq!(top_k_where(&nan_only, 0..5, 3, |_| true), vec![0, 1, 2]);
    }

    #[test]
    fn top_k_masked_matches_sort_filter_truncate() {
        let s: Vec<f64> = (0..200).map(|i| ((i * 31) % 17) as f64).collect();
        let mask = IdMask::from_ids(200, (0..200u32).filter(|i| i % 7 == 0));
        for k in [0, 1, 10, 29, 60] {
            assert_eq!(
                top_k_masked(&s, &mask, k),
                sort_filter_truncate(&s, |i| mask.contains(i), k),
                "k = {k}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "mask covers")]
    fn top_k_masked_length_mismatch_panics() {
        top_k_masked(&[1.0, 2.0], &IdMask::new(3), 1);
    }

    #[test]
    fn block_maxima_ignore_nan_and_mark_numberless_blocks() {
        let s = [
            1.0,
            f64::NAN,
            3.0,
            f64::NAN,
            f64::NAN,
            f64::NEG_INFINITY,
            7.0,
        ];
        let m = BlockMaxima::with_block_len(&s, 2, 0, &[]);
        assert_eq!(m.len, 7);
        assert_eq!(m.maxima, vec![1.0, 3.0, f64::NEG_INFINITY, 7.0]);
        assert_eq!(m.bytes(), STORAGE_STEP * 8 + 16, "storage grows in steps");
        let empty = BlockMaxima::new(&[]);
        assert!(empty.maxima.is_empty());
        let mut out = vec![9];
        let all = 0..0;
        let walk = top_k_pruned_into(&[], &empty, [Segment::range(all)], 3, None, None, &mut out);
        assert_eq!((walk, out.len()), (BlockWalk::default(), 0));
    }

    #[test]
    fn pruned_walk_reads_about_k_blocks_whatever_the_order() {
        // Strictly ascending in id: the plain stream's worst case (every
        // id beats the running k-th). The seeded threshold makes it the
        // walk's best: only the last blocks can hold the page.
        let s: Vec<f64> = (0..6400).map(f64::from).collect();
        let m = BlockMaxima::with_block_len(&s, BLOCK_LEN, 0, &[]);
        let mut out = Vec::new();
        let walk = top_k_pruned_into(&s, &m, [Segment::range(0..6400)], 10, None, None, &mut out);
        assert_eq!(out, (6390..6400).rev().collect::<Vec<u32>>());
        assert_eq!((walk.matched, walk.blocks_in_range), (6400, 100));
        assert_eq!(walk.blocks_scanned, 10);
        // Behind a cursor, the blocks wholly after it are counted unread;
        // the one holding it is read id by id.
        let frontier = Frontier {
            score: 6390.0,
            id: 6390,
            scale: 1.0,
            base: 0,
        };
        let all = [Segment::range(0..6400)];
        let walk = top_k_pruned_into(&s, &m, all, 10, Some(&frontier), None, &mut out);
        assert_eq!(out, (6380..6390).rev().collect::<Vec<u32>>());
        assert_eq!((walk.matched, walk.blocks_scanned), (6390, 11));
        // A count: nothing kept, the same blocks read for the frontier.
        let walk = top_k_pruned_into(&s, &m, all, 0, Some(&frontier), None, &mut out);
        assert_eq!((walk.matched, walk.blocks_scanned, out.len()), (6390, 1, 0));
    }

    #[test]
    fn a_shallow_id_range_page_is_a_slice_of_the_head() {
        // Scores in tie runs of three, ascending in id: the head is the
        // last ids, each tie run by smaller id first.
        let s: Vec<f64> = (0..6400).map(|i| f64::from(i / 3)).collect();
        let m = BlockMaxima::new(&s);
        let want = sort_indices_desc(&s);
        assert_eq!(m.head(&s, 0), &want[..HEAD_LEN]);
        let mut out = Vec::new();
        let all = [Segment::range(0..6400)];
        let walk = top_k_pruned_into(&s, &m, all, 10, None, None, &mut out);
        assert_eq!(out, want[..10]);
        assert_eq!(
            (walk.matched, walk.blocks_scanned, walk.blocks_in_range),
            (6400, 0, 100)
        );
        // Page 2 behind a cursor inside a tie run: every id behind it is
        // in the head, which still holds the page.
        let &last = out.last().unwrap();
        let frontier = Frontier {
            score: s[last as usize],
            id: last,
            scale: 1.0,
            base: 0,
        };
        let walk = top_k_pruned_into(&s, &m, all, 10, Some(&frontier), None, &mut out);
        assert_eq!(out, want[10..20]);
        assert_eq!((walk.matched, walk.blocks_scanned), (6390, 0));
        // A year window cut mid-block: the head's in-range ids.
        let late = [Segment::range(6300..6390)];
        let walk = top_k_pruned_into(&s, &m, late, 5, None, None, &mut out);
        let in_range = |ids: std::ops::Range<u32>, k: usize| -> Vec<u32> {
            want.iter()
                .copied()
                .filter(|i| ids.contains(i))
                .take(k)
                .collect()
        };
        assert_eq!(out, in_range(6300..6390, 5));
        assert_eq!(
            (walk.matched, walk.blocks_scanned, walk.blocks_in_range),
            (90, 0, 2)
        );
        // A window the head holds too little of is walked.
        let early = [Segment::range(0..6000)];
        let walk = top_k_pruned_into(&s, &m, early, 5, None, None, &mut out);
        assert_eq!(out, in_range(0..6000, 5));
        assert!(walk.blocks_scanned > 0);
        // A frontier past the head's last score: walked.
        let deep = Frontier {
            score: 6000.0 / 3.0,
            id: 6000,
            scale: 1.0,
            base: 0,
        };
        let walk = top_k_pruned_into(&s, &m, all, 3, Some(&deep), None, &mut out);
        assert_eq!(out, [6001, 6002, 5997]);
        assert!(walk.blocks_scanned > 0);
    }

    #[test]
    fn a_head_slice_counts_what_a_scaled_frontier_reorders() {
        // Neighbouring floats that a scale of 0.75 rounds onto one value:
        // the head ranks ids 1 and 2 before id 0, the frontier's order
        // puts id 0 first. Behind a frontier on id 0, ids 1 and 2 are
        // admitted and id 0 is not, though it comes later in the head.
        let ulp = |u: u64| f64::from_bits(1.5f64.to_bits() + u);
        assert_eq!(ulp(2) * 0.75, ulp(3) * 0.75);
        let mut s = vec![ulp(2), ulp(3), ulp(3)];
        s.extend([1.0; 61]);
        let m = BlockMaxima::with_block_len(&s, 2, 4, &[]);
        assert_eq!(m.head(&s, 0), [1, 2, 0, 3]);
        let frontier = Frontier {
            score: ulp(2) * 0.75,
            id: 0,
            scale: 0.75,
            base: 0,
        };
        let mut out = Vec::new();
        let all = [Segment::range(0..64)];
        let walk = top_k_pruned_into(&s, &m, all, 1, Some(&frontier), None, &mut out);
        assert_eq!(out, [1]);
        assert_eq!((walk.matched, walk.blocks_scanned), (63, 0));
    }

    #[test]
    fn a_suffix_page_is_a_slice_of_its_cuts_head() {
        // Scores falling with id: the whole vector's head is the first
        // ids, and holds nothing of a late range. The cut at 6000 keeps a
        // head of its own, built by the first page that reads it.
        let s: Vec<f64> = (0..6400).map(|i| f64::from(6400 - i)).collect();
        let m = BlockMaxima::with_cuts(&s, &[6000, 7000, 3000]);
        assert_eq!(*m.cuts.0, [0, 3000, 6000]);
        assert_eq!(m.heads_built(), 0, "a summary builds no head");
        let mut out = Vec::new();
        for (range, cut) in [(6000..6400, 6000), (6100..6200, 6000), (3050..6400, 3000)] {
            let walk = top_k_pruned_into(
                &s,
                &m,
                [Segment::range(range.clone())],
                25,
                None,
                None,
                &mut out,
            );
            assert_eq!(out, range.clone().take(25).collect::<Vec<u32>>());
            assert_eq!((walk.matched, walk.blocks_scanned), (range.len(), 0));
            assert_eq!(
                m.head(&s, range.start),
                (cut..cut + HEAD_LEN as u32).collect::<Vec<_>>()
            );
        }
        assert_eq!(m.heads_built(), 2);
        // Page 2 of the late suffix, behind a cursor: still the head.
        let frontier = Frontier {
            score: s[6024],
            id: 6024,
            scale: 1.0,
            base: 0,
        };
        let late = [Segment::range(6000..6400)];
        let walk = top_k_pruned_into(&s, &m, late, 25, Some(&frontier), None, &mut out);
        assert_eq!(out, (6025..6050).collect::<Vec<u32>>());
        assert_eq!((walk.matched, walk.blocks_scanned), (375, 0));
        // Deeper than a head: walked, and the cut-0 head stays unbuilt.
        let walk = top_k_pruned_into(&s, &m, [Segment::range(0..6400)], 200, None, None, &mut out);
        assert_eq!(out, (0..200).collect::<Vec<u32>>());
        assert!(walk.blocks_scanned > 0);
        assert_eq!(m.heads_built(), 2);
    }

    #[test]
    fn a_venue_year_page_is_a_slice_of_its_cuts_head() {
        // Two venues, the even and the odd ids, with scores falling with
        // id: each list's whole head holds only early ids. Cut where ids
        // 3000 and 6000 start in each list, at positions 1500 and 3000.
        let s: Vec<f64> = (0..6400).map(|i| f64::from(6400 - i)).collect();
        let postings: Vec<u32> = (0..6400).step_by(2).chain((1..6400).step_by(2)).collect();
        let offsets = [0, 3200, 6400];
        let cuts = HeadCuts::new([(3200, [3000, 1500]), (3200, [1500, 3000])]);
        let m = BlockMaxima::over_postings(&s, &offsets, &postings, &cuts);
        let want = [(0, 0), (0, 1500), (0, 3000), (1, 0), (1, 1500), (1, 3000)];
        assert_eq!(*m.cuts.0, want.map(|(list, at)| head_key(list, at)));
        assert_eq!(m.heads_built(), 0, "a summary builds no head");
        let (even, odd) = (&postings[..3200], &postings[3200..]);
        let since = |list: &'static str, ids: std::ops::Range<u32>| {
            let l = if list == "even" { even } else { odd };
            let span =
                l.partition_point(|&id| id < ids.start)..l.partition_point(|&id| id < ids.end);
            Segment::band((list == "odd") as usize, l, span)
        };
        let mut out = Vec::new();
        // `venue=even,year=6000..`: a slice of the cut at 3000's head.
        let late = [since("even", 6000..6400)];
        let walk = top_k_pruned_into(&s, &m, late, 25, None, None, &mut out);
        assert_eq!(out, (6000..6050).step_by(2).collect::<Vec<u32>>());
        let sliced = (
            walk.matched,
            walk.blocks_scanned,
            walk.head_slices,
            walk.heads_built,
        );
        assert_eq!(sliced, (200, 0, 1, 1));
        assert_eq!(walk.blocks_in_range, 7);
        // `venue=even|odd,year=6000..`: two bands' slices, merged; the odd
        // venue's head is built now, the even one's is read again.
        let both = [since("even", 6000..6400), since("odd", 6000..6400)];
        let walk = top_k_pruned_into(&s, &m, both, 25, None, None, &mut out);
        assert_eq!(out, (6000..6025).collect::<Vec<u32>>());
        assert_eq!(
            (walk.matched, walk.blocks_scanned, walk.heads_built),
            (400, 0, 1)
        );
        // Page 2 behind a cursor: still the heads.
        let frontier = Frontier {
            score: s[6024],
            id: 6024,
            scale: 1.0,
            base: 0,
        };
        let walk = top_k_pruned_into(&s, &m, both, 25, Some(&frontier), None, &mut out);
        assert_eq!(out, (6025..6050).collect::<Vec<u32>>());
        assert_eq!(
            (walk.matched, walk.blocks_scanned, walk.head_slices),
            (375, 0, 1)
        );
        // A band that starts between cuts, and one that ends before its
        // list does: the heads of the cuts below them.
        for ids in [6100..6400, 6000..6100, 3001..3300] {
            let band = [since("odd", ids.clone())];
            let walk = top_k_pruned_into(&s, &m, band, 10, None, None, &mut out);
            let want: Vec<u32> = ids.clone().filter(|i| i % 2 == 1).collect();
            assert_eq!(out, want[..10], "{ids:?}");
            assert_eq!(
                (walk.matched, walk.blocks_scanned),
                (want.len(), 0),
                "{ids:?}"
            );
        }
        assert_eq!(m.heads_built(), 3);
        // Deeper than a head: walked, and nothing built.
        let walk = top_k_pruned_into(&s, &m, late, 200, None, None, &mut out);
        assert_eq!(out, (6000..6400).step_by(2).take(200).collect::<Vec<u32>>());
        assert!(walk.blocks_scanned > 0);
        assert_eq!((walk.head_slices, walk.heads_built), (0, 0));
        // A band the cut's head holds too little of: walked.
        let band = [since("even", 3000..6000)];
        let frontier = Frontier {
            score: s[5000],
            id: 5000,
            scale: 1.0,
            base: 0,
        };
        let walk = top_k_pruned_into(&s, &m, band, 10, Some(&frontier), None, &mut out);
        assert_eq!(out, (5002..5022).step_by(2).collect::<Vec<u32>>());
        assert!(walk.blocks_scanned > 0);
        assert_eq!(walk.head_slices, 0);
        assert_eq!(m.heads_built(), 4);
    }

    #[test]
    fn an_unseeded_band_is_walked_best_block_first() {
        // Twenty 32-posting blocks cannot seed k = 15 (two whole blocks a
        // wanted item), and the scores climb with id. In id order every
        // block would be read; best first, the last block fills the page
        // and every other one is skipped.
        let s: Vec<f64> = (0..640).map(f64::from).collect();
        let list: Vec<u32> = (0..640).collect();
        let m = BlockMaxima::over_postings_with_block_len(
            &s,
            &[0, 640],
            &list,
            32,
            0,
            &HeadCuts::default(),
        );
        let band = [Segment::band(0, &list, 0..640)];
        let mut out = Vec::new();
        let walk = top_k_pruned_into(&s, &m, band, 15, None, None, &mut out);
        assert_eq!(out, (625..640).rev().collect::<Vec<u32>>());
        assert_eq!(
            (walk.matched, walk.blocks_scanned, walk.blocks_in_range),
            (640, 1, 20)
        );
        // Page 2: the best block straddles the cursor and is read id by
        // id; the next one completes the page.
        let frontier = Frontier {
            score: 625.0,
            id: 625,
            scale: 1.0,
            base: 0,
        };
        let walk = top_k_pruned_into(&s, &m, band, 15, Some(&frontier), None, &mut out);
        assert_eq!(out, (610..625).rev().collect::<Vec<u32>>());
        assert_eq!((walk.matched, walk.blocks_scanned), (625, 2));
    }

    #[test]
    #[should_panic(expected = "summary covers")]
    fn pruned_walk_rejects_another_vectors_summary() {
        let m = BlockMaxima::new(&[1.0, 2.0, 3.0]);
        let all = [Segment::range(0..2)];
        top_k_pruned_into(&[1.0, 2.0], &m, all, 1, None, None, &mut Vec::new());
    }

    #[test]
    fn paginated_selection_never_overlaps_or_skips() {
        // The cursor contract: chunking the ranking into pages via the
        // "strictly after (score, id)" predicate reproduces the full
        // order exactly — no repeated and no skipped ids, even with
        // massive ties. This is the kernel-level invariant the query
        // layer's offset-free cursors rely on.
        let s: Vec<f64> = (0..157).map(|i| ((i * 13) % 5) as f64).collect();
        let full = sort_indices_desc(&s);
        let page = 10;
        let mut pages: Vec<u32> = Vec::new();
        let mut cursor: Option<(f64, u32)> = None;
        loop {
            let chunk = top_k_where(&s, 0..157, page, |id| match cursor {
                None => true,
                Some((cs, cid)) => {
                    cmp_score_desc(s[id as usize], id, cs, cid) == std::cmp::Ordering::Greater
                }
            });
            if chunk.is_empty() {
                break;
            }
            let &last = chunk.last().expect("non-empty");
            cursor = Some((s[last as usize], last));
            pages.extend(chunk);
        }
        assert_eq!(pages, full);
    }

    /// The naive reference [`merge_k_sorted`] is pinned against: stable
    /// concat + full sort by `cmp_score_desc`, truncated to k.
    fn concat_sort_truncate(runs: &[&[(f64, u32)]], k: usize) -> Vec<(f64, u32)> {
        let mut all: Vec<(f64, u32)> = runs.iter().flat_map(|r| r.iter().copied()).collect();
        all.sort_by(|a, b| cmp_score_desc(a.0, a.1, b.0, b.1));
        all.truncate(k);
        all
    }

    #[test]
    fn merge_k_sorted_matches_concat_sort() {
        let a = [(0.9, 0u32), (0.5, 2), (0.1, 4)];
        let b = [(0.8, 1u32), (0.5, 3), (0.2, 5)];
        let c = [(0.7, 6u32)];
        let runs: &[&[(f64, u32)]] = &[&a, &b, &c];
        for k in 0..=9 {
            assert_eq!(
                merge_k_sorted(runs, k),
                concat_sort_truncate(runs, k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn merge_k_sorted_k_zero_and_no_runs() {
        let a = [(1.0, 0u32)];
        assert!(merge_k_sorted(&[&a], 0).is_empty());
        assert!(merge_k_sorted(&[], 5).is_empty());
    }

    #[test]
    fn merge_k_sorted_skips_empty_runs() {
        let a = [(0.9, 0u32), (0.3, 2)];
        let empty: [(f64, u32); 0] = [];
        let b = [(0.6, 1u32)];
        let runs: &[&[(f64, u32)]] = &[&empty, &a, &empty, &b, &empty];
        assert_eq!(merge_k_sorted(runs, 10), vec![(0.9, 0), (0.6, 1), (0.3, 2)]);
        // All runs empty.
        let all_empty: &[&[(f64, u32)]] = &[&empty, &empty];
        assert!(merge_k_sorted(all_empty, 3).is_empty());
    }

    #[test]
    fn merge_k_sorted_all_ties_interleave_by_ascending_id() {
        // Score-equal entries spread across shards must come back in
        // ascending *global id* order — the exact tie semantics of
        // cmp_score_desc, not per-run order.
        let a = [(5.0, 0u32), (5.0, 3), (5.0, 6)];
        let b = [(5.0, 1u32), (5.0, 4), (5.0, 7)];
        let c = [(5.0, 2u32), (5.0, 5), (5.0, 8)];
        let runs: &[&[(f64, u32)]] = &[&a, &b, &c];
        let merged = merge_k_sorted(runs, 9);
        let ids: Vec<u32> = merged.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, (0..9).collect::<Vec<_>>());
        for k in 0..=9 {
            assert_eq!(
                merge_k_sorted(runs, k),
                concat_sort_truncate(runs, k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn merge_k_sorted_nan_runs_sort_last() {
        // A shard whose solve failed publishes NaN scores; its run sits
        // at the bottom of the merged order, never at the top.
        let good = [(0.4, 0u32), (0.1, 2)];
        let bad = [(f64::NAN, 1u32), (f64::NAN, 3)];
        let runs: &[&[(f64, u32)]] = &[&bad, &good];
        let merged = merge_k_sorted(runs, 10);
        let ids: Vec<u32> = merged.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![0, 2, 1, 3]);
        assert!(merged[2].0.is_nan() && merged[3].0.is_nan());
        assert_eq!(merge_k_sorted(runs, 1), vec![(0.4, 0)]);
        // Mixed NaN/number within a run stays pinned to the reference.
        let mixed = [(2.0, 5u32), (f64::NAN, 4)];
        let runs: &[&[(f64, u32)]] = &[&mixed, &good, &bad];
        for k in 0..=8 {
            let got = merge_k_sorted(runs, k);
            let want = concat_sort_truncate(runs, k);
            assert_eq!(got.len(), want.len(), "k = {k}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.1, w.1, "k = {k}");
                assert!(g.0 == w.0 || (g.0.is_nan() && w.0.is_nan()), "k = {k}");
            }
        }
    }

    #[test]
    fn merge_k_sorted_k_beyond_total_clamps() {
        let a = [(0.9, 0u32)];
        let b = [(0.8, 1u32)];
        assert_eq!(merge_k_sorted(&[&a, &b], 100), vec![(0.9, 0), (0.8, 1)]);
    }

    #[test]
    fn merge_k_sorted_duplicate_pairs_tie_by_run_index() {
        // The same (score, id) pair in two runs is returned twice, in
        // run order — matching the stable concat-then-sort reference.
        let a = [(1.0, 7u32)];
        let b = [(1.0, 7u32)];
        let runs: &[&[(f64, u32)]] = &[&a, &b];
        assert_eq!(merge_k_sorted(runs, 2), concat_sort_truncate(runs, 2));
    }

    #[test]
    fn into_variants_match_allocating_forms() {
        let s: Vec<f64> = (0..300).map(|i| ((i * 7919) % 63) as f64).collect();
        let candidates: Vec<u32> = (0..300u32).filter(|i| i % 5 == 0).collect();
        let mask = IdMask::from_ids(300, (0..300u32).filter(|i| i % 7 == 0));
        let mut out = Vec::new();
        for k in [0usize, 1, 9, 60, 300, 500] {
            top_k_indices_into(&s, k, &mut out);
            assert_eq!(out, top_k_indices(&s, k), "indices k = {k}");
            top_k_filtered_into(&s, &candidates, k, &mut out);
            assert_eq!(out, top_k_filtered(&s, &candidates, k), "filtered k = {k}");
            top_k_where_into(&s, 0..300, k, |i| i % 3 == 0, &mut out);
            assert_eq!(
                out,
                top_k_where(&s, 0..300, k, |i| i % 3 == 0),
                "where k = {k}"
            );
            top_k_masked_into(&s, &mask, k, &mut out);
            assert_eq!(out, top_k_masked(&s, &mask, k), "masked k = {k}");
        }
    }

    #[test]
    fn into_variants_clear_stale_contents() {
        // A warm buffer left over from a previous (larger) query must not
        // leak into the next result.
        let s = [0.1, 0.9, 0.5];
        let mut out = vec![42u32; 64];
        top_k_indices_into(&s, 2, &mut out);
        assert_eq!(out, vec![1, 2]);
        let mut out = vec![7u32; 64];
        top_k_where_into(&s, 0..3, 0, |_| true, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn into_variants_reuse_capacity() {
        // Steady state: the second identical call must not grow the
        // buffer — this is the allocation-free contract the query layer's
        // scratch relies on.
        let s: Vec<f64> = (0..500).map(|i| (i % 97) as f64).collect();
        let mut out = Vec::new();
        top_k_where_into(&s, 0..500, 10, |_| true, &mut out);
        let cap = out.capacity();
        for _ in 0..3 {
            top_k_where_into(&s, 0..500, 10, |_| true, &mut out);
            assert_eq!(out.capacity(), cap);
        }
        top_k_indices_into(&s, 25, &mut out);
        let cap = out.capacity();
        top_k_indices_into(&s, 25, &mut out);
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn merge_k_sorted_into_matches_and_reuses_scratch() {
        let a = [(0.9, 0u32), (0.5, 2), (0.1, 4)];
        let b = [(0.8, 1u32), (0.5, 3), (0.2, 5)];
        let c = [(0.7, 6u32)];
        let runs: &[&[(f64, u32)]] = &[&a, &b, &c];
        let mut scratch = MergeScratch::new();
        let mut out = Vec::new();
        for k in 0..=9 {
            merge_k_sorted_into(runs, k, &mut scratch, &mut out);
            assert_eq!(out, merge_k_sorted(runs, k), "k = {k}");
        }
        // Warm scratch: heap storage and output stay at their capacity.
        merge_k_sorted_into(runs, 7, &mut scratch, &mut out);
        let (head_cap, out_cap) = (scratch.heads.capacity(), out.capacity());
        merge_k_sorted_into(runs, 7, &mut scratch, &mut out);
        assert_eq!(scratch.heads.capacity(), head_cap);
        assert_eq!(out.capacity(), out_cap);
    }

    #[test]
    fn ordinal_ranks_are_permutation() {
        let s = [3.0, 1.0, 2.0];
        assert_eq!(ordinal_ranks(&s), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn ordinal_ranks_ties_by_index() {
        let s = [1.0, 1.0, 2.0];
        // Item 2 first, then items 0 and 1 in index order.
        assert_eq!(ordinal_ranks(&s), vec![2.0, 3.0, 1.0]);
    }

    #[test]
    fn average_ranks_no_ties_match_ordinal() {
        let s = [0.4, 0.1, 0.8, 0.6];
        assert_eq!(average_ranks(&s), ordinal_ranks(&s));
    }

    #[test]
    fn average_ranks_two_way_tie() {
        let s = [5.0, 5.0, 1.0];
        // Items 0,1 occupy ordinal ranks 1,2 → both get 1.5; item 2 gets 3.
        assert_eq!(average_ranks(&s), vec![1.5, 1.5, 3.0]);
    }

    #[test]
    fn average_ranks_all_tied() {
        let s = [2.0; 5];
        let expected = (1.0 + 5.0) / 2.0;
        assert!(average_ranks(&s).iter().all(|&r| r == expected));
    }

    #[test]
    fn average_ranks_mixed_groups() {
        let s = [0.0, 3.0, 0.0, 3.0, 7.0];
        // 7 → rank 1; the two 3s → (2+3)/2 = 2.5; the two 0s → (4+5)/2 = 4.5.
        assert_eq!(average_ranks(&s), vec![4.5, 2.5, 4.5, 2.5, 1.0]);
    }

    #[test]
    fn average_ranks_sum_invariant() {
        // Sum of fractional ranks always equals n(n+1)/2.
        let s = [0.3, 0.3, 0.3, 9.0, 2.0, 2.0];
        let n = s.len() as f64;
        let sum: f64 = average_ranks(&s).iter().sum();
        assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-12);
    }
}
