//! Compare mode's rank join, pinned away from the top of the order: on a
//! 2k-paper corpus, every row's ranks under both methods are checked
//! against a full `cmp_score_desc` sort of that engine's concatenated
//! `(score, start + local id)` pairs — for the flat engine and for 1–4
//! shards, on whole-corpus, venue, author, year-window and seeded pages
//! and on the page behind each one's cursor. `cc` is tie-heavy, so the
//! cross-shard tie-break by global id is exercised.

use citegen::{generate, DatasetProfile};
use citegraph::{CitationNetwork, GraphDelta, PaperId, ShardSpec};
use rankengine::{CompareRow, Cursor, Query, QueryEngine, RerankPolicy, ShardedEngine};
use sparsela::{cmp_score_desc, sort_indices_desc};

/// One serving stack with both methods.
enum Stack {
    Flat(Box<QueryEngine>),
    Sharded {
        cc: Box<ShardedEngine>,
        pagerank: Box<ShardedEngine>,
    },
}

impl Stack {
    fn flat(net: &CitationNetwork) -> Self {
        let qe =
            QueryEngine::from_configs(net.clone(), &["cc", "pagerank"], RerankPolicy::EveryBatch)
                .unwrap();
        Stack::Flat(Box::new(qe))
    }

    fn sharded(net: &CitationNetwork, n_shards: usize) -> Self {
        let plan = ShardSpec::Fixed(n_shards).plan(net).unwrap();
        let build = |m| ShardedEngine::from_plan(net, &plan, m, RerankPolicy::EveryBatch).unwrap();
        Stack::Sharded {
            cc: Box::new(build("cc")),
            pagerank: Box::new(build("pagerank")),
        }
    }

    fn name(&self) -> String {
        match self {
            Stack::Flat(_) => "flat".into(),
            Stack::Sharded { cc, .. } => format!("{} shards", cc.n_shards()),
        }
    }

    fn sharded_engine(&self, method: &str) -> &ShardedEngine {
        match (self, method) {
            (Stack::Sharded { cc, .. }, "cc") => cc,
            (Stack::Sharded { pagerank, .. }, "pagerank") => pagerank,
            _ => unreachable!("not a sharded stack method: {method}"),
        }
    }

    /// `method`'s global ranking as its concatenated `(score, start +
    /// local id)` pairs, unpersonalized.
    fn pairs(&self, method: &str) -> Vec<(f64, PaperId)> {
        let parts = match self {
            Stack::Flat(qe) => vec![(0, qe.snapshot(Some(method)).unwrap())],
            Stack::Sharded { .. } => {
                let snaps = self.sharded_engine(method).snapshots();
                (0..snaps.n_shards())
                    .map(|s| (snaps.start(s), snaps.snapshot(s).clone()))
                    .collect()
            }
        };
        parts
            .iter()
            .flat_map(|(start, snap)| {
                let scores = snap.scores().as_slice().to_vec();
                (0..scores.len()).map(move |l| (scores[l], start + l as PaperId))
            })
            .collect()
    }

    /// The compare page of `q` ranked by `primary` against `vs`: its rows
    /// and the cursor to the next page.
    fn compare(&self, primary: &str, vs: &str, q: &Query) -> (Vec<CompareRow>, Option<Cursor>) {
        let mut q = q.clone();
        q.method = Some(primary.into());
        q.vs = Some(vs.into());
        match self {
            Stack::Flat(qe) => {
                let cmp = qe.compare(&q).unwrap();
                (cmp.rows, cmp.page.next)
            }
            Stack::Sharded { .. } => {
                let (a, b) = (self.sharded_engine(primary), self.sharded_engine(vs));
                let cmp = a.compare(b, &q, None).unwrap();
                (cmp.rows, cmp.page.next)
            }
        }
    }

    /// Ingests `delta` into `method`'s engine only.
    fn ingest_into(&self, method: &str, delta: &GraphDelta) {
        match self {
            Stack::Flat(qe) => {
                qe.engine(Some(method)).unwrap().ingest(delta).unwrap();
            }
            Stack::Sharded { .. } => {
                self.sharded_engine(method).ingest(delta).unwrap();
            }
        }
    }
}

/// `(score, 1-based rank)` per global id: the full sort of the pairs.
fn reference(pairs: &[(f64, PaperId)]) -> Vec<(f64, usize)> {
    let mut sorted = pairs.to_vec();
    sorted.sort_by(|&(x, a), &(y, b)| cmp_score_desc(x, a, y, b));
    let mut by_id = vec![(f64::NAN, 0); pairs.len()];
    for (pos, &(score, id)) in sorted.iter().enumerate() {
        by_id[id as usize] = (score, pos + 1);
    }
    by_id
}

/// Checks every row of one compare page against both methods' full
/// sorts; returns the page's next cursor.
fn check_rows(stack: &Stack, primary: &str, vs: &str, q: &Query, what: &str) -> Option<Cursor> {
    let (rows, next) = stack.compare(primary, vs, q);
    assert!(!rows.is_empty(), "{}: {what} served no rows", stack.name());
    let ref_a = reference(&stack.pairs(primary));
    let ref_b = reference(&stack.pairs(vs));
    for row in &rows {
        let ctx = format!(
            "{} {primary} vs {vs}, {what}, paper {}",
            stack.name(),
            row.id
        );
        let (score_a, rank_a) = ref_a[row.id as usize];
        assert_eq!(row.rank_a, rank_a, "{ctx}: rank_a");
        if q.seeds.is_empty() {
            assert_eq!(row.score_a.to_bits(), score_a.to_bits(), "{ctx}: score_a");
        }
        let (score_b, rank_b) = ref_b[row.id as usize];
        assert_eq!(row.rank_b, Some(rank_b), "{ctx}: rank_b");
        assert_eq!(
            row.score_b.map(f64::to_bits),
            Some(score_b.to_bits()),
            "{ctx}: score_b"
        );
    }
    next
}

fn pages(net: &CitationNetwork) -> Vec<String> {
    let n = net.n_papers();
    let years = net.years();
    let (lo, hi) = (years[n / 4], years[3 * n / 4]);
    vec![
        format!("k={n}"),
        "k=25,venue=0|1".into(),
        "k=25,author=0|1|2".into(),
        format!("k=25,year={lo}..{hi}"),
        "k=25,seed=3|500|1700".into(),
    ]
}

#[test]
fn compare_ranks_match_a_full_sort_on_every_page() {
    let net = generate(&DatasetProfile::dblp().scaled(2_000), 7);
    let stacks = std::iter::once(Stack::flat(&net)).chain((1..=4).map(|s| Stack::sharded(&net, s)));
    for stack in stacks {
        let mut second_pages = 0;
        for (primary, vs) in [("cc", "pagerank"), ("pagerank", "cc")] {
            for grammar in pages(&net) {
                let q: Query = grammar.parse().unwrap();
                // cc has no damping factor: only pagerank serves seed=.
                if !q.seeds.is_empty() && primary == "cc" {
                    continue;
                }
                let Some(next) = check_rows(&stack, primary, vs, &q, &grammar) else {
                    continue;
                };
                let mut page2 = q.clone();
                page2.cursor = Some(next);
                check_rows(&stack, primary, vs, &page2, &format!("{grammar}, page 2"));
                second_pages += 1;
            }
        }
        assert!(
            second_pages >= 4,
            "{}: only {second_pages} second pages",
            stack.name()
        );

        // The whole-corpus page is the primary order itself.
        let q: Query = format!("k={}", net.n_papers()).parse().unwrap();
        let (rows, _) = stack.compare("cc", "pagerank", &q);
        let ranks: Vec<usize> = rows.iter().map(|r| r.rank_a).collect();
        assert_eq!(
            ranks,
            (1..=net.n_papers()).collect::<Vec<_>>(),
            "{}",
            stack.name()
        );

        // A paper only the primary has ingested joins as (None, None).
        let n = net.n_papers() as PaperId;
        let mut delta = GraphDelta::new();
        delta.add_paper(net.current_year().unwrap() + 1);
        delta.add_citation(n, n - 1);
        stack.ingest_into("cc", &delta);
        let q: Query = format!("k={}", n + 1).parse().unwrap();
        let (rows, _) = stack.compare("cc", "pagerank", &q);
        assert_eq!(rows.len(), n as usize + 1, "{}", stack.name());
        let ref_a = reference(&stack.pairs("cc"));
        for row in &rows {
            assert_eq!(
                row.rank_a,
                ref_a[row.id as usize].1,
                "{}: paper {}",
                stack.name(),
                row.id
            );
        }
        let tail = rows.iter().find(|r| r.id == n).unwrap();
        assert_eq!(
            (tail.score_b, tail.rank_b),
            (None, None),
            "{}",
            stack.name()
        );
    }
}

#[test]
fn rank_of_is_one_plus_the_sorted_position() {
    let net = generate(&DatasetProfile::dblp().scaled(2_000), 7);
    let qe = QueryEngine::from_configs(net, &["cc", "pagerank"], RerankPolicy::EveryBatch).unwrap();
    for method in ["cc", "pagerank"] {
        let snap = qe.snapshot(Some(method)).unwrap();
        for (pos, &p) in sort_indices_desc(snap.scores().as_slice())
            .iter()
            .enumerate()
        {
            assert_eq!(snap.rank_of(p), Some(pos + 1), "{method}: paper {p}");
        }
        assert_eq!(snap.rank_of(snap.n_papers() as PaperId), None, "{method}");
    }
}
