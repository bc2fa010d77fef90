//! Failure injection: the inputs that break naive implementations.
//!
//! Citation networks are *almost* DAGs — same-year mutual citations create
//! cycles, real dumps contain malformed rows, and method grids contain
//! divergent parameterizations. The library must degrade loudly (error
//! values, `converged = false`, skipped settings), never silently corrupt
//! a ranking.

use attrank_repro::prelude::*;
use citegraph::NetworkBuilder;
use proptest::prelude::*;
use rankengine::{Cursor, Query};
use rankeval::tuning::{tune, Candidate};
use sparsela::ScoreVec;

/// A same-year clique: every paper cites every other. Legal input (the
/// builder allows same-year citations) but a worst case for chain-based
/// methods: the spectral radius of the adjacency is `m − 1`.
fn same_year_clique(m: usize) -> citegraph::CitationNetwork {
    let mut b = NetworkBuilder::new();
    let ids: Vec<_> = (0..m).map(|_| b.add_paper(2020)).collect();
    for &i in &ids {
        for &j in &ids {
            if i != j {
                b.add_citation(i, j).unwrap();
            }
        }
    }
    b.build().unwrap()
}

#[test]
fn ecm_reports_divergence_on_cyclic_clique() {
    // α·ρ(M) = 0.5 · 5 > 1: the Katz series diverges. The implementation
    // must flag non-convergence rather than loop forever or return junk
    // silently.
    let net = same_year_clique(6);
    let out = Ecm::new(0.5, 0.9).rank_with_diagnostics(&net);
    assert!(!out.converged, "divergent series must be reported");
}

#[test]
fn tuner_skips_divergent_ecm_settings() {
    // Embed one divergent candidate among healthy ones: the winner must
    // come from the finite ones.
    let net = same_year_clique(6);
    let candidates = vec![
        Candidate {
            description: "ECM(divergent)".into(),
            ranker: Box::new(Ecm::new(0.5, 0.9)),
        },
        Candidate {
            description: "RAM(γ=0.5)".into(),
            ranker: Box::new(Ram::new(0.5)),
        },
    ];
    let result = tune("mixed", candidates, &net, &|s: &ScoreVec| s.sum()).unwrap();
    assert_eq!(result.best_setting, "RAM(γ=0.5)");
}

#[test]
fn pagerank_family_survives_cycles() {
    // Stochastic-matrix methods are immune to cycles (column sums stay 1).
    let net = same_year_clique(5);
    for scores in [
        AttRank::new(AttRankParams::new(0.5, 0.3, 1, -0.1).unwrap()).rank(&net),
        PageRank::new(0.85).rank(&net),
        CiteRank::new(0.7, 2.0).rank(&net),
        FutureRank::original_optimum().rank(&net),
    ] {
        assert!(scores.all_finite());
        // Clique symmetry ⇒ identical scores.
        for w in scores.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-12);
        }
    }
}

#[test]
fn isolated_papers_only_network_ranks_by_recency() {
    // No citations at all: attention is all-zero, S is all-dangling.
    let mut b = NetworkBuilder::new();
    for y in 2000..2020 {
        b.add_paper(y);
    }
    let net = b.build().unwrap();
    let scores = AttRank::new(AttRankParams::new(0.3, 0.4, 2, -0.3).unwrap()).rank(&net);
    assert!(scores.all_finite());
    // Newest paper must rank first: only recency differentiates.
    assert_eq!(scores.top_k(1), vec![19]);
}

#[test]
fn single_paper_network_is_trivial() {
    let mut b = NetworkBuilder::new();
    b.add_paper(2000);
    let net = b.build().unwrap();
    let d =
        AttRank::new(AttRankParams::new(0.5, 0.3, 1, -0.1).unwrap()).rank_with_diagnostics(&net);
    assert!(d.converged);
    assert_eq!(d.scores.len(), 1);
    assert!(d.scores[0] > 0.0);
}

/// Canonical query strings (as `Display` writes them), to mutate.
const QUERIES: [&str; 4] = [
    "k=10",
    "method=attrank,vs=cc,k=5,seed=3|17,year=2001..2010,venue=1|2,author=7",
    "k=20,year=..2004,cursor=c1-3fe0000000000000-2a-9f",
    "k=3,seed=12,year=1999..,author=0|4|9,cursor=c0-0-0-0",
];

/// Canonical cursor tokens, to mutate.
const CURSORS: [&str; 3] = [
    "c0-0-0-0",
    "c1-3fe0000000000000-2a-9f",
    "cffffffffffffffff-7ff0000000000000-ffffffff-123456789abcdef",
];

/// Canonical method specs, to mutate.
const SPECS: [&str; 6] = [
    "attrank:alpha=0.2,beta=0.4,y=3,w=-0.16",
    "pagerank:d=0.85",
    "futurerank:alpha=0.4,beta=0.1,gamma=0.5,rho=-0.62",
    "wsdm:alpha=1.7,beta=3,iters=5",
    "ensemble:rule=rrf,k=60,members=(cc)+(pagerank:d=0.5)",
    "ensemble:rule=borda,members=(ram:gamma=0.6)+(ensemble:members=(hits))",
];

/// One of `canonical`, with one to four printable characters deleted,
/// inserted or replaced.
fn mutated(canonical: &'static [&'static str]) -> impl Strategy<Value = String> {
    let edits = proptest::collection::vec((0usize..80, 0u8..3, "[ -~]"), 1..5);
    (0..canonical.len(), edits).prop_map(move |(i, edits)| {
        let mut chars: Vec<char> = canonical[i].chars().collect();
        for (at, op, c) in edits {
            let c = c.chars().next().expect("one character");
            let at = at % (chars.len() + 1);
            match op {
                0 if at < chars.len() => {
                    chars.remove(at);
                }
                1 => chars.insert(at, c),
                _ if at < chars.len() => chars[at] = c,
                _ => chars.push(c),
            }
        }
        chars.into_iter().collect()
    })
}

/// Decodes `text`: a value must round-trip through `Display`, an error
/// must render. Either way the decoder returned instead of panicking.
fn decodes<T>(text: &str) -> Result<(), TestCaseError>
where
    T: std::str::FromStr + std::fmt::Display + PartialEq + std::fmt::Debug,
    T::Err: std::fmt::Display + std::fmt::Debug,
{
    match text.parse::<T>() {
        Ok(value) => {
            let again = value.to_string().parse::<T>();
            prop_assert!(
                again.as_ref().is_ok_and(|again| *again == value),
                "{text:?} decoded to {value:?}, whose display {:?} decodes to {again:?}",
                value.to_string()
            );
        }
        Err(e) => prop_assert!(!e.to_string().is_empty()),
    }
    Ok(())
}

#[test]
fn deeply_nested_method_spec_is_refused_not_a_stack_overflow() {
    // Ensemble members parse recursively; a thousand nested ensembles
    // once overflowed the stack. Within the bound they still parse.
    let nested = |depth: usize| {
        format!(
            "{}cc{}",
            "ensemble:members=(".repeat(depth),
            ")".repeat(depth)
        )
    };
    assert!(matches!(
        nested(1000).parse::<MethodSpec>(),
        Err(rankengine::SpecError::Syntax { .. })
    ));
    let spec: MethodSpec = nested(16).parse().unwrap();
    assert_eq!(spec.to_string().parse::<MethodSpec>().unwrap(), spec);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Query, cursor and method-spec decoders never panic on printable
    /// text, and whatever they accept round-trips through `Display`.
    #[test]
    fn decoders_never_panic_on_printable_text(text in "[ -~]{0,80}") {
        decodes::<Query>(&text)?;
        decodes::<Cursor>(&text)?;
        decodes::<MethodSpec>(&text)?;
    }

    /// The same on near-misses of valid input, which reach deeper into
    /// each decoder than random text does.
    #[test]
    fn decoders_never_panic_on_mutated_canonical_forms(
        query in mutated(&QUERIES),
        cursor in mutated(&CURSORS),
        spec in mutated(&SPECS),
    ) {
        decodes::<Query>(&query)?;
        decodes::<Cursor>(&cursor)?;
        decodes::<MethodSpec>(&spec)?;
    }

    /// The TSV parser must never panic, whatever bytes arrive.
    #[test]
    fn tsv_parser_never_panics(papers in "[ -~\t\n]{0,400}", citations in "[ -~\t\n]{0,200}") {
        let _ = citegraph::io::from_tsv(&papers, &citations);
    }

    /// Structured-but-corrupt rows: random field content in a valid shape.
    #[test]
    fn tsv_parser_handles_structured_garbage(
        rows in proptest::collection::vec(("[0-9a-z]{1,6}", "[0-9a-z-]{1,6}"), 0..20),
    ) {
        let papers: String = rows
            .iter()
            .enumerate()
            .map(|(i, (y, v))| format!("{i}\t{y}\t{v}\t\n"))
            .collect();
        let _ = citegraph::io::from_tsv(&papers, "");
    }

    /// Warm-started incremental scoring lands on the batch fixed point for
    /// arbitrary growth steps of arbitrary networks.
    #[test]
    fn incremental_matches_batch_on_random_networks(
        n in 6usize..40,
        cut in 2usize..6,
        seed in 0u64..500,
    ) {
        // Deterministic pseudo-random DAG from the seed.
        let mut b = NetworkBuilder::new();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for i in 0..n {
            b.add_paper(2000 + (i / 3) as i32);
        }
        for citing in 1..n as u32 {
            let refs = next() % 4;
            for _ in 0..refs {
                let cited = (next() % citing as usize) as u32;
                if cited != citing {
                    let _ = b.add_citation(citing, cited);
                }
            }
        }
        let net = b.build().unwrap();
        let early = net.prefix(n - cut.min(n - 1));

        let params = AttRankParams::new(0.4, 0.3, 2, -0.2).unwrap();
        let mut inc = attrank::IncrementalAttRank::new(params);
        inc.update(&early);
        let warm = inc.update(&net);
        let batch = AttRank::new(params).rank(&net);
        prop_assert!(warm.converged);
        for p in 0..net.n_papers() {
            prop_assert!(
                (warm.scores[p] - batch[p]).abs() < 1e-8,
                "paper {p}: warm {} vs batch {}", warm.scores[p], batch[p]
            );
        }
    }
}
