//! The [`Ranker`] abstraction shared by AttRank and every baseline.
//!
//! A ranker sees only the *current* state of the citation network (the
//! evaluation protocol of §4.1 guarantees the future state is invisible)
//! and produces one score per paper; papers are then ranked in decreasing
//! score order. Scores are method-specific — PageRank-family methods emit
//! probability vectors, RAM/ECM emit unnormalized weighted counts — so only
//! the induced *order* is comparable across methods.

use sparsela::{KernelWorkspace, ScoreVec};

use crate::network::CitationNetwork;

/// How a delta re-rank was computed (recorded in serving-epoch metadata).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaStrategy {
    /// A full solve over the successor network (cold or warm-started).
    Full,
    /// A residual-push update localized to the perturbed neighborhood.
    Push {
        /// Residual pushes executed (nodes pushed; a K-lane push moves
        /// every lane's residual at the node and counts once).
        pushes: u64,
        /// Edge traversals spent (compare to `iterations × E` for a full
        /// solve). A traversed edge is counted once whatever the lane
        /// count of the push, so the figure stays comparable with
        /// [`crate::PushRankConfig::max_edge_work`].
        edge_work: u64,
    },
}

/// A paper-ranking method.
pub trait Ranker {
    /// Human-readable method name (used in experiment reports, e.g. "AR",
    /// "CR", "FR", "RAM", "ECM", "WSDM").
    ///
    /// Returns a borrowed string — grid searches call this in hot loops and
    /// an owned `String` would allocate on every call; implementors with
    /// static names return a `&'static str`, composites (e.g. ensembles)
    /// return a reference to a label built once at construction.
    fn name(&self) -> &str;

    /// Scores every paper in `net`. The returned vector has length
    /// `net.n_papers()`; higher scores mean higher estimated short-term
    /// impact.
    fn rank(&self, net: &CitationNetwork) -> ScoreVec;

    /// Scores every paper, drawing scratch buffers from `workspace`.
    ///
    /// Grid searches call a ranker hundreds of times per dataset; methods
    /// with solver state (the PageRank family) override this to reuse the
    /// workspace's pooled vectors instead of allocating per call. The
    /// returned scores may themselves come from the pool — recycle them
    /// back once consumed. The default ignores the workspace.
    fn rank_into(&self, net: &CitationNetwork, workspace: &mut KernelWorkspace) -> ScoreVec {
        let _ = workspace;
        self.rank(net)
    }
}

/// Blanket implementation so boxed rankers can be collected in
/// heterogeneous method lists (`Vec<Box<dyn Ranker>>`).
impl<T: Ranker + ?Sized> Ranker for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn rank(&self, net: &CitationNetwork) -> ScoreVec {
        (**self).rank(net)
    }

    fn rank_into(&self, net: &CitationNetwork, workspace: &mut KernelWorkspace) -> ScoreVec {
        (**self).rank_into(net, workspace)
    }
}

/// Ranks papers by raw citation count — the `CC` centrality of §2 and the
/// weakest sensible baseline. Lives here (rather than in the baselines
/// crate) because substrate tests use it as a reference ranker.
#[derive(Debug, Clone, Copy, Default)]
pub struct CitationCount;

impl Ranker for CitationCount {
    fn name(&self) -> &str {
        "CC"
    }

    fn rank(&self, net: &CitationNetwork) -> ScoreVec {
        ScoreVec::from_vec(
            net.citation_counts()
                .into_iter()
                .map(|c| c as f64)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    fn star() -> CitationNetwork {
        // Paper 0 cited by 1, 2, 3; paper 1 cited by 3.
        let mut b = NetworkBuilder::new();
        let hub = b.add_paper(2000);
        let a = b.add_paper(2001);
        let c = b.add_paper(2002);
        let d = b.add_paper(2003);
        b.add_citation(a, hub).unwrap();
        b.add_citation(c, hub).unwrap();
        b.add_citation(d, hub).unwrap();
        b.add_citation(d, a).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn citation_count_ranker() {
        let net = star();
        let scores = CitationCount.rank(&net);
        assert_eq!(scores.as_slice(), &[3.0, 1.0, 0.0, 0.0]);
        assert_eq!(CitationCount.name(), "CC");
    }

    #[test]
    fn boxed_ranker_dispatch() {
        let net = star();
        let boxed: Box<dyn Ranker> = Box::new(CitationCount);
        assert_eq!(boxed.name(), "CC");
        assert_eq!(boxed.rank(&net).top_k(1), vec![0]);
    }

    #[test]
    fn heterogeneous_method_list() {
        let net = star();
        let methods: Vec<Box<dyn Ranker>> = vec![Box::new(CitationCount)];
        for m in &methods {
            assert_eq!(m.rank(&net).len(), net.n_papers());
        }
    }
}
