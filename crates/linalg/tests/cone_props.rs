//! A [`Cone`] reads every score of `x = y + g·u` bit for bit as the dense
//! resolution writes it, and every selection kernel over a cone returns
//! what it returns over the dense copy.
//!
//! `y` is drawn per id from `+0.0` (left out of the cone), `-0.0`, tiny,
//! negative and ordinary values, then optionally forced empty or full;
//! `g` is drawn as `0.0`, `-0.0` or a value; lengths run past and short of
//! the 64-id blocks.

use std::sync::Arc;

use proptest::prelude::*;
use sparsela::{
    top_k_filtered_into, top_k_pruned_into, BlockMaxima, Cone, Frontier, ScoreVec, Scores, Segment,
};

/// `y` from per-id `(kind, magnitude)` draws; `shape` 1 empties the cone,
/// 2 fills it.
fn sparse_part(cells: &[(u32, f64)], shape: u32) -> Vec<f64> {
    cells
        .iter()
        .map(|&(kind, m)| match (shape, kind) {
            (1, _) => 0.0,
            (2, 0..=3) => m + 1e-3,
            (_, 0..=3) => 0.0,
            (_, 4) => -0.0,
            (_, 5) => m,
            (_, 6) => -m * 1e-3,
            _ => m * 1e-300,
        })
        .collect()
}

fn scale(g_kind: u32, g: f64) -> f64 {
    match g_kind {
        0 => 0.0,
        1 => -0.0,
        _ => g,
    }
}

fn kernel(n: usize, raw: &[f64]) -> Arc<ScoreVec> {
    // Some exact zeros in `u` too: `g·u_i` is then ±0.0.
    Arc::new(ScoreVec::from_vec(
        (0..n)
            .map(|i| if i % 7 == 3 { 0.0 } else { raw[i] })
            .collect(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_cone_reads_the_dense_resolution_bit_for_bit(
        cells in proptest::collection::vec((0u32..8, 0.0f64..1.0), 1..300),
        u_raw in proptest::collection::vec(0.0f64..1.0, 300),
        shape in 0u32..3,
        g_kind in 0u32..3,
        g in -2.0f64..2.0,
    ) {
        let n = cells.len();
        let y = sparse_part(&cells, shape);
        let g = scale(g_kind, g);
        let u = kernel(n, &u_raw);
        let cone = Cone::new(&y, g, Arc::clone(&u));
        prop_assert_eq!(Scores::len(&cone), n);
        prop_assert_eq!(cone.stored(), y.iter().filter(|v| v.to_bits() != 0).count());
        for i in 0..n {
            // The dense resolution's expression, as `citegraph` writes it.
            let dense = y[i] + g * u[i];
            prop_assert_eq!(cone.at(i).to_bits(), dense.to_bits(), "id {} of {}", i, n);
        }
        let mut back = vec![0.0; n];
        cone.scatter_y(&mut back);
        for i in 0..n {
            prop_assert_eq!(back[i].to_bits(), y[i].to_bits(), "y at {}", i);
        }
        let dense = cone.to_dense();
        for i in 0..n {
            prop_assert_eq!(dense[i].to_bits(), cone.at(i).to_bits());
        }
        let blocks = n.div_ceil(64);
        prop_assert_eq!(cone.bytes(), blocks * 16 + cone.stored() * 8);
    }

    #[test]
    fn selections_over_a_cone_equal_those_over_its_dense_copy(
        cells in proptest::collection::vec((0u32..8, 0.0f64..1.0), 1..300),
        u_raw in proptest::collection::vec(0.0f64..1.0, 300),
        shape in 0u32..3,
        g in 0.0f64..2.0,
        k in 0usize..40,
        lo in 0usize..300,
        len in 0usize..300,
        cursor_at in 0usize..300,
        scale in 0.1f64..1.0,
    ) {
        let n = cells.len();
        let y = sparse_part(&cells, shape);
        let cone = Cone::new(&y, g, kernel(n, &u_raw));
        let dense: Vec<f64> = (0..n).map(|i| cone.at(i)).collect();
        // One summary per source, so each builds its own heads.
        let summary = || BlockMaxima::with_block_len(&dense, 8, 16, &[(n / 2) as u32]);
        let (of_cone, of_dense) = (summary(), summary());
        let lo = (lo % n) as u32;
        let range = [Segment::range(lo..(lo as usize + len).min(n) as u32)];
        let c = (cursor_at % n) as u32;
        let frontier = Frontier { score: dense[c as usize] * scale, id: c, scale, base: 0 };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for f in [None, Some(&frontier)] {
            let wa = top_k_pruned_into(&cone, &of_cone, range, k, f, None, &mut a);
            let wb = top_k_pruned_into(&dense, &of_dense, range, k, f, None, &mut b);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(wa, wb);
            let mut odd = |id: u32| id % 2 == 1;
            let wa = top_k_pruned_into(&cone, &of_cone, range, k, f, Some(&mut odd), &mut a);
            let mut odd = |id: u32| id % 2 == 1;
            let wb = top_k_pruned_into(&dense, &of_dense, range, k, f, Some(&mut odd), &mut b);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(wa, wb);
        }
        prop_assert_eq!(of_cone.head(&cone, lo), of_dense.head(&dense, lo));
        prop_assert_eq!(of_cone.heads_built(), of_dense.heads_built());
        let candidates: Vec<u32> = (0..n as u32).filter(|id| id % 3 != 0).collect();
        top_k_filtered_into(&cone, &candidates, k, &mut a);
        top_k_filtered_into(&dense, &candidates, k, &mut b);
        prop_assert_eq!(&a, &b);
    }
}
