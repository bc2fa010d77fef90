//! A [`Cone`] reads every score of `x = y + g·u` bit for bit as the dense
//! resolution writes it, a cone moved onto a longer kernel is the cone of
//! its `y` grown by zeros, and every selection kernel and block summary
//! over a cone returns what it returns over the dense copy.
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
        for (i, y) in y.iter().enumerate() {
            prop_assert_eq!(cone.y(i).to_bits(), y.to_bits(), "y at {}", i);
        }
        prop_assert_eq!(cone.g().to_bits(), g.to_bits());
        prop_assert!(Arc::ptr_eq(cone.kernel(), &u));
        let dense = cone.to_dense();
        for i in 0..n {
            prop_assert_eq!(dense[i].to_bits(), cone.at(i).to_bits());
        }
        let blocks = n.div_ceil(64);
        prop_assert_eq!(cone.bytes(), blocks * 16 + cone.stored() * 8);
    }

    #[test]
    fn a_cone_over_a_longer_kernel_is_the_cone_of_y_grown_by_zeros(
        cells in proptest::collection::vec((0u32..8, 0.0f64..1.0), 1..200),
        u_raw in proptest::collection::vec(0.0f64..1.0, 300),
        shape in 0u32..3,
        g_kind in 0u32..3,
        g in -2.0f64..2.0,
        extra in 0usize..100,
    ) {
        let n = cells.len();
        let mut y = sparse_part(&cells, shape);
        let g = scale(g_kind, g);
        let cone = Cone::new(&y, g, kernel(n, &u_raw));
        let u = kernel(n + extra, &u_raw);
        let grown = cone.over(Arc::clone(&u));
        y.resize(n + extra, 0.0);
        let want = Cone::new(&y, g, Arc::clone(&u));
        prop_assert!(Arc::ptr_eq(grown.kernel(), &u));
        prop_assert_eq!(grown.g().to_bits(), g.to_bits());
        prop_assert_eq!((grown.stored(), grown.bytes()), (want.stored(), want.bytes()));
        for i in 0..n + extra {
            prop_assert_eq!(grown.y(i).to_bits(), want.y(i).to_bits(), "y at {} of {}", i, n + extra);
            prop_assert_eq!(grown.at(i).to_bits(), want.at(i).to_bits(), "id {} of {}", i, n + extra);
        }
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
        // A summary read through the cone is the one of its dense copy.
        prop_assert_eq!(&BlockMaxima::with_block_len(&cone, 8, 16, &[(n / 2) as u32]), &of_dense);
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
