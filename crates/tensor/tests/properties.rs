//! Property-based tests of the tensor algebra and optimizer invariants.

use proptest::prelude::*;
use wb_tensor::{Gradients, Graph, Params, Tensor};

/// Deterministic pseudo-random fill (cheap LCG) for the large tensors the
/// parallel-vs-serial properties need; proptest drives only the seed.
fn lcg_fill(seed: u64, n: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
        })
        .collect()
}

/// Laces a buffer with the values the packed kernels must propagate exactly
/// like the serial reference: a zero row, a zero column, NaN, ±Inf and -0.0
/// at seed-dependent positions.
fn lace_nonfinite(data: &mut [f32], rows: usize, cols: usize, seed: u64) {
    let s = seed as usize;
    let zr = s % rows;
    data[zr * cols..(zr + 1) * cols].fill(0.0);
    let zc = (s / 7) % cols;
    for r in 0..rows {
        data[r * cols + zc] = 0.0;
    }
    let n = rows * cols;
    data[(s.wrapping_mul(31)) % n] = f32::NAN;
    data[(s.wrapping_mul(53)) % n] = f32::INFINITY;
    data[(s.wrapping_mul(71)) % n] = f32::NEG_INFINITY;
    data[(s.wrapping_mul(97)) % n] = -0.0;
}

/// Bit patterns with NaN payloads canonicalized: NaN-ness, ±Inf, -0.0 and
/// all finite values compare exactly; which payload survives a NaN + NaN
/// sum is codegen-chosen (LLVM commutes `fadd`) and not part of the
/// kernels' bit-exactness contract.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

fn tensor_2x3() -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, 6).prop_map(|v| Tensor::from_vec(&[2, 3], v))
}

proptest! {
    /// Transpose is an involution.
    #[test]
    fn transpose_involution(t in tensor_2x3()) {
        prop_assert_eq!(t.transpose().transpose(), t);
    }

    /// `(A·B)ᵀ = Bᵀ·Aᵀ`.
    #[test]
    fn matmul_transpose_identity(
        a in tensor_2x3(),
        b in proptest::collection::vec(-10.0f32..10.0, 12)
            .prop_map(|v| Tensor::from_vec(&[3, 4], v)),
    ) {
        let left = a.matmul(&b, false, false).transpose();
        let right = b.transpose().matmul(&a.transpose(), false, false);
        for (l, r) in left.data().iter().zip(right.data()) {
            prop_assert!((l - r).abs() < 1e-3);
        }
    }

    /// Scaling commutes with addition: k(A+B) = kA + kB.
    #[test]
    fn scale_distributes(a in tensor_2x3(), b in tensor_2x3(), k in -3.0f32..3.0) {
        let left = a.add(&b).scale(k);
        let right = a.scale(k).add(&b.scale(k));
        for (l, r) in left.data().iter().zip(right.data()) {
            prop_assert!((l - r).abs() < 1e-3);
        }
    }

    /// Softmax is invariant to per-row additive shifts.
    #[test]
    fn softmax_shift_invariance(t in tensor_2x3(), shift in -20.0f32..20.0) {
        let shifted = t.map(|x| x + shift);
        let a = t.softmax_rows(1.0);
        let b = shifted.softmax_rows(1.0);
        for (x, y) in a.data().iter().zip(b.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Row gather of all rows is the identity.
    #[test]
    fn gather_identity(t in tensor_2x3()) {
        prop_assert_eq!(t.gather_rows(&[0, 1]), t);
    }

    /// Concat of row slices reconstructs the tensor.
    #[test]
    fn slice_concat_identity(t in tensor_2x3()) {
        let top = t.slice_rows(0, 1);
        let bottom = t.slice_rows(1, 2);
        prop_assert_eq!(Tensor::concat_rows(&[&top, &bottom]), t);
    }

    /// Gradient clipping never increases the global norm and respects the
    /// bound.
    #[test]
    fn clipping_bounds_norm(vals in proptest::collection::vec(-100.0f32..100.0, 6), max in 0.1f32..10.0) {
        let mut params = Params::new();
        let w = params.add("w", Tensor::zeros(&[2, 3]));
        let grads = {
            let mut g = Graph::new(&params, false, 0);
            let wv = g.param(w);
            let c = g.input(Tensor::from_vec(&[2, 3], vals));
            let m = g.mul(wv, c); // gradient of w is c
            let loss = g.sum_all(m);
            g.backward(loss)
        };
        let mut grads: Gradients = grads;
        grads.clip_global_norm(max);
        prop_assert!(grads.global_norm() <= max + 1e-3);
    }

    /// Backward through a linear chain scales gradients linearly: the
    /// gradient of `sum(k·w)` is exactly `k` everywhere.
    #[test]
    fn linear_chain_gradient(k in -5.0f32..5.0) {
        let mut params = Params::new();
        let w = params.add("w", Tensor::full(&[3], 1.0));
        let grads = {
            let mut g = Graph::new(&params, false, 0);
            let wv = g.param(w);
            let s = g.scale(wv, k);
            let loss = g.sum_all(s);
            g.backward(loss)
        };
        let gw = grads.get(w).unwrap();
        for &v in gw.data() {
            prop_assert!((v - k).abs() < 1e-5);
        }
    }

    /// The parallel matmul path agrees bit-for-bit with the serial
    /// reference, for every transpose variant, on shapes that cross the
    /// parallelism thresholds.
    #[test]
    fn parallel_matmul_matches_serial(
        seed in 0u64..1_000_000,
        extra_m in 0usize..24,
        extra_k in 0usize..12,
        extra_n in 0usize..12,
    ) {
        let m = wb_tensor::PAR_MIN_ROWS + extra_m;
        let k = 64 + extra_k;
        let n = 64 + extra_n;
        for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
            let a_shape = if ta { [k, m] } else { [m, k] };
            let b_shape = if tb { [n, k] } else { [k, n] };
            let a = Tensor::from_vec(&a_shape, lcg_fill(seed, m * k));
            let b = Tensor::from_vec(&b_shape, lcg_fill(seed ^ 0x9e37, k * n));
            let par = a.matmul(&b, ta, tb);
            let ser = a.matmul_serial(&b, ta, tb);
            prop_assert_eq!(par.shape(), ser.shape());
            prop_assert!(
                par.data() == ser.data(),
                "parallel and serial matmul diverged for ta={} tb={}", ta, tb
            );
        }
    }

    /// The packed-kernel path propagates NaN/±Inf/-0.0 and zero
    /// rows/columns *bit-for-bit* like the direct serial reference, for
    /// every transpose variant. This is the regression property for the
    /// zero-skip bug: the old nn/tn loops skipped `av == 0.0` terms and
    /// turned `0 × NaN` into `0`, so the four variants disagreed on exactly
    /// the inputs the NaN-rollback guard needs to observe.
    #[test]
    fn nonfinite_matmul_matches_serial_all_variants(
        seed in 0u64..1_000_000,
        extra_m in 0usize..16,
        extra_k in 0usize..16,
        extra_n in 0usize..16,
    ) {
        let m = wb_tensor::PAR_MIN_ROWS + extra_m;
        let k = 64 + extra_k;
        let n = 64 + extra_n;
        for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
            let a_shape = if ta { [k, m] } else { [m, k] };
            let b_shape = if tb { [n, k] } else { [k, n] };
            let mut av = lcg_fill(seed, m * k);
            let mut bv = lcg_fill(seed ^ 0x9e37, k * n);
            lace_nonfinite(&mut av, a_shape[0], a_shape[1], seed);
            lace_nonfinite(&mut bv, b_shape[0], b_shape[1], seed.wrapping_add(1));
            let a = Tensor::from_vec(&a_shape, av);
            let b = Tensor::from_vec(&b_shape, bv);
            let par = a.matmul(&b, ta, tb);
            let ser = a.matmul_serial(&b, ta, tb);
            prop_assert_eq!(par.shape(), ser.shape());
            prop_assert!(
                bits(&par) == bits(&ser),
                "non-finite propagation diverged for ta={} tb={}", ta, tb
            );
        }
    }

    /// `pack_b` is a pure relayout: every element of B (straight or
    /// transposed) lands at exactly `packed_index(k, j)`, bit-preserved —
    /// and both orientations of the same logical matrix pack identically.
    #[test]
    fn pack_b_round_trip(
        seed in 0u64..1_000_000,
        ak in 1usize..2 * wb_tensor::kernels::KC + 4,
        bn in 1usize..2 * wb_tensor::kernels::NC + 6,
    ) {
        use wb_tensor::kernels::{pack_b, packed_index};
        let mut b = lcg_fill(seed, ak * bn);
        if ak > 1 && bn > 1 {
            lace_nonfinite(&mut b, ak, bn, seed);
        }
        // The same matrix stored transposed: bt[[j, k]] = b[[k, j]].
        let mut bt = vec![0.0f32; ak * bn];
        for k in 0..ak {
            for j in 0..bn {
                bt[j * ak + k] = b[k * bn + j];
            }
        }
        let mut straight = Vec::new();
        let mut transposed = Vec::new();
        pack_b(&b, false, ak, bn, &mut straight);
        pack_b(&bt, true, ak, bn, &mut transposed);
        prop_assert_eq!(straight.len(), ak * bn);
        prop_assert_eq!(transposed.len(), ak * bn);
        for k in 0..ak {
            for j in 0..bn {
                let idx = packed_index(k, j, ak, bn);
                prop_assert!(
                    straight[idx].to_bits() == b[k * bn + j].to_bits(),
                    "straight pack misplaced ({}, {})", k, j
                );
                prop_assert!(
                    transposed[idx].to_bits() == b[k * bn + j].to_bits(),
                    "transposed pack misplaced ({}, {})", k, j
                );
            }
        }
    }

    /// Parallel row-wise softmax agrees bit-for-bit with a row-at-a-time
    /// serial evaluation on shapes that cross the parallelism thresholds.
    #[test]
    fn parallel_softmax_matches_serial(
        seed in 0u64..1_000_000,
        extra_rows in 0usize..32,
        temperature in 0.25f32..4.0,
    ) {
        let rows = wb_tensor::PAR_MIN_ROWS + extra_rows;
        let cols = 1 + wb_tensor::PAR_MIN_ELEMS / wb_tensor::PAR_MIN_ROWS;
        let t = Tensor::from_vec(&[rows, cols], lcg_fill(seed, rows * cols));
        let par = t.softmax_rows(temperature);
        // Serial reference: softmax each row independently, one at a time.
        let mut ser = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            let mut row = t.data()[r * cols..(r + 1) * cols].to_vec();
            wb_tensor::softmax_slice(&mut row, temperature);
            ser.extend_from_slice(&row);
        }
        prop_assert!(par.data() == ser.as_slice(), "parallel softmax diverged");
    }

    /// Cross-entropy is minimal when the logits put all mass on the target.
    #[test]
    fn cross_entropy_prefers_target(target in 0usize..3) {
        let params = Params::new();
        let eval = |boost: usize| {
            let mut g = Graph::new(&params, false, 0);
            let mut logits = vec![0.0f32; 3];
            logits[boost] = 8.0;
            let l = g.input(Tensor::from_vec(&[1, 3], logits));
            let loss = g.cross_entropy_rows(l, &[target]);
            g.value(loss).item()
        };
        let right = eval(target);
        for wrong in 0..3 {
            if wrong != target {
                prop_assert!(right < eval(wrong));
            }
        }
    }
}

/// GraphStats faithfully counts ops and FLOPs for a known tape.
#[test]
fn graph_stats_counts() {
    let mut params = Params::new();
    let w = params.add("w", Tensor::zeros(&[4, 8]));
    let mut g = Graph::new(&params, false, 0);
    let x = g.input(Tensor::zeros(&[2, 4]));
    let wv = g.param(w);
    let y = g.matmul(x, wv); // [2,8], inner 4 → 64 MACs
    let t = g.tanh(y);
    let _ = g.sum_all(t);
    let stats = g.stats();
    assert_eq!(stats.nodes, 5);
    assert_eq!(stats.per_op["matmul"], 1);
    assert_eq!(stats.per_op["tanh"], 1);
    assert_eq!(stats.matmul_flops, 2 * 8 * 4);
    // x, y, tanh and the scalar; the param leaf borrows the store.
    assert_eq!(stats.elements, 2 * 4 + 2 * 8 * 2 + 1);
}
