//! The fused dense-layer kernels: the only dense forward in `qi-ml`.
//!
//! Training ([`crate::layers::Mlp::forward`], which caches each layer's
//! input for backprop) and serving (the immutable, allocation-free
//! `forward_into` chains) both run [`dense_fused`], so the two agree
//! bit for bit by construction.
//!
//! - [`InferScratch`] — caller-owned ping-pong activation buffers. One
//!   scratch per serving shard; capacity grows to the largest batch seen
//!   and is reused forever after.
//! - [`dense_fused`] — one dense layer with the bias add and ReLU fused
//!   into the accumulation epilogue, dispatched to width-specialised
//!   micro-kernels (the model shapes have tiny output widths: 32, 16, 1,
//!   2). Each kernel keeps a whole output row of accumulators on the
//!   stack — a `[f32; W]` the compiler holds in vector registers — and
//!   streams the weight matrix row-major, so the inner loop is a
//!   branch-free, autovectorizable axpy with no loads or stores of
//!   partial sums. Two input rows are processed per pass so each weight
//!   row fetched from cache is used twice.
//! - [`standardize_into`] — the z-score transform written into a scratch
//!   buffer instead of a cloned `Matrix`.
//!
//! **Accumulation order:** every output element is accumulated in
//! strictly ascending-`k` order into a single accumulator, and the bias
//! is added after the full sum. Results therefore do not depend on the
//! kernel width chosen or on the batch a row arrives in.

/// Caller-owned scratch for the immutable inference path: an input
/// staging buffer plus two ping-pong activation buffers. Reusing one of
/// these across batches removes every per-batch allocation from serving.
#[derive(Default)]
pub struct InferScratch {
    /// Standardized input staging (written by [`standardize_into`]).
    pub(crate) x: Vec<f32>,
    pub(crate) a: Vec<f32>,
    pub(crate) b: Vec<f32>,
}

impl InferScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        InferScratch::default()
    }
}

/// Z-score standardisation into `out`: element-for-element the same
/// `(v - mean) / std` the training-side `Standardizer::transform`
/// computes, so the two paths see bit-identical standardized inputs.
pub(crate) fn standardize_into(
    x: &[f32],
    cols: usize,
    mean: &[f32],
    std: &[f32],
    out: &mut Vec<f32>,
) {
    debug_assert_eq!(mean.len(), cols);
    debug_assert_eq!(std.len(), cols);
    debug_assert_eq!(x.len() % cols, 0);
    out.clear();
    out.reserve(x.len());
    for row in x.chunks_exact(cols) {
        for ((&v, &m), &s) in row.iter().zip(mean).zip(std) {
            out.push((v - m) / s);
        }
    }
}

/// One fused dense layer: `out[r] = act(x[r] · w + bias)` for each of
/// `rows` input rows, `w` row-major `in_w × out_w`. `relu` applies the
/// clamp `v > 0.0 ? v : 0.0`. `out` is cleared and filled with
/// `rows × out_w` values.
// Flat hot-path signature: the scratch-owned slices must stay separate
// borrows so the caller can ping-pong buffers without aliasing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dense_fused(
    x: &[f32],
    rows: usize,
    in_w: usize,
    w: &[f32],
    out_w: usize,
    bias: &[f32],
    relu: bool,
    out: &mut Vec<f32>,
) {
    debug_assert_eq!(x.len(), rows * in_w);
    debug_assert_eq!(w.len(), in_w * out_w);
    debug_assert_eq!(bias.len(), out_w);
    out.clear();
    out.reserve(rows * out_w);
    // Width-specialised micro-kernels: with `W` a compile-time constant
    // the accumulator array lives entirely in registers and the `j`
    // loop unrolls/vectorizes. The widths below cover every layer shape
    // the models use (and the common test shapes); anything else
    // takes the tiled dynamic fallback.
    match out_w {
        1 => dense_rows_fixed::<1>(x, rows, in_w, w, bias, relu, out),
        2 => dense_rows_fixed::<2>(x, rows, in_w, w, bias, relu, out),
        3 => dense_rows_fixed::<3>(x, rows, in_w, w, bias, relu, out),
        4 => dense_rows_fixed::<4>(x, rows, in_w, w, bias, relu, out),
        6 => dense_rows_fixed::<6>(x, rows, in_w, w, bias, relu, out),
        8 => dense_rows_fixed::<8>(x, rows, in_w, w, bias, relu, out),
        12 => dense_rows_fixed::<12>(x, rows, in_w, w, bias, relu, out),
        16 => dense_rows_fixed::<16>(x, rows, in_w, w, bias, relu, out),
        24 => dense_rows_fixed::<24>(x, rows, in_w, w, bias, relu, out),
        32 => dense_rows_fixed::<32>(x, rows, in_w, w, bias, relu, out),
        _ => dense_rows_any(x, rows, in_w, w, out_w, bias, relu, out),
    }
}

/// Bias + activation epilogue shared by every micro-kernel. The bias is
/// added after the complete ascending-`k` sum, and the ReLU clamp maps
/// anything not strictly positive — including `-0.0` and NaN — to
/// `+0.0`, so a post-ReLU value is positive exactly where its
/// pre-activation was (the mask `Mlp::backward` reads back).
#[inline(always)]
fn finish<const W: usize>(acc: &mut [f32; W], bias: &[f32], relu: bool) {
    for j in 0..W {
        let v = acc[j] + bias[j];
        let pass = v > 0.0;
        acc[j] = if !relu || pass { v } else { 0.0 };
    }
}

/// Register-tiled kernel for a compile-time output width `W`, two input
/// rows per pass (each streamed weight row is used twice).
fn dense_rows_fixed<const W: usize>(
    x: &[f32],
    rows: usize,
    in_w: usize,
    w: &[f32],
    bias: &[f32],
    relu: bool,
    out: &mut Vec<f32>,
) {
    let mut r = 0;
    while r + 2 <= rows {
        let x0 = &x[r * in_w..(r + 1) * in_w];
        let x1 = &x[(r + 1) * in_w..(r + 2) * in_w];
        let mut acc0 = [0.0f32; W];
        let mut acc1 = [0.0f32; W];
        for (k, (&a0, &a1)) in x0.iter().zip(x1).enumerate() {
            let wk = &w[k * W..k * W + W];
            for j in 0..W {
                acc0[j] += a0 * wk[j];
                acc1[j] += a1 * wk[j];
            }
        }
        finish::<W>(&mut acc0, bias, relu);
        finish::<W>(&mut acc1, bias, relu);
        out.extend_from_slice(&acc0);
        out.extend_from_slice(&acc1);
        r += 2;
    }
    if r < rows {
        let x0 = &x[r * in_w..(r + 1) * in_w];
        let mut acc0 = [0.0f32; W];
        for (k, &a0) in x0.iter().enumerate() {
            let wk = &w[k * W..k * W + W];
            for j in 0..W {
                acc0[j] += a0 * wk[j];
            }
        }
        finish::<W>(&mut acc0, bias, relu);
        out.extend_from_slice(&acc0);
    }
}

/// Dynamic-width fallback: the output row is processed in 16-wide
/// column tiles with a stack accumulator per tile, preserving the
/// ascending-`k` single-accumulator order per element.
#[allow(clippy::too_many_arguments)]
fn dense_rows_any(
    x: &[f32],
    rows: usize,
    in_w: usize,
    w: &[f32],
    out_w: usize,
    bias: &[f32],
    relu: bool,
    out: &mut Vec<f32>,
) {
    const T: usize = 16;
    for r in 0..rows {
        let xr = &x[r * in_w..(r + 1) * in_w];
        let base = out.len();
        out.resize(base + out_w, 0.0);
        let out_row = &mut out[base..base + out_w];
        let mut j0 = 0;
        while j0 < out_w {
            let jw = T.min(out_w - j0);
            let mut acc = [0.0f32; T];
            for (k, &a) in xr.iter().enumerate() {
                let wk = &w[k * out_w + j0..k * out_w + j0 + jw];
                for (aj, &wv) in acc[..jw].iter_mut().zip(wk) {
                    *aj += a * wv;
                }
            }
            for (o, (aj, bj)) in out_row[j0..j0 + jw]
                .iter_mut()
                .zip(acc[..jw].iter().zip(&bias[j0..j0 + jw]))
            {
                let v = aj + bj;
                let pass = v > 0.0;
                *o = if !relu || pass { v } else { 0.0 };
            }
            j0 += jw;
        }
    }
}

/// Row argmax; `Iterator::max_by` keeps the *last* maximum under ties.
/// Total over any input: NaN ranks below every number, so a row that
/// overflowed to NaN still yields a class instead of a panic.
pub(crate) fn argmax_row(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| match (a.1.is_nan(), b.1.is_nan()) {
            (false, false) => a.1.partial_cmp(b.1).expect("neither is NaN"),
            (a_nan, b_nan) => b_nan.cmp(&a_nan),
        })
        .map(|(i, _)| i)
        .expect("non-empty row")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_fill(n: usize, salt: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
                ((h >> 40) as f32 / 2048.0) - 4.0
            })
            .collect()
    }

    /// Naive reference: ascending-k dot product, then bias, then relu.
    fn reference(
        x: &[f32],
        rows: usize,
        in_w: usize,
        w: &[f32],
        out_w: usize,
        bias: &[f32],
        relu: bool,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; rows * out_w];
        for r in 0..rows {
            for j in 0..out_w {
                let mut acc = 0.0f32;
                for k in 0..in_w {
                    acc += x[r * in_w + k] * w[k * out_w + j];
                }
                let v = acc + bias[j];
                let pass = v > 0.0;
                out[r * out_w + j] = if !relu || pass { v } else { 0.0 };
            }
        }
        out
    }

    #[test]
    fn fixed_and_fallback_widths_match_reference_bitwise() {
        // Every specialised width plus fallback widths (5, 17, 40),
        // odd/even row counts to hit both the paired and tail row paths.
        for &out_w in &[1usize, 2, 3, 4, 5, 6, 8, 12, 16, 17, 24, 32, 40] {
            for &rows in &[1usize, 2, 5, 8] {
                for &in_w in &[1usize, 7, 42] {
                    let x = hash_fill(rows * in_w, 1);
                    let w = hash_fill(in_w * out_w, 2);
                    let bias = hash_fill(out_w, 3);
                    for relu in [false, true] {
                        let mut got = Vec::new();
                        dense_fused(&x, rows, in_w, &w, out_w, &bias, relu, &mut got);
                        let want = reference(&x, rows, in_w, &w, out_w, &bias, relu);
                        assert_eq!(
                            got, want,
                            "mismatch at rows={rows} in_w={in_w} out_w={out_w} relu={relu}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn standardize_matches_transform() {
        use crate::data::Standardizer;
        use crate::matrix::Matrix;
        let x = hash_fill(6 * 4, 9);
        let m = Matrix::from_vec(6, 4, x.clone());
        let st = Standardizer::fit(&m);
        let mut viamatrix = m.clone();
        st.transform(&mut viamatrix);
        let mut out = Vec::new();
        standardize_into(&x, 4, st.mean(), st.std(), &mut out);
        assert_eq!(out, viamatrix.data());
    }

    #[test]
    fn argmax_keeps_last_max_on_ties() {
        assert_eq!(argmax_row(&[1.0, 3.0, 3.0, 2.0]), 2);
        assert_eq!(argmax_row(&[0.5]), 0);
        assert_eq!(argmax_row(&[0.0, -0.0]), 1);
    }

    #[test]
    fn argmax_ranks_nan_lowest() {
        assert_eq!(argmax_row(&[f32::NAN, -1.0]), 1);
        assert_eq!(argmax_row(&[-1.0, f32::NAN]), 0);
        assert_eq!(argmax_row(&[f32::NAN, f32::NEG_INFINITY, f32::NAN]), 1);
        assert_eq!(argmax_row(&[f32::NAN, f32::NAN]), 1);
    }
}
