//! Dense row-major `f32` tensors.
//!
//! The tensor type is deliberately small: the models in this workspace only
//! need rank-1/2 tensors plus a handful of rank-preserving element-wise
//! operations, batched matrix multiplication and row gather/scatter.
//! In-place variants are provided where the training loop is hot
//! (`add_assign_scaled`, `scale_in_place`, `matmul_into`), and
//! allocating operations draw their buffers from the [`scratch`] pool so
//! steady-state training reuses memory instead of hitting the allocator.
//!
//! # Parallelism
//!
//! `matmul`, `softmax_rows`, `add_row_broadcast` and the `map`/`zip_map`
//! family run on the rayon pool once the operand crosses a size threshold
//! (see [`PAR_MIN_ROWS`], [`PAR_MIN_MACS`], [`PAR_MIN_ELEMS`]); smaller
//! tensors stay on the calling thread. Work is split by output row (or by
//! contiguous element chunk for rank-free element-wise ops), and every
//! output element is accumulated in the same order as the serial code, so
//! results are bit-for-bit identical for any `RAYON_NUM_THREADS`.

use rayon::prelude::*;
use std::fmt;

/// Minimum output rows before a matmul fans out over the rayon pool.
pub const PAR_MIN_ROWS: usize = 64;
/// Minimum multiply-accumulates (`m·k·n`) before a matmul goes parallel;
/// below this the thread hand-off costs more than the arithmetic.
pub const PAR_MIN_MACS: usize = 1 << 18;
/// Minimum elements before element-wise / row-wise ops go parallel.
pub const PAR_MIN_ELEMS: usize = 1 << 16;

/// A pool of reusable `f32` buffers shared by all tensor operations.
///
/// Allocating tensor ops call [`scratch::take`] instead of `Vec::new`, and
/// the autograd `Graph` returns every node buffer with [`scratch::put`]
/// when a tape is dropped — so after the first training step the forward
/// and backward passes recycle buffers instead of re-allocating. The pool
/// is global (not thread-local) because worker threads are short-lived;
/// both calls are a quick `Mutex`-guarded push/pop.
pub mod scratch {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// Upper bound on pooled buffers; excess buffers just deallocate.
    const MAX_POOLED: usize = 256;
    /// Buffers above this capacity (elements) are not retained.
    const MAX_BUF_CAP: usize = 1 << 22;

    static POOL: Mutex<Vec<Vec<f32>>> = Mutex::new(Vec::new());
    /// Bytes of capacity currently resident in the pool (mirrors the
    /// `tensor.scratch.bytes_pooled` gauge; kept as its own atomic so
    /// [`take`] can subtract without re-walking the pool).
    static POOL_BYTES: AtomicU64 = AtomicU64::new(0);

    /// Takes an empty buffer from the pool (or a fresh one). Pool
    /// effectiveness is observable as the `tensor.scratch.hit` /
    /// `tensor.scratch.miss` counters.
    pub fn take() -> Vec<f32> {
        match POOL.lock().unwrap().pop() {
            Some(buf) => {
                wb_obs::counter!("tensor.scratch.hit");
                let bytes = (buf.capacity() * std::mem::size_of::<f32>()) as u64;
                let left = POOL_BYTES.fetch_sub(bytes, Ordering::Relaxed) - bytes;
                wb_obs::gauge!("tensor.scratch.bytes_pooled", left as f64);
                buf
            }
            None => {
                wb_obs::counter!("tensor.scratch.miss");
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the pool for reuse (see [`put_all`]).
    pub fn put(buf: Vec<f32>) {
        put_all(std::iter::once(buf));
    }

    /// Returns buffers to the pool for reuse under one lock; buffers past
    /// [`MAX_POOLED`] just deallocate. Recycled capacity feeds the
    /// `tensor.scratch.bytes_recycled` counter, the current pool depth the
    /// `tensor.scratch.pooled` gauge, and resident capacity the
    /// `tensor.scratch.bytes_pooled` gauge plus its `.peak` high-watermark.
    pub fn put_all(bufs: impl IntoIterator<Item = Vec<f32>>) {
        let mut recycled = 0u64;
        let mut pooled = 0u64;
        let mut pool = POOL.lock().unwrap();
        for mut buf in bufs {
            if buf.capacity() == 0 || buf.capacity() > MAX_BUF_CAP {
                continue;
            }
            let bytes = (buf.capacity() * std::mem::size_of::<f32>()) as u64;
            recycled += bytes;
            if pool.len() < MAX_POOLED {
                buf.clear();
                pool.push(buf);
                pooled += bytes;
            }
        }
        // Account under the lock, or a concurrent `take` could subtract
        // a buffer's bytes before they were added.
        let resident = POOL_BYTES.fetch_add(pooled, Ordering::Relaxed) + pooled;
        let depth = pool.len();
        drop(pool);
        if recycled == 0 {
            return;
        }
        wb_obs::counter!("tensor.scratch.bytes_recycled", recycled);
        if pooled > 0 {
            wb_obs::gauge!("tensor.scratch.bytes_pooled", resident as f64);
            wb_obs::gauge_max!("tensor.scratch.bytes_pooled.peak", resident as f64);
            wb_obs::trace::sample("tensor.scratch.bytes_pooled", resident as f64);
        }
        wb_obs::gauge!("tensor.scratch.pooled", depth as f64);
    }

    /// Number of buffers currently pooled (diagnostics/tests).
    pub fn pooled() -> usize {
        POOL.lock().unwrap().len()
    }

    /// Copies `src` into a pooled buffer.
    pub(crate) fn copy_of(src: &[f32]) -> Vec<f32> {
        let mut buf = take();
        buf.extend_from_slice(src);
        buf
    }

    /// A pooled buffer of `n` zeros.
    pub(crate) fn zeroed(n: usize) -> Vec<f32> {
        let mut buf = take();
        buf.resize(n, 0.0);
        buf
    }
}

/// Splits `total` work items into chunks sized for the current pool width.
fn par_chunk(total: usize) -> usize {
    let target = rayon::current_num_threads() * 4;
    (total + target - 1) / target.max(1)
}

/// A dense, row-major tensor of `f32` values.
///
/// Invariant: `data.len() == shape.iter().product()`. A scalar is represented
/// by an empty shape and a single element.
#[derive(Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} values]", self.data.len())
        }
    }
}

impl Tensor {
    /// Creates a tensor from a shape and backing data.
    ///
    /// # Panics
    /// Panics if the number of elements implied by `shape` differs from
    /// `data.len()`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {:?} does not match {} elements",
            shape,
            data.len()
        );
        Tensor { shape: shape.to_vec(), data }
    }

    /// A scalar tensor (empty shape).
    pub fn scalar(v: f32) -> Self {
        Tensor { shape: vec![], data: vec![v] }
    }

    /// A tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor { shape: shape.to_vec(), data: vec![0.0; shape.iter().product()] }
    }

    /// A tensor filled with `v`.
    pub fn full(shape: &[usize], v: f32) -> Self {
        Tensor { shape: shape.to_vec(), data: vec![v; shape.iter().product()] }
    }

    /// The shape slice.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of rows of a rank-2 tensor (or 1 for rank-0/1).
    pub fn rows(&self) -> usize {
        match self.shape.len() {
            0 | 1 => 1,
            _ => self.shape[0],
        }
    }

    /// Number of columns, i.e. the size of the final axis (1 for scalars).
    pub fn cols(&self) -> usize {
        self.shape.last().copied().unwrap_or(1)
    }

    /// Borrow the backing data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the backing data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the backing vector.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// The single value of a scalar (or 1-element) tensor.
    ///
    /// # Panics
    /// Panics when the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on tensor of shape {:?}", self.shape);
        self.data[0]
    }

    /// Reinterprets the data with a new shape of equal element count.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        Tensor::from_vec(shape, self.data.clone())
    }

    /// Borrow row `r` of a rank-2 tensor.
    pub fn row(&self, r: usize) -> &[f32] {
        let c = self.cols();
        &self.data[r * c..(r + 1) * c]
    }

    /// Element-wise binary map; shapes must match exactly. Large tensors
    /// are processed in parallel chunks; `f` is applied per element either
    /// way, so the result does not depend on the thread count.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        let mut data = scratch::copy_of(&self.data);
        if data.len() >= PAR_MIN_ELEMS && rayon::current_num_threads() > 1 {
            let chunk = par_chunk(data.len());
            data.par_chunks_mut(chunk).enumerate().for_each(|(ci, c)| {
                let other = &other.data[ci * chunk..ci * chunk + c.len()];
                for (v, &b) in c.iter_mut().zip(other) {
                    *v = f(*v, b);
                }
            });
        } else {
            for (v, &b) in data.iter_mut().zip(&other.data) {
                *v = f(*v, b);
            }
        }
        Tensor { shape: self.shape.clone(), data }
    }

    /// Element-wise unary map; parallel for large tensors (see
    /// [`Tensor::zip_map`]).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut data = scratch::copy_of(&self.data);
        if data.len() >= PAR_MIN_ELEMS && rayon::current_num_threads() > 1 {
            let chunk = par_chunk(data.len());
            data.par_chunks_mut(chunk).for_each(|c| {
                for v in c.iter_mut() {
                    *v = f(*v);
                }
            });
        } else {
            for v in data.iter_mut() {
                *v = f(*v);
            }
        }
        Tensor { shape: self.shape.clone(), data }
    }

    /// `self + other` element-wise.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// `self - other` element-wise.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// `self * other` element-wise (Hadamard product).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// `self * k`.
    pub fn scale(&self, k: f32) -> Tensor {
        self.map(|a| a * k)
    }

    /// `self += other * k`, in place. Shapes must match.
    pub fn add_assign_scaled(&mut self, other: &Tensor, k: f32) {
        assert_eq!(self.shape, other.shape, "add_assign_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * k;
        }
    }

    /// `self *= k`, in place.
    pub fn scale_in_place(&mut self, k: f32) {
        for a in &mut self.data {
            *a *= k;
        }
    }

    /// Adds a rank-1 bias of length `cols` to every row, returning a new
    /// tensor. Rows are processed in parallel for large tensors.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        let c = self.cols();
        assert_eq!(bias.len(), c, "bias length must equal column count");
        let mut data = scratch::copy_of(&self.data);
        if self.rows() >= PAR_MIN_ROWS
            && data.len() >= PAR_MIN_ELEMS
            && rayon::current_num_threads() > 1
        {
            let rows_per = par_chunk(self.rows());
            data.par_chunks_mut(rows_per * c).for_each(|block| {
                for row in block.chunks_mut(c) {
                    for (x, &b) in row.iter_mut().zip(&bias.data) {
                        *x += b;
                    }
                }
            });
        } else {
            for row in data.chunks_mut(c) {
                for (x, &b) in row.iter_mut().zip(&bias.data) {
                    *x += b;
                }
            }
        }
        Tensor { shape: self.shape.clone(), data }
    }

    /// Matrix product of rank-2 tensors, with optional transposition of
    /// either operand. `matmul(a, b, false, false)` computes `a @ b`.
    ///
    /// Products above [`crate::kernels::PACK_MIN_MACS`] multiply-accumulates
    /// take the packed, cache-blocked path (see [`crate::kernels`]): the
    /// transposed operand is repacked into row-major panels once per call,
    /// so all four transpose variants hit the same SIMD-friendly inner
    /// loop. Large products (≥ [`PAR_MIN_ROWS`] output rows and ≥
    /// [`PAR_MIN_MACS`] multiply-accumulates) are additionally split by
    /// output row across the rayon pool. Each output element accumulates
    /// in ascending-`k` order on a single chain on every path and no term
    /// is ever skipped, so the result is bit-for-bit identical for any
    /// thread count and variant on every non-NaN output, and NaN/Inf
    /// inputs poison exactly the same outputs everywhere (only the payload
    /// of a NaN-vs-NaN sum is codegen-chosen — see [`crate::kernels`]).
    pub fn matmul(&self, other: &Tensor, trans_a: bool, trans_b: bool) -> Tensor {
        let (am, ak, bn) = matmul_check(self, other, trans_a, trans_b);
        let mut out = scratch::zeroed(am * bn);
        matmul_dispatch(&self.data, &other.data, trans_a, trans_b, am, ak, bn, &mut out, true);
        Tensor { shape: vec![am, bn], data: out }
    }

    /// Matrix product into an existing tensor, reusing its allocation.
    ///
    /// Shape checks and results are identical to [`Tensor::matmul`]; only
    /// the output buffer is recycled. Hot loops that produce a matmul
    /// result every step (e.g. the trainer's tapes) use this to avoid
    /// per-step allocation.
    pub fn matmul_into(&self, other: &Tensor, trans_a: bool, trans_b: bool, out: &mut Tensor) {
        let (am, ak, bn) = matmul_check(self, other, trans_a, trans_b);
        out.data.clear();
        out.data.resize(am * bn, 0.0);
        out.shape.clear();
        out.shape.extend_from_slice(&[am, bn]);
        matmul_dispatch(
            &self.data,
            &other.data,
            trans_a,
            trans_b,
            am,
            ak,
            bn,
            &mut out.data,
            true,
        );
    }

    /// Serial reference matmul: same results as [`Tensor::matmul`]
    /// (bit-for-bit up to NaN payloads — see [`crate::kernels`]'s
    /// bit-exactness contract), but never uses the thread pool or the packed
    /// kernels — it always runs the direct per-variant loops. Kept public
    /// so tests and benchmarks can compare the packed/parallel paths
    /// against an independent implementation.
    pub fn matmul_serial(&self, other: &Tensor, trans_a: bool, trans_b: bool) -> Tensor {
        let (am, ak, bn) = matmul_check(self, other, trans_a, trans_b);
        let mut out = scratch::zeroed(am * bn);
        matmul_dispatch(&self.data, &other.data, trans_a, trans_b, am, ak, bn, &mut out, false);
        Tensor { shape: vec![am, bn], data: out }
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose requires rank 2");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor::from_vec(&[c, r], out)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Index of the maximum element (first on ties).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Row-wise argmax of a rank-2 tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let c = self.cols();
        self.data
            .chunks(c)
            .map(|row| {
                let mut best = 0;
                let mut best_v = f32::NEG_INFINITY;
                for (i, &v) in row.iter().enumerate() {
                    if v > best_v {
                        best_v = v;
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Row-wise softmax with a temperature; numerically stabilised. Rows
    /// are independent, so large tensors fan out over the rayon pool with
    /// identical per-row arithmetic (thread count never changes results).
    pub fn softmax_rows(&self, temperature: f32) -> Tensor {
        let c = self.cols();
        let mut data = scratch::copy_of(&self.data);
        if self.rows() >= PAR_MIN_ROWS
            && data.len() >= PAR_MIN_ELEMS
            && rayon::current_num_threads() > 1
        {
            let rows_per = par_chunk(self.rows());
            data.par_chunks_mut(rows_per * c).for_each(|block| {
                for row in block.chunks_mut(c) {
                    softmax_slice(row, temperature);
                }
            });
        } else {
            for row in data.chunks_mut(c) {
                softmax_slice(row, temperature);
            }
        }
        Tensor { shape: self.shape.clone(), data }
    }

    /// The Frobenius (L2) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Concatenates rank-2 tensors along rows (axis 0). All tensors must
    /// share the same column count.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows of zero tensors");
        let c = parts[0].cols();
        let mut data = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        let mut rows = 0;
        for p in parts {
            assert_eq!(p.cols(), c, "concat_rows column mismatch");
            rows += p.rows();
            data.extend_from_slice(&p.data);
        }
        Tensor::from_vec(&[rows, c], data)
    }

    /// Concatenates rank-2 tensors along columns (axis 1). All tensors must
    /// share the same row count.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols of zero tensors");
        let r = parts[0].rows();
        let total_c: usize = parts.iter().map(|p| p.cols()).sum();
        let mut data = vec![0.0; r * total_c];
        let mut offset = 0;
        for p in parts {
            assert_eq!(p.rows(), r, "concat_cols row mismatch");
            let c = p.cols();
            for i in 0..r {
                data[i * total_c + offset..i * total_c + offset + c].copy_from_slice(p.row(i));
            }
            offset += c;
        }
        Tensor::from_vec(&[r, total_c], data)
    }

    /// Gathers rows by index from a rank-2 table: `out[i] = table[idx[i]]`.
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        let c = self.cols();
        let mut data = Vec::with_capacity(idx.len() * c);
        for &i in idx {
            assert!(i < self.rows(), "gather index {} out of {} rows", i, self.rows());
            data.extend_from_slice(self.row(i));
        }
        Tensor::from_vec(&[idx.len(), c], data)
    }

    /// Extracts rows `[start, end)` of a rank-2 tensor as a new tensor.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert!(start <= end && end <= self.rows(), "slice_rows out of bounds");
        let c = self.cols();
        Tensor::from_vec(&[end - start, c], self.data[start * c..end * c].to_vec())
    }
}

/// In-place numerically stable softmax of a slice with temperature.
///
/// A fully masked row (every entry `-inf`) carries no information about a
/// preference; `(v - max)` would be `NaN` there, so such rows fall back to
/// the uniform distribution instead of propagating NaNs.
pub fn softmax_slice(row: &mut [f32], temperature: f32) {
    debug_assert!(temperature > 0.0);
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        if !row.is_empty() {
            let uniform = 1.0 / row.len() as f32;
            for v in row.iter_mut() {
                *v = uniform;
            }
        }
        return;
    }
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = ((*v - max) / temperature).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

fn mat_dims(t: &Tensor, trans: bool) -> (usize, usize) {
    assert_eq!(t.shape().len(), 2, "matmul requires rank-2, got {:?}", t.shape());
    if trans {
        (t.shape()[1], t.shape()[0])
    } else {
        (t.shape()[0], t.shape()[1])
    }
}

/// Validates operand ranks/shapes and returns `(m, k, n)`.
fn matmul_check(a: &Tensor, b: &Tensor, trans_a: bool, trans_b: bool) -> (usize, usize, usize) {
    let (am, ak) = mat_dims(a, trans_a);
    let (bk, bn) = mat_dims(b, trans_b);
    assert_eq!(
        ak,
        bk,
        "matmul inner-dimension mismatch: {:?}{} @ {:?}{}",
        a.shape,
        if trans_a { "ᵀ" } else { "" },
        b.shape,
        if trans_b { "ᵀ" } else { "" }
    );
    (am, ak, bn)
}

/// Runs a matmul either serially or split by output row over the pool,
/// routing large products through the packed/tiled [`crate::kernels`] and
/// small ones through the direct per-variant loops. Both paths accumulate
/// every output element in ascending-`k` order on a single chain and
/// never skip a term, so results are bit-identical across paths, thread
/// counts, and transpose variants — non-finite inputs poison the same
/// outputs everywhere, with only NaN payloads left codegen-chosen (see
/// [`crate::kernels`]).
#[allow(clippy::too_many_arguments)]
fn matmul_dispatch(
    a: &[f32],
    b: &[f32],
    trans_a: bool,
    trans_b: bool,
    am: usize,
    ak: usize,
    bn: usize,
    out: &mut [f32],
    allow_parallel: bool,
) {
    if am == 0 || bn == 0 {
        return;
    }
    // Per-variant call and FLOP counters (see docs/OBSERVABILITY.md).
    // These are single relaxed atomic adds, amortised over `m·k·n`
    // multiply-accumulates of real work.
    match (trans_a, trans_b) {
        (false, false) => wb_obs::counter!("tensor.matmul.calls.nn"),
        (true, false) => wb_obs::counter!("tensor.matmul.calls.tn"),
        (false, true) => wb_obs::counter!("tensor.matmul.calls.nt"),
        (true, true) => wb_obs::counter!("tensor.matmul.calls.tt"),
    }
    wb_obs::counter!("tensor.matmul.flops", (2 * am * ak * bn) as u64);
    let macs = am * ak * bn;
    let parallel = allow_parallel
        && am >= PAR_MIN_ROWS
        && macs >= PAR_MIN_MACS
        && rayon::current_num_threads() > 1;
    if parallel {
        wb_obs::counter!("tensor.matmul.dispatch.parallel");
    } else {
        wb_obs::counter!("tensor.matmul.dispatch.serial");
    }
    // `matmul_serial` (allow_parallel = false) stays on the direct loops:
    // it is the independent reference the packed path is tested against.
    if allow_parallel && ak > 0 && macs >= crate::kernels::PACK_MIN_MACS {
        crate::kernels::matmul_packed(
            a,
            b,
            trans_a,
            trans_b,
            am,
            ak,
            bn,
            out,
            parallel,
            par_chunk(am),
        );
    } else {
        wb_obs::counter!("tensor.matmul.kernel.direct");
        if parallel {
            let rows_per = par_chunk(am);
            out.par_chunks_mut(rows_per * bn).enumerate().for_each(|(ci, chunk)| {
                crate::kernels::direct_rows(
                    a,
                    b,
                    trans_a,
                    trans_b,
                    am,
                    ak,
                    bn,
                    ci * rows_per,
                    chunk,
                );
            });
        } else {
            crate::kernels::direct_rows(a, b, trans_a, trans_b, am, ak, bn, 0, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.row(1), &[4., 5., 6.]);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_bad_shape_panics() {
        let _ = Tensor::from_vec(&[2, 2], vec![1., 2., 3.]);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(4.5).item(), 4.5);
    }

    #[test]
    fn matmul_plain() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b, false, false);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_transpose_variants_agree() {
        let a = Tensor::from_vec(&[2, 3], vec![1., -2., 3., 0.5, 5., -6.]);
        let b = Tensor::from_vec(&[3, 4], (0..12).map(|i| i as f32 * 0.25).collect());
        let base = a.matmul(&b, false, false);
        let ta = a.transpose();
        let tb = b.transpose();
        assert_eq!(ta.matmul(&b, true, false).data(), base.data());
        assert_eq!(a.matmul(&tb, false, true).data(), base.data());
        assert_eq!(ta.matmul(&tb, true, true).data(), base.data());
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., -1., 0., 100.]);
        let s = t.softmax_rows(1.0);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Large logit dominates without overflow.
        assert!(s.row(1)[2] > 0.999);
    }

    #[test]
    fn softmax_temperature_flattens() {
        let t = Tensor::from_vec(&[1, 2], vec![0., 2.]);
        let sharp = t.softmax_rows(0.5);
        let soft = t.softmax_rows(4.0);
        assert!(sharp.row(0)[1] > soft.row(0)[1]);
    }

    #[test]
    fn concat_rows_and_cols() {
        let a = Tensor::from_vec(&[1, 2], vec![1., 2.]);
        let b = Tensor::from_vec(&[2, 2], vec![3., 4., 5., 6.]);
        let r = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), &[1., 2., 3., 4., 5., 6.]);

        let c = Tensor::from_vec(&[2, 1], vec![9., 10.]);
        let cc = Tensor::concat_cols(&[&b, &c]);
        assert_eq!(cc.shape(), &[2, 3]);
        assert_eq!(cc.data(), &[3., 4., 9., 5., 6., 10.]);
    }

    #[test]
    fn gather_and_slice() {
        let t = Tensor::from_vec(&[3, 2], vec![0., 1., 10., 11., 20., 21.]);
        let g = t.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[20., 21., 0., 1., 20., 21.]);
        let s = t.slice_rows(1, 3);
        assert_eq!(s.data(), &[10., 11., 20., 21.]);
    }

    #[test]
    fn argmax_rows_picks_first_on_tie() {
        let t = Tensor::from_vec(&[2, 3], vec![5., 5., 1., 0., 2., 2.]);
        assert_eq!(t.argmax_rows(), vec![0, 1]);
    }

    #[test]
    fn broadcast_bias() {
        let t = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(&[2], vec![10., 20.]);
        assert_eq!(t.add_row_broadcast(&b).data(), &[11., 22., 13., 24.]);
    }

    #[test]
    fn norm_matches_manual() {
        let t = Tensor::from_vec(&[2], vec![3., 4.]);
        assert!((t.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_all_masked_row_is_uniform() {
        // Regression: an all -inf row used to produce NaNs; it must fall
        // back to the uniform distribution.
        let mut row = vec![f32::NEG_INFINITY; 4];
        softmax_slice(&mut row, 1.0);
        assert_eq!(row, vec![0.25; 4]);

        // The tensor-level op inherits the fallback.
        let t = Tensor::from_vec(&[1, 4], vec![f32::NEG_INFINITY; 4]);
        assert_eq!(t.softmax_rows(1.0).data(), &[0.25; 4]);
    }

    #[test]
    fn softmax_partially_masked_row_keeps_zero_mass_on_masked() {
        let mut row = vec![f32::NEG_INFINITY, 0.0, 0.0];
        softmax_slice(&mut row, 1.0);
        assert_eq!(row[0], 0.0);
        assert!((row[1] - 0.5).abs() < 1e-6);
        assert!((row[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_empty_row_is_noop() {
        let mut row: Vec<f32> = vec![];
        softmax_slice(&mut row, 1.0);
        assert!(row.is_empty());
    }

    #[test]
    fn matmul_into_reuses_buffer_and_matches_matmul() {
        let a = Tensor::from_vec(&[2, 3], vec![1., -2., 3., 0.5, 5., -6.]);
        let b = Tensor::from_vec(&[3, 4], (0..12).map(|i| i as f32 * 0.25).collect());
        let expected = a.matmul(&b, false, false);
        // Start from a differently shaped tensor with stale contents.
        let mut out = Tensor::from_vec(&[1, 2], vec![9.0, 9.0]);
        a.matmul_into(&b, false, false, &mut out);
        assert_eq!(out, expected);
        // Repeat in place: same buffer, same result.
        let ptr = out.data().as_ptr();
        a.matmul_into(&b, false, false, &mut out);
        assert_eq!(out, expected);
        assert_eq!(out.data().as_ptr(), ptr, "buffer was re-allocated");
    }

    #[test]
    fn parallel_matmul_is_bit_identical_to_serial() {
        // Big enough to cross both parallel thresholds (PAR_MIN_ROWS and
        // PAR_MIN_MACS) for every transpose combination.
        let n = 160;
        let a = Tensor::from_vec(
            &[n, n],
            (0..n * n).map(|i| ((i * 2654435761usize) % 1000) as f32 / 997.0 - 0.5).collect(),
        );
        let b = Tensor::from_vec(
            &[n, n],
            (0..n * n).map(|i| ((i * 40503usize) % 1000) as f32 / 991.0 - 0.5).collect(),
        );
        for &(ta, tb) in &[(false, false), (true, false), (false, true), (true, true)] {
            let par = a.matmul(&b, ta, tb);
            let ser = a.matmul_serial(&b, ta, tb);
            assert_eq!(par.data(), ser.data(), "variant ({ta}, {tb}) diverged");
        }
    }

    #[test]
    fn zero_times_nan_is_nan_not_zero() {
        // Regression for the zero-skip bug: `nn`/`tn` once skipped
        // `av == 0.0` terms, converting `0 × NaN` and `0 × ∞` into `0` and
        // silently masking NaN poisoning from the NaN-rollback guard.
        let a = Tensor::from_vec(&[2, 3], vec![0., 0., 0., 1., 2., 3.]);
        let mut bdata = vec![1.0f32; 6];
        bdata[1] = f32::NAN; // b[0, 1]
        bdata[4] = f32::INFINITY; // b[2, 0]
        let b = Tensor::from_vec(&[3, 2], bdata);
        let c = a.matmul(&b, false, false);
        // Row 0 is all zeros, but 0×NaN = NaN and 0×∞ = NaN must leak out.
        assert!(c.data()[0].is_nan(), "0 × ∞ must be NaN, got {}", c.data()[0]);
        assert!(c.data()[1].is_nan(), "0 × NaN must be NaN, got {}", c.data()[1]);
        // The same product through every variant agrees bit-for-bit (NaN
        // payloads canonicalized — see the kernels bit-exactness contract).
        let base_bits: Vec<u32> = c.data().iter().map(canon_bits).collect();
        let ta = a.transpose();
        let tb = b.transpose();
        for (t, ser) in [
            (ta.matmul(&b, true, false), ta.matmul_serial(&b, true, false)),
            (a.matmul(&tb, false, true), a.matmul_serial(&tb, false, true)),
            (ta.matmul(&tb, true, true), ta.matmul_serial(&tb, true, true)),
        ] {
            let bits: Vec<u32> = t.data().iter().map(canon_bits).collect();
            assert_eq!(bits, base_bits, "variant disagreed on non-finite inputs");
            let ser_bits: Vec<u32> = ser.data().iter().map(canon_bits).collect();
            assert_eq!(bits, ser_bits, "variant disagreed with matmul_serial");
        }
    }

    /// Bit pattern with NaN payloads canonicalized: NaN-ness, ±Inf, -0.0
    /// and all finite values compare exactly; which payload survives a
    /// NaN + NaN sum is codegen-chosen and deliberately not compared.
    fn canon_bits(v: &f32) -> u32 {
        if v.is_nan() {
            f32::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    #[test]
    fn packed_path_bit_matches_serial_reference() {
        // Big enough to cross PACK_MIN_MACS (and the parallel thresholds)
        // so `matmul` takes the packed kernels while `matmul_serial` stays
        // on the direct loops — a genuine cross-implementation check, with
        // non-finite values and zero rows/columns laced in.
        let n = crate::kernels::KC + 40;
        let mut adata: Vec<f32> =
            (0..n * n).map(|i| ((i * 2654435761usize) % 1000) as f32 / 997.0 - 0.5).collect();
        let mut bdata: Vec<f32> =
            (0..n * n).map(|i| ((i * 40503usize) % 1000) as f32 / 991.0 - 0.5).collect();
        for j in 0..n {
            adata[3 * n + j] = 0.0; // zero row in a
            bdata[j * n + 5] = 0.0; // zero column in b
        }
        adata[7 * n + 11] = f32::NAN;
        adata[8 * n + 2] = f32::NEG_INFINITY;
        bdata[4 * n + 9] = f32::INFINITY;
        bdata[6 * n + 6] = -0.0;
        let a = Tensor::from_vec(&[n, n], adata);
        let b = Tensor::from_vec(&[n, n], bdata);
        for &(ta, tb) in &[(false, false), (true, false), (false, true), (true, true)] {
            let packed = a.matmul(&b, ta, tb);
            let ser = a.matmul_serial(&b, ta, tb);
            let pb: Vec<u32> = packed.data().iter().map(canon_bits).collect();
            let sb: Vec<u32> = ser.data().iter().map(canon_bits).collect();
            assert_eq!(pb, sb, "packed variant ({ta}, {tb}) diverged from serial");
        }
    }

    #[test]
    fn scratch_pool_recycles_buffers() {
        let buf = vec![1.0f32; 64];
        scratch::put(buf);
        let got = scratch::take();
        assert!(got.is_empty(), "pooled buffers come back cleared");
    }
}
