/**
 * @file
 * Fused elementwise execution.
 *
 * The paper's operator breakdown (Fig. 3a) shows elementwise chains —
 * the t-norm algebra in LTN/LNN, VSA thresholding, PMF renormalization
 * — spending most of their time materializing intermediates: a chain
 * like clamp(sub(addScalar(a, k), b), 0, 1) writes and re-reads one
 * full tensor per step. fusedMap() runs the whole chain tile-by-tile
 * through the util::simd span kernels, with one cache-resident stack
 * scratch tile instead of whole-tensor intermediates, so the chain
 * reads each input once and writes the output once.
 *
 * Determinism contract: elementwise kernels are position-independent
 * (element i depends only on the operands' element i), so tiling does
 * not change results — a fused chain composed of the same simd kernel
 * calls in the same order is bit-identical to the unfused chain on
 * both backends. Do NOT fuse with different arithmetic (e.g. an FMA
 * where the unfused chain did mul-then-add): that changes rounding.
 *
 * These two frames are the only same-shape elementwise frames: every
 * elementwise op in tensor/ops.hh, allocating or in place, is a
 * fusedMap/fusedMapUnary call with a one-kernel chunk function.
 *
 * Aliasing: `out` may be one of the inputs (exact overlap only),
 * which is how the *InPlace ops in tensor/ops.hh are built.
 */

#ifndef NSBENCH_TENSOR_FUSED_HH
#define NSBENCH_TENSOR_FUSED_HH

#include <algorithm>

#include "core/profiler.hh"
#include "tensor/tensor.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

namespace nsbench::tensor
{

/**
 * Tile size (elements) for fused chains: 16 KiB of scratch, small
 * enough to live in L1 next to the operand tiles.
 */
inline constexpr int64_t kFuseTile = 4096;

/**
 * Applies a fused binary chain tile-by-tile: for each tile,
 * `chunk_fn(a_tile, b_tile, out_tile, scratch, len)` with
 * `len <= kFuseTile` and `scratch` a kFuseTile-float workspace for
 * intermediates. Recorded as one profiler op whose stream model is
 * "read both inputs once, write the output once" — the fusion's
 * traffic saving is visible as fewer ops, not fudged byte counts.
 *
 * `out` must have the operands' shape and may share storage with
 * either operand (exact overlap only).
 */
template <typename ChunkFn>
void
fusedMap(const char *name, Tensor &out, const Tensor &a,
         const Tensor &b, double flops_per_elem, ChunkFn chunk_fn)
{
    const Shape &other =
        a.shape() != b.shape() ? b.shape() : out.shape();
    if (other != a.shape())
        util::panic(std::string(name) + ": shape mismatch " +
                    shapeStr(a.shape()) + " vs " + shapeStr(other));
    core::ScopedOp op(name, core::OpCategory::VectorElementwise);
    auto pa = a.data();
    auto pb = b.data();
    auto po = out.data();
    auto n = static_cast<int64_t>(pa.size());
    util::parallelFor(
        0, n, util::grainFor(flops_per_elem),
        [&](int64_t lo, int64_t hi) {
            alignas(64) float scratch[kFuseTile];
            for (int64_t t = lo; t < hi; t += kFuseTile) {
                int64_t len = std::min<int64_t>(kFuseTile, hi - t);
                chunk_fn(pa.data() + t, pb.data() + t, po.data() + t,
                         scratch, len);
            }
        });
    op.setFlops(static_cast<double>(n) * flops_per_elem);
    op.setBytesRead(2.0 * static_cast<double>(n) * sizeof(float));
    op.setBytesWritten(static_cast<double>(n) * sizeof(float));
}

/** Unary variant: `chunk_fn(a_tile, out_tile, scratch, len)`. */
template <typename ChunkFn>
void
fusedMapUnary(const char *name, Tensor &out, const Tensor &a,
              double flops_per_elem, ChunkFn chunk_fn)
{
    if (out.shape() != a.shape())
        util::panic(std::string(name) + ": shape mismatch " +
                    shapeStr(a.shape()) + " vs " +
                    shapeStr(out.shape()));
    core::ScopedOp op(name, core::OpCategory::VectorElementwise);
    auto pa = a.data();
    auto po = out.data();
    auto n = static_cast<int64_t>(pa.size());
    util::parallelFor(
        0, n, util::grainFor(flops_per_elem),
        [&](int64_t lo, int64_t hi) {
            alignas(64) float scratch[kFuseTile];
            for (int64_t t = lo; t < hi; t += kFuseTile) {
                int64_t len = std::min<int64_t>(kFuseTile, hi - t);
                chunk_fn(pa.data() + t, po.data() + t, scratch, len);
            }
        });
    op.setFlops(static_cast<double>(n) * flops_per_elem);
    op.setBytesRead(static_cast<double>(n) * sizeof(float));
    op.setBytesWritten(static_cast<double>(n) * sizeof(float));
}

} // namespace nsbench::tensor

#endif // NSBENCH_TENSOR_FUSED_HH
