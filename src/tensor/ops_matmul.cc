#include <algorithm>

#include "tensor/ops.hh"
#include "tensor/ops_common.hh"
#include "util/simd.hh"

namespace nsbench::tensor
{

using detail::elemBytes;

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    util::panicIf(a.dim() != 2 || b.dim() != 2,
                  "matmul: rank-2 tensors required");
    int64_t m = a.size(0);
    int64_t k = a.size(1);
    int64_t n = b.size(1);
    util::panicIf(b.size(0) != k,
                  "matmul: inner dimension mismatch " +
                      shapeStr(a.shape()) + " x " +
                      shapeStr(b.shape()));

    core::ScopedOp op("matmul", core::OpCategory::MatMul);
    // matmulRows zeroes each output row itself before accumulating,
    // so the uninitialized path is legal here.
    Tensor out = Tensor::uninitialized({m, n});
    auto pa = a.data();
    auto pb = b.data();
    auto po = out.data();

    // Row-blocked over the output: each lane owns whole rows of C, so
    // writes never overlap, and each row's value is a pure function of
    // its operands (identical at any thread count for a fixed
    // backend). The grain is held at >= 4 rows so the AVX2 kernel's
    // 4-row register tile engages; the chunk grid never affects
    // per-row results, only speed.
    util::parallelFor(
        0, m,
        std::max<int64_t>(
            4, util::grainFor(2.0 * static_cast<double>(k * n))),
        [&](int64_t i0, int64_t i1) {
            util::simd::matmulRows(pa.data(), pb.data(), po.data(),
                                   i0, i1, k, n);
        });

    op.setFlops(2.0 * static_cast<double>(m) *
                static_cast<double>(n) * static_cast<double>(k));
    op.setBytesRead(static_cast<double>(m * k + k * n) * elemBytes);
    op.setBytesWritten(static_cast<double>(m * n) * elemBytes);
    return out;
}

Tensor
linear(const Tensor &x, const Tensor &w, const Tensor &bias)
{
    util::panicIf(x.dim() != 2 || w.dim() != 2,
                  "linear: rank-2 tensors required");
    int64_t n = x.size(0);
    int64_t k = x.size(1);
    int64_t o = w.size(0);
    util::panicIf(w.size(1) != k,
                  "linear: weight inner dimension mismatch");
    bool has_bias = !bias.empty();
    util::panicIf(has_bias && (bias.dim() != 1 || bias.size(0) != o),
                  "linear: bias shape mismatch");

    core::ScopedOp op("linear", core::OpCategory::MatMul);
    // linearRows stores every Y[i, j] exactly once.
    Tensor out = Tensor::uninitialized({n, o});
    auto px = x.data();
    auto pw = w.data();
    auto po = out.data();
    std::span<const float> pbias;
    if (has_bias)
        pbias = bias.data();

    // Row-blocked over the batch dimension; every output element is
    // produced by exactly one lane as a pure function of its operands.
    util::parallelFor(
        0, n, util::grainFor(2.0 * static_cast<double>(o * k)),
        [&](int64_t i0, int64_t i1) {
            util::simd::linearRows(px.data(), pw.data(),
                                   has_bias ? pbias.data() : nullptr,
                                   po.data(), i0, i1, k, o);
        });

    op.setFlops(2.0 * static_cast<double>(n) *
                    static_cast<double>(o) * static_cast<double>(k) +
                (has_bias ? static_cast<double>(n * o) : 0.0));
    op.setBytesRead(static_cast<double>(n * k + o * k +
                                        (has_bias ? o : 0)) *
                    elemBytes);
    op.setBytesWritten(static_cast<double>(n * o) * elemBytes);
    return out;
}

float
dot(const Tensor &a, const Tensor &b)
{
    util::panicIf(a.dim() != 1 || b.dim() != 1 ||
                      a.size(0) != b.size(0),
                  "dot: rank-1 equal-length tensors required");
    core::ScopedOp op("dot", core::OpCategory::MatMul);
    auto pa = a.data();
    auto pb = b.data();
    auto n = static_cast<int64_t>(pa.size());
    int64_t grain = util::grainFor(2.0);
    std::vector<double> partials(
        static_cast<size_t>((n + grain - 1) / std::max<int64_t>(
                                                  grain, 1)),
        0.0);
    double acc = 0.0;
    detail::chunkedReduce(
        n, grain,
        [&](int64_t c, int64_t lo, int64_t hi) {
            partials[static_cast<size_t>(c)] =
                util::simd::dotChunk(pa.data() + lo, pb.data() + lo,
                                     hi - lo);
        },
        [&](int64_t c) { acc += partials[static_cast<size_t>(c)]; });
    auto dn = static_cast<double>(a.numel());
    op.setFlops(2.0 * dn);
    op.setBytesRead(2.0 * dn * elemBytes);
    op.setBytesWritten(elemBytes);
    return static_cast<float>(acc);
}

} // namespace nsbench::tensor
