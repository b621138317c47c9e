/**
 * @file
 * Internal helpers shared by the op implementation files. Not part of
 * the public API.
 */

#ifndef NSBENCH_TENSOR_OPS_COMMON_HH
#define NSBENCH_TENSOR_OPS_COMMON_HH

#include <algorithm>

#include "tensor/fused.hh"
#include "tensor/tensor.hh"
#include "util/threadpool.hh"

namespace nsbench::tensor::detail
{

inline constexpr double elemBytes = sizeof(float);

/**
 * Runs a deterministic chunked reduction: [0, items) is cut into
 * fixed chunks of `grain` iterations, `partial` fills slot c from its
 * chunk (in parallel), and `combine` folds the slots in chunk order on
 * the calling thread. Because the chunk grid depends only on the
 * grain, the result is identical at every thread count.
 */
template <typename Partial, typename Combine>
void
chunkedReduce(int64_t items, int64_t grain, Partial partial,
              Combine combine)
{
    grain = std::max<int64_t>(1, grain);
    int64_t chunks = (items + grain - 1) / grain;
    util::parallelFor(0, chunks, 1, [&](int64_t c0, int64_t c1) {
        for (int64_t c = c0; c < c1; c++) {
            int64_t lo = c * grain;
            int64_t hi = std::min(items, lo + grain);
            partial(c, lo, hi);
        }
    });
    for (int64_t c = 0; c < chunks; c++)
        combine(c);
}

/** Binary span kernel signature from the SIMD backend (util/simd.hh). */
using BinaryKernel = void (*)(const float *, const float *, float *,
                              int64_t);

/**
 * out = kernel(a, b) as one op through the fusedMap frame. `out` may
 * be `a` or `b` (the in-place ops pass dst twice).
 */
inline void
mapBinary(const char *name, Tensor &out, const Tensor &a,
          const Tensor &b, BinaryKernel kernel)
{
    fusedMap(name, out, a, b, 1.0,
             [kernel](const float *pa, const float *pb, float *po,
                      float *, int64_t n) { kernel(pa, pb, po, n); });
}

/**
 * out = span_fn(a) as one op through the fusedMapUnary frame, where
 * `span_fn(in, out, len)` maps one tile. `out` may be `a`.
 */
template <typename SpanFn>
void
mapUnary(const char *name, Tensor &out, const Tensor &a,
         double flops_per_elem, SpanFn span_fn)
{
    fusedMapUnary(name, out, a, flops_per_elem,
                  [&span_fn](const float *pa, float *po, float *,
                             int64_t n) { span_fn(pa, po, n); });
}

} // namespace nsbench::tensor::detail

#endif // NSBENCH_TENSOR_OPS_COMMON_HH
