/**
 * @file
 * In-place elementwise ops.
 *
 * These reuse the destination's storage instead of allocating a fresh
 * result, cutting the allocation churn and write-allocate traffic the
 * paper's Fig. 3 attributes to the symbolic stages. Arithmetic is the
 * same simd span kernels as the allocating ops, applied with
 * out == dst (exact aliasing, which the kernel contract permits), so
 * results are bit-identical to the allocating counterparts.
 *
 * Profiler attribution matches the allocating ops' stream model
 * (inputs read once, output written once); only the op names differ
 * ("add_inplace", ...) so characterization can tell the paths apart.
 */

#include "tensor/ops.hh"

#include "tensor/ops_common.hh"
#include "util/simd.hh"

namespace nsbench::tensor
{

namespace simd = nsbench::util::simd;

void
addInPlace(Tensor &dst, const Tensor &src)
{
    detail::mapBinary("add_inplace", dst, dst, src, simd::add);
}

void
subInPlace(Tensor &dst, const Tensor &src)
{
    detail::mapBinary("sub_inplace", dst, dst, src, simd::sub);
}

void
mulInPlace(Tensor &dst, const Tensor &src)
{
    detail::mapBinary("mul_inplace", dst, dst, src, simd::mul);
}

void
minimumInPlace(Tensor &dst, const Tensor &src)
{
    detail::mapBinary("minimum_inplace", dst, dst, src, simd::minimum);
}

void
maximumInPlace(Tensor &dst, const Tensor &src)
{
    detail::mapBinary("maximum_inplace", dst, dst, src, simd::maximum);
}

void
addScalarInPlace(Tensor &dst, float s)
{
    detail::mapUnary("add_scalar_inplace", dst, dst, 1.0,
                     [s](const float *x, float *y, int64_t n) {
                         simd::addScalar(x, s, y, n);
                     });
}

void
mulScalarInPlace(Tensor &dst, float s)
{
    detail::mapUnary("mul_scalar_inplace", dst, dst, 1.0,
                     [s](const float *x, float *y, int64_t n) {
                         simd::mulScalar(x, s, y, n);
                     });
}

void
reluInPlace(Tensor &dst)
{
    detail::mapUnary("relu_inplace", dst, dst, 1.0, simd::relu);
}

void
clampInPlace(Tensor &dst, float lo, float hi)
{
    detail::mapUnary("clamp_inplace", dst, dst, 1.0,
                     [lo, hi](const float *x, float *y, int64_t n) {
                         simd::clampRange(x, lo, hi, y, n);
                     });
}

void
subScaledInPlace(Tensor &dst, const Tensor &src, float s)
{
    // Deliberately mulScalar-into-scratch then sub — NOT axpy, whose
    // AVX2 FMA rounds once where mul-then-sub rounds twice; this must
    // stay bit-identical to sub(dst, mulScalar(src, s)).
    fusedMap("sub_scaled_inplace", dst, dst, src, 2.0,
             [s](const float *a, const float *b, float *out,
                 float *scratch, int64_t n) {
                 simd::mulScalar(b, s, scratch, n);
                 simd::sub(a, scratch, out, n);
             });
}

} // namespace nsbench::tensor
