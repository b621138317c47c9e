#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/ops.hh"
#include "tensor/ops_common.hh"
#include "util/simd.hh"

namespace nsbench::tensor
{

using detail::elemBytes;

namespace simd = nsbench::util::simd;

namespace
{

/** A fresh tensor holding kernel(a, b), recorded as one op. */
Tensor
binaryOp(const char *name, const Tensor &a, const Tensor &b,
         detail::BinaryKernel kernel)
{
    // Every element is written: uninitialized is legal.
    Tensor out = Tensor::uninitialized(a.shape());
    detail::mapBinary(name, out, a, b, kernel);
    return out;
}

/** A fresh tensor holding span_fn(a), recorded as one op. */
template <typename SpanFn>
Tensor
unaryOp(const char *name, const Tensor &a, SpanFn span_fn,
        double flops_per_elem = 1.0)
{
    // Every element is written: uninitialized is legal.
    Tensor out = Tensor::uninitialized(a.shape());
    detail::mapUnary(name, out, a, flops_per_elem, span_fn);
    return out;
}

/** Lifts a per-element function to a span loop for unaryOp(). */
template <typename F>
auto
perElement(F f)
{
    return [f](const float *x, float *y, int64_t n) {
        for (int64_t i = 0; i < n; i++)
            y[i] = f(x[i]);
    };
}

} // namespace

Tensor
add(const Tensor &a, const Tensor &b)
{
    return binaryOp("add", a, b, simd::add);
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    return binaryOp("sub", a, b, simd::sub);
}

Tensor
mul(const Tensor &a, const Tensor &b)
{
    return binaryOp("mul", a, b, simd::mul);
}

Tensor
div(const Tensor &a, const Tensor &b)
{
    return binaryOp("div", a, b, simd::div);
}

Tensor
minimum(const Tensor &a, const Tensor &b)
{
    return binaryOp("minimum", a, b, simd::minimum);
}

Tensor
maximum(const Tensor &a, const Tensor &b)
{
    return binaryOp("maximum", a, b, simd::maximum);
}

Tensor
addScalar(const Tensor &a, float s)
{
    return unaryOp("add_scalar", a,
                   [s](const float *x, float *y, int64_t n) {
                       simd::addScalar(x, s, y, n);
                   });
}

Tensor
mulScalar(const Tensor &a, float s)
{
    return unaryOp("mul_scalar", a,
                   [s](const float *x, float *y, int64_t n) {
                       simd::mulScalar(x, s, y, n);
                   });
}

Tensor
relu(const Tensor &a)
{
    return unaryOp("relu", a, simd::relu);
}

Tensor
sigmoid(const Tensor &a)
{
    return unaryOp("sigmoid", a, perElement([](float x) {
                       return 1.0f / (1.0f + std::exp(-x));
                   }),
                   4.0);
}

Tensor
tanhOp(const Tensor &a)
{
    return unaryOp("tanh", a,
                   perElement([](float x) { return std::tanh(x); }),
                   4.0);
}

Tensor
expOp(const Tensor &a)
{
    return unaryOp("exp", a,
                   perElement([](float x) { return std::exp(x); }),
                   2.0);
}

Tensor
logOp(const Tensor &a)
{
    return unaryOp("log", a,
                   perElement([](float x) { return std::log(x); }),
                   2.0);
}

Tensor
sqrtOp(const Tensor &a)
{
    return unaryOp("sqrt", a,
                   perElement([](float x) { return std::sqrt(x); }),
                   2.0);
}

Tensor
neg(const Tensor &a)
{
    return unaryOp("neg", a, simd::negate);
}

Tensor
absOp(const Tensor &a)
{
    return unaryOp("abs", a, simd::absolute);
}

Tensor
sign(const Tensor &a)
{
    return unaryOp("sign", a, perElement([](float x) {
                       return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f);
                   }));
}

Tensor
clamp(const Tensor &a, float lo, float hi)
{
    return unaryOp("clamp", a,
                   [lo, hi](const float *x, float *y, int64_t n) {
                       simd::clampRange(x, lo, hi, y, n);
                   });
}

Tensor
powOp(const Tensor &a, float exponent)
{
    return unaryOp("pow", a, perElement([exponent](float x) {
                       return std::pow(x, exponent);
                   }),
                   4.0);
}

float
sumAll(const Tensor &a)
{
    core::ScopedOp op("sum", core::OpCategory::VectorElementwise);
    auto data = a.data();
    auto count = static_cast<int64_t>(data.size());
    int64_t grain = nsbench::util::grainFor(1.0);
    std::vector<double> partials(
        static_cast<size_t>((count + grain - 1) / grain), 0.0);
    double acc = 0.0;
    // Chunked double-precision partial sums combined in chunk order:
    // the value depends only on the grain, not the thread count.
    detail::chunkedReduce(
        count, grain,
        [&](int64_t c, int64_t lo, int64_t hi) {
            partials[static_cast<size_t>(c)] =
                nsbench::util::simd::sumChunk(data.data() + lo,
                                              hi - lo);
        },
        [&](int64_t c) { acc += partials[static_cast<size_t>(c)]; });
    auto n = static_cast<double>(a.numel());
    op.setFlops(n);
    op.setBytesRead(n * elemBytes);
    op.setBytesWritten(elemBytes);
    return static_cast<float>(acc);
}

float
maxAll(const Tensor &a)
{
    util::panicIf(a.numel() == 0, "maxAll: empty tensor");
    core::ScopedOp op("max", core::OpCategory::VectorElementwise);
    auto data = a.data();
    auto count = static_cast<int64_t>(data.size());
    int64_t grain = nsbench::util::grainFor(1.0);
    std::vector<float> partials(
        static_cast<size_t>((count + grain - 1) / grain),
        -std::numeric_limits<float>::infinity());
    float best = data[0];
    detail::chunkedReduce(
        count, grain,
        [&](int64_t c, int64_t lo, int64_t hi) {
            partials[static_cast<size_t>(c)] =
                nsbench::util::simd::maxChunk(data.data() + lo,
                                              hi - lo);
        },
        [&](int64_t c) {
            best = std::max(best, partials[static_cast<size_t>(c)]);
        });
    auto n = static_cast<double>(a.numel());
    op.setFlops(n);
    op.setBytesRead(n * elemBytes);
    op.setBytesWritten(elemBytes);
    return best;
}

float
meanAll(const Tensor &a)
{
    util::panicIf(a.numel() == 0, "meanAll: empty tensor");
    return sumAll(a) / static_cast<float>(a.numel());
}

int64_t
argmaxAll(const Tensor &a)
{
    util::panicIf(a.numel() == 0, "argmaxAll: empty tensor");
    core::ScopedOp op("argmax", core::OpCategory::VectorElementwise);
    auto data = a.data();
    auto count = static_cast<int64_t>(data.size());
    int64_t grain = nsbench::util::grainFor(1.0);
    std::vector<int64_t> partials(
        static_cast<size_t>((count + grain - 1) / grain), 0);
    int64_t best = 0;
    // Per-chunk first-strict-maximum, combined in chunk order with a
    // strict comparison: exactly the serial earliest-argmax rule.
    detail::chunkedReduce(
        count, grain,
        [&](int64_t c, int64_t lo, int64_t hi) {
            partials[static_cast<size_t>(c)] =
                lo + nsbench::util::simd::argmaxChunk(
                         data.data() + lo, hi - lo);
        },
        [&](int64_t c) {
            int64_t b = partials[static_cast<size_t>(c)];
            if (data[static_cast<size_t>(b)] >
                data[static_cast<size_t>(best)]) {
                best = b;
            }
        });
    auto n = static_cast<double>(a.numel());
    op.setFlops(n);
    op.setBytesRead(n * elemBytes);
    op.setBytesWritten(elemBytes);
    return best;
}

namespace
{

/**
 * Shared frame for axis reductions: iterates outer x inner blocks
 * where the reduced axis has extent `axis_n` and stride `inner`.
 */
template <typename Fold>
Tensor
reduceAxis(const char *name, const Tensor &a, int64_t axis, float init,
           Fold fold, bool mean)
{
    auto rank = static_cast<int64_t>(a.dim());
    util::panicIf(axis < 0 || axis >= rank,
                  std::string(name) + ": axis out of range");

    core::ScopedOp op(name, core::OpCategory::VectorElementwise);

    Shape out_shape;
    for (int64_t d = 0; d < rank; d++) {
        if (d != axis)
            out_shape.push_back(a.shape()[static_cast<size_t>(d)]);
    }
    int64_t axis_n = a.shape()[static_cast<size_t>(axis)];
    int64_t inner = 1;
    for (int64_t d = axis + 1; d < rank; d++)
        inner *= a.shape()[static_cast<size_t>(d)];
    int64_t outer = a.numel() / std::max<int64_t>(axis_n * inner, 1);

    // Every output element is stored exactly once below.
    Tensor out = Tensor::uninitialized(out_shape);
    auto src = a.data();
    auto dst = out.data();
    // Each output element folds its own slice in serial order, so
    // splitting over output elements is bit-identical.
    util::parallelFor(
        0, outer * inner,
        util::grainFor(static_cast<double>(axis_n)),
        [&](int64_t lo, int64_t hi) {
            for (int64_t e = lo; e < hi; e++) {
                int64_t o = e / inner;
                int64_t i = e % inner;
                float acc = init;
                for (int64_t k = 0; k < axis_n; k++) {
                    acc = fold(acc,
                               src[static_cast<size_t>(
                                   (o * axis_n + k) * inner + i)]);
                }
                if (mean && axis_n > 0)
                    acc /= static_cast<float>(axis_n);
                dst[static_cast<size_t>(e)] = acc;
            }
        });

    auto n = static_cast<double>(a.numel());
    op.setFlops(n);
    op.setBytesRead(n * elemBytes);
    op.setBytesWritten(static_cast<double>(out.numel()) * elemBytes);
    return out;
}

} // namespace

Tensor
sumAxis(const Tensor &a, int64_t axis)
{
    return reduceAxis("sum_axis", a, axis, 0.0f,
                      [](float acc, float v) { return acc + v; },
                      false);
}

Tensor
maxAxis(const Tensor &a, int64_t axis)
{
    return reduceAxis(
        "max_axis", a, axis, -std::numeric_limits<float>::infinity(),
        [](float acc, float v) { return std::max(acc, v); }, false);
}

Tensor
meanAxis(const Tensor &a, int64_t axis)
{
    return reduceAxis("mean_axis", a, axis, 0.0f,
                      [](float acc, float v) { return acc + v; },
                      true);
}

namespace
{

/** Applies a row-wise transform over the last dimension. */
template <typename RowFn>
Tensor
lastDimTransform(const char *name, const Tensor &a, RowFn row_fn,
                 double flops_per_elem)
{
    util::panicIf(a.dim() == 0, std::string(name) + ": rank-0 tensor");
    core::ScopedOp op(name, core::OpCategory::VectorElementwise);
    // Row transforms write every output element of every row.
    Tensor out = Tensor::uninitialized(a.shape());
    int64_t row = a.shape().back();
    int64_t rows = a.numel() / std::max<int64_t>(row, 1);
    auto src = a.data();
    auto dst = out.data();
    // Rows are independent; row-parallel execution is bit-identical.
    util::parallelFor(
        0, rows,
        util::grainFor(static_cast<double>(row) * flops_per_elem),
        [&](int64_t r0, int64_t r1) {
            for (int64_t r = r0; r < r1; r++) {
                row_fn(src.subspan(static_cast<size_t>(r * row),
                                   static_cast<size_t>(row)),
                       dst.subspan(static_cast<size_t>(r * row),
                                   static_cast<size_t>(row)));
            }
        });
    auto n = static_cast<double>(a.numel());
    op.setFlops(n * flops_per_elem);
    op.setBytesRead(n * elemBytes);
    op.setBytesWritten(n * elemBytes);
    return out;
}

} // namespace

Tensor
softmax(const Tensor &a)
{
    return lastDimTransform(
        "softmax", a,
        [](std::span<const float> src, std::span<float> dst) {
            float mx = *std::max_element(src.begin(), src.end());
            float sum = 0.0f;
            for (size_t i = 0; i < src.size(); i++) {
                dst[i] = std::exp(src[i] - mx);
                sum += dst[i];
            }
            for (float &v : dst)
                v /= sum;
        },
        5.0);
}

Tensor
logSoftmax(const Tensor &a)
{
    return lastDimTransform(
        "log_softmax", a,
        [](std::span<const float> src, std::span<float> dst) {
            float mx = *std::max_element(src.begin(), src.end());
            float sum = 0.0f;
            for (float v : src)
                sum += std::exp(v - mx);
            float log_sum = std::log(sum) + mx;
            for (size_t i = 0; i < src.size(); i++)
                dst[i] = src[i] - log_sum;
        },
        5.0);
}

Tensor
normalizeSum(const Tensor &a, float eps)
{
    return lastDimTransform(
        "normalize_sum", a,
        [eps](std::span<const float> src, std::span<float> dst) {
            float sum = 0.0f;
            for (float v : src)
                sum += v;
            float scale = 1.0f / (sum + eps);
            for (size_t i = 0; i < src.size(); i++)
                dst[i] = src[i] * scale;
        },
        2.0);
}

Tensor
normalizeL2(const Tensor &a, float eps)
{
    return lastDimTransform(
        "normalize_l2", a,
        [eps](std::span<const float> src, std::span<float> dst) {
            float sum = 0.0f;
            for (float v : src)
                sum += v * v;
            float scale = 1.0f / (std::sqrt(sum) + eps);
            for (size_t i = 0; i < src.size(); i++)
                dst[i] = src[i] * scale;
        },
        3.0);
}

} // namespace nsbench::tensor
