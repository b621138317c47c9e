#include <gtest/gtest.h>

#include <cmath>

#include "core/profiler.hh"
#include "tensor/ops.hh"

namespace
{

using namespace nsbench::tensor;
using nsbench::core::globalProfiler;
using nsbench::core::OpCategory;
using nsbench::core::Phase;

TEST(Elementwise, BinaryOps)
{
    Tensor a({4}, {1, 2, 3, 4});
    Tensor b({4}, {4, 3, 2, 1});
    EXPECT_EQ(add(a, b).flat(0), 5.0f);
    EXPECT_EQ(sub(a, b).flat(0), -3.0f);
    EXPECT_EQ(mul(a, b).flat(1), 6.0f);
    EXPECT_EQ(div(a, b).flat(3), 4.0f);
    EXPECT_EQ(minimum(a, b).flat(0), 1.0f);
    EXPECT_EQ(maximum(a, b).flat(0), 4.0f);
}

TEST(Elementwise, ScalarOps)
{
    Tensor a({3}, {1, 2, 3});
    EXPECT_EQ(addScalar(a, 1.0f).flat(2), 4.0f);
    EXPECT_EQ(mulScalar(a, 2.0f).flat(2), 6.0f);
}

TEST(Elementwise, UnaryOps)
{
    Tensor a({4}, {-2, -0.5, 0.5, 2});
    Tensor r = relu(a);
    EXPECT_EQ(r.flat(0), 0.0f);
    EXPECT_EQ(r.flat(3), 2.0f);

    Tensor s = sigmoid(Tensor({1}, {0.0f}));
    EXPECT_NEAR(s.flat(0), 0.5f, 1e-6);

    EXPECT_NEAR(tanhOp(Tensor({1}, {1.0f})).flat(0), std::tanh(1.0f),
                1e-6);
    EXPECT_NEAR(expOp(Tensor({1}, {1.0f})).flat(0), std::exp(1.0f),
                1e-5);
    EXPECT_NEAR(logOp(Tensor({1}, {std::exp(2.0f)})).flat(0), 2.0f,
                1e-5);
    EXPECT_EQ(sqrtOp(Tensor({1}, {9.0f})).flat(0), 3.0f);
    EXPECT_EQ(neg(a).flat(0), 2.0f);
    EXPECT_EQ(absOp(a).flat(0), 2.0f);
    EXPECT_EQ(sign(a).flat(0), -1.0f);
    EXPECT_EQ(sign(Tensor({1}, {0.0f})).flat(0), 0.0f);
    Tensor c = clamp(a, -1.0f, 1.0f);
    EXPECT_EQ(c.flat(0), -1.0f);
    EXPECT_EQ(c.flat(3), 1.0f);
}

TEST(Elementwise, FullReductions)
{
    Tensor a({2, 2}, {1, 2, 3, 4});
    EXPECT_EQ(sumAll(a), 10.0f);
    EXPECT_EQ(maxAll(a), 4.0f);
    EXPECT_EQ(meanAll(a), 2.5f);
    EXPECT_EQ(argmaxAll(a), 3);
}

TEST(Elementwise, AxisReductions)
{
    Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor s0 = sumAxis(a, 0);
    ASSERT_EQ(s0.shape(), (Shape{3}));
    EXPECT_EQ(s0(0), 5.0f);
    EXPECT_EQ(s0(2), 9.0f);

    Tensor s1 = sumAxis(a, 1);
    ASSERT_EQ(s1.shape(), (Shape{2}));
    EXPECT_EQ(s1(0), 6.0f);
    EXPECT_EQ(s1(1), 15.0f);

    Tensor m1 = maxAxis(a, 1);
    EXPECT_EQ(m1(0), 3.0f);
    EXPECT_EQ(m1(1), 6.0f);

    Tensor mean0 = meanAxis(a, 0);
    EXPECT_EQ(mean0(1), 3.5f);
}

TEST(Elementwise, AxisReductionRank3)
{
    // shape [2,2,2]: values 1..8
    Tensor a({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
    Tensor s1 = sumAxis(a, 1);
    ASSERT_EQ(s1.shape(), (Shape{2, 2}));
    EXPECT_EQ(s1(0, 0), 4.0f);  // 1+3
    EXPECT_EQ(s1(0, 1), 6.0f);  // 2+4
    EXPECT_EQ(s1(1, 0), 12.0f); // 5+7
    EXPECT_EQ(s1(1, 1), 14.0f); // 6+8
}

TEST(Elementwise, SoftmaxRowsSumToOne)
{
    Tensor a({2, 3}, {1, 2, 3, -1, 0, 1});
    Tensor s = softmax(a);
    for (int64_t r = 0; r < 2; r++) {
        float sum = 0.0f;
        for (int64_t c = 0; c < 3; c++) {
            sum += s(r, c);
            EXPECT_GT(s(r, c), 0.0f);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-6);
    }
    // Monotone in the logits.
    EXPECT_LT(s(0, 0), s(0, 2));
}

TEST(Elementwise, SoftmaxNumericallyStable)
{
    Tensor a({1, 2}, {1000.0f, 1001.0f});
    Tensor s = softmax(a);
    EXPECT_FALSE(std::isnan(s(0, 0)));
    EXPECT_NEAR(s(0, 0) + s(0, 1), 1.0f, 1e-6);
}

TEST(Elementwise, LogSoftmaxMatchesLogOfSoftmax)
{
    Tensor a({1, 4}, {0.3f, -1.2f, 2.0f, 0.0f});
    Tensor ls = logSoftmax(a);
    Tensor s = softmax(a);
    for (int64_t c = 0; c < 4; c++)
        EXPECT_NEAR(ls(0, c), std::log(s(0, c)), 1e-5);
}

TEST(Elementwise, NormalizeSum)
{
    Tensor a({2, 2}, {1, 3, 2, 2});
    Tensor n = normalizeSum(a);
    EXPECT_NEAR(n(0, 0), 0.25f, 1e-6);
    EXPECT_NEAR(n(0, 1), 0.75f, 1e-6);
    EXPECT_NEAR(n(1, 0), 0.5f, 1e-6);
}

TEST(Elementwise, NormalizeL2)
{
    Tensor a({1, 2}, {3, 4});
    Tensor n = normalizeL2(a);
    EXPECT_NEAR(n(0, 0), 0.6f, 1e-5);
    EXPECT_NEAR(n(0, 1), 0.8f, 1e-5);
}

TEST(Elementwise, ProfilerAccounting)
{
    auto &prof = globalProfiler();
    prof.reset();
    {
        nsbench::core::PhaseScope scope(Phase::Symbolic, "test");
        Tensor a = Tensor::ones({100});
        Tensor b = Tensor::ones({100});
        Tensor c = add(a, b);
        (void)c;
    }
    auto stats = prof.categoryTotals(Phase::Symbolic,
                                     OpCategory::VectorElementwise);
    EXPECT_EQ(stats.invocations, 1u);
    EXPECT_DOUBLE_EQ(stats.flops, 100.0);
    EXPECT_DOUBLE_EQ(stats.bytesRead, 800.0);
    EXPECT_DOUBLE_EQ(stats.bytesWritten, 400.0);
    prof.reset();
}

TEST(ElementwiseDeath, ShapeMismatch)
{
    Tensor a({2});
    Tensor b({3});
    // The message names the op and both shapes, lhs first.
    EXPECT_DEATH(add(a, b), "add: shape mismatch \\[2\\] vs \\[3\\]");
}

} // namespace
