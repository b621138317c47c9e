/**
 * @file
 * Tensor storage tests: every buffer is one 64-byte-aligned heap
 * allocation, live/peak accounting is in logical tensor bytes, every
 * allocation counts as fresh churn, and copies out of a buffer's last
 * row end exactly at the buffer's end.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "core/profiler.hh"
#include "tensor/ops.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"
#include "vsa/codebook.hh"

namespace
{

using namespace nsbench;
using tensor::Tensor;

/** Starts and ends each test with a clean global profiler. */
class AllocTest : public testing::Test
{
  protected:
    void SetUp() override { core::globalProfiler().reset(); }
    void TearDown() override { core::globalProfiler().reset(); }
};

bool
cacheLineAligned(const Tensor &t)
{
    return reinterpret_cast<uintptr_t>(t.data().data()) % 64 == 0;
}

TEST_F(AllocTest, EveryBufferIsCacheLineAligned)
{
    util::Rng rng(5);
    for (int64_t n : {1, 3, 17, 100, 1000, 4099}) {
        EXPECT_TRUE(cacheLineAligned(Tensor({n}))) << n;
        EXPECT_TRUE(cacheLineAligned(Tensor::uninitialized({n}))) << n;
        Tensor r = Tensor::randn({n}, rng);
        EXPECT_TRUE(cacheLineAligned(r)) << n;
        EXPECT_TRUE(cacheLineAligned(r.clone())) << n;
        EXPECT_TRUE(cacheLineAligned(tensor::add(r, r))) << n;
    }
}

TEST_F(AllocTest, PeakTracksLiveLogicalBytes)
{
    auto &prof = core::globalProfiler();

    // Two sequential short-lived tensors: the live high-water mark is
    // ONE tensor's logical size.
    { Tensor a({1024}); }
    { Tensor b({1024}); }
    EXPECT_EQ(prof.peakBytes(), 1024u * sizeof(float));
    EXPECT_EQ(prof.currentBytes(), 0u);

    // Logical bytes: 100 floats = 400 bytes, whatever the allocation
    // rounds up to.
    prof.reset();
    { Tensor c({100}); }
    EXPECT_EQ(prof.peakBytes(), 400u);
}

TEST_F(AllocTest, ChurnCountsEveryAllocationAsFresh)
{
    auto &prof = core::globalProfiler();
    { Tensor warm({100}); }
    prof.reset();
    { Tensor t({100}); }

    core::MemChurn churn = prof.memChurn();
    EXPECT_EQ(churn.allocs, 1u);
    EXPECT_EQ(churn.frees, 1u);
    EXPECT_EQ(churn.freshAllocs(), 1u);
}

TEST_F(AllocTest, LastRowAndLastAtomCopiesStayInBounds)
{
    // A copy whose end is built by indexing one past the buffer aborts
    // under _GLIBCXX_ASSERTIONS; the last row/atom is that case.
    Tensor m({3, 4}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
    Tensor rows = tensor::gatherRows(m, {2, 0});
    ASSERT_EQ(rows.shape(), (tensor::Shape{2, 4}));
    for (int64_t j = 0; j < 4; j++) {
        EXPECT_EQ(rows(0, j), m(2, j));
        EXPECT_EQ(rows(1, j), m(0, j));
    }

    util::Rng rng(9);
    vsa::Codebook book(5, 64, rng);
    Tensor last = book.atom(4);
    ASSERT_EQ(last.numel(), 64);
    for (int64_t j = 0; j < 64; j++)
        EXPECT_EQ(last(j), book.matrix()(4, j));
}

} // namespace
