/**
 * @file
 * Golden-file regression tests for the seven workloads.
 *
 * Each workload runs one profiled episode at a fixed seed; its score
 * and the full per-operator profile (invocations, FLOPs, bytes — the
 * raw material of the paper's Fig. 2/3) are compared against a
 * checked-in golden file. Because profiler attribution is computed
 * from operand shapes, the counts must be EXACT regardless of kernel
 * backend or thread count; scores are float-valued and may drift in
 * the last bits between the scalar and AVX2 backends, so they get a
 * small relative tolerance.
 *
 * Regenerate after an intentional model or attribution change with:
 *
 *     ./tests/test_golden --update-golden
 *
 * and commit the rewritten files under tests/golden/data/. Regenerate
 * with NSBENCH_SIMD=off so the goldens are anchored to the scalar
 * backend; the suite must then pass under both backends.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/profiler.hh"
#include "core/taxonomy.hh"
#include "core/workload.hh"
#include "util/simd.hh"
#include "workloads/register.hh"

namespace
{

using namespace nsbench;

bool gUpdateGolden = false;

constexpr uint64_t kGoldenSeed = 7;

/** One operator line in a golden file. */
struct GoldenOp
{
    std::string name;
    std::string phase;
    uint64_t invocations = 0;
    double flops = 0.0;
    double bytesRead = 0.0;
    double bytesWritten = 0.0;
};

struct GoldenRecord
{
    double score = 0.0;
    std::vector<GoldenOp> ops;
};

std::string
goldenPath(const std::string &workload)
{
    return std::string(NSBENCH_GOLDEN_DIR) + "/" + workload +
           ".golden";
}

/** Full-precision double formatting, stable across runs. */
std::string
fmt(double v)
{
    std::ostringstream out;
    out.precision(17);
    out << v;
    return out.str();
}

GoldenRecord
capture(const std::string &name)
{
    auto workload = core::WorkloadRegistry::global().create(name);
    workload->setUp(kGoldenSeed);
    auto &prof = core::globalProfiler();
    prof.reset();
    GoldenRecord record;
    record.score = workload->run();
    for (const auto &op : prof.opsByTime()) {
        GoldenOp g;
        g.name = op.name;
        g.phase = std::string(core::phaseName(op.phase));
        g.invocations = op.stats.invocations;
        g.flops = op.stats.flops;
        g.bytesRead = op.stats.bytesRead;
        g.bytesWritten = op.stats.bytesWritten;
        record.ops.push_back(std::move(g));
    }
    prof.reset();
    // opsByTime orders by wall time, which is not deterministic;
    // golden files are keyed by (name, phase) instead.
    std::sort(record.ops.begin(), record.ops.end(),
              [](const GoldenOp &a, const GoldenOp &b) {
                  return std::tie(a.name, a.phase) <
                         std::tie(b.name, b.phase);
              });
    return record;
}

void
writeGolden(const std::string &workload, const GoldenRecord &record)
{
    std::ofstream out(goldenPath(workload));
    ASSERT_TRUE(out.good())
        << "cannot write " << goldenPath(workload);
    out << "# Golden profile for " << workload << " (seed "
        << kGoldenSeed << ").\n";
    out << "# Regenerate: NSBENCH_SIMD=off ./tests/test_golden "
           "--update-golden\n";
    out << "score " << fmt(record.score) << "\n";
    for (const auto &op : record.ops) {
        out << "op " << op.name << " " << op.phase << " "
            << op.invocations << " " << fmt(op.flops) << " "
            << fmt(op.bytesRead) << " " << fmt(op.bytesWritten)
            << "\n";
    }
}

bool
readGolden(const std::string &workload, GoldenRecord &record)
{
    std::ifstream in(goldenPath(workload));
    if (!in.good())
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string tag;
        fields >> tag;
        if (tag == "score") {
            fields >> record.score;
        } else if (tag == "op") {
            GoldenOp op;
            fields >> op.name >> op.phase >> op.invocations >>
                op.flops >> op.bytesRead >> op.bytesWritten;
            record.ops.push_back(std::move(op));
        }
    }
    return true;
}

double
relDiff(double got, double want)
{
    double denom = std::max(std::abs(want), 1.0);
    return std::abs(got - want) / denom;
}

void
checkAgainstGolden(const std::string &workload)
{
    GoldenRecord got = capture(workload);
    if (gUpdateGolden) {
        writeGolden(workload, got);
        GTEST_SKIP() << "golden updated: " << goldenPath(workload);
    }

    GoldenRecord want;
    ASSERT_TRUE(readGolden(workload, want))
        << "missing golden file " << goldenPath(workload)
        << "; run ./tests/test_golden --update-golden";

    // Scores are float-valued model outputs: identical for a fixed
    // backend, but the scalar and AVX2 paths round reductions
    // differently, so allow a small relative drift.
    EXPECT_LE(relDiff(got.score, want.score), 1e-4)
        << "score: got " << fmt(got.score) << " want "
        << fmt(want.score);

    ASSERT_EQ(got.ops.size(), want.ops.size())
        << "operator set changed";
    for (size_t i = 0; i < got.ops.size(); i++) {
        const GoldenOp &g = got.ops[i];
        const GoldenOp &w = want.ops[i];
        ASSERT_EQ(g.name, w.name) << "op list diverged at " << i;
        ASSERT_EQ(g.phase, w.phase) << g.name;
        // Invocation and FLOP/byte attribution is shape-derived and
        // must be bit-stable across backends and thread counts.
        EXPECT_EQ(g.invocations, w.invocations) << g.name;
        EXPECT_LE(relDiff(g.flops, w.flops), 1e-9) << g.name;
        EXPECT_LE(relDiff(g.bytesRead, w.bytesRead), 1e-9) << g.name;
        EXPECT_LE(relDiff(g.bytesWritten, w.bytesWritten), 1e-9)
            << g.name;
    }
}

class GoldenWorkload : public testing::TestWithParam<const char *>
{
};

TEST_P(GoldenWorkload, MatchesGolden)
{
    checkAgainstGolden(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllSeven, GoldenWorkload,
                         testing::Values("LNN", "LTN", "NVSA", "NLM",
                                         "VSAIT", "ZeroC", "PrAE"));

} // namespace

int
main(int argc, char **argv)
{
    testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--update-golden") == 0)
            gUpdateGolden = true;
    }
    nsbench::workloads::registerAllWorkloads();
    return RUN_ALL_TESTS();
}
