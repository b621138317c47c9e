#include <gtest/gtest.h>

#include "core/opgraph.hh"
#include "sim/schedule.hh"

namespace
{

using namespace nsbench;
using core::OpGraph;
using core::Phase;
using sim::pipelineSchedule;
using sim::ScheduleConfig;

/** The canonical neuro-symbolic pipeline: N(1s) -> S(2s). */
OpGraph
twoStagePipeline()
{
    OpGraph g;
    auto n = g.addNode("perceive", Phase::Neural, 1.0);
    auto s = g.addNode("reason", Phase::Symbolic, 2.0);
    g.addEdge(n, s);
    return g;
}

TEST(Schedule, SingleEpisodeMatchesCriticalPath)
{
    OpGraph g = twoStagePipeline();
    auto result = pipelineSchedule(g, {1, 1}, 1);
    EXPECT_DOUBLE_EQ(result.makespan, 3.0);
    EXPECT_DOUBLE_EQ(result.sequentialSeconds, 3.0);
    EXPECT_DOUBLE_EQ(result.speedup(), 1.0);
    ASSERT_EQ(result.stages.size(), 2u);
}

TEST(Schedule, PipeliningOverlapsEpisodes)
{
    OpGraph g = twoStagePipeline();
    // With many episodes, the symbolic unit is the bottleneck: the
    // steady state finishes one episode every 2 s.
    auto result = pipelineSchedule(g, {1, 1}, 10);
    // First result at t=3, then one every 2 s: makespan = 1 + 10*2.
    EXPECT_DOUBLE_EQ(result.makespan, 21.0);
    EXPECT_DOUBLE_EQ(result.sequentialSeconds, 30.0);
    EXPECT_NEAR(result.speedup(), 30.0 / 21.0, 1e-12);
    // The symbolic unit is nearly saturated.
    EXPECT_NEAR(result.utilization(Phase::Symbolic, 1), 20.0 / 21.0,
                1e-12);
    EXPECT_NEAR(result.utilization(Phase::Neural, 1), 10.0 / 21.0,
                1e-12);
}

TEST(Schedule, ExtraSymbolicUnitsRemoveBottleneck)
{
    OpGraph g = twoStagePipeline();
    auto one = pipelineSchedule(g, {1, 1}, 8);
    auto two = pipelineSchedule(g, {1, 2}, 8);
    EXPECT_LT(two.makespan, one.makespan);
    // With two symbolic units the neural unit (1 s/episode) paces the
    // pipeline: makespan ~= 8*1 + 2.
    EXPECT_NEAR(two.makespan, 10.0, 1e-9);
}

TEST(Schedule, DependenciesAreHonoured)
{
    OpGraph g = twoStagePipeline();
    auto result = pipelineSchedule(g, {2, 2}, 4);
    for (const auto &stage : result.stages) {
        if (g.node(stage.node).name != "reason")
            continue;
        // Find the matching perceive stage of the same episode.
        for (const auto &other : result.stages) {
            if (other.episode == stage.episode &&
                g.node(other.node).name == "perceive") {
                EXPECT_GE(stage.start, other.end - 1e-12);
            }
        }
    }
}

TEST(Schedule, UntaggedStagesUseEitherKind)
{
    OpGraph g;
    auto a = g.addNode("pre", Phase::Untagged, 1.0);
    auto b = g.addNode("post", Phase::Untagged, 1.0);
    g.addEdge(a, b);
    auto result = pipelineSchedule(g, {1, 1}, 4);
    // Untagged work spreads over both kinds, so 4 episodes of 2 s of
    // work finish in well under the 8 s sequential bound.
    EXPECT_LT(result.makespan, 8.0 - 1e-9);
    bool used_neural = false, used_symbolic = false;
    for (const auto &stage : result.stages) {
        if (stage.kind == Phase::Neural)
            used_neural = true;
        if (stage.kind == Phase::Symbolic)
            used_symbolic = true;
    }
    EXPECT_TRUE(used_neural);
    EXPECT_TRUE(used_symbolic);
}

TEST(Schedule, DiamondGraphParallelism)
{
    OpGraph g;
    auto src = g.addNode("in", Phase::Neural, 0.5);
    auto left = g.addNode("left", Phase::Symbolic, 1.0);
    auto right = g.addNode("right", Phase::Symbolic, 1.0);
    auto join = g.addNode("join", Phase::Symbolic, 0.5);
    g.addEdge(src, left);
    g.addEdge(src, right);
    g.addEdge(left, join);
    g.addEdge(right, join);

    auto narrow = pipelineSchedule(g, {1, 1}, 1);
    auto wide = pipelineSchedule(g, {1, 2}, 1);
    EXPECT_DOUBLE_EQ(narrow.makespan, 3.0);  // serialized branches
    EXPECT_DOUBLE_EQ(wide.makespan, 2.0);    // branches in parallel
}

TEST(Schedule, EmptyGraphIsTrivial)
{
    OpGraph g;
    auto result = pipelineSchedule(g, {2, 2}, 5);
    EXPECT_DOUBLE_EQ(result.makespan, 0.0);
    EXPECT_DOUBLE_EQ(result.sequentialSeconds, 0.0);
    EXPECT_TRUE(result.stages.empty());
    // No work means no win: the speedup convention is 1.0, not 0/0.
    EXPECT_DOUBLE_EQ(result.speedup(), 1.0);
}

TEST(Schedule, ZeroDurationStagesCollapse)
{
    OpGraph g;
    auto n = g.addNode("instant", Phase::Neural, 0.0);
    auto s = g.addNode("reason", Phase::Symbolic, 2.0);
    g.addEdge(n, s);
    auto result = pipelineSchedule(g, {1, 1}, 4);
    // The free stage adds no latency anywhere: the symbolic unit
    // back-to-backs all four episodes.
    EXPECT_DOUBLE_EQ(result.makespan, 8.0);
    EXPECT_DOUBLE_EQ(result.sequentialSeconds, 8.0);
    for (const auto &stage : result.stages) {
        if (g.node(stage.node).name == "instant") {
            EXPECT_DOUBLE_EQ(stage.start, stage.end);
        }
    }
}

TEST(Schedule, MoreSymbolicUnitsThanEpisodes)
{
    OpGraph g = twoStagePipeline();
    // Units beyond the episode count can never be occupied; the
    // schedule must match the exactly-enough configuration.
    auto enough = pipelineSchedule(g, {1, 2}, 2);
    auto excess = pipelineSchedule(g, {1, 8}, 2);
    EXPECT_DOUBLE_EQ(excess.makespan, enough.makespan);
    EXPECT_DOUBLE_EQ(excess.sequentialSeconds,
                     enough.sequentialSeconds);
}

TEST(Schedule, MakespanMonotoneInUnitCount)
{
    OpGraph g = twoStagePipeline();
    double previous = pipelineSchedule(g, {1, 1}, 6).makespan;
    for (int units = 2; units <= 6; units++) {
        double makespan =
            pipelineSchedule(g, {units, units}, 6).makespan;
        // Adding units never hurts (list scheduling over independent
        // episodes), and eventually stops helping.
        EXPECT_LE(makespan, previous + 1e-12)
            << "units=" << units;
        previous = makespan;
    }
    // Saturation: every episode on its own pair of units leaves only
    // the critical path.
    EXPECT_DOUBLE_EQ(pipelineSchedule(g, {6, 6}, 6).makespan, 3.0);
}

TEST(ScheduleDeath, Validations)
{
    OpGraph g = twoStagePipeline();
    EXPECT_DEATH(pipelineSchedule(g, {0, 1}, 1), "at least one unit");
    EXPECT_DEATH(pipelineSchedule(g, {1, 1}, 0), "at least one episode");
}

} // namespace
