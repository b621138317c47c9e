/**
 * @file
 * End-to-end integration tests: every workload must solve its task
 * well above chance AND produce a profiler stream with both neural
 * and symbolic phases populated.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/profiler.hh"
#include "core/report.hh"
#include "core/workload.hh"
#include "util/threadpool.hh"
#include "workloads/lnn.hh"
#include "workloads/ltn.hh"
#include "workloads/nlm.hh"
#include "workloads/nvsa.hh"
#include "workloads/prae.hh"
#include "workloads/register.hh"
#include "workloads/vsait.hh"
#include "workloads/zeroc.hh"

namespace
{

using namespace nsbench;
using namespace nsbench::workloads;
using core::Phase;

/** Runs a workload and returns (score, split) with a clean profiler. */
std::pair<double, core::PhaseSplit>
runProfiled(core::Workload &workload, uint64_t seed)
{
    workload.setUp(seed);
    auto &prof = core::globalProfiler();
    prof.reset();
    double score = workload.run();
    auto split = core::phaseSplit(prof);
    prof.reset();
    return {score, split};
}

void
expectBothPhases(const core::PhaseSplit &split)
{
    EXPECT_GT(split.neuralSeconds, 0.0);
    EXPECT_GT(split.symbolicSeconds, 0.0);
    // Nothing substantial escapes phase attribution.
    EXPECT_LT(split.untaggedSeconds, 0.05 * split.total());
}

TEST(Registry, AllSevenRegistered)
{
    registerAllWorkloads();
    registerAllWorkloads(); // idempotent
    auto names = core::WorkloadRegistry::global().names();
    EXPECT_EQ(names.size(), 7u);
    for (const char *name :
         {"LNN", "LTN", "NVSA", "NLM", "VSAIT", "ZeroC", "PrAE"}) {
        EXPECT_TRUE(core::WorkloadRegistry::global().contains(name))
            << name;
    }
}

TEST(LnnWorkload, ProvesAllSeniorStudents)
{
    LnnWorkload w(LnnConfig{2, 3, 16, 2, 8});
    auto [score, split] = runProfiled(w, 11);
    EXPECT_DOUBLE_EQ(score, 1.0);
    expectBothPhases(split);
    EXPECT_GT(w.storageBytes(), 0u);
}

TEST(LnnWorkload, RepeatedRunsAreStable)
{
    LnnWorkload w(LnnConfig{2, 3, 16, 2, 8});
    w.setUp(11);
    EXPECT_DOUBLE_EQ(w.run(), 1.0);
    EXPECT_DOUBLE_EQ(w.run(), 1.0);
}

TEST(LtnWorkload, TheoryIsWellSatisfied)
{
    LtnWorkload w(LtnConfig{80, 8, 32, 6, 2});
    auto [score, split] = runProfiled(w, 13);
    // A trained grounding satisfies the theory far above the 0.5 a
    // vacuous/random grounding would give.
    EXPECT_GT(score, 0.7);
    EXPECT_LE(score, 1.0);
    expectBothPhases(split);
}

TEST(NvsaWorkload, SolvesRpmAboveChance)
{
    NvsaWorkload w(NvsaConfig{2, 512, 6});
    auto [score, split] = runProfiled(w, 17);
    // Chance is 1/8 = 0.125.
    EXPECT_GE(score, 0.5);
    expectBothPhases(split);
    // Codebooks dominate model storage (paper Takeaway 4).
    EXPECT_GT(w.storageBytes(), 500u * 1024);
}

TEST(NvsaWorkload, QuantizedComboBookPreservesAccuracy)
{
    NvsaConfig fp32_config{2, 512, 4, false};
    NvsaConfig int8_config{2, 512, 4, true};
    NvsaWorkload fp32(fp32_config);
    NvsaWorkload int8(int8_config);
    fp32.setUp(53);
    int8.setUp(53);
    double fp32_score = fp32.run();
    double int8_score = int8.run();
    // Same puzzles, same answers; only the cleanup store changed.
    EXPECT_DOUBLE_EQ(fp32_score, int8_score);
    EXPECT_LT(int8.storageBytes(), fp32.storageBytes());
}

TEST(NvsaWorkload, SymbolicDominatesRuntime)
{
    NvsaWorkload w(NvsaConfig{2, 1024, 2});
    auto [score, split] = runProfiled(w, 19);
    (void)score;
    // Takeaway 1/Fig. 2a: the VSA backend is the bottleneck.
    EXPECT_GT(split.symbolicFraction(), 0.7);
}

TEST(NlmWorkload, RecoversFamilyRelations)
{
    NlmWorkload w(NlmConfig{3, 6, 2});
    auto [score, split] = runProfiled(w, 23);
    EXPECT_GT(score, 0.95);
    expectBothPhases(split);
}

TEST(NlmWorkload, GeneralizesAcrossScale)
{
    // Trained on nothing — the wired program must work at any size
    // (the NLM paper's lifted-rule generalization claim).
    for (int people : {4, 10}) {
        NlmWorkload w(NlmConfig{3, people, 1});
        w.setUp(29);
        EXPECT_GT(w.run(), 0.95) << people;
    }
}

TEST(VsaitWorkload, PreservesSemantics)
{
    VsaitWorkload w(VsaitConfig{32, 4, 256, 3});
    auto [score, split] = runProfiled(w, 31);
    // Random patch matching would land near the label collision rate
    // (~0.4); the VSA pipeline must beat it.
    EXPECT_GT(score, 0.5);
    expectBothPhases(split);
}

TEST(ZerocWorkload, ClassifiesConceptsZeroShot)
{
    ZerocWorkload w(ZerocConfig{32, 8});
    auto [score, split] = runProfiled(w, 37);
    // Chance is 1/4.
    EXPECT_GE(score, 0.75);
    expectBothPhases(split);
}

TEST(PraeWorkload, SolvesRpmAboveChance)
{
    PraeWorkload w(PraeConfig{2, 6});
    auto [score, split] = runProfiled(w, 41);
    EXPECT_GE(score, 0.5);
    expectBothPhases(split);
}

TEST(PraeWorkload, AbductionSparsityRecorded)
{
    PraeWorkload w(PraeConfig{2, 2});
    w.setUp(43);
    auto &prof = core::globalProfiler();
    prof.reset();
    w.run();
    bool found = false;
    for (const auto &rec : prof.sparsityRecords()) {
        if (rec.stage.find("prae_rule_posterior") == 0) {
            found = true;
            // The rule posterior concentrates on few rules.
            EXPECT_GE(rec.ratio(), 0.4);
        }
    }
    EXPECT_TRUE(found);
    prof.reset();
}

TEST(NvsaWorkload, Fig5SparsityStagesRecorded)
{
    NvsaWorkload w(NvsaConfig{2, 512, 2});
    w.setUp(47);
    auto &prof = core::globalProfiler();
    prof.reset();
    w.run();
    int pmf_stages = 0, vsa_stages = 0, prob_stages = 0;
    double best_ratio = 0.0;
    for (const auto &rec : prof.sparsityRecords()) {
        if (rec.stage.find("pmf_to_vsa/") == 0) {
            pmf_stages++;
            // Every stage shows sparsity; the variation across
            // attributes is itself part of the Fig. 5 observation.
            EXPECT_GT(rec.ratio(), 0.25) << rec.stage;
            best_ratio = std::max(best_ratio, rec.ratio());
        }
        if (rec.stage.find("vsa_to_pmf/") == 0)
            vsa_stages++;
        if (rec.stage.find("prob_compute/") == 0)
            prob_stages++;
    }
    EXPECT_EQ(pmf_stages, 4);
    EXPECT_EQ(vsa_stages, 4);
    EXPECT_EQ(prob_stages, 4);
    // At least one attribute is very sparse.
    EXPECT_GT(best_ratio, 0.7);
    prof.reset();
}

TEST(Workloads, OpGraphsAreAcyclicWithSymbolicOnCriticalPath)
{
    registerAllWorkloads();
    auto &reg = core::WorkloadRegistry::global();
    for (const auto &name : reg.names()) {
        auto w = reg.create(name);
        auto graph = w->opGraph();
        EXPECT_TRUE(graph.isAcyclic()) << name;
        EXPECT_GE(graph.size(), 4u) << name;
        bool has_neural = false, has_symbolic = false;
        for (size_t i = 0; i < graph.size(); i++) {
            if (graph.node(i).phase == Phase::Neural)
                has_neural = true;
            if (graph.node(i).phase == Phase::Symbolic)
                has_symbolic = true;
        }
        EXPECT_TRUE(has_neural) << name;
        EXPECT_TRUE(has_symbolic) << name;
    }
}

TEST(Workloads, DeterministicScoresAcrossInstances)
{
    registerAllWorkloads();
    auto &reg = core::WorkloadRegistry::global();
    for (const auto &name : {"LNN", "LTN", "NLM", "VSAIT", "ZeroC"}) {
        auto a = reg.create(name);
        auto b = reg.create(name);
        a->setUp(99);
        b->setUp(99);
        EXPECT_DOUBLE_EQ(a->run(), b->run()) << name;
    }
}

/** (calls, FLOPs) per (op name, phase) of one run() at @p seed. */
std::map<std::pair<std::string, Phase>, std::pair<uint64_t, double>>
opStream(core::Workload &workload, uint64_t seed)
{
    core::Profiler prof;
    {
        // Inline kernels so every op lands on this thread's target.
        util::ThreadPool::SerialScope serial;
        core::Profiler::ThreadTargetScope target(prof);
        workload.reseedEpisodes(seed);
        workload.run();
    }
    std::map<std::pair<std::string, Phase>, std::pair<uint64_t, double>>
        stream;
    for (const core::NamedOpStats &op : prof.opsByTime()) {
        auto &entry = stream[{op.name, op.phase}];
        entry.first += op.stats.invocations;
        entry.second += op.stats.flops;
    }
    return stream;
}

TEST(Workloads, WarmRunsRecordTheSameOperatorStream)
{
    // A warm replica must report the operator stream the paper
    // characterizes on every run: the second run() after one setUp()
    // repeats every op of the first (LNN's grounding included), with
    // the same call counts and FLOPs.
    NvsaConfig nvsa;
    nvsa.hvDim = 256;
    nvsa.episodes = 1;
    PraeConfig prae;
    prae.episodes = 1;
    std::vector<std::pair<std::string, std::unique_ptr<core::Workload>>>
        subjects;
    subjects.emplace_back("LNN", std::make_unique<LnnWorkload>());
    subjects.emplace_back("LTN", std::make_unique<LtnWorkload>());
    subjects.emplace_back("NLM", std::make_unique<NlmWorkload>());
    subjects.emplace_back("NVSA", std::make_unique<NvsaWorkload>(nvsa));
    subjects.emplace_back("PrAE", std::make_unique<PraeWorkload>(prae));
    for (auto &[name, workload] : subjects) {
        workload->setUp(5);
        auto first = opStream(*workload, 9);
        auto second = opStream(*workload, 9);
        EXPECT_FALSE(first.empty()) << name;
        EXPECT_EQ(first, second) << name;
        if (name == "LNN") {
            EXPECT_GT((second[{"rule_ground", Phase::Symbolic}].first),
                      0u);
            EXPECT_GT(
                (second[{"formula_grounding", Phase::Symbolic}].first),
                0u);
        }
    }
}

} // namespace
