#include "workloads/prae.hh"

#include <algorithm>
#include <cmath>

#include "core/profiler.hh"
#include "core/sparsity.hh"
#include "tensor/ops.hh"
#include "util/logging.hh"

namespace nsbench::workloads
{

using core::OpCategory;
using core::OpGraph;
using core::Phase;
using core::PhaseScope;
using core::ScopedOp;
using data::AttributeId;
using tensor::Tensor;

namespace
{

/** Enumerates the full rule tables for one grid size. */
std::unique_ptr<const PraeRuleTables>
buildRuleTables(int grid)
{
    auto tables = std::make_unique<PraeRuleTables>();
    for (size_t a = 0; a < data::numAttributes; a++) {
        int domain =
            data::attributeDomain(data::allAttributes[a], grid);
        PraeRuleTables::Table &table = tables->tables[a];
        table.domain = domain;
        table.rules = data::enumerateRules(domain);
        table.apply.resize(table.rules.size());
        for (size_t r = 0; r < table.rules.size(); r++) {
            auto &map = table.apply[r];
            map.resize(static_cast<size_t>(domain) *
                       static_cast<size_t>(domain));
            for (int a1 = 0; a1 < domain; a1++) {
                for (int a2 = 0; a2 < domain; a2++) {
                    map[static_cast<size_t>(a1 * domain + a2)] =
                        data::applyRule(table.rules[r], a1, a2,
                                        domain);
                }
            }
        }
    }
    return tables;
}

} // namespace

void
PraeWorkload::setUp(uint64_t seed)
{
    generator_ = std::make_unique<data::RavenGenerator>(config_.grid,
                                                        seed);
    perception_ = std::make_unique<RavenPerception>(config_.grid,
                                                    seed ^ 0x9999);

    // Pre-compute the rule tables the abduction engine enumerates.
    // They depend on the grid alone; no seed enters them.
    ruleTables_ = buildRuleTables(config_.grid);
}

void
PraeWorkload::reseedEpisodes(uint64_t seed)
{
    // Only the puzzle stream restarts; perception and the
    // precomputed rule tables (the model) are untouched.
    generator_ = std::make_unique<data::RavenGenerator>(config_.grid,
                                                        seed);
}

uint64_t
PraeWorkload::storageBytes() const
{
    uint64_t bytes = perception_ ? perception_->storageBytes() : 0;
    if (ruleTables_) {
        for (const auto &table : ruleTables_->tables) {
            for (const auto &map : table.apply)
                bytes += map.size() * sizeof(int);
        }
    }
    return bytes;
}

PraeWorkload::PerceivedPuzzle
PraeWorkload::perceivePuzzle(const data::RpmPuzzle &puzzle)
{
    // ---- Neural frontend (shared with NVSA).
    PerceivedPuzzle perceived;
    perceived.answerIndex = puzzle.answerIndex;
    perceived.candidates.resize(8);
    {
        PhaseScope neural(Phase::Neural, "prae/perception");
        std::vector<Tensor> images;
        images.reserve(16);
        for (int i = 0; i < 8; i++) {
            images.push_back(generator_->render(
                puzzle.context[static_cast<size_t>(i)]));
        }
        for (int i = 0; i < 8; i++) {
            images.push_back(generator_->render(
                puzzle.candidates[static_cast<size_t>(i)]));
        }
        auto beliefs = perception_->perceiveBatch(images);
        for (int i = 0; i < 8; i++)
            perceived.context[static_cast<size_t>(i)] =
                std::move(beliefs[static_cast<size_t>(i)]);
        for (int i = 0; i < 8; i++)
            perceived.candidates[static_cast<size_t>(i)] =
                std::move(beliefs[static_cast<size_t>(i + 8)]);
    }
    return perceived;
}

bool
PraeWorkload::reasonPuzzle(PerceivedPuzzle &perceived)
{
    std::array<PanelBelief, 8> &context = perceived.context;
    std::vector<PanelBelief> &candidates = perceived.candidates;

    // ---- Scene inference: fuse object-level (per-cell) beliefs into
    // calibrated panel distributions (products of expert cells).
    {
        PhaseScope symbolic(Phase::Symbolic, "prae/scene_inference");
        auto fuse = [](PanelBelief &belief) {
            if (belief.cellBeliefs.empty())
                return;
            Tensor type_prod = belief.cellBeliefs[0][0];
            Tensor size_prod = belief.cellBeliefs[0][1];
            for (size_t c = 1; c < belief.cellBeliefs.size(); c++) {
                if (c == 1) {
                    // The running products still alias cell 0's
                    // beliefs here; the first multiply must allocate
                    // before later rounds can go in place.
                    type_prod = tensor::mul(
                        type_prod, belief.cellBeliefs[c][0]);
                    size_prod = tensor::mul(
                        size_prod, belief.cellBeliefs[c][1]);
                } else {
                    tensor::mulInPlace(type_prod,
                                       belief.cellBeliefs[c][0]);
                    tensor::mulInPlace(size_prod,
                                       belief.cellBeliefs[c][1]);
                }
            }
            int64_t td = type_prod.numel();
            int64_t sd = size_prod.numel();
            belief.pmfs[1] =
                tensor::normalizeSum(type_prod.reshaped({1, td}))
                    .reshaped({td});
            belief.pmfs[2] =
                tensor::normalizeSum(size_prod.reshaped({1, sd}))
                    .reshaped({sd});
        };
        for (auto &belief : context)
            fuse(belief);
        for (auto &belief : candidates)
            fuse(belief);
    }

    // ---- Probabilistic abduction: exhaustive rule scoring.
    // posterior[a][r] = P(rule r | both complete rows).
    std::array<std::vector<double>, data::numAttributes> posteriors;
    {
        PhaseScope symbolic(Phase::Symbolic, "prae/abduction");
        for (size_t a = 0; a < data::numAttributes; a++) {
            const PraeRuleTables::Table &table =
                ruleTables_->tables[a];
            int domain = table.domain;
            posteriors[a].assign(table.rules.size(), 0.0);

            // Each (rule, row) check is its own dispatched operator,
            // matching the fine-grained kernel stream a framework
            // implementation of PrAE emits — the dispatch-bound
            // behaviour the paper observes for symbolic backends.
            for (size_t r = 0; r < table.rules.size(); r++) {
                double log_score = 0.0;
                for (int row = 0; row < 2; row++) {
                    ScopedOp op("prob_abduction", OpCategory::Other);
                    auto p0 = context[static_cast<size_t>(row * 3)]
                                  .pmfs[a]
                                  .data();
                    auto p1 =
                        context[static_cast<size_t>(row * 3 + 1)]
                            .pmfs[a]
                            .data();
                    auto p2 =
                        context[static_cast<size_t>(row * 3 + 2)]
                            .pmfs[a]
                            .data();
                    double row_prob = 0.0;
                    const auto &map = table.apply[r];
                    for (int a1 = 0; a1 < domain; a1++) {
                        for (int a2 = 0; a2 < domain; a2++) {
                            int a3 = map[static_cast<size_t>(
                                a1 * domain + a2)];
                            if (a3 < 0)
                                continue;
                            row_prob +=
                                static_cast<double>(
                                    p0[static_cast<size_t>(a1)]) *
                                p1[static_cast<size_t>(a2)] *
                                p2[static_cast<size_t>(a3)];
                        }
                    }
                    double flops = 3.0 * static_cast<double>(domain) *
                                   static_cast<double>(domain);
                    op.setFlops(flops);
                    op.setBytesRead(flops * 4.0);
                    op.setBytesWritten(8.0);
                    log_score += std::log(row_prob + 1e-12);
                }
                posteriors[a][r] = std::exp(log_score);
            }

            // Normalize the posterior and record its sparsity — the
            // "probability computation" stage of Fig. 5.
            double total = 0.0;
            for (double p : posteriors[a])
                total += p;
            uint64_t zeros = 0;
            for (double &p : posteriors[a]) {
                p = total > 0.0 ? p / total : 0.0;
                if (p < 1e-4)
                    zeros++;
            }
            core::globalProfiler().recordSparsity(
                "prae_rule_posterior/" +
                    std::string(data::attributeName(
                        data::allAttributes[a])),
                zeros, posteriors[a].size());
        }
    }

    // ---- Probabilistic execution: posterior-weighted exhaustive
    // generation of the answer PMF.
    std::array<Tensor, data::numAttributes> predicted;
    {
        PhaseScope symbolic(Phase::Symbolic, "prae/execution");
        for (size_t a = 0; a < data::numAttributes; a++) {
            const PraeRuleTables::Table &table =
                ruleTables_->tables[a];
            int domain = table.domain;
            predicted[a] = Tensor({domain});

            auto p7 = context[6].pmfs[a].data();
            auto p8 = context[7].pmfs[a].data();
            auto out = predicted[a].data();
            for (size_t r = 0; r < table.rules.size(); r++) {
                double weight = posteriors[a][r];
                if (weight <= 0.0)
                    continue;
                ScopedOp op("prob_execute", OpCategory::Other);
                const auto &map = table.apply[r];
                for (int a1 = 0; a1 < domain; a1++) {
                    for (int a2 = 0; a2 < domain; a2++) {
                        int a3 = map[static_cast<size_t>(
                            a1 * domain + a2)];
                        if (a3 < 0)
                            continue;
                        out[static_cast<size_t>(a3)] +=
                            static_cast<float>(
                                weight *
                                static_cast<double>(
                                    p7[static_cast<size_t>(a1)]) *
                                p8[static_cast<size_t>(a2)]);
                    }
                }
                double flops = 3.0 * static_cast<double>(domain) *
                               static_cast<double>(domain);
                op.setFlops(flops);
                op.setBytesRead(flops * 4.0);
                op.setBytesWritten(static_cast<double>(domain) * 4.0);
            }

            predicted[a] =
                tensor::normalizeSum(
                    predicted[a].reshaped({1, domain}))
                    .reshaped({domain});
        }
    }

    // ---- Answer selection by probabilistic matching.
    int best_candidate = 0;
    {
        PhaseScope symbolic(Phase::Symbolic, "prae/answer_select");
        float best_score = -1e30f;
        for (int c = 0; c < 8; c++) {
            float score = 0.0f;
            for (size_t a = 0; a < data::numAttributes; a++) {
                float match = tensor::dot(
                    predicted[a],
                    candidates[static_cast<size_t>(c)].pmfs[a]);
                score += std::log(match + 1e-6f);
            }
            if (score > best_score) {
                best_score = score;
                best_candidate = c;
            }
        }
    }
    return best_candidate == perceived.answerIndex;
}

bool
PraeWorkload::solvePuzzle(const data::RpmPuzzle &puzzle)
{
    PerceivedPuzzle perceived = perceivePuzzle(puzzle);
    return reasonPuzzle(perceived);
}

double
PraeWorkload::run()
{
    util::panicIf(!generator_, "PrAE: setUp() not called");
    int correct = 0;
    for (int e = 0; e < config_.episodes; e++) {
        data::RpmPuzzle puzzle = generator_->generate();
        if (solvePuzzle(puzzle))
            correct++;
    }
    return static_cast<double>(correct) /
           static_cast<double>(config_.episodes);
}

core::StageSpec
PraeWorkload::stageSpec(int stage) const
{
    return stage == 0
               ? core::StageSpec{"perceive", Phase::Neural}
               : core::StageSpec{"reason", Phase::Symbolic};
}

void
PraeWorkload::runStage(int stage, core::EpisodeState &state)
{
    // Stage 0 consumes the whole episode RNG stream (generation +
    // rendering); stage 1 is pure in the perceived beliefs plus the
    // immutable rule tables, so overlapping episodes cannot change a
    // score.
    if (stage == 0) {
        util::panicIf(!generator_, "PrAE: setUp() not called");
        auto scratch = std::make_shared<EpisodeScratch>();
        scratch->puzzles.reserve(
            static_cast<size_t>(config_.episodes));
        for (int e = 0; e < config_.episodes; e++) {
            data::RpmPuzzle puzzle = generator_->generate();
            scratch->puzzles.push_back(perceivePuzzle(puzzle));
        }
        state.scratch = std::move(scratch);
        return;
    }
    auto scratch =
        std::static_pointer_cast<EpisodeScratch>(state.scratch);
    int correct = 0;
    for (PerceivedPuzzle &perceived : scratch->puzzles) {
        if (reasonPuzzle(perceived))
            correct++;
    }
    state.scratch.reset();
    state.score = static_cast<double>(correct) /
                  static_cast<double>(config_.episodes);
}

OpGraph
PraeWorkload::opGraph() const
{
    OpGraph g;
    auto input = g.addNode("panel_images", Phase::Untagged);
    auto percept = g.addNode("prae/perception", Phase::Neural);
    auto scene = g.addNode("prae/scene_inference", Phase::Symbolic);
    auto abduce = g.addNode("prae/abduction", Phase::Symbolic);
    auto exec = g.addNode("prae/execution", Phase::Symbolic);
    auto select = g.addNode("prae/answer_select", Phase::Symbolic);
    auto answer = g.addNode("answer", Phase::Untagged);
    g.addEdge(input, percept);
    g.addEdge(percept, scene);
    g.addEdge(scene, abduce);
    g.addEdge(abduce, exec);
    g.addEdge(exec, select);
    g.addEdge(scene, select);
    g.addEdge(select, answer);
    return g;
}


} // namespace nsbench::workloads
