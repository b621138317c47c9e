#include "workloads/lnn.hh"

#include <algorithm>
#include <set>

#include "core/profiler.hh"
#include "logic/grounding.hh"
#include "tensor/fused.hh"
#include "tensor/ops.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace nsbench::workloads
{

using core::OpCategory;
using core::OpGraph;
using core::Phase;
using core::PhaseScope;
using core::ScopedOp;
using logic::GroundAtom;
using logic::TruthBounds;
using tensor::Tensor;

void
LnnWorkload::setUp(uint64_t seed)
{
    university_ = std::make_unique<data::UniversityKb>(
        data::makeUniversityKb(config_.departments,
                               config_.professorsPerDept,
                               config_.studentsPerDept,
                               config_.coursesPerProf, seed));
    // Ground truth from classical saturation on a scratch copy,
    // computed here so run() spends no unattributed time on scoring.
    logic::KnowledgeBase truth = university_->kb;
    truth.forwardChain();
    expectedSenior_ = {
        truth.facts(university_->seniorStudent).begin(),
        truth.facts(university_->seniorStudent).end()};
}

uint64_t
LnnWorkload::storageBytes() const
{
    return university_ ? university_->kb.factBytes() : 0;
}

LnnWorkload::GroundState
LnnWorkload::groundKb()
{
    // ---- Symbolic: grounding. Saturate to enumerate candidate
    // atoms, then ground every rule into formula-graph instances.
    GroundState gs;
    {
        PhaseScope symbolic(Phase::Symbolic, "lnn/grounding");
        gs.index = logic::buildGroundedIndex(university_->kb);
    }
    // Per-run mutable neuron state; the index stays const.
    gs.bounds = gs.index.initialBounds;

    // Account the grounded formula graph as symbolic working-set
    // memory (it is the LNN's intermediate state).
    gs.graphBytes = gs.index.graphBytes();
    {
        PhaseScope symbolic(Phase::Symbolic, "lnn/grounding");
        core::globalProfiler().recordAlloc(gs.graphBytes);
    }
    return gs;
}

double
LnnWorkload::inferAndScore(GroundState &gs)
{
    const logic::GroundedIndex &g = gs.index;
    std::vector<TruthBounds> &bounds = gs.bounds;
    uint64_t graph_bytes = gs.graphBytes;

    auto n_atoms = static_cast<int64_t>(bounds.size());

    // ---- Bidirectional inference passes.
    for (int pass = 0; pass < config_.maxPasses; pass++) {
        float max_change = 0.0f;

        // Pack current bounds into tensors (the neuron state).
        Tensor lower({n_atoms, 1});
        Tensor upper({n_atoms, 1});
        {
            PhaseScope neural(Phase::Neural, "lnn/state_pack");
            ScopedOp op("bound_pack", OpCategory::DataMovement);
            for (int64_t i = 0; i < n_atoms; i++) {
                lower(i, 0) = bounds[static_cast<size_t>(i)].lower;
                upper(i, 0) = bounds[static_cast<size_t>(i)].upper;
            }
            op.setBytesRead(static_cast<double>(n_atoms) * 8.0);
            op.setBytesWritten(static_cast<double>(n_atoms) * 8.0);
        }

        for (const auto &group : g.byRule) {
            if (group.empty())
                continue;
            auto k = static_cast<int64_t>(group[0].body.size());
            auto inst_n = static_cast<int64_t>(group.size());

            // ---- Neural: vectorized weighted-Lukasiewicz AND over
            // every instance of this rule (upward direction).
            Tensor and_lower, and_upper, body_lower_mat,
                body_upper_mat;
            {
                PhaseScope neural(Phase::Neural, "lnn/upward_eval");
                std::vector<Tensor> lo_cols, hi_cols;
                for (int64_t j = 0; j < k; j++) {
                    std::vector<int64_t> rows;
                    rows.reserve(static_cast<size_t>(inst_n));
                    for (const auto &inst : group)
                        rows.push_back(
                            inst.body[static_cast<size_t>(j)]);
                    lo_cols.push_back(tensor::gatherRows(lower, rows));
                    hi_cols.push_back(tensor::gatherRows(upper, rows));
                }
                body_lower_mat = tensor::concat(lo_cols, 1);
                body_upper_mat = tensor::concat(hi_cols, 1);
                float bias = -static_cast<float>(k - 1);
                // Fused bias + clamp over the row sums: same kernels
                // in the same order as the former
                // clamp(addScalar(sumAxis(...), bias), 0, 1) chain,
                // without the two intermediate tensors.
                auto bias_clamp = [bias](Tensor &t) {
                    tensor::fusedMapUnary(
                        "lukasiewicz_and", t, t, 2.0,
                        [bias](const float *a, float *out, float *,
                               int64_t n) {
                            util::simd::addScalar(a, bias, out, n);
                            util::simd::clampRange(out, 0.0f, 1.0f,
                                                   out, n);
                        });
                };
                and_lower = tensor::sumAxis(body_lower_mat, 1);
                bias_clamp(and_lower);
                and_upper = tensor::sumAxis(body_upper_mat, 1);
                bias_clamp(and_upper);
            }

            // ---- Symbolic: upward bound tightening at the heads.
            // Updates dispatch in fixed-size chunks, the granularity
            // a per-node message-passing implementation batches at.
            {
                PhaseScope symbolic(Phase::Symbolic,
                                    "lnn/upward_update");
                constexpr int64_t chunk = 32;
                for (int64_t c0 = 0; c0 < inst_n; c0 += chunk) {
                    ScopedOp op("bound_update", OpCategory::Other);
                    int64_t c1 = std::min(c0 + chunk, inst_n);
                    for (int64_t i = c0; i < c1; i++) {
                        auto &head = bounds[static_cast<size_t>(
                            group[static_cast<size_t>(i)].head)];
                        float new_lower =
                            std::max(head.lower, and_lower.flat(i));
                        max_change = std::max(
                            max_change, new_lower - head.lower);
                        head.lower = new_lower;
                        util::panicIf(head.contradictory(),
                                      "LNN: contradictory bounds");
                    }
                    op.setFlops(static_cast<double>(c1 - c0) * 2.0);
                    op.setBytesRead(static_cast<double>(c1 - c0) *
                                    8.0);
                    op.setBytesWritten(
                        static_cast<double>(c1 - c0) * 4.0);
                }
            }

            // ---- Neural: downward candidate bounds, computed for
            // all body positions at once. With the implication true,
            // AND(body) <= head.upper, so
            // x_j <= head.upper + (k-1) - sum_{i != j} L_i.
            Tensor cand_all;
            {
                PhaseScope neural(Phase::Neural,
                                  "lnn/downward_eval");
                std::vector<int64_t> heads;
                heads.reserve(static_cast<size_t>(inst_n));
                for (const auto &inst : group)
                    heads.push_back(inst.head);
                Tensor head_upper = tensor::gatherRows(upper, heads);
                Tensor sum_lower =
                    tensor::sumAxis(body_lower_mat, 1)
                        .reshaped({inst_n, 1});
                Tensor ones_row = Tensor::ones({1, k});
                // Broadcast [inst,1] -> [inst,k] via rank-1 matmuls.
                Tensor others =
                    tensor::matmul(sum_lower, ones_row);
                tensor::subInPlace(others, body_lower_mat);
                Tensor head_mat =
                    tensor::matmul(head_upper, ones_row);
                // Fused (head + (k-1)) - others, clamped to [0, 1]:
                // identical kernel order to the former addScalar /
                // sub / clamp chain, one pass, no intermediates.
                float slack = static_cast<float>(k - 1);
                tensor::fusedMap(
                    "downward_cand", head_mat, head_mat, others, 3.0,
                    [slack](const float *a, const float *b,
                            float *out, float *scratch, int64_t n) {
                        util::simd::addScalar(a, slack, scratch, n);
                        util::simd::sub(scratch, b, out, n);
                        util::simd::clampRange(out, 0.0f, 1.0f, out,
                                               n);
                    });
                cand_all = head_mat;
            }

            // ---- Symbolic: scatter-min into atom uppers, chunked
            // like the upward updates.
            {
                PhaseScope symbolic(Phase::Symbolic,
                                    "lnn/downward_update");
                constexpr int64_t chunk = 32;
                for (int64_t c0 = 0; c0 < inst_n; c0 += chunk) {
                    ScopedOp op("bound_update", OpCategory::Other);
                    int64_t c1 = std::min(c0 + chunk, inst_n);
                    for (int64_t i = c0; i < c1; i++) {
                        for (int64_t j = 0; j < k; j++) {
                            auto &atom = bounds[static_cast<size_t>(
                                group[static_cast<size_t>(i)]
                                    .body[static_cast<size_t>(j)])];
                            float new_upper = std::min(
                                atom.upper, cand_all(i, j));
                            // Base facts are observations; keep them.
                            if (atom.lower >= 1.0f)
                                new_upper = atom.upper;
                            max_change = std::max(
                                max_change, atom.upper - new_upper);
                            atom.upper = new_upper;
                        }
                    }
                    op.setFlops(static_cast<double>((c1 - c0) * k) *
                                2.0);
                    op.setBytesRead(
                        static_cast<double>((c1 - c0) * k) * 8.0);
                    op.setBytesWritten(
                        static_cast<double>((c1 - c0) * k) * 4.0);
                }
            }
        }

        if (max_change < 1e-6f)
            break;
    }

    core::globalProfiler().recordFree(graph_bytes);

    // ---- Score: recall x precision of proven seniorStudent facts.
    const std::set<GroundAtom> &expected = expectedSenior_;

    size_t proven = 0, proven_correct = 0;
    for (const auto &[atom, id] : g.atomIds) {
        if (atom.predicate != university_->seniorStudent)
            continue;
        if (bounds[id].isTrue()) {
            proven++;
            if (expected.count(atom))
                proven_correct++;
        }
    }
    double recall =
        expected.empty()
            ? 1.0
            : static_cast<double>(proven_correct) /
                  static_cast<double>(expected.size());
    double precision =
        proven == 0 ? 0.0
                    : static_cast<double>(proven_correct) /
                          static_cast<double>(proven);
    return expected.empty() ? 1.0 : recall * precision;
}

double
LnnWorkload::run()
{
    util::panicIf(!university_, "LNN: setUp() not called");
    GroundState gs = groundKb();
    return inferAndScore(gs);
}

core::StageSpec
LnnWorkload::stageSpec(int stage) const
{
    // The inference stage is labeled Neural: the vectorized
    // upward/downward Lukasiewicz evaluation dominates it, while the
    // grounding stage is pure symbolic rule instantiation.
    return stage == 0
               ? core::StageSpec{"ground", Phase::Symbolic}
               : core::StageSpec{"infer", Phase::Neural};
}

void
LnnWorkload::runStage(int stage, core::EpisodeState &state)
{
    // LNN is seed-insensitive: no episode RNG exists, so both stages
    // are pure in the immutable model and the handed-off GroundState.
    if (stage == 0) {
        util::panicIf(!university_, "LNN: setUp() not called");
        state.scratch =
            std::make_shared<GroundState>(groundKb());
        return;
    }
    auto gs = std::static_pointer_cast<GroundState>(state.scratch);
    state.score = inferAndScore(*gs);
    state.scratch.reset();
}

OpGraph
LnnWorkload::opGraph() const
{
    OpGraph g;
    auto kb_in = g.addNode("knowledge_base", Phase::Untagged);
    auto ground = g.addNode("lnn/grounding", Phase::Symbolic);
    auto pack = g.addNode("lnn/state_pack", Phase::Neural);
    auto up_eval = g.addNode("lnn/upward_eval", Phase::Neural);
    auto up_update = g.addNode("lnn/upward_update", Phase::Symbolic);
    auto down_eval = g.addNode("lnn/downward_eval", Phase::Neural);
    auto down_update =
        g.addNode("lnn/downward_update", Phase::Symbolic);
    auto verdict = g.addNode("proof_bounds", Phase::Untagged);
    g.addEdge(kb_in, ground);
    g.addEdge(ground, pack);
    g.addEdge(pack, up_eval);
    g.addEdge(up_eval, up_update);
    g.addEdge(up_update, down_eval);
    g.addEdge(down_eval, down_update);
    g.addEdge(down_update, verdict);
    return g;
}


} // namespace nsbench::workloads
