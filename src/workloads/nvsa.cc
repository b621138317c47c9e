#include "workloads/nvsa.hh"

#include <algorithm>
#include <cmath>

#include "core/profiler.hh"
#include "core/sparsity.hh"
#include "tensor/fused.hh"
#include "tensor/ops.hh"
#include "util/logging.hh"
#include "util/simd.hh"
#include "vsa/fft.hh"
#include "vsa/ops.hh"

namespace nsbench::workloads
{

using core::OpGraph;
using core::Phase;
using core::PhaseScope;
using data::AttributeId;
using data::RuleType;
using tensor::Tensor;

namespace
{

/** Decode threshold: ~2.5 sigma of random cosine at dim 1024. */
constexpr float decodeThreshold = 0.08f;

/** Rule-score floor below which scores count as zero (sparsity). */
constexpr float scoreFloor = 0.05f;

/** Cosine clamped to [0, 1]; quasi-orthogonal noise maps near 0. */
float
simPos(const Tensor &a, const Tensor &b)
{
    return std::max(vsa::cosineSimilarity(a, b), 0.0f);
}

/** The VSA-detectable rule candidates, in a fixed order. */
struct VsaRule
{
    RuleType type;
    int delta;
};

const std::array<VsaRule, 8> vsaRules = {{
    {RuleType::Constant, 0},
    {RuleType::Progression, 1},
    {RuleType::Progression, -1},
    {RuleType::Progression, 2},
    {RuleType::Progression, -2},
    {RuleType::Arithmetic, 1},
    {RuleType::Arithmetic, -1},
    {RuleType::DistributeThree, 0},
}};

} // namespace

namespace
{

/** Builds the full codebook bundle from its own RNG stream. */
std::unique_ptr<const NvsaCodebooks>
buildCodebooks(const NvsaConfig &config, uint64_t seed)
{
    auto books = std::make_unique<NvsaCodebooks>();
    util::Rng rng(seed ^ 0x5678);
    for (AttributeId attr : data::allAttributes) {
        int domain = data::attributeDomain(attr, config.grid);
        Tensor base = vsa::unitaryVector(config.hvDim, rng);
        // Atom for value v is the (v+1)-th convolution power, so no
        // value maps to the degenerate identity impulse.
        Tensor atoms({domain, config.hvDim});
        for (int v = 0; v < domain; v++) {
            Tensor atom = vsa::convPower(base, v + 1);
            auto src = atom.data();
            for (int64_t i = 0; i < config.hvDim; i++)
                atoms(v, i) = src[static_cast<size_t>(i)];
        }
        books->attributeBooks.push_back(
            std::make_unique<vsa::Codebook>(std::move(atoms)));
        books->bases.push_back(std::move(base));
    }

    // The object-combination codebook (type x size x color): the
    // large quasi-orthogonal store behind the paper's Takeaway 4.
    int types = data::attributeDomain(AttributeId::Type, config.grid);
    int sizes = data::attributeDomain(AttributeId::Size, config.grid);
    int colors =
        data::attributeDomain(AttributeId::Color, config.grid);
    Tensor combos({types * sizes * colors, config.hvDim});
    int64_t row = 0;
    for (int t = 0; t < types; t++) {
        for (int s = 0; s < sizes; s++) {
            Tensor ts = vsa::fftCircularConvolve(
                books->attributeBooks[1]->atom(t),
                books->attributeBooks[2]->atom(s));
            for (int c = 0; c < colors; c++) {
                Tensor tsc = vsa::fftCircularConvolve(
                    ts, books->attributeBooks[3]->atom(c));
                auto src = tsc.data();
                for (int64_t i = 0; i < config.hvDim; i++)
                    combos(row, i) = src[static_cast<size_t>(i)];
                row++;
            }
        }
    }
    books->comboBook =
        std::make_unique<vsa::Codebook>(std::move(combos));
    if (config.quantizedComboBook) {
        books->quantizedCombo =
            std::make_unique<vsa::QuantizedCodebook>(
                *books->comboBook);
    }
    return books;
}

} // namespace

void
NvsaWorkload::setUp(uint64_t seed)
{
    util::panicIf(!vsa::isPowerOfTwo(
                      static_cast<size_t>(config_.hvDim)),
                  "NVSA: hvDim must be a power of two");
    generator_ = std::make_unique<data::RavenGenerator>(config_.grid,
                                                        seed);
    perception_ = std::make_unique<RavenPerception>(config_.grid,
                                                    seed ^ 0x1234);

    // The codebook bundle draws from its own RNG stream (seed ^
    // 0x5678), independent of the generator and perception streams.
    books_ = buildCodebooks(config_, seed);
}

void
NvsaWorkload::reseedEpisodes(uint64_t seed)
{
    // Only the puzzle stream restarts; perception weights and the
    // codebooks (the model) are untouched, so long-lived serve
    // replicas answer a seed-s request exactly like a fresh one.
    generator_ = std::make_unique<data::RavenGenerator>(config_.grid,
                                                        seed);
}

uint64_t
NvsaWorkload::storageBytes() const
{
    uint64_t bytes = perception_ ? perception_->storageBytes() : 0;
    if (!books_)
        return bytes;
    for (const auto &book : books_->attributeBooks)
        bytes += book->bytes();
    // A quantized combination book replaces the FP32 one in memory.
    if (books_->quantizedCombo)
        bytes += books_->quantizedCombo->bytes();
    else if (books_->comboBook)
        bytes += books_->comboBook->bytes();
    return bytes;
}

std::array<Tensor, data::numAttributes>
NvsaWorkload::encodePanel(const PanelBelief &belief,
                          bool record_sparsity)
{
    std::array<Tensor, data::numAttributes> hvs;
    for (size_t a = 0; a < data::numAttributes; a++) {
        std::string stage;
        if (record_sparsity) {
            stage = "pmf_to_vsa/" +
                    std::string(data::attributeName(
                        data::allAttributes[a]));
        }
        // NVSA sparsifies the PMF before the transform; entries
        // below 1% contribute nothing and are skipped (the Fig. 5
        // sparsity this stage records).
        hvs[a] = books_->attributeBooks[a]->encodePmf(belief.pmfs[a], stage,
                                               0.01f);
    }
    return hvs;
}

NvsaWorkload::PerceivedPuzzle
NvsaWorkload::perceivePuzzle(const data::RpmPuzzle &puzzle)
{
    // ---- Neural frontend: perceive context and candidate panels.
    PerceivedPuzzle perceived;
    perceived.answerIndex = puzzle.answerIndex;
    perceived.candidates.resize(8);
    {
        PhaseScope neural(Phase::Neural, "nvsa/perception");
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
NvsaWorkload::reasonPuzzle(const PerceivedPuzzle &perceived)
{
    const std::array<PanelBelief, 8> &context_beliefs =
        perceived.context;
    const std::vector<PanelBelief> &candidate_beliefs =
        perceived.candidates;

    // ---- Symbolic backend.
    // PMF -> VSA for all context panels.
    std::array<std::array<Tensor, data::numAttributes>, 8> ctx_hv;
    {
        PhaseScope symbolic(Phase::Symbolic, "nvsa/pmf_to_vsa");
        for (int i = 0; i < 8; i++) {
            ctx_hv[static_cast<size_t>(i)] = encodePanel(
                context_beliefs[static_cast<size_t>(i)], i == 0);
        }
    }

    // Scene transduction: every panel's objects become bound
    // attribute products verified against the combination codebook —
    // the per-object vector-symbolic work that grows with task size
    // (Fig. 2c) and needs the large combination store (Takeaway 4).
    {
        PhaseScope symbolic(Phase::Symbolic, "nvsa/scene_encode");
        auto encode_scene =
            [&](const PanelBelief &belief,
                const std::array<Tensor, data::numAttributes> &hv)
            -> Tensor {
            std::vector<Tensor> objects;
            auto n_objects =
                std::max<size_t>(belief.cellBeliefs.size(), 1);
            for (size_t o = 0; o < n_objects; o++) {
                Tensor object = vsa::circularConvolve(
                    vsa::circularConvolve(hv[1], hv[2]), hv[3]);
                // Tag the object with its slot via permutation.
                Tensor placed = vsa::permuteShift(
                    object, static_cast<int64_t>(o) * 7 + 1);
                vsa::CleanupResult check =
                    books_->quantizedCombo ? books_->quantizedCombo->cleanup(object)
                                    : books_->comboBook->cleanup(object);
                (void)check;
                objects.push_back(std::move(placed));
            }
            return vsa::bundle(objects);
        };
        for (int i = 0; i < 8; i++) {
            Tensor scene = encode_scene(
                context_beliefs[static_cast<size_t>(i)],
                ctx_hv[static_cast<size_t>(i)]);
            (void)scene;
        }
        for (int i = 0; i < 8; i++) {
            auto cand_hv = encodePanel(
                candidate_beliefs[static_cast<size_t>(i)], false);
            Tensor scene = encode_scene(
                candidate_beliefs[static_cast<size_t>(i)], cand_hv);
            (void)scene;
        }
    }

    // Rule detection per attribute via algebra on rows 0 and 1.
    std::array<VsaRule, data::numAttributes> best_rules{};
    {
        PhaseScope symbolic(Phase::Symbolic, "nvsa/rule_detect");
        for (size_t a = 0; a < data::numAttributes; a++) {
            const Tensor &base = books_->bases[a];
            auto hv = [&](int row, int col) -> const Tensor & {
                return ctx_hv[static_cast<size_t>(row * 3 + col)][a];
            };
            auto shift = [&](const Tensor &h, int d) {
                Tensor step = vsa::convPower(base, d);
                return vsa::circularConvolve(h, step);
            };

            Tensor scores(
                {static_cast<int64_t>(vsaRules.size())});
            for (size_t r = 0; r < vsaRules.size(); r++) {
                const VsaRule &rule = vsaRules[r];
                float fit = 1.0f;
                switch (rule.type) {
                  case RuleType::Constant:
                    for (int row = 0; row < 2; row++) {
                        fit *= simPos(hv(row, 0), hv(row, 1)) *
                               simPos(hv(row, 1), hv(row, 2));
                    }
                    break;
                  case RuleType::Progression:
                    for (int row = 0; row < 2; row++) {
                        fit *= simPos(hv(row, 1),
                                      shift(hv(row, 0), rule.delta)) *
                               simPos(hv(row, 2),
                                      shift(hv(row, 1), rule.delta));
                    }
                    break;
                  case RuleType::Arithmetic:
                    for (int row = 0; row < 2; row++) {
                        Tensor pred;
                        if (rule.delta > 0) {
                            // E_{a+1} (*) E_{b+1} = base^{a+b+2};
                            // one inverse step lands on E_{a+b+1}.
                            pred = shift(vsa::circularConvolve(
                                             hv(row, 0), hv(row, 1)),
                                         -1);
                        } else {
                            // corr(E_{b+1}, E_{a+1}) = base^{a-b};
                            // one forward step lands on E_{a-b+1}.
                            pred = shift(vsa::circularCorrelate(
                                             hv(row, 1), hv(row, 0)),
                                         1);
                        }
                        fit *= simPos(hv(row, 2), pred);
                    }
                    break;
                  case RuleType::DistributeThree: {
                    Tensor b0 = vsa::bundle(
                        {hv(0, 0), hv(0, 1), hv(0, 2)});
                    Tensor b1 = vsa::bundle(
                        {hv(1, 0), hv(1, 1), hv(1, 2)});
                    float diversity =
                        1.0f - simPos(hv(0, 0), hv(0, 1));
                    fit = simPos(b0, b1) * diversity;
                    break;
                  }
                }
                scores(static_cast<int64_t>(r)) = fit;
            }

            // Record the rule-probability sparsity (Fig. 5's
            // "probability computation" stage).
            // Fused floor-shift + clamp (same kernel order as the
            // former clamp(addScalar(scores, -floor), 0, 1) chain);
            // scores stays intact for the argmax below.
            Tensor thresholded =
                Tensor::uninitialized(scores.shape());
            tensor::fusedMapUnary(
                "rule_threshold", thresholded, scores, 2.0,
                [](const float *pa, float *po, float *, int64_t n) {
                    util::simd::addScalar(pa, -scoreFloor, po, n);
                    util::simd::clampRange(po, 0.0f, 1.0f, po, n);
                });
            core::recordSpanSparsity(
                "prob_compute/" +
                    std::string(data::attributeName(
                        data::allAttributes[a])),
                std::span<const float>(thresholded.data()));

            best_rules[a] =
                vsaRules[static_cast<size_t>(tensor::argmaxAll(
                    scores))];
        }
    }

    // Rule execution: predict the answer hypervector per attribute,
    // then decode back to PMFs.
    std::array<Tensor, data::numAttributes> answer_pmfs;
    {
        PhaseScope symbolic(Phase::Symbolic, "nvsa/rule_exec");
        for (size_t a = 0; a < data::numAttributes; a++) {
            const Tensor &base = books_->bases[a];
            auto hv = [&](int row, int col) -> const Tensor & {
                return ctx_hv[static_cast<size_t>(row * 3 + col)][a];
            };
            auto shift = [&](const Tensor &h, int d) {
                Tensor step = vsa::convPower(base, d);
                return vsa::circularConvolve(h, step);
            };

            const VsaRule &rule = best_rules[a];
            Tensor pred;
            switch (rule.type) {
              case RuleType::Constant:
                pred = tensor::mulScalar(
                    vsa::bundle({hv(2, 0), hv(2, 1)}), 0.5f);
                break;
              case RuleType::Progression:
                pred = shift(hv(2, 1), rule.delta);
                break;
              case RuleType::Arithmetic:
                if (rule.delta > 0) {
                    pred = shift(vsa::circularConvolve(hv(2, 0),
                                                       hv(2, 1)),
                                 -1);
                } else {
                    pred = shift(vsa::circularCorrelate(hv(2, 1),
                                                        hv(2, 0)),
                                 1);
                }
                break;
              case RuleType::DistributeThree: {
                Tensor b0 =
                    vsa::bundle({hv(0, 0), hv(0, 1), hv(0, 2)});
                pred = tensor::sub(
                    b0, vsa::bundle({hv(2, 0), hv(2, 1)}));
                break;
              }
            }
            answer_pmfs[a] = books_->attributeBooks[a]->decodePmf(
                pred,
                "vsa_to_pmf/" +
                    std::string(data::attributeName(
                        data::allAttributes[a])),
                decodeThreshold);
        }
    }

    // Answer selection: probabilistic match of each candidate's
    // perceived PMFs against the predicted PMFs, plus a combination-
    // codebook verification of the winner.
    int best_candidate = 0;
    {
        PhaseScope symbolic(Phase::Symbolic, "nvsa/answer_select");
        float best_score = -1e30f;
        for (int c = 0; c < 8; c++) {
            float score = 0.0f;
            for (size_t a = 0; a < data::numAttributes; a++) {
                float match = tensor::dot(
                    answer_pmfs[a],
                    candidate_beliefs[static_cast<size_t>(c)]
                        .pmfs[a]);
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
NvsaWorkload::solvePuzzle(const data::RpmPuzzle &puzzle)
{
    return reasonPuzzle(perceivePuzzle(puzzle));
}

double
NvsaWorkload::run()
{
    util::panicIf(!generator_, "NVSA: setUp() not called");
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
NvsaWorkload::stageSpec(int stage) const
{
    return stage == 0
               ? core::StageSpec{"perceive", Phase::Neural}
               : core::StageSpec{"reason", Phase::Symbolic};
}

void
NvsaWorkload::runStage(int stage, core::EpisodeState &state)
{
    // Stage 0 consumes the whole episode RNG stream (puzzle
    // generation + rendering), so stage 1 is a pure function of the
    // perceived beliefs plus the immutable codebooks — the property
    // that makes cross-episode overlap byte-identical to run().
    if (stage == 0) {
        util::panicIf(!generator_, "NVSA: setUp() not called");
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
    for (const PerceivedPuzzle &perceived : scratch->puzzles) {
        if (reasonPuzzle(perceived))
            correct++;
    }
    state.scratch.reset();
    state.score = static_cast<double>(correct) /
                  static_cast<double>(config_.episodes);
}

OpGraph
NvsaWorkload::opGraph() const
{
    OpGraph g;
    auto input = g.addNode("panel_images", Phase::Untagged);
    auto percept = g.addNode("nvsa/perception", Phase::Neural);
    auto encode = g.addNode("nvsa/pmf_to_vsa", Phase::Symbolic);
    auto scene = g.addNode("nvsa/scene_encode", Phase::Symbolic);
    auto detect = g.addNode("nvsa/rule_detect", Phase::Symbolic);
    auto exec = g.addNode("nvsa/rule_exec", Phase::Symbolic);
    auto select = g.addNode("nvsa/answer_select", Phase::Symbolic);
    auto answer = g.addNode("answer", Phase::Untagged);
    g.addEdge(input, percept);
    g.addEdge(percept, encode);
    g.addEdge(encode, scene);
    g.addEdge(scene, detect);
    g.addEdge(detect, exec);
    g.addEdge(exec, select);
    g.addEdge(percept, select); // candidate PMFs feed selection too
    g.addEdge(select, answer);
    return g;
}


} // namespace nsbench::workloads
