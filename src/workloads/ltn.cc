#include "workloads/ltn.hh"

#include <cmath>

#include "core/profiler.hh"
#include "logic/fuzzy.hh"
#include "tensor/fused.hh"
#include "tensor/ops.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace nsbench::workloads
{

using core::OpCategory;
using core::OpGraph;
using core::Phase;
using core::PhaseScope;
using core::ScopedOp;
using tensor::Tensor;

namespace
{

/** Quantifier aggregation wrapped as an instrumented symbolic op. */
float
aggregateForAll(std::span<const float> truths)
{
    ScopedOp op("quantifier_aggregate", OpCategory::Other);
    op.setFlops(static_cast<double>(truths.size()) * 4.0);
    op.setBytesRead(static_cast<double>(truths.size()) * 4.0);
    op.setBytesWritten(4.0);
    return logic::pMeanError(truths, 4.0f);
}

float
aggregateExists(std::span<const float> truths)
{
    ScopedOp op("quantifier_aggregate", OpCategory::Other);
    op.setFlops(static_cast<double>(truths.size()) * 4.0);
    op.setBytesRead(static_cast<double>(truths.size()) * 4.0);
    op.setBytesWritten(4.0);
    return logic::pMean(truths, 4.0f);
}

/**
 * Fused Reichenbach implication out = (1 - a) + a * b. One pass over
 * the operands; the kernel sequence (mul, negate, addScalar, add)
 * is bit-identical to the former add(sub(ones, a), mul(a, b)) chain
 * because IEEE guarantees 1 - a == 1 + (-a) exactly. `out` may be
 * `a` (the product is taken into scratch before `a` is overwritten).
 */
void
reichenbachImplies(Tensor &out, const Tensor &a, const Tensor &b)
{
    tensor::fusedMap(
        "reichenbach_implies", out, a, b, 3.0,
        [](const float *pa, const float *pb, float *po,
           float *scratch, int64_t n) {
            util::simd::mul(pa, pb, scratch, n);  // a * b
            util::simd::negate(pa, po, n);
            util::simd::addScalar(po, 1.0f, po, n); // 1 - a
            util::simd::add(po, scratch, po, n);
        });
}

/**
 * Samples the dataset and constructs the predicate-MLP weights from
 * its class statistics, all off one RNG stream seeded with the model
 * seed. Pure in (config, seed).
 */
std::unique_ptr<const LtnModel>
buildLtnModel(const LtnConfig &config, uint64_t seed)
{
    auto model = std::make_unique<LtnModel>();
    util::Rng rng(seed);
    model->dataset = data::makeRelationalDataset(
        config.people, config.featureDim, config.friendsPerPerson,
        rng);
    model->friends = model->dataset.friendMatrix();

    // Construct predicate-MLP weights from the class statistics: the
    // first hidden unit carries the discriminant direction, the rest
    // are low-amplitude random features (trained stand-in).
    Tensor direction({config.featureDim});
    int smokers = 0;
    for (int i = 0; i < config.people; i++) {
        float sign = model->dataset.smokes[static_cast<size_t>(i)]
                         ? 1.0f
                         : -1.0f;
        if (sign > 0)
            smokers++;
        for (int f = 0; f < config.featureDim; f++)
            direction(f) += sign * model->dataset.features(i, f);
    }
    float norm = 0.0f;
    for (int f = 0; f < config.featureDim; f++)
        norm += direction(f) * direction(f);
    norm = std::sqrt(norm) + 1e-9f;

    auto make_predicate = [&](float hidden_gain, float out_gain,
                              Tensor &w1, Tensor &w2, Tensor &w3) {
        w1 = Tensor::randn({config.hidden, config.featureDim}, rng,
                           0.0f, 0.05f);
        for (int f = 0; f < config.featureDim; f++)
            w1(0, f) = hidden_gain * direction(f) / norm;
        // The second hidden layer forwards the discriminant unit.
        w2 = Tensor::randn({config.hidden, config.hidden}, rng, 0.0f,
                           0.02f);
        w2(0, 0) = 1.5f;
        w3 = Tensor::randn({1, config.hidden}, rng, 0.0f, 0.02f);
        w3(0, 0) = out_gain;
    };
    make_predicate(2.0f, 3.0f, model->smokesW1, model->smokesW2,
                   model->smokesW3);
    make_predicate(2.0f, 2.0f, model->cancerW1, model->cancerW2,
                   model->cancerW3);
    return model;
}

} // namespace

void
LtnWorkload::setUp(uint64_t seed)
{
    model_ = buildLtnModel(config_, seed);
}

uint64_t
LtnWorkload::storageBytes() const
{
    if (!model_)
        return 0;
    uint64_t bytes = 0;
    for (const Tensor *t :
         {&model_->smokesW1, &model_->smokesW2, &model_->smokesW3,
          &model_->cancerW1, &model_->cancerW2, &model_->cancerW3,
          &model_->friends}) {
        if (!t->empty())
            bytes += t->bytes();
    }
    return bytes;
}

LtnWorkload::QueryGrounding
LtnWorkload::groundQuery()
{
    // ---- Neural: ground the predicates over the population.
    QueryGrounding grounding;
    {
        PhaseScope neural(Phase::Neural, "ltn/grounding_eval");
        Tensor x =
            tensor::transfer(model_->dataset.features, "h2d");
        Tensor hs = tensor::tanhOp(
            tensor::linear(x, model_->smokesW1, Tensor()));
        Tensor hs2 = tensor::tanhOp(
            tensor::linear(hs, model_->smokesW2, Tensor()));
        grounding.smokes = tensor::sigmoid(
            tensor::linear(hs2, model_->smokesW3, Tensor()));
        Tensor hc = tensor::tanhOp(
            tensor::linear(x, model_->cancerW1, Tensor()));
        Tensor hc2 = tensor::tanhOp(
            tensor::linear(hc, model_->cancerW2, Tensor()));
        grounding.cancer = tensor::sigmoid(
            tensor::linear(hc2, model_->cancerW3, Tensor()));
    }
    return grounding;
}

double
LtnWorkload::evalAxioms(const QueryGrounding &grounding)
{
    int64_t n = config_.people;
    const Tensor &smokes = grounding.smokes;
    const Tensor &cancer = grounding.cancer;

    // ---- Symbolic: evaluate the fuzzy theory.
    std::vector<float> axiom_truths;
    {
        PhaseScope symbolic(Phase::Symbolic, "ltn/axiom_eval");
        Tensor s = smokes.reshaped({n});
        Tensor c = cancer.reshaped({n});

        // Axiom 1: forall x, Smokes(x) -> Cancer(x) under the
        // Reichenbach implication 1 - s + s*c. `s` is read again
        // by axioms 3 and 5, so the result needs its own buffer.
        Tensor impl1 = Tensor::uninitialized({n});
        reichenbachImplies(impl1, s, c);
        axiom_truths.push_back(
            aggregateForAll(impl1.data()));

        // Axiom 2: forall x,y, Friends(x,y) ^ Smokes(x) ->
        // Smokes(y), evaluated over all pairs. The [n, n]
        // antecedent is dead after the implication, so the fused
        // implication overwrites it in place.
        Tensor ones_row = Tensor::ones({1, n});
        Tensor sx = tensor::matmul(smokes, ones_row); // [n, n]
        Tensor sy = tensor::transpose2d(sx);
        tensor::mulInPlace(sx, model_->friends);
        Tensor &antecedent = sx;
        reichenbachImplies(antecedent, antecedent, sy);
        Tensor &impl2 = antecedent;
        Tensor relevant =
            tensor::maskedSelect(impl2, model_->friends);
        if (relevant.numel() > 0) {
            axiom_truths.push_back(
                aggregateForAll(relevant.data()));
        }

        // Axiom 3: exists x, Smokes(x); Axiom 4: exists x,
        // Cancer(x).
        axiom_truths.push_back(aggregateExists(s.data()));
        axiom_truths.push_back(aggregateExists(c.data()));

        // Axiom 5: forall x, not (Smokes(x) ^ not Smokes(x)) —
        // a consistency check, true by fuzzy product semantics
        // only to degree 1 - s(1-s). Fused one-pass evaluation;
        // 1 - x == 1 + (-x) keeps it bit-identical to the former
        // sub(ones, mul(s, sub(ones, s))) chain.
        Tensor consistent = Tensor::uninitialized({n});
        tensor::fusedMapUnary(
            "fuzzy_consistency", consistent, s, 3.0,
            [](const float *pa, float *po, float *scratch,
               int64_t count) {
                util::simd::negate(pa, scratch, count);
                util::simd::addScalar(scratch, 1.0f, scratch,
                                      count);          // 1 - s
                util::simd::mul(pa, scratch, scratch,
                                count);                // s(1-s)
                util::simd::negate(scratch, po, count);
                util::simd::addScalar(po, 1.0f, po, count);
            });
        axiom_truths.push_back(
            aggregateForAll(consistent.data()));
    }

    double sat = 0.0;
    for (float t : axiom_truths)
        sat += t;
    return sat / static_cast<double>(axiom_truths.size());
}

double
LtnWorkload::run()
{
    util::panicIf(!model_, "LTN: setUp() not called");
    double satisfaction_sum = 0.0;
    for (int q = 0; q < config_.queries; q++) {
        QueryGrounding grounding = groundQuery();
        satisfaction_sum += evalAxioms(grounding);
    }
    return satisfaction_sum / static_cast<double>(config_.queries);
}

core::StageSpec
LtnWorkload::stageSpec(int stage) const
{
    return stage == 0
               ? core::StageSpec{"ground", Phase::Neural}
               : core::StageSpec{"axioms", Phase::Symbolic};
}

void
LtnWorkload::runStage(int stage, core::EpisodeState &state)
{
    // LTN is seed-insensitive and run() consumes no RNG: both stages
    // are pure in the immutable model bundle, so any cross-episode
    // interleaving yields the serial scores.
    if (stage == 0) {
        util::panicIf(!model_, "LTN: setUp() not called");
        auto scratch = std::make_shared<EpisodeScratch>();
        scratch->queries.reserve(
            static_cast<size_t>(config_.queries));
        for (int q = 0; q < config_.queries; q++)
            scratch->queries.push_back(groundQuery());
        state.scratch = std::move(scratch);
        return;
    }
    auto scratch =
        std::static_pointer_cast<EpisodeScratch>(state.scratch);
    double satisfaction_sum = 0.0;
    for (const QueryGrounding &grounding : scratch->queries)
        satisfaction_sum += evalAxioms(grounding);
    state.scratch.reset();
    state.score =
        satisfaction_sum / static_cast<double>(config_.queries);
}

OpGraph
LtnWorkload::opGraph() const
{
    OpGraph g;
    auto data_in = g.addNode("features+relations", Phase::Untagged);
    auto ground = g.addNode("ltn/grounding_eval", Phase::Neural);
    auto axioms = g.addNode("ltn/axiom_eval", Phase::Symbolic);
    auto sat = g.addNode("theory_satisfaction", Phase::Untagged);
    g.addEdge(data_in, ground);
    g.addEdge(ground, axioms);
    g.addEdge(axioms, sat);
    return g;
}


} // namespace nsbench::workloads
