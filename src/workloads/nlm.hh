/**
 * @file
 * The Neural Logic Machine (NLM) workload.
 *
 * NLM holds one predicate-tensor group per arity (unary [N,C], binary
 * [N,N,C], ternary [N,N,N,C]) and alternates two kinds of work: the
 * symbolic wiring — expand/permute/reduce operations that realize
 * quantifiers and argument reordering (the "permutation" operators the
 * paper attributes to NLM) — and the neural work, a per-position
 * linear+sigmoid "MLP" over the wired channels. The family-tree
 * program is expressed by constructed MLP weights that implement the
 * boolean gates NLM learns in training (trained stand-in; see
 * DESIGN.md): layer 1 derives grandparent and sibling, layer 2 derives
 * uncle/aunt.
 */

#ifndef NSBENCH_WORKLOADS_NLM_HH
#define NSBENCH_WORKLOADS_NLM_HH

#include <memory>
#include <vector>

#include "core/workload.hh"
#include "data/familytree.hh"
#include "tensor/tensor.hh"

namespace nsbench::workloads
{

/** NLM configuration knobs. */
struct NlmConfig
{
    int generations = 3;        ///< Family-graph depth.
    int peoplePerGeneration = 8;
    int episodes = 3;           ///< Graphs evaluated per run.
};

/**
 * One family graph's base predicate tensors — the unary [N,1] and
 * parent-relation binary [N,N,1] groups the NLM program starts
 * from. Pure in (config, model seed, episode index): the graph
 * sampler consumes a deterministic RNG stream, so graph i's tensors
 * are reproducible bit-for-bit. The target tensor stays per-run (it
 * is consumed once, in scoring).
 */
struct NlmBasePredicates
{
    tensor::Tensor unary;
    tensor::Tensor binary;
};

/**
 * End-to-end NLM relational reasoning on family graphs.
 */
class NlmWorkload : public core::Workload
{
  public:
    NlmWorkload() = default;
    explicit NlmWorkload(const NlmConfig &config) : config_(config) {}

    std::string name() const override { return "NLM"; }
    core::Paradigm
    paradigm() const override
    {
        return core::Paradigm::NeuroBracketSymbolic;
    }
    std::string
    taskDescription() const override
    {
        return "family-graph relational reasoning "
               "(grandparent/sibling/uncle)";
    }

    void setUp(uint64_t seed) override;
    double run() override;
    /** run() re-evaluates the graphs built at setUp(); nothing to reseed. */
    void reseedEpisodes(uint64_t) override {}
    bool seedSensitive() const override { return false; }
    /**
     * Two stages, one per NLM layer. Each layer mixes symbolic
     * wiring with neural MLPs, so the stage cut is by layer rather
     * than by phase; layer 2's ternary group carries twice layer 1's
     * channels, which is what the pipeline overlaps.
     */
    int stageCount() const override { return 2; }
    core::StageSpec stageSpec(int stage) const override;
    void runStage(int stage, core::EpisodeState &state) override;
    core::OpGraph opGraph() const override;
    uint64_t storageBytes() const override;

    const NlmConfig &config() const { return config_; }

  private:
    NlmConfig config_;
    std::vector<data::FamilyGraph> graphs_;
    /** Base predicates per graph, parallel to graphs_. */
    std::vector<NlmBasePredicates> bases_;

    /** One NLM layer's constructed MLP parameters. */
    struct LayerWeights
    {
        tensor::Tensor ternaryW, ternaryB; ///< Ternary-group MLP.
        tensor::Tensor binaryW, binaryB;   ///< Binary-group MLP.
    };
    std::vector<LayerWeights> layers_;

    /** Pipeline handoff: each graph's binary group after layer 1. */
    struct EpisodeScratch
    {
        std::vector<tensor::Tensor> binaries;
    };

    /** Base binary channels: parent plus the equality predicate. */
    tensor::Tensor baseBinary(const NlmBasePredicates &base);

    /** One wiring+MLP layer over the current binary group. */
    tensor::Tensor evaluateLayer(const tensor::Tensor &unary,
                                 const tensor::Tensor &binary,
                                 const LayerWeights &layer);

    /** Mean IoU of the derived relations against the target. */
    double scoreGraph(const data::FamilyGraph &graph,
                      const tensor::Tensor &binary);

    /** Evaluates the two-layer program on one graph; returns IoU. */
    double evaluateGraph(const data::FamilyGraph &graph,
                         const NlmBasePredicates &base);
};

} // namespace nsbench::workloads

#endif // NSBENCH_WORKLOADS_NLM_HH
