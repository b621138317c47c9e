/**
 * @file
 * The op-level instrumenting profiler (Sec. IV-A of the paper).
 *
 * Plays the role the PyTorch Profiler plays in the paper: every tensor,
 * VSA and logic operation in the suite reports its runtime, FLOP count,
 * bytes moved and invocation count here, tagged with the operator
 * category of Sec. IV-B and the neural/symbolic phase it ran in. The
 * benches then post-process these aggregates into the paper's figures.
 */

#ifndef NSBENCH_CORE_PROFILER_HH
#define NSBENCH_CORE_PROFILER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/taxonomy.hh"
#include "util/timer.hh"

namespace nsbench::core
{

/**
 * Aggregated statistics for one operator (or one phase/category slice).
 */
struct OpStats
{
    double seconds = 0.0;       ///< Accumulated wall time.
    uint64_t invocations = 0;   ///< Number of recorded calls.
    double flops = 0.0;         ///< Floating/arith operations performed.
    double bytesRead = 0.0;     ///< Bytes read from operand tensors.
    double bytesWritten = 0.0;  ///< Bytes written to result tensors.

    /** Total bytes touched. */
    double bytes() const { return bytesRead + bytesWritten; }

    /**
     * Operational intensity in FLOP/byte; the x-axis of the roofline
     * plot (Fig. 3c). Returns 0 for pure-movement ops.
     */
    double
    opIntensity() const
    {
        double b = bytes();
        return b > 0.0 ? flops / b : 0.0;
    }

    /** Folds another aggregate into this one. */
    void
    merge(const OpStats &other)
    {
        seconds += other.seconds;
        invocations += other.invocations;
        flops += other.flops;
        bytesRead += other.bytesRead;
        bytesWritten += other.bytesWritten;
    }
};

/** One named operator aggregate, as returned by query helpers. */
struct NamedOpStats
{
    std::string name;       ///< Operator name, e.g. "matmul".
    Phase phase;            ///< Phase the calls ran in.
    OpCategory category;    ///< Taxonomy category.
    OpStats stats;          ///< The aggregate itself.
};

/**
 * Tensor-storage allocation churn. Alloc/free counts are physical
 * buffer events. Byte figures elsewhere in the profiler are logical
 * tensor bytes.
 */
struct MemChurn
{
    uint64_t allocs = 0;         ///< Storage buffers acquired.
    uint64_t frees = 0;          ///< Storage buffers released.

    /** Allocations that hit the heap: every one of them. */
    uint64_t freshAllocs() const { return allocs; }

    /** Folds another aggregate into this one. */
    void
    merge(const MemChurn &other)
    {
        allocs += other.allocs;
        frees += other.frees;
    }
};

/** Zero-fraction measurement of one symbolic/neural stage (Fig. 5). */
struct SparsityRecord
{
    std::string stage;      ///< Stage label, e.g. "pmf_to_vsa/color".
    Phase phase;            ///< Phase the stage belongs to.
    uint64_t zeros = 0;     ///< Zero elements observed.
    uint64_t total = 0;     ///< Total elements observed.

    /** Fraction of zero elements in [0, 1]. */
    double
    ratio() const
    {
        return total ? static_cast<double>(zeros) /
                       static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * The profiler. One instance per characterization run; a process-global
 * instance is available through globalProfiler() and is the default
 * sink for all instrumented operations.
 *
 * Thread-safety model (designed for the util::ThreadPool runtime):
 *
 *  - The thread that constructed (or last reset()) the profiler is its
 *    *owner*. Owner-thread recordOp calls apply directly to the
 *    aggregates under a mutex that is uncontended in single-threaded
 *    runs, so the serial hot path is unchanged in cost and ordering.
 *  - recordOp from any other thread appends to a lock-free
 *    thread-local event buffer instead. Buffers merge into the global
 *    aggregates at sync points — the end of every ThreadPool parallel
 *    region (via the pool's sync hook) and whenever a buffer fills —
 *    taking the mutex only for the merge. FLOP/byte/invocation
 *    attribution is therefore exact and scheduling-independent.
 *  - Phase regions (pushPhase/popPhase) are owner-only: workers read
 *    the owner's current phase/region, which is stable while the
 *    owner is blocked inside a parallel region.
 *  - Query methods take the mutex; call them outside parallel
 *    regions. Threads not managed by the pool must call
 *    flushThisThread() before their recorded ops become visible.
 */
class Profiler
{
  public:
    Profiler() { reset(); }

    /** Deep copy of the aggregates; the copy is owned by the caller. */
    Profiler(const Profiler &other);

    /** @copydoc Profiler(const Profiler &) */
    Profiler &operator=(const Profiler &other);

    /** Clears all recorded state, including memory peaks. */
    void reset();

    /**
     * Enables or disables recording. While disabled, recordOp and the
     * memory hooks become no-ops (phase scopes still track).
     */
    void setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }

    /** Whether recording is active. */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Enters a phase region. Ops recorded until the matching popPhase
     * are attributed to @p phase and to the region label @p region.
     * Regions nest; the innermost label wins.
     */
    void pushPhase(Phase phase, std::string region);

    /** Leaves the innermost phase region. */
    void popPhase();

    /** Phase ops are currently attributed to. */
    Phase currentPhase() const;

    /** Innermost region label, empty at top level. */
    const std::string &currentRegion() const;

    /**
     * Records one completed operation.
     *
     * @param name Operator name (stable across invocations).
     * @param category Taxonomy category.
     * @param seconds Measured wall time of this invocation.
     * @param flops Arithmetic operations performed.
     * @param bytes_read Bytes read from inputs.
     * @param bytes_written Bytes written to outputs.
     */
    void recordOp(std::string_view name, OpCategory category,
                  double seconds, double flops, double bytes_read,
                  double bytes_written);

    /** Notes a tensor allocation of @p bytes (logical tensor size). */
    void recordAlloc(uint64_t bytes);

    /** Notes a tensor deallocation of @p bytes. */
    void recordFree(uint64_t bytes);

    /** Live tensor bytes right now. */
    uint64_t
    currentBytes() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return currentBytes_;
    }

    /** High-water mark of live tensor bytes. */
    uint64_t
    peakBytes() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return peakBytes_;
    }

    /** High-water mark reached while the given phase was active. */
    uint64_t peakBytesIn(Phase phase) const;

    /** Bytes allocated while the given phase was active. */
    uint64_t allocatedBytesIn(Phase phase) const;

    /** Allocation churn over the whole run. */
    MemChurn memChurn() const;

    /** Allocation churn while the given phase was active. */
    MemChurn memChurnIn(Phase phase) const;

    /**
     * Records a sparsity observation for a named stage. Repeated calls
     * with the same stage accumulate.
     */
    void recordSparsity(std::string_view stage, uint64_t zeros,
                        uint64_t total);

    /** Aggregate over everything recorded. */
    OpStats totals() const;

    /** Aggregate over one phase. */
    OpStats phaseTotals(Phase phase) const;

    /** Aggregate over one category within one phase. */
    OpStats categoryTotals(Phase phase, OpCategory category) const;

    /** All named-op aggregates, sorted by descending runtime. */
    std::vector<NamedOpStats> opsByTime() const;

    /** Named-op aggregates for one phase, sorted by descending time. */
    std::vector<NamedOpStats> opsByTime(Phase phase) const;

    /** All named-op aggregates for one region label. */
    std::vector<NamedOpStats> opsInRegion(const std::string &region) const;

    /** Aggregate over one region label. */
    OpStats regionTotals(const std::string &region) const;

    /** All region labels seen, in first-use order. */
    const std::vector<std::string> &regions() const { return regionOrder_; }

    /** All sparsity records, in first-use order of their stage labels. */
    std::vector<SparsityRecord> sparsityRecords() const;

    /**
     * Returns the profiler default-constructed ops report to: the
     * calling thread's target when one is installed (see
     * ThreadTargetScope), else the process-global instance. The
     * serving runtime gives each request-execution thread its own
     * target so concurrent requests record disjoint op streams; all
     * pre-existing single-profiler code paths see the process-global
     * instance unchanged.
     */
    static Profiler &global();

    /** The process-global instance, ignoring any thread target. */
    static Profiler &processGlobal();

    /**
     * RAII thread-local profiler redirection. While alive, every
     * globalProfiler() lookup *on the calling thread* resolves to
     * the given profiler, so all default-instrumented ops (tensor
     * kernels, phase scopes, allocation hooks) issued by this thread
     * land there. Scopes nest; each restores the previous target.
     *
     * The redirected thread should execute its kernels inline
     * (ThreadPool::SerialScope): pool worker threads resolve their
     * own targets, so ops dispatched to the pool would bypass the
     * caller's redirection.
     */
    class ThreadTargetScope
    {
      public:
        explicit ThreadTargetScope(Profiler &target);
        ~ThreadTargetScope();

        ThreadTargetScope(const ThreadTargetScope &) = delete;
        ThreadTargetScope &operator=(const ThreadTargetScope &) =
            delete;

      private:
        Profiler *prev_;
    };

    /**
     * Merges every op event buffered by the calling thread into its
     * target profiler(s). The ThreadPool sync hook calls this at the
     * end of each parallel region; threads outside the pool that
     * record ops must call it themselves before exiting.
     */
    static void flushThisThread();

  private:
    struct Key
    {
        Phase phase;
        OpCategory category;
        std::string region;
        std::string name;

        bool
        operator<(const Key &other) const
        {
            if (phase != other.phase)
                return phase < other.phase;
            if (category != other.category)
                return category < other.category;
            if (region != other.region)
                return region < other.region;
            return name < other.name;
        }
    };

    struct PhaseFrame
    {
        Phase phase;
        std::string region;
    };

    /** Applies one op event to the aggregates; mu_ must be held. */
    void applyOpLocked(Phase phase, OpCategory category,
                       const std::string &region,
                       const std::string &name, double seconds,
                       double flops, double bytes_read,
                       double bytes_written);

    std::atomic<bool> enabled_{true};
    /** Thread whose recordOp calls bypass the event buffer. */
    std::thread::id owner_;
    /** Guards every aggregate below; uncontended in serial runs. */
    mutable std::mutex mu_;
    std::vector<PhaseFrame> phaseStack_;
    std::map<Key, OpStats> ops_;
    OpStats phaseTotals_[numPhases];
    OpStats categoryTotals_[numPhases][numOpCategories];

    uint64_t currentBytes_ = 0;
    uint64_t peakBytes_ = 0;
    uint64_t phasePeakBytes_[numPhases] = {};
    uint64_t phaseAllocBytes_[numPhases] = {};
    MemChurn churn_;
    MemChurn phaseChurn_[numPhases];

    std::map<std::string, SparsityRecord> sparsity_;
    std::vector<std::string> sparsityOrder_;
    std::vector<std::string> regionOrder_;
};

/** Shorthand for Profiler::global(). */
inline Profiler &
globalProfiler()
{
    return Profiler::global();
}

/**
 * RAII phase region. Construct to enter a neural/symbolic region of a
 * workload; destruction leaves it.
 */
class PhaseScope
{
  public:
    PhaseScope(Phase phase, std::string region,
               Profiler &profiler = globalProfiler())
        : profiler_(profiler)
    {
        profiler_.pushPhase(phase, std::move(region));
    }

    ~PhaseScope() { profiler_.popPhase(); }

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    Profiler &profiler_;
};

/**
 * RAII op timer. Times the enclosed scope and records it on destruction.
 * FLOP/byte counters may be set after construction, once the op knows
 * its sizes.
 */
class ScopedOp
{
  public:
    ScopedOp(std::string_view name, OpCategory category,
             Profiler &profiler = globalProfiler())
        : profiler_(profiler), name_(name), category_(category)
    {}

    ~ScopedOp()
    {
        profiler_.recordOp(name_, category_, timer_.elapsed(), flops_,
                           bytesRead_, bytesWritten_);
    }

    ScopedOp(const ScopedOp &) = delete;
    ScopedOp &operator=(const ScopedOp &) = delete;

    /** Sets the arithmetic-op count of this invocation. */
    void setFlops(double flops) { flops_ = flops; }

    /** Sets bytes read from inputs. */
    void setBytesRead(double bytes) { bytesRead_ = bytes; }

    /** Sets bytes written to outputs. */
    void setBytesWritten(double bytes) { bytesWritten_ = bytes; }

  private:
    Profiler &profiler_;
    std::string name_;
    OpCategory category_;
    util::WallTimer timer_;
    double flops_ = 0.0;
    double bytesRead_ = 0.0;
    double bytesWritten_ = 0.0;
};

} // namespace nsbench::core

#endif // NSBENCH_CORE_PROFILER_HH
