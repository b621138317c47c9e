#include "core/profiler.hh"

#include <algorithm>
#include <tuple>

#include "util/logging.hh"
#include "util/threadpool.hh"

namespace nsbench::core
{

namespace
{

size_t
phaseIndex(Phase phase)
{
    return static_cast<size_t>(phase);
}

size_t
categoryIndex(OpCategory category)
{
    return static_cast<size_t>(category);
}

/**
 * One op event recorded off the owner thread, parked in a thread-local
 * buffer until the next sync point. Phase and region are captured at
 * record time so attribution is independent of when the merge runs.
 */
struct PendingOp
{
    Profiler *profiler;
    Phase phase;
    OpCategory category;
    std::string region;
    std::string name;
    double seconds;
    double flops;
    double bytesRead;
    double bytesWritten;
};

/** Per-thread event buffer; append is lock-free by construction. */
thread_local std::vector<PendingOp> tlPendingOps;

/** Buffer cap: merge early rather than grow without bound. */
constexpr size_t kPendingFlushThreshold = 4096;

/**
 * Registers the profiler flush as the pool's sync hook during static
 * initialization, before any parallel region can run.
 */
[[maybe_unused]] const bool gSyncHookInstalled = [] {
    util::ThreadPool::setSyncHook(&Profiler::flushThisThread);
    return true;
}();

} // namespace

Profiler::Profiler(const Profiler &other)
{
    *this = other;
}

Profiler &
Profiler::operator=(const Profiler &other)
{
    if (this == &other)
        return *this;
    std::scoped_lock lock(mu_, other.mu_);
    enabled_.store(other.enabled_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    owner_ = std::this_thread::get_id();
    phaseStack_ = other.phaseStack_;
    ops_ = other.ops_;
    for (size_t p = 0; p < numPhases; p++) {
        phaseTotals_[p] = other.phaseTotals_[p];
        for (size_t c = 0; c < numOpCategories; c++)
            categoryTotals_[p][c] = other.categoryTotals_[p][c];
        phasePeakBytes_[p] = other.phasePeakBytes_[p];
        phaseAllocBytes_[p] = other.phaseAllocBytes_[p];
        phaseChurn_[p] = other.phaseChurn_[p];
    }
    currentBytes_ = other.currentBytes_;
    peakBytes_ = other.peakBytes_;
    churn_ = other.churn_;
    sparsity_ = other.sparsity_;
    sparsityOrder_ = other.sparsityOrder_;
    regionOrder_ = other.regionOrder_;
    return *this;
}

void
Profiler::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    owner_ = std::this_thread::get_id();
    phaseStack_.clear();
    ops_.clear();
    for (auto &t : phaseTotals_)
        t = OpStats{};
    for (auto &row : categoryTotals_)
        for (auto &t : row)
            t = OpStats{};
    currentBytes_ = 0;
    peakBytes_ = 0;
    for (auto &b : phasePeakBytes_)
        b = 0;
    for (auto &b : phaseAllocBytes_)
        b = 0;
    churn_ = MemChurn{};
    for (auto &c : phaseChurn_)
        c = MemChurn{};
    sparsity_.clear();
    sparsityOrder_.clear();
    regionOrder_.clear();
}

void
Profiler::pushPhase(Phase phase, std::string region)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (std::find(regionOrder_.begin(), regionOrder_.end(), region) ==
        regionOrder_.end()) {
        regionOrder_.push_back(region);
    }
    phaseStack_.push_back({phase, std::move(region)});
}

void
Profiler::popPhase()
{
    std::lock_guard<std::mutex> lock(mu_);
    util::panicIf(phaseStack_.empty(),
                  "Profiler::popPhase: phase stack underflow");
    phaseStack_.pop_back();
}

Phase
Profiler::currentPhase() const
{
    return phaseStack_.empty() ? Phase::Untagged
                               : phaseStack_.back().phase;
}

const std::string &
Profiler::currentRegion() const
{
    static const std::string empty;
    return phaseStack_.empty() ? empty : phaseStack_.back().region;
}

void
Profiler::applyOpLocked(Phase phase, OpCategory category,
                        const std::string &region,
                        const std::string &name, double seconds,
                        double flops, double bytes_read,
                        double bytes_written)
{
    OpStats delta;
    delta.seconds = seconds;
    delta.invocations = 1;
    delta.flops = flops;
    delta.bytesRead = bytes_read;
    delta.bytesWritten = bytes_written;

    Key key{phase, category, region, name};
    ops_[key].merge(delta);
    phaseTotals_[phaseIndex(phase)].merge(delta);
    categoryTotals_[phaseIndex(phase)][categoryIndex(category)]
        .merge(delta);
}

void
Profiler::recordOp(std::string_view name, OpCategory category,
                   double seconds, double flops, double bytes_read,
                   double bytes_written)
{
    if (!enabled())
        return;

    // The phase stack is stable here: either we are the owner, or the
    // owner is blocked inside the parallel region we run in.
    Phase phase = currentPhase();
    const std::string &region = currentRegion();

    if (std::this_thread::get_id() == owner_) {
        std::lock_guard<std::mutex> lock(mu_);
        applyOpLocked(phase, category, region, std::string(name),
                      seconds, flops, bytes_read, bytes_written);
        return;
    }

    tlPendingOps.push_back({this, phase, category, region,
                            std::string(name), seconds, flops,
                            bytes_read, bytes_written});
    if (tlPendingOps.size() >= kPendingFlushThreshold)
        flushThisThread();
}

void
Profiler::flushThisThread()
{
    if (tlPendingOps.empty())
        return;
    // Take the buffer first so merges that record ops (they do not,
    // but stay re-entrant-safe) cannot loop.
    std::vector<PendingOp> pending;
    pending.swap(tlPendingOps);

    // Usually every event targets one profiler; group by target and
    // take each target's mutex once.
    std::vector<bool> applied(pending.size(), false);
    for (size_t i = 0; i < pending.size(); i++) {
        if (applied[i])
            continue;
        Profiler *prof = pending[i].profiler;
        std::lock_guard<std::mutex> lock(prof->mu_);
        for (size_t j = i; j < pending.size(); j++) {
            const PendingOp &ev = pending[j];
            if (applied[j] || ev.profiler != prof)
                continue;
            prof->applyOpLocked(ev.phase, ev.category, ev.region,
                                ev.name, ev.seconds, ev.flops,
                                ev.bytesRead, ev.bytesWritten);
            applied[j] = true;
        }
    }
}

void
Profiler::recordAlloc(uint64_t bytes)
{
    if (!enabled())
        return;
    Phase phase = currentPhase();
    std::lock_guard<std::mutex> lock(mu_);
    currentBytes_ += bytes;
    peakBytes_ = std::max(peakBytes_, currentBytes_);
    size_t p = phaseIndex(phase);
    phasePeakBytes_[p] = std::max(phasePeakBytes_[p], currentBytes_);
    phaseAllocBytes_[p] += bytes;
    churn_.allocs++;
    phaseChurn_[p].allocs++;
}

void
Profiler::recordFree(uint64_t bytes)
{
    if (!enabled())
        return;
    Phase phase = currentPhase();
    std::lock_guard<std::mutex> lock(mu_);
    // Frees of tensors allocated while the profiler was disabled (or
    // before a reset) can exceed the tracked balance; clamp rather than
    // wrap.
    currentBytes_ = bytes > currentBytes_ ? 0 : currentBytes_ - bytes;
    churn_.frees++;
    phaseChurn_[phaseIndex(phase)].frees++;
}

uint64_t
Profiler::peakBytesIn(Phase phase) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return phasePeakBytes_[phaseIndex(phase)];
}

uint64_t
Profiler::allocatedBytesIn(Phase phase) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return phaseAllocBytes_[phaseIndex(phase)];
}

MemChurn
Profiler::memChurn() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return churn_;
}

MemChurn
Profiler::memChurnIn(Phase phase) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return phaseChurn_[phaseIndex(phase)];
}

void
Profiler::recordSparsity(std::string_view stage, uint64_t zeros,
                         uint64_t total)
{
    if (!enabled())
        return;
    util::panicIf(zeros > total,
                  "Profiler::recordSparsity: zeros exceed total");
    Phase phase = currentPhase();
    std::lock_guard<std::mutex> lock(mu_);
    std::string key(stage);
    auto it = sparsity_.find(key);
    if (it == sparsity_.end()) {
        SparsityRecord rec;
        rec.stage = key;
        rec.phase = phase;
        rec.zeros = zeros;
        rec.total = total;
        sparsity_.emplace(key, rec);
        sparsityOrder_.push_back(key);
    } else {
        it->second.zeros += zeros;
        it->second.total += total;
    }
}

OpStats
Profiler::totals() const
{
    std::lock_guard<std::mutex> lock(mu_);
    OpStats out;
    for (const auto &t : phaseTotals_)
        out.merge(t);
    return out;
}

OpStats
Profiler::phaseTotals(Phase phase) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return phaseTotals_[phaseIndex(phase)];
}

OpStats
Profiler::categoryTotals(Phase phase, OpCategory category) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return categoryTotals_[phaseIndex(phase)][categoryIndex(category)];
}

std::vector<NamedOpStats>
Profiler::opsByTime() const
{
    // Merge region-distinct entries that share (phase, category, name).
    std::map<std::tuple<Phase, OpCategory, std::string>, OpStats> merged;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &[key, stats] : ops_)
            merged[{key.phase, key.category, key.name}].merge(stats);
    }

    std::vector<NamedOpStats> out;
    out.reserve(merged.size());
    for (const auto &[key, stats] : merged) {
        out.push_back({std::get<2>(key), std::get<0>(key),
                       std::get<1>(key), stats});
    }
    std::sort(out.begin(), out.end(),
              [](const NamedOpStats &a, const NamedOpStats &b) {
                  return a.stats.seconds > b.stats.seconds;
              });
    return out;
}

std::vector<NamedOpStats>
Profiler::opsByTime(Phase phase) const
{
    auto all = opsByTime();
    std::erase_if(all, [phase](const NamedOpStats &s) {
        return s.phase != phase;
    });
    return all;
}

std::vector<NamedOpStats>
Profiler::opsInRegion(const std::string &region) const
{
    std::vector<NamedOpStats> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &[key, stats] : ops_) {
            if (key.region == region)
                out.push_back(
                    {key.name, key.phase, key.category, stats});
        }
    }
    std::sort(out.begin(), out.end(),
              [](const NamedOpStats &a, const NamedOpStats &b) {
                  return a.stats.seconds > b.stats.seconds;
              });
    return out;
}

OpStats
Profiler::regionTotals(const std::string &region) const
{
    std::lock_guard<std::mutex> lock(mu_);
    OpStats out;
    for (const auto &[key, stats] : ops_) {
        if (key.region == region)
            out.merge(stats);
    }
    return out;
}

std::vector<SparsityRecord>
Profiler::sparsityRecords() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SparsityRecord> out;
    out.reserve(sparsityOrder_.size());
    for (const auto &stage : sparsityOrder_)
        out.push_back(sparsity_.at(stage));
    return out;
}

namespace
{

/** Per-thread redirection target; null = process-global profiler. */
thread_local Profiler *tlTarget = nullptr;

} // namespace

Profiler &
Profiler::global()
{
    return tlTarget ? *tlTarget : processGlobal();
}

Profiler &
Profiler::processGlobal()
{
    static Profiler instance;
    return instance;
}

Profiler::ThreadTargetScope::ThreadTargetScope(Profiler &target)
    : prev_(tlTarget)
{
    tlTarget = &target;
}

Profiler::ThreadTargetScope::~ThreadTargetScope()
{
    tlTarget = prev_;
}

} // namespace nsbench::core
