/**
 * @file
 * Report builders that turn profiler aggregates into the tables the
 * paper's figures plot.
 */

#ifndef NSBENCH_CORE_REPORT_HH
#define NSBENCH_CORE_REPORT_HH

#include <string>

#include "core/profiler.hh"
#include "util/table.hh"

namespace nsbench::core
{

/** Neural/symbolic runtime split of one profiled run (Fig. 2a). */
struct PhaseSplit
{
    double neuralSeconds = 0.0;
    double symbolicSeconds = 0.0;
    double untaggedSeconds = 0.0;

    /** Total attributed runtime. */
    double
    total() const
    {
        return neuralSeconds + symbolicSeconds + untaggedSeconds;
    }

    /** Neural fraction of attributed runtime. */
    double
    neuralFraction() const
    {
        double t = total();
        return t > 0.0 ? neuralSeconds / t : 0.0;
    }

    /** Symbolic fraction of attributed runtime. */
    double
    symbolicFraction() const
    {
        double t = total();
        return t > 0.0 ? symbolicSeconds / t : 0.0;
    }
};

/** Extracts the neural/symbolic split from a profiler. */
PhaseSplit phaseSplit(const Profiler &profiler);

/** Phase-level table: seconds, share, FLOPs, bytes per phase. */
util::Table phaseBreakdownTable(const Profiler &profiler);

/**
 * Operator-category runtime shares within one phase (one bar of
 * Fig. 3a).
 */
util::Table categoryBreakdownTable(const Profiler &profiler, Phase phase);

/** The n most expensive named operators. */
util::Table topOpsTable(const Profiler &profiler, size_t n);

/**
 * Memory peaks, allocation volume, and allocation churn per phase
 * (Fig. 3b). Peak/allocated are logical tensor bytes; the allocs
 * column counts storage buffers acquired.
 */
util::Table memoryTable(const Profiler &profiler);

/** Sparsity records table (Fig. 5). */
util::Table sparsityTable(const Profiler &profiler);

/** Per-region runtime table (stage-level breakdown). */
util::Table regionTable(const Profiler &profiler);

} // namespace nsbench::core

#endif // NSBENCH_CORE_REPORT_HH
