/**
 * @file
 * Shared pieces of the perfbench binary: the command line, the
 * metric report, the in-memory span log, sample statistics and the
 * profiler-derived layer metrics.
 *
 * The benchmark measures every layer from outside: it times its own
 * calls into the public entry points (Workload::setUp /
 * reseedEpisodes / run, serve::Server, net::TcpServer, net::Client)
 * and reads the aggregates the program already exposes (the core
 * profiler, ServerMetrics, the per-request Response fields). Nothing
 * here depends on the program's own statistics helpers, so a change
 * to them cannot change the measurement.
 */

#ifndef NSBENCH_PERFBENCH_BENCH_HH
#define NSBENCH_PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/profiler.hh"

namespace nsbench::perfbench
{

/** Seconds on the steady clock since the process started. */
double now();

/** Sleeps until now() reaches @p t. */
void sleepUntil(double t);

/** A comma-separated `name:value` list, as config.json writes it. */
using NamedValues = std::vector<std::pair<std::string, double>>;

/**
 * Command line: the contract flags plus the workload's recorded
 * parameters from perfbench/config.json. Each workload reads only its
 * own; the rest keep their defaults.
 */
struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    int width = 1;          ///< Pool width.
    /// @name episodes-neural
    /// @{
    NamedValues models;     ///< Main mix: episodes per round.
    NamedValues reference;  ///< Traced controls: episodes per round.
    /// @}
    /// @name serve-loopback
    /// @{
    double rate = 0.0;      ///< Offered requests per second.
    NamedValues mix;        ///< Model weights.
    uint64_t universe = 1;  ///< Zipf seed universe.
    double zipf = 1.0;      ///< Zipf exponent.
    /// @}
};

/** One reported metric with the number of samples behind it. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    uint64_t samples = 0;
};

/**
 * What one run produces: the metrics, the attempted/failed counts
 * and free-form facts for the result record.
 */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit, uint64_t samples);

    /** Notes one attempted operation. */
    void attempt(uint64_t n = 1) { attempted += n; }

    /** Notes one failed operation and keeps the first few reasons. */
    void fail(const std::string &why);

    /**
     * Fails the whole run: a correctness check found a wrong output,
     * so every attempted operation counts as failed.
     */
    void failAll(const std::string &why);

    /** Failed operations, every attempt once failAll() was called. */
    uint64_t failures() const { return wrong_ ? attempted : failed; }

    /** 1 - failures() / attempted. */
    double okFraction() const;

    /** Adds a provenance or context fact to the record. */
    void fact(const std::string &key, const std::string &value);

    /** Adds a pre-rendered JSON value to the record. */
    void factJson(const std::string &key, const std::string &json);

    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** The record as one JSON object on a single line. */
    std::string json() const;

    /** Human-readable table of the metrics (stderr). */
    std::string table() const;

  private:
    bool wrong_ = false;
    std::vector<Metric> metrics_;
    std::vector<std::string> reasons_;
    std::vector<std::pair<std::string, std::string>> facts_;
};

/** One recorded interval. trace == 0 marks a synchronous span. */
struct Span
{
    uint64_t trace = 0;  ///< Request id; 0 for episode spans.
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 for a root span.
    std::string layer;   ///< Module the interval belongs to.
    std::string name;
    double t0 = 0.0;
    double t1 = 0.0;
};

/**
 * Spans kept in memory and written once, as Chrome trace-event JSON,
 * when the run ends. Disabled logs drop every span at the cost of one
 * branch; enabled logs also time themselves, which is the tracing
 * cost the run reports.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /**
     * Records a span and returns its id (0 when disabled). A span
     * whose children are recorded before it passes the id it took
     * from reserve().
     */
    uint64_t add(uint64_t trace, uint64_t parent, const char *layer,
                 const std::string &name, double t0, double t1,
                 uint64_t id = 0);

    /** A fresh span id for a span recorded later (0 when disabled). */
    uint64_t reserve();

    /** Seconds spent inside add(). */
    double costSeconds() const;

    /**
     * Self time per layer: each span's duration minus the part of it
     * its children cover, summed by layer.
     */
    std::map<std::string, double> selfSeconds() const;

    /** Self time of one layer restricted to spans named @p name. */
    double selfSecondsOf(const std::string &name) const;

    /** Writes the Chrome trace-event file; false on I/O failure. */
    bool writeChrome(const std::string &path) const;

  private:
    std::map<uint64_t, double> selfById() const;

    bool enabled_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    uint64_t nextId_ = 1;
    double cost_ = 0.0;
};

/// @name Sample statistics.
/// @{
/** Linear-interpolation quantile, q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}
/**
 * Per-model episode times report this low quantile: on a shared host
 * co-tenants slow a core down for seconds at a time, and the fast end
 * of a model's samples tracks its uncontended cost far more steadily
 * from run to run than the median does.
 */
constexpr double modelQuantile = 0.10;
/** @p values as a JSON array, for the result record. */
std::string jsonArray(const std::vector<double> &values);
/** SplitMix64 step: a pure 64-bit mixing function of its input. */
uint64_t mix64(uint64_t x);
/// @}

/// @name Process resources.
/// @{
/** User plus system CPU seconds of the whole process. */
double cpuSeconds();
/** Current resident set size in MiB. */
double rssMib();
/** Peak resident set size of the process so far, in MiB. */
double peakRssMib();
/// @}

/**
 * The profiler's aggregates folded by op name, with the phase split
 * and allocation churn; the difference of two snapshots is the work
 * done between them.
 */
struct OpSnapshot
{
    std::map<std::string, core::OpStats> ops;
    double neuralSeconds = 0.0;
    double symbolicSeconds = 0.0;
    uint64_t freshAllocs = 0;
    uint64_t allocatedBytes = 0;

    static OpSnapshot take(const core::Profiler &profiler);
    OpSnapshot minus(const OpSnapshot &base) const;
    OpSnapshot plus(const OpSnapshot &other) const;
    /** Top ops by time as a JSON array (for the result record). */
    std::string topOpsJson(size_t n) const;
};

/** Host ceilings measured at the workload's pool width. */
struct HostCeilings
{
    double fmaGflops = 0.0;
    double triadGbps = 0.0;
};

/**
 * Measures FMA peak through the SIMD matmul tile and STREAM-triad
 * bandwidth with every array at least four times the last-level
 * cache, both over @p lanes pool lanes; logs the sizes to @p report.
 */
HostCeilings measureHost(int lanes, Report &report);

/**
 * Adds the tensor, vsa, logic, workloads and core op metrics.
 * Rates and shares come from @p rates over @p rateEpisodes; the
 * exact counts come from @p exact over @p exactEpisodes.
 */
void addOpMetrics(Report &report, const OpSnapshot &rates,
                  uint64_t rateEpisodes, const OpSnapshot &exact,
                  uint64_t exactEpisodes, const HostCeilings &host);

/** The seven models in the order every per-model metric uses. */
const std::vector<std::string> &allModels();

/// @name Workload runners; each fills @p report and returns.
/// @{
void runEpisodes(const Args &args, Report &report, SpanLog &spans);
void runServe(const Args &args, Report &report, SpanLog &spans);
/// @}

/**
 * Serving-layer per-layer metrics that only the serve workload
 * measures; the episodes workloads report them as zero so every run
 * prints the same names.
 */
void addIdleServeMetrics(Report &report);

} // namespace nsbench::perfbench

#endif // NSBENCH_PERFBENCH_BENCH_HH
