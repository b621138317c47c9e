#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <thread>

#include "bench.hh"
#include "util/logging.hh"

namespace nsbench::perfbench
{

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Ops recorded by src/vsa. */
bool
isVsaOp(const std::string &name)
{
    static const std::set<std::string> names = {
        "circular_conv",       "circular_corr",
        "codebook_cleanup",    "codebook_cleanup_int8",
        "fft_circular_conv",   "pmf_to_vsa",
        "resonator_project",   "resonator_recombine"};
    return name.rfind("vsa_", 0) == 0 || name.rfind("bvsa_", 0) == 0 ||
           names.count(name) > 0;
}

/** Ops recorded by src/logic. */
bool
isLogicOp(const std::string &name)
{
    return name == "rule_ground" || name == "formula_grounding";
}

/** Ops recorded by the workloads themselves (src/workloads). */
bool
isWorkloadOp(const std::string &name)
{
    static const std::set<std::string> names = {
        "bound_pack",     "bound_update",  "explain_away",
        "graph_match",    "nlm_expand",    "occupancy_scan",
        "peak_extract",   "prob_abduction", "prob_execute",
        "quantifier_aggregate", "relation_check", "template_match"};
    return names.count(name) > 0;
}

/** Everything else is a tensor (or nn-on-tensor) kernel. */
bool
isTensorOp(const std::string &name)
{
    return !isVsaOp(name) && !isLogicOp(name) && !isWorkloadOp(name);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

const std::chrono::steady_clock::time_point epoch =
    std::chrono::steady_clock::now();

} // namespace

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

void
sleepUntil(double t)
{
    std::this_thread::sleep_until(
        epoch + std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(t)));
}

void
Report::add(const std::string &name, double value,
            const std::string &unit, uint64_t samples)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not finite");
        value = 0.0;
    }
    metrics_.push_back(Metric{name, value, unit, samples});
}

void
Report::fail(const std::string &why)
{
    failed++;
    if (reasons_.size() < 20)
        reasons_.push_back(why);
}

void
Report::failAll(const std::string &why)
{
    wrong_ = true;
    fail(why);
}

double
Report::okFraction() const
{
    return 1.0 - static_cast<double>(failures()) /
                     static_cast<double>(std::max<uint64_t>(attempted, 1));
}

void
Report::fact(const std::string &key, const std::string &value)
{
    facts_.emplace_back(key, jsonString(value));
}

void
Report::factJson(const std::string &key, const std::string &json)
{
    facts_.emplace_back(key, json);
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += failures() == 0 && attempted > 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failures());
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); i++) {
        const Metric &m = metrics_[i];
        out += (i ? ", " : "") + jsonString(m.name) +
               ": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) +
               ", \"samples\": " + std::to_string(m.samples) + "}";
    }
    out += "}, \"failures\": [";
    for (size_t i = 0; i < reasons_.size(); i++)
        out += (i ? ", " : "") + jsonString(reasons_[i]);
    out += "]";
    for (const auto &[key, value] : facts_)
        out += ", " + jsonString(key) + ": " + value;
    return out + "}";
}

std::string
Report::table() const
{
    std::string out;
    char line[160];
    std::snprintf(line, sizeof(line), "%-40s %16s %-8s %10s\n",
                  "metric", "value", "unit", "samples");
    out += line;
    for (const Metric &m : metrics_) {
        std::snprintf(line, sizeof(line), "%-40s %16.6g %-8s %10llu\n",
                      m.name.c_str(), m.value, m.unit.c_str(),
                      static_cast<unsigned long long>(m.samples));
        out += line;
    }
    std::snprintf(line, sizeof(line), "attempted %llu, failed %llu\n",
                  static_cast<unsigned long long>(attempted),
                  static_cast<unsigned long long>(failures()));
    out += line;
    for (const std::string &r : reasons_)
        out += "  failure: " + r + "\n";
    return out;
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    double pos = q * static_cast<double>(samples.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

std::string
jsonArray(const std::vector<double> &values)
{
    std::string out = "[";
    for (size_t i = 0; i < values.size(); i++)
        out += (i ? ", " : "") + jsonNumber(values[i]);
    return out + "]";
}

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double
rssMib()
{
    std::ifstream statm("/proc/self/statm");
    uint64_t sizePages = 0, residentPages = 0;
    statm >> sizePages >> residentPages;
    return static_cast<double>(residentPages * sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

OpSnapshot
OpSnapshot::take(const core::Profiler &profiler)
{
    OpSnapshot snap;
    for (const core::NamedOpStats &op : profiler.opsByTime())
        snap.ops[op.name].merge(op.stats);
    snap.neuralSeconds =
        profiler.phaseTotals(core::Phase::Neural).seconds;
    snap.symbolicSeconds =
        profiler.phaseTotals(core::Phase::Symbolic).seconds;
    snap.freshAllocs = profiler.memChurn().freshAllocs();
    for (core::Phase phase : {core::Phase::Neural, core::Phase::Symbolic,
                              core::Phase::Untagged})
        snap.allocatedBytes += profiler.allocatedBytesIn(phase);
    return snap;
}

OpSnapshot
OpSnapshot::minus(const OpSnapshot &base) const
{
    OpSnapshot out = *this;
    for (const auto &[name, stats] : base.ops) {
        core::OpStats &o = out.ops[name];
        o.seconds -= stats.seconds;
        o.invocations -= stats.invocations;
        o.flops -= stats.flops;
        o.bytesRead -= stats.bytesRead;
        o.bytesWritten -= stats.bytesWritten;
    }
    out.neuralSeconds -= base.neuralSeconds;
    out.symbolicSeconds -= base.symbolicSeconds;
    out.freshAllocs -= base.freshAllocs;
    out.allocatedBytes -= base.allocatedBytes;
    return out;
}

OpSnapshot
OpSnapshot::plus(const OpSnapshot &other) const
{
    OpSnapshot out = *this;
    for (const auto &[name, stats] : other.ops)
        out.ops[name].merge(stats);
    out.neuralSeconds += other.neuralSeconds;
    out.symbolicSeconds += other.symbolicSeconds;
    out.freshAllocs += other.freshAllocs;
    out.allocatedBytes += other.allocatedBytes;
    return out;
}

std::string
OpSnapshot::topOpsJson(size_t n) const
{
    std::vector<std::pair<std::string, core::OpStats>> sorted(
        ops.begin(), ops.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto &a, const auto &b) {
                  return a.second.seconds > b.second.seconds;
              });
    std::string out = "[";
    for (size_t i = 0; i < sorted.size() && i < n; i++) {
        const auto &[name, s] = sorted[i];
        if (s.invocations == 0)
            break;
        out += (i ? ", " : "") + std::string("{\"op\": ") +
               jsonString(name) +
               ", \"seconds\": " + jsonNumber(s.seconds) +
               ", \"calls\": " + std::to_string(s.invocations) +
               ", \"flops\": " + jsonNumber(s.flops) +
               ", \"bytes\": " + jsonNumber(s.bytes()) + "}";
    }
    return out + "]";
}

void
addOpMetrics(Report &report, const OpSnapshot &rates,
             uint64_t rateEpisodes, const OpSnapshot &exact,
             uint64_t exactEpisodes, const HostCeilings &host)
{
    double totalSeconds = 0.0;
    for (const auto &[name, s] : rates.ops)
        totalSeconds += s.seconds;
    auto rateOf = [&](const std::string &op) {
        auto it = rates.ops.find(op);
        return it == rates.ops.end() ? core::OpStats{} : it->second;
    };
    auto exactOf = [&](const std::string &op) {
        auto it = exact.ops.find(op);
        return it == exact.ops.end() ? core::OpStats{} : it->second;
    };
    const double perRate = static_cast<double>(rateEpisodes);
    const double perExact = static_cast<double>(exactEpisodes);

    auto gflops = [&](const std::string &layer, const std::string &op) {
        core::OpStats s = rateOf(op);
        report.add(layer + "." + op + ".gflops",
                   ratio(s.flops, s.seconds) * 1e-9, "GFLOP/s",
                   s.invocations);
    };
    auto share = [&](const std::string &layer, const std::string &op) {
        core::OpStats s = rateOf(op);
        report.add(layer + "." + op + ".share",
                   ratio(s.seconds, totalSeconds), "ratio",
                   s.invocations);
    };
    auto calls = [&](const std::string &layer, const std::string &op) {
        report.add(layer + "." + op + ".calls_per_episode",
                   ratio(static_cast<double>(exactOf(op).invocations),
                         perExact),
                   "count", exactEpisodes);
    };
    auto msPer = [&](const std::string &layer, const std::string &op) {
        core::OpStats s = rateOf(op);
        report.add(layer + "." + op + ".ms_per_episode",
                   ratio(s.seconds, perRate) * 1e3, "ms", rateEpisodes);
    };
    // Attainable rate at the op's intensity: the lower of the compute
    // peak and bandwidth times FLOP/byte (the Fig. 3c roofline).
    auto roofline = [&](const std::string &layer, const std::string &op) {
        core::OpStats s = rateOf(op);
        double achieved = ratio(s.flops, s.seconds) * 1e-9;
        double attainable = std::min(host.fmaGflops,
                                     host.triadGbps * s.opIntensity());
        report.add(layer + "." + op + ".roofline_frac",
                   ratio(achieved, attainable), "ratio", s.invocations);
    };

    gflops("tensor", "conv2d");
    share("tensor", "conv2d");
    calls("tensor", "conv2d");
    gflops("tensor", "tanh");
    share("tensor", "tanh");
    gflops("tensor", "linear");
    gflops("tensor", "matmul");
    report.add("tensor.alloc.fresh_per_episode",
               ratio(static_cast<double>(exact.freshAllocs), perExact),
               "count", exactEpisodes);
    report.add("tensor.alloc.mib_per_episode",
               ratio(static_cast<double>(exact.allocatedBytes),
                     perExact) /
                   (1024.0 * 1024.0),
               "MiB", exactEpisodes);
    double tensorFlops = 0.0, tensorBytes = 0.0, allCalls = 0.0;
    for (const auto &[name, s] : exact.ops) {
        allCalls += static_cast<double>(s.invocations);
        if (isTensorOp(name)) {
            tensorFlops += s.flops;
            tensorBytes += s.bytes();
        }
    }
    report.add("tensor.flops_per_episode", ratio(tensorFlops, perExact),
               "flop", exactEpisodes);
    report.add("tensor.bytes_per_episode", ratio(tensorBytes, perExact),
               "B", exactEpisodes);

    gflops("vsa", "circular_conv");
    share("vsa", "circular_conv");
    calls("vsa", "circular_conv");
    gflops("vsa", "circular_corr");
    gflops("vsa", "codebook_cleanup");
    share("vsa", "vsa_conv_power");

    msPer("logic", "rule_ground");
    msPer("logic", "formula_grounding");
    msPer("logic", "quantifier_aggregate");

    core::OpStats expand = rateOf("nlm_expand");
    report.add("workloads.nlm_expand.gbps",
               ratio(expand.bytes(), expand.seconds) * 1e-9, "GB/s",
               expand.invocations);
    share("workloads", "nlm_expand");
    share("workloads", "template_match");

    report.add("core.ops_per_episode", ratio(allCalls, perExact),
               "count", exactEpisodes);

    report.add("host.fma_gflops", host.fmaGflops, "GFLOP/s", 1);
    report.add("host.triad_gbps", host.triadGbps, "GB/s", 1);
    roofline("tensor", "conv2d");
    roofline("vsa", "circular_conv");
}

const std::vector<std::string> &
allModels()
{
    static const std::vector<std::string> names = {
        "LNN", "LTN", "NLM", "NVSA", "PrAE", "VSAIT", "ZeroC"};
    return names;
}

void
addIdleServeMetrics(Report &report)
{
    for (const char *name :
         {"serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms",
          "serve.service_p50_ms", "serve.service_p99_ms",
          "net.overhead_p50_ms", "net.overhead_p99_ms",
          "bench.sched_lag_p99_ms"})
        report.add(name, 0.0, "ms", 0);
    report.add("serve.batch_size_mean", 0.0, "count", 0);
    report.add("serve.shared_frac", 0.0, "ratio", 0);
    report.add("serve.executions_per_request", 0.0, "ratio", 0);
    report.add("serve.retries", 0.0, "count", 0);
    report.add("serve.rejected", 0.0, "count", 0);
    report.add("cache.hit_frac", 0.0, "ratio", 0);
    report.add("cache.singleflight_followers", 0.0, "count", 0);
    report.add("cache.inserts", 0.0, "count", 0);
    report.add("cache.evictions", 0.0, "count", 0);
    report.add("exec.pipelined_frac", 0.0, "ratio", 0);
    report.add("net.bytes_per_request", 0.0, "B", 0);
}

} // namespace nsbench::perfbench
