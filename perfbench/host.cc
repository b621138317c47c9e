#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "bench.hh"
#include "util/simd.hh"
#include "util/threadpool.hh"

namespace nsbench::perfbench
{

namespace
{

/** Largest cache level the kernel reports for cpu0, in bytes. */
uint64_t
lastLevelCacheBytes()
{
    uint64_t best = 0;
    int bestLevel = -1;
    for (int index = 0; index < 16; index++) {
        std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" +
                          std::to_string(index) + "/";
        std::ifstream levelIn(dir + "level"), sizeIn(dir + "size");
        int level = 0;
        std::string size;
        if (!(levelIn >> level) || !(sizeIn >> size) || size.empty())
            continue;
        uint64_t bytes = std::stoull(size);
        char suffix = size.back();
        if (suffix == 'K')
            bytes <<= 10;
        else if (suffix == 'M')
            bytes <<= 20;
        if (level > bestLevel || (level == bestLevel && bytes > best)) {
            bestLevel = level;
            best = bytes;
        }
    }
    return best > 0 ? best : (32ull << 20);
}

} // namespace

HostCeilings
measureHost(int lanes, Report &report)
{
    HostCeilings host;
    util::ThreadPool &pool = util::ThreadPool::global();

    // FMA peak: each lane multiplies its own cache-resident tiles
    // through the SIMD matmul row kernel.
    constexpr int64_t m = 64, k = 256, n = 256, iters = 600;
    std::vector<std::vector<float>> a(lanes), b(lanes), c(lanes);
    for (int lane = 0; lane < lanes; lane++) {
        a[lane].assign(m * k, 0.5f);
        b[lane].assign(k * n, 0.25f);
        c[lane].assign(m * n, 0.0f);
    }
    double bestFma = 0.0;
    for (int trial = 0; trial < 3; trial++) {
        double t0 = now();
        pool.parallelFor(0, lanes, 1, [&](int64_t lo, int64_t hi) {
            for (int64_t lane = lo; lane < hi; lane++)
                for (int64_t it = 0; it < iters; it++)
                    util::simd::matmulRows(a[lane].data(),
                                           b[lane].data(),
                                           c[lane].data(), 0, m, k, n);
        });
        double dt = now() - t0;
        double flops = 2.0 * m * k * n * iters * lanes;
        bestFma = std::max(bestFma, flops / dt * 1e-9);
    }
    host.fmaGflops = bestFma;

    // STREAM triad a = b + s*c, each array at least 4x the LLC.
    const uint64_t llc = lastLevelCacheBytes();
    const int64_t count = static_cast<int64_t>(4 * llc / sizeof(float));
    std::unique_ptr<float[]> ta(new float[count]), tb(new float[count]),
        tc(new float[count]);
    const int64_t grain = (count + lanes - 1) / lanes;
    pool.parallelFor(0, count, grain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; i++) {
            ta[i] = 0.0f;
            tb[i] = 1.0f;
            tc[i] = 2.0f;
        }
    });
    double bestTriad = 0.0;
    for (int pass = 0; pass < 3; pass++) {
        double t0 = now();
        pool.parallelFor(0, count, grain, [&](int64_t lo, int64_t hi) {
            float *pa = ta.get();
            const float *pb = tb.get(), *pc = tc.get();
            for (int64_t i = lo; i < hi; i++)
                pa[i] = pb[i] + 3.0f * pc[i];
        });
        double dt = now() - t0;
        double bytes = 3.0 * sizeof(float) * static_cast<double>(count);
        bestTriad = std::max(bestTriad, bytes / dt * 1e-9);
    }
    host.triadGbps = bestTriad;
    if (ta[count / 2] != 7.0f)
        report.fail("host triad produced a wrong value");

    std::fprintf(stderr,
                 "host: last-level cache %llu B, triad arrays %llu B "
                 "each, %.1f GFLOP/s FMA, %.1f GB/s triad, %d lanes\n",
                 static_cast<unsigned long long>(llc),
                 static_cast<unsigned long long>(count * sizeof(float)),
                 host.fmaGflops, host.triadGbps, lanes);
    report.fact("host_llc_bytes", std::to_string(llc));
    report.fact("host_triad_array_bytes",
                std::to_string(count * sizeof(float)));
    report.fact("host_fma_tile", std::to_string(m) + "x" +
                                     std::to_string(k) + "x" +
                                     std::to_string(n));
    report.fact("host_lanes", std::to_string(lanes));
    return host;
}

} // namespace nsbench::perfbench
