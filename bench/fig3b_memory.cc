/**
 * @file
 * Fig. 3b + the storage part of Takeaway 4: memory behaviour of all
 * seven workloads.
 *
 * Reports the peak live tensor footprint and allocation volume per
 * phase during one profiled run, plus the persistent model storage
 * (weights + codebooks). The paper's observations: symbolic phases of
 * the abduction models need large intermediate caching, and neural
 * weights plus VSA codebooks dominate persistent storage (>90% for
 * NVSA).
 *
 * The allocs column exposes allocation churn: total storage buffers
 * acquired. Peak/alloc byte figures are logical tensor bytes.
 */

#include <iostream>

#include "common.hh"
#include "core/report.hh"
#include "util/format.hh"
#include "util/table.hh"
#include "workloads/nvsa.hh"

int
main()
{
    using namespace nsbench;

    bench::printHeader("Memory usage during computation", "Fig. 3b");

    util::Table table({"workload", "peak-live", "neural-peak",
                       "symbolic-peak", "neural-alloc",
                       "symbolic-alloc", "allocs", "model-storage"});

    for (const auto &name : bench::paperOrder()) {
        auto run = bench::profileWorkload(name);
        const auto &p = run.profile;
        table.addRow(
            {name, util::humanBytes(p.peakBytes()),
             util::humanBytes(p.peakBytesIn(core::Phase::Neural)),
             util::humanBytes(p.peakBytesIn(core::Phase::Symbolic)),
             util::humanBytes(
                 p.allocatedBytesIn(core::Phase::Neural)),
             util::humanBytes(
                 p.allocatedBytesIn(core::Phase::Symbolic)),
             std::to_string(p.memChurn().allocs),
             util::humanBytes(run.storageBytes)});
    }
    table.print(std::cout);

    // NVSA storage decomposition: the codebook share of Takeaway 4.
    workloads::NvsaWorkload nvsa;
    nvsa.setUp(42);
    std::cout << "\nNVSA persistent storage: "
              << util::humanBytes(nvsa.storageBytes())
              << " total; the attribute + combination codebooks are "
                 "the dominant share (paper: network weights + "
                 "codebook are >90% of NVSA's footprint).\n";
    return 0;
}
