/**
 * @file
 * Cross-episode stage-pipeline scaling — Recommendation 5, executed.
 *
 * rec5_scheduling.cc *simulates* the win from overlapping episode
 * i+1's neural stage with episode i's symbolic stage; this bench
 * runs the overlap for real through exec::runPipelined and puts the
 * measured speedup next to the sim::schedule prediction. Each staged
 * workload executes the same episode train twice — a serial
 * reseed+run loop, then the stage pipeline — and the bench checks
 * the pipelined scores byte-match the serial ones before it trusts
 * any timing.
 *
 * Exit-code gate: every workload must be byte-identical with no
 * episode recording an error, and at least two must reach >= 1.3x
 * end-to-end speedup. LTN is sized up (people=320) so its quadratic
 * axiom stage carries weight comparable to its linear grounding
 * stage; the other configs are small enough to keep the bench in
 * seconds. On a single-core host
 * the stages cannot overlap, so the speedup part of the gate is
 * skipped (identity still gates).
 */

#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "exec/pipeline.hh"
#include "util/format.hh"
#include "util/table.hh"
#include "util/timer.hh"
#include "workloads/lnn.hh"
#include "workloads/ltn.hh"
#include "workloads/nlm.hh"
#include "workloads/nvsa.hh"
#include "workloads/prae.hh"

namespace
{

using namespace nsbench;

constexpr int kEpisodes = 8;
constexpr double kGateSpeedup = 1.3;
constexpr int kGateWorkloads = 2;

/** True when two score vectors match bit-for-bit. */
bool
byteIdentical(const std::vector<double> &a,
              const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(double)) == 0);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::printHeader(
        "Cross-episode stage-pipeline scaling",
        "runtime extra (Sec. V Recommendation 5, executed)");

    // Balanced-stage configs, documented above. NVSA runs the
    // serve-sized model: its full-size symbolic stage dwarfs
    // perception by ~50x and would push the bench into minutes.
    std::vector<std::unique_ptr<core::Workload>> cases;
    {
        workloads::NvsaConfig nvsa;
        nvsa.hvDim = 256;
        nvsa.episodes = 1;
        cases.push_back(
            std::make_unique<workloads::NvsaWorkload>(nvsa));
        cases.push_back(std::make_unique<workloads::PraeWorkload>(
            workloads::PraeConfig{}));
        cases.push_back(std::make_unique<workloads::LnnWorkload>(
            workloads::LnnConfig{}));
        workloads::LtnConfig ltn;
        ltn.people = 320;
        cases.push_back(
            std::make_unique<workloads::LtnWorkload>(ltn));
        cases.push_back(std::make_unique<workloads::NlmWorkload>(
            workloads::NlmConfig{}));
    }

    std::vector<uint64_t> seeds;
    for (int i = 0; i < kEpisodes; i++)
        seeds.push_back(exec::episodeSeed(42, i));

    util::Table table({"workload", "stages", "serial", "pipelined",
                       "speedup", "predicted", "overlap",
                       "identical"});
    std::ostringstream json;
    json << "{\"bench\":\"scaling_pipeline\",\"episodes\":"
         << kEpisodes << ",\"gate_speedup\":" << kGateSpeedup
         << ",\"workloads\":[";

    bool all_identical = true;
    int gate_hits = 0;
    for (size_t c = 0; c < cases.size(); c++) {
        core::Workload &workload = *cases[c];
        workload.setUp(42);

        util::WallTimer serial_timer;
        std::vector<double> serial =
            exec::runSerialEpisodes(workload, seeds);
        double serial_wall = serial_timer.elapsed();

        exec::PipelineOptions options;
        options.collectProfiles = false;
        exec::PipelineResult piped =
            exec::runPipelined(workload, seeds, options);

        bool identical = piped.failures() == 0 &&
                         byteIdentical(serial, piped.scores);
        all_identical = all_identical && identical;
        double speedup = piped.wallSeconds > 0.0
                             ? serial_wall / piped.wallSeconds
                             : 1.0;
        if (speedup >= kGateSpeedup)
            gate_hits++;
        std::vector<double> stage_seconds;
        for (const exec::StageReport &stage : piped.stages)
            stage_seconds.push_back(stage.busySeconds);
        double predicted =
            exec::predictedSpeedup(stage_seconds, kEpisodes);

        table.addRow({workload.name(),
                      std::to_string(workload.stageCount()),
                      util::humanSeconds(serial_wall),
                      util::humanSeconds(piped.wallSeconds),
                      util::fixedStr(speedup, 2) + "x",
                      util::fixedStr(predicted, 2) + "x",
                      util::fixedStr(piped.overlapSpeedup(), 2) + "x",
                      identical ? "yes" : "NO"});
        json << (c ? "," : "") << "{\"name\":\"" << workload.name()
             << "\",\"stages\":" << workload.stageCount()
             << ",\"serial_s\":" << serial_wall
             << ",\"pipelined_s\":" << piped.wallSeconds
             << ",\"speedup\":" << speedup
             << ",\"predicted\":" << predicted
             << ",\"overlap\":" << piped.overlapSpeedup()
             << ",\"identical\":" << (identical ? "true" : "false")
             << "}";
    }

    bool single_core = std::thread::hardware_concurrency() < 2;
    bool gate_ok =
        all_identical && (single_core || gate_hits >= kGateWorkloads);
    json << "],\"gate_hits\":" << gate_hits << ",\"all_identical\":"
         << (all_identical ? "true" : "false")
         << ",\"gate_ok\":" << (gate_ok ? "true" : "false") << "}";

    table.print(std::cout);
    std::cout << "\nGate: scores byte-identical on every workload"
              << (single_core
                      ? " (single-core host: speedup gate skipped)"
                      : ", and >= " +
                            std::to_string(kGateWorkloads) +
                            " workloads at >= " +
                            util::fixedStr(kGateSpeedup, 1) +
                            "x — " + std::to_string(gate_hits) +
                            " qualified")
              << ".\n"
              << (all_identical
                      ? ""
                      : "ERROR: pipelined scores diverged from the "
                        "serial loop!\n")
              << "\nBENCH_JSON " << json.str() << "\n";
    bench::writeBenchJson(argc, argv, json.str());
    return gate_ok ? 0 : 1;
}
