/**
 * @file
 * Negative-path tests for the `nsbench serve`/`loadgen` CLI.
 *
 * Each case runs the real binary (path baked in via NSBENCH_CLI_PATH)
 * with an invalid invocation and asserts the contract the chaos tier
 * depends on: a non-zero exit code, a clear one-line message on
 * stderr, and no hang — validation happens before the server spins
 * up, so a bad flag can never leave worker threads behind.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <sys/wait.h>

namespace
{

/** Captured outcome of one CLI invocation. */
struct CliResult
{
    int exitCode = -1;
    std::string output; ///< stdout + stderr, interleaved.
};

/**
 * Runs the nsbench binary with @p args (under optional environment
 * assignments @p env), capturing output and exit code.
 */
CliResult
runCli(const std::string &args, const std::string &env = "")
{
    // 2>&1 folds stderr into the pipe; the tests only assert on
    // message presence, not on which stream carried it.
    std::string command = (env.empty() ? "" : env + " ") +
                          std::string(NSBENCH_CLI_PATH) + " " +
                          args + " 2>&1";
    CliResult result;
    FILE *pipe = popen(command.c_str(), "r");
    if (pipe == nullptr)
        return result;
    std::array<char, 256> buffer;
    while (fgets(buffer.data(), buffer.size(), pipe) != nullptr)
        result.output += buffer.data();
    int status = pclose(pipe);
    if (WIFEXITED(status))
        result.exitCode = WEXITSTATUS(status);
    return result;
}

TEST(CliNegative, UnknownWorkloadFailsFast)
{
    CliResult result =
        runCli("serve --workloads NoSuchThing --duration 0.1");
    EXPECT_EQ(result.exitCode, 1);
    EXPECT_NE(result.output.find("unknown workload"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, ZeroWorkersIsRejectedBeforeServing)
{
    CliResult result = runCli("serve --workers 0 --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("--workers must be positive"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, ZeroDurationIsRejected)
{
    CliResult result = runCli("serve --duration 0");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("--duration must be positive"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, MalformedFaultSpecIsRejected)
{
    CliResult result =
        runCli("serve --faults serve.worker.run --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("--faults:"), std::string::npos)
        << result.output;
}

TEST(CliNegative, UnknownFailpointSiteIsRejected)
{
    CliResult result =
        runCli("serve --faults not.a.site=0.5 --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("unknown failpoint site"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, OutOfRangeProbabilityIsRejected)
{
    CliResult result =
        runCli("serve --faults serve.worker.run=1.5 --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("probability"), std::string::npos)
        << result.output;
}

TEST(CliNegative, NegativeRetriesIsRejected)
{
    CliResult result =
        runCli("serve --retries -1 --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("--retries must be >= 0"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, OutOfRangeShedFractionIsRejected)
{
    CliResult result =
        runCli("serve --shed-at 1.5 --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("--shed-at must be in [0, 1]"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, ZeroClientsClosedLoopIsRejected)
{
    CliResult result =
        runCli("serve --clients 0 --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("--clients must be positive"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, ZeroDelayFaultSuffixIsRejected)
{
    // `~0` would silently disable the delay action; the parser must
    // refuse it rather than arm a no-op schedule.
    CliResult result = runCli(
        "serve --faults serve.worker.run=0.5~0 --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("'~' delay must be positive"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, NonNumericDelayFaultSuffixIsRejected)
{
    CliResult result = runCli(
        "serve --faults serve.worker.run=0.5~fast --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("'~' needs a number"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, NegativeSojournTargetIsRejected)
{
    CliResult result =
        runCli("serve --target-sojourn-us -5 --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("--target-sojourn-us must be >= 0"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, MalformedEnvSpecWarnsAndServesCleanly)
{
    // A bad NSBENCH_FAILPOINTS value must not kill the binary —
    // library init warns and stays disarmed (CI sets the variable
    // fleet-wide; one typo must not fail every job).
    CliResult result =
        runCli("serve --workloads LNN --duration 0.1 --clients 1",
               "NSBENCH_FAILPOINTS=nonsense");
    EXPECT_EQ(result.exitCode, 0) << result.output;
}

} // namespace
