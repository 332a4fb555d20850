/**
 * @file
 * The benchmark's workloads, run one per child process (see bench_main.cpp).
 * Each generates its own inputs from the seed, sets itself up (timed as
 * setup_s), measures, checks its correctness gates and prints its metrics.
 */

#ifndef SWORDFISH_BENCHMARK_WORKLOADS_H
#define SWORDFISH_BENCHMARK_WORKLOADS_H

#include <cstdint>
#include <string>

namespace swordfish::benchmark {

/** What the runner hands a workload child. */
struct ChildOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< measurement window of a timed run
    bool smoke = false;     ///< tiny sizes: checks the plumbing, not speed
    std::string trace;      ///< span file; non-empty = traced run
    std::string fixture;    ///< trained model weights (mc_* workloads)
    std::string daemon;     ///< swordfishd binary (daemon_sweep)
    std::string scratch;    ///< directory for temporary daemon state
    std::int64_t startNs = 0; ///< child start, for the first setup_s sample
};

/** Run a Monte-Carlo workload; returns the process exit code. */
int runMcWorkload(const ChildOptions& opts);

/** Run daemon_sweep; returns the process exit code. */
int runDaemonWorkload(const ChildOptions& opts);

/**
 * Train (or keep) the model fixture at `path`: BonitoLite at its defaults,
 * trained with CTC for `epochs` epochs. Returns the process exit code.
 */
int trainFixture(const std::string& path, std::size_t epochs);

} // namespace swordfish::benchmark

#endif // SWORDFISH_BENCHMARK_WORKLOADS_H
