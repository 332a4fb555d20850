/**
 * @file
 * Output of one workload child: one JSON line per metric
 * ({"workload","metric","value","unit"}) and one per correctness gate
 * ({"workload","gate","pass","detail"}), flushed as they are produced so
 * the runner can relay them even if the child later dies.
 */

#ifndef SWORDFISH_BENCHMARK_REPORT_H
#define SWORDFISH_BENCHMARK_REPORT_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/json.h"

namespace swordfish::benchmark {

/** Linear-interpolated quantile q in [0, 1] of `v` (0 when empty). */
inline double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/**
 * Peak resident set (VmHWM) of a process in MiB; pid 0 = this process.
 * Returns 0 when /proc is unreadable.
 */
inline double
peakRssMb(long pid = 0)
{
    const std::string path = pid == 0
        ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kb = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kb / 1024.0;
}

/**
 * Restart this process's VmHWM from its current resident set (Linux
 * /proc/self/clear_refs, mode 5), so peakRssMb() reads the peak of what
 * follows. Without it the peak stays the process's lifetime peak.
 */
inline void
resetPeakRss()
{
    if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

/** Metric and gate lines of one workload. */
class Reporter
{
  public:
    explicit Reporter(std::string workload) : workload_(std::move(workload))
    {}

    void
    metric(const std::string& name, double value, const std::string& unit)
    {
        emit(JsonWriter()
                 .field("workload", workload_)
                 .field("metric", name)
                 .field("value", value)
                 .field("unit", unit)
                 .str());
    }

    /** A correctness gate; any failed gate fails the run. */
    void
    gate(const std::string& name, bool pass, const std::string& detail = "")
    {
        allPassed_ = allPassed_ && pass;
        emit(JsonWriter()
                 .field("workload", workload_)
                 .field("gate", name)
                 .field("pass", pass)
                 .field("detail", detail)
                 .str());
    }

    bool allPassed() const { return allPassed_; }

  private:
    static void
    emit(const std::string& line)
    {
        std::fputs((line + "\n").c_str(), stdout);
        std::fflush(stdout);
    }

    std::string workload_;
    bool allPassed_ = true;
};

/** Bitwise equality of two doubles (the determinism gates). */
inline bool
sameBits(double a, double b)
{
    std::uint64_t x = 0, y = 0;
    std::memcpy(&x, &a, sizeof(x));
    std::memcpy(&y, &b, sizeof(y));
    return x == y;
}

/** A double with every digit, for gate details. */
inline std::string
exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace swordfish::benchmark

#endif // SWORDFISH_BENCHMARK_REPORT_H
