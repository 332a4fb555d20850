/**
 * @file
 * swordfish_bench — the repository benchmark.
 *
 *   swordfish_bench --seed S [--workload W] [--seconds N] [--trace FILE]
 *                   [--smoke] [--check-names BENCHMARK.json]
 *
 * Runs each selected workload (default: all) in its own child process with
 * every SWORDFISH_* variable removed from its environment, under a
 * wall-clock timeout, and relays what the child prints: one JSON line per
 * metric ({"workload","metric","value","unit"}) and one per correctness
 * gate. Exits non-zero when a gate fails, a child fails or times out, or
 * (with --check-names) a metric named in BENCHMARK.json is not printed with
 * its unit.
 *
 * --trace FILE makes every run a traced run: a fixed amount of work done
 * twice, plain and traced, whose spans go to FILE (FILE.<workload> when
 * several workloads run) and whose per-layer metrics are printed too.
 * --smoke runs tiny traced sizes of everything, to check the plumbing.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "basecall/bonito_lite.h"
#include "report.h"
#include "tracing.h"
#include "util/json.h"
#include "workloads.h"

extern char** environ;

namespace swordfish::benchmark {

namespace {

constexpr std::size_t kFixtureEpochs = 14;
constexpr std::size_t kSmokeFixtureEpochs = 2;
constexpr int kFixtureTimeoutS = 600;

/** Workload names, in run order. */
const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "mc_combined", "mc_measured", "mc_ensemble_refresh", "daemon_sweep"};
    return names;
}

/** True when the workload needs the trained model fixture. */
bool
needsFixture(const std::string& workload)
{
    return workload.rfind("mc_", 0) == 0;
}

/**
 * Environment the workload runs under, as NAME=VALUE entries, applied on
 * top of an environment with every SWORDFISH_* variable removed.
 */
std::vector<std::string>
workloadEnvironment(const std::string& workload)
{
    if (workload == "mc_ensemble_refresh")
        return {"SWORDFISH_NOISE=rtn.amp=0.05,disturb.rate=0.01,"
                "disturb.reads=1000,tdrift.hours=168,cwrite.sigma=0.05",
                "SWORDFISH_REFRESH=interval_h=2,age_h_per_read=1,"
                "probe_reads=4"};
    return {};
}

struct Args
{
    std::uint64_t seed = 0;
    bool haveSeed = false;
    std::vector<std::string> workloads;
    double seconds = 10.0;
    std::string trace;
    bool smoke = false;
    std::string checkNames;
    ChildOptions child; ///< internal: --child mode
    std::string childWorkload;
    std::size_t fixtureEpochs = 0; ///< internal: --train-fixture mode
};

[[noreturn]] void
usage(const char* msg)
{
    std::fprintf(stderr,
                 "swordfish_bench: %s\n"
                 "usage: swordfish_bench --seed S [--workload W] "
                 "[--seconds N] [--trace FILE] [--smoke] "
                 "[--check-names BENCHMARK.json]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseU64(const std::string& flag, const char* text)
{
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno != 0)
        usage((flag + " needs a non-negative integer").c_str());
    return v;
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage((flag + " needs a value").c_str());
        const char* value = argv[++i];
        if (flag == "--seed") {
            a.seed = parseU64(flag, value);
            a.haveSeed = true;
        } else if (flag == "--workload") {
            a.workloads.push_back(value);
        } else if (flag == "--seconds") {
            a.seconds = static_cast<double>(parseU64(flag, value));
        } else if (flag == "--trace") {
            a.trace = value;
        } else if (flag == "--check-names") {
            a.checkNames = value;
        } else if (flag == "--child") {
            a.childWorkload = value;
        } else if (flag == "--fixture") {
            a.child.fixture = value;
        } else if (flag == "--daemon") {
            a.child.daemon = value;
        } else if (flag == "--scratch") {
            a.child.scratch = value;
        } else if (flag == "--train-fixture") {
            a.fixtureEpochs = parseU64(flag, value);
        } else {
            usage(("unknown option " + flag).c_str());
        }
    }
    return a;
}

std::string
selfDir()
{
    std::error_code ec;
    const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
    if (ec)
        return ".";
    return exe.parent_path().string();
}

/**
 * The fixture file for a training run: keyed by the model config, the
 * epoch count and the training seeds, so a change to any of them trains a
 * new fixture instead of loading a stale one.
 */
std::string
fixturePath(const std::string& dir, std::size_t epochs)
{
    const basecall::BonitoLiteConfig cfg;
    char key[160];
    std::snprintf(key, sizeof(key),
                  "bonito_c%zu_k%zu_s%zu_h%zu_l%zu_init%llx_e%zu",
                  cfg.convChannels, cfg.convKernel, cfg.convStride,
                  cfg.lstmHidden, cfg.lstmLayers,
                  static_cast<unsigned long long>(cfg.initSeed), epochs);
    return dir + "/fixtures/" + key + "/bonito_lite_teacher.bin";
}

/** The current environment minus SWORDFISH_*, plus `extra`. */
std::vector<std::string>
childEnvironment(const std::vector<std::string>& extra)
{
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "SWORDFISH_", 10) != 0)
            env.emplace_back(*e);
    env.insert(env.end(), extra.begin(), extra.end());
    return env;
}

/** Outcome of one child process. */
struct ChildRun
{
    bool timedOut = false;
    int exitCode = -1;
    std::vector<std::string> lines;
};

/**
 * Run this binary with `args` in its own process group, relaying its
 * stdout line by line, and kill the whole group after `timeout_s`. Every
 * process left in the group (a daemon whose parent died) is killed and
 * reaped before returning: this process is their subreaper.
 */
ChildRun
runChild(const std::vector<std::string>& args,
         const std::vector<std::string>& env, int timeout_s)
{
    ChildRun out;
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
        std::perror("swordfish_bench: pipe");
        return out;
    }
    const std::string exe = "/proc/self/exe";
    std::vector<char*> argv;
    std::vector<std::string> full = {"swordfish_bench"};
    full.insert(full.end(), args.begin(), args.end());
    for (std::string& s : full)
        argv.push_back(s.data());
    argv.push_back(nullptr);
    std::vector<std::string> env_copy = env;
    std::vector<char*> envp;
    for (std::string& s : env_copy)
        envp.push_back(s.data());
    envp.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("swordfish_bench: fork");
        ::close(fds[0]);
        ::close(fds[1]);
        return out;
    }
    if (pid == 0) {
        ::setpgid(0, 0);
        ::dup2(fds[1], STDOUT_FILENO);
        ::execve(exe.c_str(), argv.data(), envp.data());
        std::_Exit(127);
    }
    ::setpgid(pid, pid);
    ::close(fds[1]);

    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(timeout_s) * 1000000000LL;
    std::string buffer;
    char chunk[4096];
    for (;;) {
        const std::int64_t left_ms = (deadline - nowNs()) / 1000000;
        if (left_ms <= 0) {
            out.timedOut = true;
            break;
        }
        pollfd pfd = {fds[0], POLLIN, 0};
        const int ready = ::poll(&pfd, 1, static_cast<int>(
                                                std::min<std::int64_t>(
                                                    left_ms, 1000)));
        if (ready < 0 && errno != EINTR)
            break;
        if (ready <= 0)
            continue;
        const ssize_t n = ::read(fds[0], chunk, sizeof(chunk));
        if (n <= 0)
            break;
        buffer.append(chunk, static_cast<std::size_t>(n));
        for (std::size_t nl; (nl = buffer.find('\n')) != std::string::npos;) {
            out.lines.push_back(buffer.substr(0, nl));
            std::printf("%s\n", out.lines.back().c_str());
            std::fflush(stdout);
            buffer.erase(0, nl + 1);
        }
    }
    ::close(fds[0]);

    int status = 0;
    if (out.timedOut) {
        ::kill(-pid, SIGKILL);
        ::waitpid(pid, &status, 0);
    } else {
        ::waitpid(pid, &status, 0);
        out.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    ::kill(-pid, SIGKILL); // anything the child left behind in its group
    while (::waitpid(-pid, &status, 0) > 0) {
    }
    return out;
}

/** Metric -> unit pairs printed by one workload, and whether gates held. */
struct Printed
{
    std::map<std::string, std::string> units;
    bool gatesPassed = true;
};

Printed
scanLines(const std::vector<std::string>& lines)
{
    Printed p;
    for (const std::string& line : lines) {
        JsonValue doc;
        if (JsonValue::parse(line, doc) || !doc.isObject())
            continue;
        if (doc.get("metric").isString())
            p.units[doc.get("metric").asString()] =
                doc.get("unit").asString();
        else if (doc.get("gate").isString() && !doc.get("pass").asBool())
            p.gatesPassed = false;
    }
    return p;
}

/** Every BENCHMARK.json metric of `section` printed with its unit? */
bool
checkNames(const JsonValue& spec, const char* section,
           const std::string& workload, const Printed& printed)
{
    bool ok = true;
    const JsonValue& list = spec.get(section);
    for (std::size_t i = 0; i < list.size(); ++i) {
        const std::string name = list.at(i).get("name").asString();
        const std::string unit = list.at(i).get("unit").asString();
        const auto it = printed.units.find(name);
        if (it == printed.units.end() || it->second != unit) {
            std::fprintf(stderr,
                         "swordfish_bench: %s did not print %s [%s]\n",
                         workload.c_str(), name.c_str(), unit.c_str());
            ok = false;
        }
    }
    return ok;
}

int
runParent(const Args& args)
{
    if (!args.haveSeed)
        usage("--seed is required");
    std::vector<std::string> workloads = args.workloads;
    if (workloads.empty())
        workloads = workloadNames();
    for (const std::string& w : workloads) {
        const auto& known = workloadNames();
        if (std::find(known.begin(), known.end(), w) == known.end())
            usage(("unknown workload " + w).c_str());
    }

    JsonValue spec;
    if (!args.checkNames.empty()) {
        std::FILE* f = std::fopen(args.checkNames.c_str(), "r");
        std::string text;
        if (f != nullptr) {
            char buf[4096];
            for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;)
                text.append(buf, n);
            std::fclose(f);
        }
        if (f == nullptr || JsonValue::parse(text, spec) || !spec.isObject())
            usage(("cannot read " + args.checkNames).c_str());
    }

    // Orphans of a killed child (the daemon of daemon_sweep) re-parent to
    // this process, so runChild() can reap them.
    ::prctl(PR_SET_CHILD_SUBREAPER, 1);

    const std::string dir = selfDir();
    const std::string scratch = dir + "/tmp";
    std::filesystem::create_directories(scratch);
    const std::size_t epochs =
        args.smoke ? kSmokeFixtureEpochs : kFixtureEpochs;
    const std::string fixture = fixturePath(dir, epochs);
    std::string trace = args.trace;
    if (args.smoke && trace.empty()) {
        std::filesystem::create_directories(dir + "/trace");
        trace = dir + "/trace/smoke";
    }

    bool ok = true;
    const bool need_fixture = std::any_of(workloads.begin(), workloads.end(),
                                          needsFixture);
    if (need_fixture && !std::filesystem::exists(fixture)) {
        // Trained once per checkout, outside every timed number.
        const std::int64_t t0 = nowNs();
        const ChildRun r = runChild(
            {"--train-fixture", std::to_string(epochs), "--fixture", fixture},
            childEnvironment({}), kFixtureTimeoutS);
        Reporter("fixture").metric(
            "fixture_s", static_cast<double>(nowNs() - t0) * 1e-9, "s");
        if (r.exitCode != 0 || !std::filesystem::exists(fixture)) {
            std::fprintf(stderr, "swordfish_bench: fixture training failed\n");
            return 1;
        }
    }

    const int timeout_s = static_cast<int>(
        std::min(150.0, 2.0 * args.seconds + 100.0));
    for (const std::string& w : workloads) {
        std::vector<std::string> child_args = {
            "--child", w, "--seed", std::to_string(args.seed),
            "--seconds", std::to_string(static_cast<long>(args.seconds)),
            "--fixture", fixture, "--daemon", SWORDFISHD_PATH,
            "--scratch", scratch};
        if (args.smoke)
            child_args.push_back("--smoke");
        if (!trace.empty()) {
            child_args.push_back("--trace");
            child_args.push_back(workloads.size() == 1 && !args.smoke
                                     ? trace : trace + "." + w);
        }
        const ChildRun r = runChild(child_args,
                                    childEnvironment(workloadEnvironment(w)),
                                    timeout_s);
        // Daemon directories a killed child could not remove.
        std::filesystem::remove_all(scratch);
        std::filesystem::create_directories(scratch);
        const Printed printed = scanLines(r.lines);
        if (r.timedOut || r.exitCode != 0) {
            // A hang or crash is a failed workload, never a missing one.
            Reporter(w).metric("failed_frac", 1.0, "fraction");
            std::fprintf(stderr, "swordfish_bench: %s %s\n", w.c_str(),
                         r.timedOut ? "timed out"
                                    : ("exited with "
                                       + std::to_string(r.exitCode))
                                          .c_str());
            ok = false;
        }
        ok = ok && printed.gatesPassed;
        if (!args.checkNames.empty()) {
            ok = checkNames(spec, "end_to_end", w, printed) && ok;
            if (!trace.empty())
                ok = checkNames(spec, "per_layer", w, printed) && ok;
        }
    }
    return ok ? 0 : 1;
}

int
runChildMode(Args args, std::int64_t start)
{
    ChildOptions opts = args.child;
    opts.workload = args.childWorkload;
    opts.seed = args.seed;
    opts.seconds = args.seconds;
    opts.smoke = args.smoke;
    if (!args.trace.empty())
        opts.trace = std::filesystem::absolute(args.trace).string();
    opts.startNs = start;
    if (opts.workload == "daemon_sweep")
        return runDaemonWorkload(opts);
    return runMcWorkload(opts);
}

} // namespace

} // namespace swordfish::benchmark

int
main(int argc, char** argv)
{
    using namespace swordfish::benchmark;
    const std::int64_t start = nowNs();
    const Args args = parseArgs(argc, argv);
    if (args.fixtureEpochs > 0)
        return trainFixture(args.child.fixture, args.fixtureEpochs);
    if (!args.childWorkload.empty())
        return runChildMode(args, start);
    return runParent(args);
}
