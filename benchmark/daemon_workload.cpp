/**
 * @file
 * daemon_sweep: real swordfishd daemons (2 workers, private spool and
 * socket), three in turn, each driven the way sweep scripts drive it — a
 * closed loop of 3 clients, each submitting a job, streaming it to its
 * terminal state, then submitting the next. Every job is a 1-run, 8-read
 * NonIdeal evaluation of D1 with seed S*1000+i. The clients share one
 * thread and multiplex their connections with poll().
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "genomics/dataset.h"
#include "report.h"
#include "service/job_spec.h"
#include "tracing.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "workloads.h"

extern char** environ;

namespace swordfish::benchmark {

namespace {

constexpr const char* kName = "daemon_sweep";
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kClients = 3;
constexpr std::size_t kJobReads = 8;
constexpr std::size_t kWarmupJobs = 4;
constexpr std::size_t kMinJobs = 30;    ///< identity_mean is over these
constexpr std::size_t kTraceJobs = 30;  ///< 3-client jobs of a traced run
constexpr std::size_t kSoloJobs = 10;   ///< 1-client jobs of a traced run
constexpr std::size_t kReplayJobs = 10; ///< in-process jobs of a traced run
constexpr std::size_t kCheckEvery = 20; ///< every 20th job is re-run
/**
 * Daemons per run, each set up and then swept for an equal share of the
 * window. A daemon keeps its speed for its lifetime, but two daemons
 * started seconds apart differed by up to 15 % in jobs/s, so throughput
 * is the median over daemons.
 */
constexpr std::size_t kDaemons = 3;
constexpr int kStartTimeoutMs = 20000;
constexpr int kStopTimeoutMs = 20000;

/** Job i of a sweep with run seed S: seed S*1000+i, everything else fixed. */
service::JobSpec
jobSpec(std::uint64_t seed, std::size_t i)
{
    service::JobSpec spec;
    spec.datasetReads = kJobReads;
    spec.request.runs = 1;
    spec.request.batch = 8;
    spec.request.seedBase = seed * 1000 + i;
    return spec;
}

/** A connected AF_UNIX line socket, closed on destruction. */
class Connection
{
  public:
    explicit Connection(const std::string& path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (fd_ < 0 || path.size() >= sizeof(addr.sun_path)) {
            close();
            return;
        }
        std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr))
            != 0)
            close();
    }

    ~Connection() { close(); }

    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    bool ok() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    bool
    send(const std::string& line)
    {
        const std::string framed = line + "\n";
        for (std::size_t off = 0; off < framed.size();) {
            const ssize_t n = ::send(fd_, framed.data() + off,
                                     framed.size() - off, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    /** Read what is available (call when poll reports input). */
    bool
    fill()
    {
        char chunk[8192];
        const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n <= 0)
            return false;
        buffer_.append(chunk, static_cast<std::size_t>(n));
        return true;
    }

    /** Pop one complete line, if buffered. */
    std::optional<std::string>
    line()
    {
        const std::size_t nl = buffer_.find('\n');
        if (nl == std::string::npos)
            return std::nullopt;
        std::string out = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return out;
    }

    /** Blocking request/response, for ping. */
    std::optional<std::string>
    call(const std::string& request, int timeout_ms)
    {
        if (!send(request))
            return std::nullopt;
        const std::int64_t deadline =
            nowNs() + static_cast<std::int64_t>(timeout_ms) * 1000000;
        while (nowNs() < deadline) {
            if (auto l = line())
                return l;
            pollfd pfd = {fd_, POLLIN, 0};
            if (::poll(&pfd, 1, 100) > 0 && !fill())
                return std::nullopt;
        }
        return std::nullopt;
    }

  private:
    void
    close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

    int fd_ = -1;
    std::string buffer_;
};

/**
 * A swordfishd process with its own spool and socket in a fresh directory
 * under the working directory. Paths stay relative, so the socket path
 * fits sun_path however deep the checkout is. The destructor stops the
 * daemon (shutdown op, then SIGKILL), waits for it and removes the
 * directory.
 */
class Daemon
{
  public:
    explicit Daemon(const std::string& binary)
    {
        std::string tmpl = "sfdXXXXXX";
        if (::mkdtemp(tmpl.data()) == nullptr)
            fatal("mkdtemp: ", std::strerror(errno));
        dir_ = tmpl;
        // Everything the forked child touches is built first: between fork
        // and exec only async-signal-safe calls are allowed.
        const std::string log = dir_ + "/daemon.log";
        std::vector<std::string> args = {
            binary, "--socket", "d.sock", "--spool", "spool",
            "--workers", std::to_string(kWorkers)};
        std::vector<char*> argv;
        for (std::string& a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        pid_ = ::fork();
        if (pid_ < 0)
            fatal("fork: ", std::strerror(errno));
        if (pid_ == 0) {
            const int out = ::open(log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (out >= 0) {
                ::dup2(out, STDOUT_FILENO);
                ::dup2(out, STDERR_FILENO);
            }
            if (::chdir(dir_.c_str()) != 0)
                std::_Exit(126);
            ::execve(argv[0], argv.data(), environ);
            std::_Exit(127);
        }
    }

    ~Daemon()
    {
        stop();
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /** The socket path, relative to the working directory. */
    std::string socket() const { return dir_ + "/d.sock"; }

    long pid() const { return static_cast<long>(pid_); }

    /** Files the daemon's spool holds. */
    std::size_t
    spoolFiles() const
    {
        std::error_code ec;
        std::size_t n = 0;
        for (auto it = std::filesystem::recursive_directory_iterator(
                 dir_ + "/spool", ec);
             !ec && it != std::filesystem::recursive_directory_iterator();
             it.increment(ec))
            n += it->is_regular_file() ? 1 : 0;
        return n;
    }

    /** Wait until the daemon answers ping; false on timeout or exit. */
    bool
    waitReady()
    {
        const std::int64_t deadline =
            nowNs() + static_cast<std::int64_t>(kStartTimeoutMs) * 1000000;
        while (nowNs() < deadline) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return false;
            }
            Connection c(socket());
            if (c.ok()) {
                const auto reply = c.call("{\"op\":\"ping\"}", 5000);
                if (reply && reply->find("\"ok\":true") != std::string::npos)
                    return true;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return false;
    }

    /** The daemon's log, for failure reports. */
    std::string
    log() const
    {
        std::ifstream in(dir_ + "/daemon.log");
        return std::string(std::istreambuf_iterator<char>(in), {});
    }

    void
    stop()
    {
        if (pid_ <= 0)
            return;
        {
            Connection c(socket());
            if (c.ok())
                c.call("{\"op\":\"shutdown\"}", 2000);
        }
        const std::int64_t deadline =
            nowNs() + static_cast<std::int64_t>(kStopTimeoutMs) * 1000000;
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (nowNs() > deadline) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        pid_ = -1;
    }

  private:
    std::string dir_;
    pid_t pid_ = -1;
};

/** Outcome of one closed-loop sweep. */
struct Sweep
{
    /**
     * First submit to the last completion before issuing stopped, and the
     * jobs completed by then. Until issuing stops every worker is busy; in
     * the drain after it the last queued job runs alone while the other
     * worker idles, which would make the rate of a ~10-job sweep depend on
     * where the window happened to close.
     */
    double steadySeconds = 0.0;
    std::size_t steadyCompleted = 0;
    std::size_t issued = 0;
    std::size_t completed = 0;
    std::size_t failed = 0;       ///< terminal but not completed
    std::size_t shed = 0;         ///< refused at submit
    std::vector<double> latencyMs; ///< submit to terminal, completed jobs
    std::vector<double> submitMs;  ///< submit round trip
    std::map<std::size_t, double> mean; ///< job index -> result mean

    /** Completed jobs per second while every client had a job in flight. */
    double
    jobsPerSecond() const
    {
        return steadySeconds > 0.0
            ? static_cast<double>(steadyCompleted) / steadySeconds : 0.0;
    }

    /** Fold in the jobs of a later sweep (the rate stays this sweep's). */
    void
    add(const Sweep& o)
    {
        issued += o.issued;
        completed += o.completed;
        failed += o.failed;
        shed += o.shed;
        latencyMs.insert(latencyMs.end(), o.latencyMs.begin(),
                         o.latencyMs.end());
        submitMs.insert(submitMs.end(), o.submitMs.begin(), o.submitMs.end());
        mean.insert(o.mean.begin(), o.mean.end());
    }
};

/**
 * Closed loop: `clients` connections each keep one job in flight; new jobs
 * are issued while the window is open or fewer than `min_jobs` have been
 * issued, then the in-flight ones finish. Jobs are numbered from `first`.
 */
Sweep
runSweep(const Daemon& daemon, std::uint64_t seed, std::size_t clients,
         std::size_t first, std::size_t min_jobs, double seconds)
{
    struct Client
    {
        std::unique_ptr<Connection> conn;
        std::size_t job = 0;
        std::int64_t sent = 0;
        bool streaming = false;
        bool active = false;
    };
    Sweep out;
    std::vector<Client> cs(clients);
    const std::int64_t start = nowNs();
    bool closed = false;

    auto issue = [&](Client& c) {
        const double elapsed = static_cast<double>(nowNs() - start) * 1e-9;
        if (closed || (out.issued >= min_jobs && elapsed >= seconds)) {
            closed = true;
            c.active = false;
            return;
        }
        c.job = first + out.issued++;
        c.sent = nowNs();
        c.streaming = false;
        c.active = c.conn->send("{\"op\":\"submit\",\"spec\":"
                                + jobSpec(seed, c.job).toJson() + "}");
        if (!c.active)
            ++out.failed;
    };
    for (Client& c : cs) {
        c.conn = std::make_unique<Connection>(daemon.socket());
        if (!c.conn->ok())
            fatal("cannot connect to ", daemon.socket());
        issue(c);
    }

    const std::int64_t give_up = start
        + static_cast<std::int64_t>((seconds + 120.0) * 1e9);
    for (;;) {
        std::vector<pollfd> pfds;
        for (Client& c : cs)
            if (c.active)
                pfds.push_back({c.conn->fd(), POLLIN, 0});
        if (pfds.empty() || nowNs() > give_up)
            break;
        if (::poll(pfds.data(), pfds.size(), 1000) < 0 && errno != EINTR)
            break;
        for (Client& c : cs) {
            if (!c.active)
                continue;
            pollfd* p = nullptr;
            for (pollfd& q : pfds)
                if (q.fd == c.conn->fd())
                    p = &q;
            if (p == nullptr || !(p->revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            if (!c.conn->fill()) {
                ++out.failed;
                c.active = false;
                continue;
            }
            while (c.active) {
                const auto line = c.conn->line();
                if (!line)
                    break;
                JsonValue doc;
                if (JsonValue::parse(*line, doc) || !doc.get("ok").asBool()) {
                    // A refused submit (shed / queue full) or a failed
                    // stream: the job counts as not completed.
                    if (!c.streaming
                        && doc.get("error").asString() == "overloaded")
                        ++out.shed;
                    else
                        ++out.failed;
                    issue(c);
                    continue;
                }
                if (!c.streaming) {
                    out.submitMs.push_back(
                        static_cast<double>(nowNs() - c.sent) * 1e-6);
                    c.streaming = true;
                    c.conn->send("{\"op\":\"stream\",\"id\":\""
                                 + doc.get("id").asString()
                                 + "\",\"from\":0}");
                    continue;
                }
                if (!doc.get("done").asBool())
                    continue; // a progress event
                const JsonValue& status = doc.get("status");
                const std::int64_t done = nowNs();
                if (status.get("state").asString() == "completed") {
                    ++out.completed;
                    if (!closed) {
                        ++out.steadyCompleted;
                        out.steadySeconds =
                            static_cast<double>(done - start) * 1e-9;
                    }
                    out.latencyMs.push_back(
                        static_cast<double>(done - c.sent) * 1e-6);
                    out.mean[c.job] =
                        status.get("result").get("mean").asDouble();
                } else {
                    ++out.failed;
                }
                issue(c);
            }
        }
    }
    for (const Client& c : cs)
        if (c.active)
            ++out.failed; // still in flight at give-up
    return out;
}

class DaemonWorkload
{
  public:
    explicit DaemonWorkload(const ChildOptions& opts)
        : opts_(opts), report_(kName)
    {}

    int run();

  private:
    std::unique_ptr<Daemon> setUp(double& one_job_rss_mb);
    void emitEndToEnd(const Sweep& s, const std::vector<double>& jobs_per_s,
                      const std::vector<double>& setup_s,
                      const std::vector<double>& one_job_rss_mb,
                      double run_rss_mb);
    void checkAgainstDirect(const Sweep& s);
    void trace(Daemon& daemon, const Sweep& sweep);

    const ChildOptions& opts_;
    Reporter report_;
};

/**
 * Spawn a daemon and warm it up: one job alone, then the rest of the
 * warm-up jobs from one client per worker, so that every worker is warm
 * when timing starts. `one_job_rss_mb` gets the daemon's peak memory after
 * the first job; later jobs may run on other threads, whose allocator
 * arenas raise the peak by 2-20 MiB or not depending on scheduling.
 */
std::unique_ptr<Daemon>
DaemonWorkload::setUp(double& one_job_rss_mb)
{
    auto daemon = std::make_unique<Daemon>(opts_.daemon);
    if (!daemon->waitReady())
        fatal("swordfishd did not start:\n", daemon->log());
    runSweep(*daemon, opts_.seed, 1, 0, 1, 0.0);
    one_job_rss_mb = peakRssMb(daemon->pid());
    runSweep(*daemon, opts_.seed, kWorkers, 1, kWarmupJobs - 1, 0.0);
    return daemon;
}

void
DaemonWorkload::emitEndToEnd(const Sweep& s,
                             const std::vector<double>& jobs_per_s,
                             const std::vector<double>& setup_s,
                             const std::vector<double>& one_job_rss_mb,
                             double run_rss_mb)
{
    double identity = 0.0;
    std::size_t counted = 0;
    for (std::size_t i = kWarmupJobs; i < kWarmupJobs + kMinJobs; ++i) {
        const auto it = s.mean.find(i);
        if (it != s.mean.end()) {
            identity += it->second;
            ++counted;
        }
    }
    identity = counted > 0 ? identity / static_cast<double>(counted) : 0.0;
    report_.gate("identity_in_range", identity > 0.0 && identity <= 1.0,
                 exact(identity));
    const std::size_t attempted = s.completed + s.failed + s.shed;
    const double rate = percentile(jobs_per_s, 0.5);
    report_.metric("reads_per_s", rate * kJobReads, "reads/s");
    report_.metric("jobs_per_s", rate, "jobs/s");
    report_.metric("latency_p50_ms", percentile(s.latencyMs, 0.5), "ms");
    report_.metric("identity_mean", identity, "fraction");
    report_.metric("setup_s", percentile(setup_s, 0.5), "s");
    report_.metric("peak_rss_mb", percentile(one_job_rss_mb, 0.5), "MiB");
    report_.metric("run_peak_rss_mb", run_rss_mb, "MiB");
    report_.metric("failed_frac",
                   attempted > 0 ? static_cast<double>(attempted - s.completed)
                           / static_cast<double>(attempted)
                                 : 1.0,
                   "fraction");
    report_.metric("attempted", static_cast<double>(attempted), "count");
    report_.metric("failed", static_cast<double>(attempted - s.completed),
                   "count");
    report_.metric("latency_samples", static_cast<double>(s.latencyMs.size()),
                   "count");
}

void
DaemonWorkload::checkAgainstDirect(const Sweep& s)
{
    // Every 20th timed job, from the first, re-run in process: the daemon
    // must return the direct result bit for bit.
    bool same = true;
    std::size_t checked = 0;
    std::string detail;
    for (const auto& [job, mean] : s.mean) {
        if ((job - kWarmupJobs) % kCheckEvery != 0)
            continue;
        ++checked;
        const double direct =
            service::runJobSpec(jobSpec(opts_.seed, job)).mean;
        if (!sameBits(direct, mean) && same) {
            same = false;
            detail = "job " + std::to_string(job) + ": daemon " + exact(mean)
                + " direct " + exact(direct);
        }
    }
    report_.gate("daemon_matches_direct_bitwise", same && checked > 0,
                 same ? std::to_string(checked) + " jobs checked" : detail);
}

void
DaemonWorkload::trace(Daemon& daemon, const Sweep& sweep)
{
    // Service layer: one client alone shows the service overhead without
    // queueing; the 3-client latency minus it is the queue wait.
    const Sweep solo =
        runSweep(daemon, opts_.seed, 1, kWarmupJobs + sweep.issued,
                 opts_.smoke ? 2 : kSoloJobs, 0.0);

    // In process, the same specs one after another on one pool worker:
    // each plain through service::runJobSpec, then traced through the
    // replay, which materializes the job exactly as runJobSpec does.
    const std::size_t jobs = opts_.smoke ? 2 : kReplayJobs;
    std::vector<double> exec_ms;
    TraceTally tally;
    clearTrace();
    runTimedTasks({[&] {
        for (std::size_t i = 0; i < jobs; ++i) {
            const service::JobSpec spec = jobSpec(opts_.seed, i);
            const std::int64_t t0 = nowNs();
            const double plain = service::runJobSpec(spec).mean;
            exec_ms.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
            tally.add(exec_ms.back() * 1e-3, plain, [&] {
                const genomics::Dataset dataset = genomics::makeDataset(
                    genomics::specById(spec.datasetId),
                    genomics::PoreModel(), spec.datasetReads);
                McSetup setup;
                setup.dataset = &dataset;
                service::parseScenarioKind(spec.scenarioKind,
                                           setup.scenario.kind);
                setup.scenario.crossbar.size = spec.crossbarSize;
                setup.scenario.quant =
                    QuantConfig{spec.weightBits, spec.activationBits};
                setup.scenario.noise = spec.noise;
                setup.batch = spec.request.batch;
                nn::SequenceModel model =
                    makeTracedModel(basecall::buildBonitoLite(spec.model));
                return replayEvaluation(model, setup, spec.request.runs,
                                        spec.request.seedBase);
            }, "job " + std::to_string(i));
        }
    }});
    reportLayerMetrics(report_, tally);

    const double exec_p50 = percentile(exec_ms, 0.5);
    const double solo_p50 = percentile(solo.latencyMs, 0.5);
    report_.metric("service.submit_ms_p50", percentile(solo.submitMs, 0.5),
                   "ms");
    report_.metric("service.exec_ms_p50", exec_p50, "ms");
    report_.metric("service.overhead_ms_p50", solo_p50 - exec_p50, "ms");
    report_.metric("service.queue_wait_ms_p50",
                   percentile(sweep.latencyMs, 0.5) - solo_p50, "ms");
    report_.metric("service.spool_files",
                   static_cast<double>(daemon.spoolFiles()), "count");
    report_.metric("service.jobs_failed", static_cast<double>(solo.failed),
                   "count");
    report_.metric("service.jobs_shed", static_cast<double>(solo.shed),
                   "count");
    if (!writeTrace(opts_.trace))
        report_.gate("trace_written", false, "cannot write " + opts_.trace);
}

int
DaemonWorkload::run()
{
    // Daemon state lives in the runner's scratch directory, which is also
    // where relative socket paths resolve.
    if (::chdir(opts_.scratch.c_str()) != 0)
        fatal("chdir ", opts_.scratch, ": ", std::strerror(errno));
    // A traced run sweeps a fixed job count; a timed run fills the window.
    // Jobs are numbered on across daemons, so jobs kWarmupJobs ..
    // kWarmupJobs + min_jobs - 1 run whatever the window.
    const bool tracing = !opts_.trace.empty();
    // A sweep needs at least one job per client to reach the steady state
    // its rate is taken over.
    const std::size_t min_jobs = opts_.smoke
        ? kClients : (tracing ? kTraceJobs : kMinJobs) / kDaemons;
    const double seconds = tracing ? 0.0 : opts_.seconds / kDaemons;
    std::vector<double> setup_s, one_job_rss_mb, jobs_per_s;
    Sweep sweep;
    std::unique_ptr<Daemon> daemon;
    for (std::size_t d = 0; d < kDaemons; ++d) {
        daemon.reset(); // the previous daemon, stopped untimed
        const std::int64_t t0 = d == 0 ? opts_.startNs : nowNs();
        double rss_mb = 0.0;
        daemon = setUp(rss_mb);
        setup_s.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        one_job_rss_mb.push_back(rss_mb);
        const Sweep s = runSweep(*daemon, opts_.seed, kClients,
                                 kWarmupJobs + sweep.issued, min_jobs,
                                 seconds);
        jobs_per_s.push_back(s.jobsPerSecond());
        sweep.add(s);
    }
    emitEndToEnd(sweep, jobs_per_s, setup_s, one_job_rss_mb,
                 peakRssMb(daemon->pid()));
    if (tracing)
        trace(*daemon, sweep);
    checkAgainstDirect(sweep);
    daemon->stop();
    return report_.allPassed() ? 0 : 1;
}

} // namespace

int
runDaemonWorkload(const ChildOptions& opts)
{
    DaemonWorkload w(opts);
    return w.run();
}

} // namespace swordfish::benchmark
