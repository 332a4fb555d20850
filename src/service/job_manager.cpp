#include "job_manager.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/fault.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/serialize.h"
#include "util/shutdown.h"

namespace swordfish::service {

using basecall::JobError;
using basecall::JobErrorKind;

const char*
jobStateName(JobState state)
{
    switch (state) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Completed: return "completed";
      case JobState::Failed: return "failed";
      case JobState::Cancelled: return "cancelled";
      case JobState::TimedOut: return "timed_out";
      case JobState::Quarantined: return "quarantined";
    }
    return "unknown";
}

bool
parseJobState(const std::string& name, JobState& out)
{
    if (name == "queued")
        out = JobState::Queued;
    else if (name == "running")
        out = JobState::Running;
    else if (name == "completed")
        out = JobState::Completed;
    else if (name == "failed")
        out = JobState::Failed;
    else if (name == "cancelled")
        out = JobState::Cancelled;
    else if (name == "timed_out")
        out = JobState::TimedOut;
    else if (name == "quarantined")
        out = JobState::Quarantined;
    else
        return false;
    return true;
}

std::string
JobEvent::toJson() const
{
    return JsonWriter()
        .field("seq", static_cast<std::uint64_t>(seq))
        .field("run", static_cast<std::uint64_t>(block.run))
        .field("done", static_cast<std::uint64_t>(block.done))
        .field("total", static_cast<std::uint64_t>(block.total))
        .field("survivors", static_cast<std::uint64_t>(block.survivors))
        .field("skipped", static_cast<std::uint64_t>(block.skipped))
        .field("mean_identity", block.meanIdentity)
        .str();
}

std::string
JobStatus::toJson() const
{
    return JsonWriter()
        .field("id", id)
        .field("state", jobStateName(state))
        .field("tenant", spec.tenant)
        .field("kind", jobKindName(spec.kind))
        .field("events", static_cast<std::uint64_t>(events))
        .field("attempts", static_cast<std::uint64_t>(attempts))
        .field("error", error)
        .raw("spec", spec.toJson())
        .raw("result", result.toJson())
        .str();
}

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

JobManager::JobManager(JobManagerConfig cfg)
    : cfg_(std::move(cfg)), chaos_(cfg_.chaos)
{
    if (!cfg_.spoolDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cfg_.spoolDir, ec);
        if (ec)
            fatal("JobManager: cannot create spool dir ", cfg_.spoolDir,
                  ": ", ec.message());
    }
    workers_.reserve(cfg_.workers);
    for (std::size_t w = 0; w < cfg_.workers; ++w)
        workers_.emplace_back([this] { workerLoop(); });
    // The watchdog only matters once something can run: it expires
    // deadlines on Running jobs and wakes workers out of backoff waits.
    if (cfg_.workers > 0)
        watchdog_ = std::thread([this] { watchdogLoop(); });
}

JobManager::~JobManager()
{
    shutdown();
}

// ---------------------------------------------------------------------------
// Spool
// ---------------------------------------------------------------------------

std::string
JobManager::spoolPath(const std::string& id) const
{
    return cfg_.spoolDir + "/" + id + ".json";
}

std::string
JobManager::checkpointPath(const std::string& id) const
{
    return cfg_.spoolDir.empty() ? std::string()
                                 : cfg_.spoolDir + "/" + id + ".ckpt";
}

void
JobManager::persistLocked(const Job& job)
{
    if (cfg_.spoolDir.empty())
        return;
    // Chaos: drop this spool write. Keyed on (id, state, attempts) so the
    // schedule replays identically regardless of worker interleaving. The
    // daemon must survive a lost write — at worst the record is stale and
    // the job replays from an earlier state after a restart.
    if (chaos_.enabled()
        && chaos_.fires(FaultSite::SpoolWrite,
                        FaultInjector::serviceKey(
                            job.id + "#" + jobStateName(job.state) + "#"
                            + std::to_string(job.attempts)))) {
        metrics().counter("service.chaos.spool_write_drops").add();
        warn("JobManager: chaos dropped spool write for ", job.id, " (",
             jobStateName(job.state), ")");
        return;
    }
    const std::string record = JsonWriter()
        .field("version", 1)
        .field("id", job.id)
        .field("state", jobStateName(job.state))
        .field("attempts", static_cast<std::uint64_t>(job.attempts))
        .field("error", job.error)
        .raw("spec", job.spec.toJson())
        .raw("result", job.result.toJson())
        .str();
    if (!atomicWriteFile(spoolPath(job.id), record))
        warn("JobManager: failed to persist ", spoolPath(job.id));
}

void
JobManager::quarantineSpoolFile(const std::string& path,
                                const std::string& reason)
{
    const std::filesystem::path src(path);
    const std::filesystem::path dir =
        std::filesystem::path(cfg_.spoolDir) / "quarantine";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!ec)
        std::filesystem::rename(src, dir / src.filename(), ec);
    if (ec) {
        warn("JobManager: cannot quarantine ", path, ": ", ec.message());
        return;
    }
    // The reason file is best-effort operator breadcrumb, not state.
    atomicWriteFile((dir / (src.filename().string() + ".reason")).string(),
                    reason + "\n");
    metrics().counter("service.supervision.quarantined_records").add();
    warn("JobManager: quarantined spool record ", src.filename().string(),
         ": ", reason);
}

void
JobManager::removeCheckpoints(const Job& job)
{
    const std::string base = checkpointPath(job.id);
    if (base.empty())
        return;
    std::remove(base.c_str());
    // Monte-Carlo sweeps checkpoint per run under <base>.run<r>.
    for (std::size_t r = 0; r < job.spec.request.runs; ++r)
        std::remove((base + ".run" + std::to_string(r)).c_str());
}

std::size_t
JobManager::resumeSpooled()
{
    if (cfg_.spoolDir.empty())
        return 0;
    struct Loaded
    {
        std::uint64_t ordinal;
        std::string id;
        JobState state;
        JobSpec spec;
        JobResult result;
        std::string error;
        std::size_t attempts = 0;
    };
    std::vector<Loaded> loaded;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(cfg_.spoolDir, ec)) {
        const std::filesystem::path& p = entry.path();
        if (!entry.is_regular_file() || p.extension() != ".json")
            continue;
        // A record the daemon cannot trust must not be silently dropped
        // (the job would vanish) nor re-admitted (it crashed a parse once
        // and will again, forever) — it moves aside for the operator.
        auto corrupt = [&](const std::string& why) {
            quarantineSpoolFile(p.string(), why);
        };
        // Chaos: the record reads back corrupt.
        if (chaos_.enabled()
            && chaos_.fires(
                FaultSite::SpoolRead,
                FaultInjector::serviceKey(p.filename().string()))) {
            metrics().counter("service.chaos.spool_read_faults").add();
            corrupt("chaos: injected spool read fault");
            continue;
        }
        std::ifstream in(p);
        std::stringstream buffer;
        buffer << in.rdbuf();
        JsonValue doc;
        if (JsonValue::parse(buffer.str(), doc) || !doc.isObject()) {
            corrupt("unparseable spool record (truncated or not JSON)");
            continue;
        }
        Loaded rec;
        rec.id = doc.get("id").asString();
        if (rec.id.empty() || !parseJobState(doc.get("state").asString(),
                                             rec.state)) {
            corrupt("record is missing its id or has an unknown state");
            continue;
        }
        if (JobSpec::fromJsonValue(doc.get("spec"), rec.spec)
            || JobResult::fromJsonValue(doc.get("result"), rec.result)) {
            corrupt("record spec/result does not parse");
            continue;
        }
        rec.error = doc.get("error").asString();
        if (doc.has("attempts") && doc.get("attempts").isIntegral()
            && doc.get("attempts").asI64(-1) >= 0)
            rec.attempts =
                static_cast<std::size_t>(doc.get("attempts").asU64());
        // Ids minted here are "j<N>"; the ordinal restores admission
        // order and seeds the id counter past every persisted job. A
        // record whose id has any other shape (hand-edited or foreign
        // file) would yield ordinal 0, not advance the counter, and let
        // a later submit silently overwrite its spool file — quarantine.
        if (rec.id.size() < 2 || rec.id[0] != 'j'
            || rec.id.find_first_not_of("0123456789", 1)
                   != std::string::npos) {
            corrupt("foreign job id '" + rec.id + "'");
            continue;
        }
        rec.ordinal = std::strtoull(rec.id.c_str() + 1, nullptr, 10);
        loaded.push_back(std::move(rec));
    }
    std::sort(loaded.begin(), loaded.end(),
              [](const Loaded& a, const Loaded& b) {
                  return a.ordinal < b.ordinal;
              });

    std::lock_guard<std::mutex> lk(mu_);
    std::size_t readmitted = 0;
    for (Loaded& rec : loaded) {
        auto job = std::make_unique<Job>();
        job->id = rec.id;
        job->spec = std::move(rec.spec);
        job->result = rec.result;
        job->error = std::move(rec.error);
        job->attempts = rec.attempts;
        if (isTerminal(rec.state)) {
            job->state = rec.state;
        } else if (const std::vector<JobError> errs = job->spec.validate();
                   !errs.empty()) {
            // A spool record that no longer validates (e.g. hand-edited)
            // must not reach a worker — runJobSpec would panic the daemon.
            job->state = JobState::Failed;
            job->error = errs.front().message;
            persistLocked(*job);
        } else if (rec.state == JobState::Running
                   && rec.attempts >= job->spec.maxAttempts) {
            // Graceful shutdown persists Running jobs back to Queued, so
            // a record still Running at rest marks a hard crash — and one
            // whose attempt budget is spent has crashed the daemon that
            // many times. Poison: contain it instead of crash-looping.
            job->state = JobState::Quarantined;
            job->error = "quarantined: execution crashed the daemon "
                + std::to_string(rec.attempts) + " time(s) (budget "
                + std::to_string(job->spec.maxAttempts) + ")";
            metrics().counter("service.supervision.quarantined_jobs").add();
            warn("JobManager: quarantined poison job ", job->id, " after ",
                 rec.attempts, " crashed attempt(s)");
            persistLocked(*job);
        } else {
            // Queued or Running at crash/shutdown time: run it (again).
            // A Running job left a checkpoint, so the resumed execution
            // continues bitwise from the last completed block. Attempts
            // carry over — that is the crash-loop counter.
            job->state = JobState::Queued;
            ++readmitted;
        }
        nextId_ = std::max(nextId_, rec.ordinal + 1);
        jobs_.push_back(std::move(job));
    }
    if (readmitted > 0)
        workCv_.notify_all();
    return readmitted;
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

JobError
JobManager::submit(const JobSpec& spec, std::string& id_out)
{
    const std::vector<JobError> errors = spec.validate();
    if (!errors.empty())
        return errors.front();

    std::lock_guard<std::mutex> lk(mu_);
    if (draining_ || stopping_)
        return {JobErrorKind::Draining, "",
                "daemon is draining; not accepting jobs"};
    std::size_t queued = 0;
    std::size_t tenant_active = 0;
    for (const auto& job : jobs_) {
        if (job->state == JobState::Queued)
            ++queued;
        if (!isTerminal(job->state) && job->spec.tenant == spec.tenant)
            ++tenant_active;
    }
    if (queued >= cfg_.queueCapacity)
        return {JobErrorKind::QueueFull, "",
                "admission queue is full ("
                    + std::to_string(cfg_.queueCapacity) + " jobs)"};
    if (cfg_.shedWatermark > 0 && queued >= cfg_.shedWatermark) {
        // Shed early, before the hard bound: tell well-behaved clients
        // how long to stay away, scaled by how deep past the watermark
        // the queue already is.
        metrics().counter("service.supervision.shed_jobs").add();
        JobError err{JobErrorKind::Overloaded, "",
                     "daemon is overloaded (" + std::to_string(queued)
                         + " jobs queued, watermark "
                         + std::to_string(cfg_.shedWatermark)
                         + "); retry later"};
        err.retryAfterMs =
            cfg_.backoffBaseMs * (queued - cfg_.shedWatermark + 1);
        return err;
    }
    if (tenant_active >= cfg_.tenantQuota)
        return {JobErrorKind::QuotaExceeded, "tenant",
                "tenant '" + spec.tenant + "' already has "
                    + std::to_string(tenant_active) + " jobs in flight"};

    auto job = std::make_unique<Job>();
    job->id = "j" + std::to_string(nextId_++);
    job->spec = spec;
    id_out = job->id;
    persistLocked(*job);
    jobs_.push_back(std::move(job));
    workCv_.notify_one();
    return {};
}

// ---------------------------------------------------------------------------
// Queries / control
// ---------------------------------------------------------------------------

JobManager::Job*
JobManager::findLocked(const std::string& id)
{
    for (const auto& job : jobs_) {
        if (job->id == id)
            return job.get();
    }
    return nullptr;
}

const JobManager::Job*
JobManager::findLocked(const std::string& id) const
{
    for (const auto& job : jobs_) {
        if (job->id == id)
            return job.get();
    }
    return nullptr;
}

JobStatus
JobManager::snapshotLocked(const Job& job) const
{
    JobStatus status;
    status.id = job.id;
    status.state = job.state;
    status.spec = job.spec;
    status.result = job.result;
    status.error = job.error;
    status.events = job.events.size();
    status.attempts = job.attempts;
    return status;
}

JobError
JobManager::status(const std::string& id, JobStatus& out) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const Job* job = findLocked(id);
    if (job == nullptr)
        return {JobErrorKind::UnknownJob, "id", "no such job '" + id + "'"};
    out = snapshotLocked(*job);
    return {};
}

std::vector<JobStatus>
JobManager::list() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<JobStatus> out;
    out.reserve(jobs_.size());
    for (const auto& job : jobs_)
        out.push_back(snapshotLocked(*job));
    return out;
}

JobError
JobManager::cancel(const std::string& id)
{
    std::lock_guard<std::mutex> lk(mu_);
    Job* job = findLocked(id);
    if (job == nullptr)
        return {JobErrorKind::UnknownJob, "id", "no such job '" + id + "'"};
    if (isTerminal(job->state))
        return {}; // cancelling a finished job is a no-op
    job->userCancelled = true;
    job->stop.store(true, std::memory_order_relaxed);
    if (job->state == JobState::Queued) {
        job->state = JobState::Cancelled;
        persistLocked(*job);
        removeCheckpoints(*job);
        eventCv_.notify_all();
    }
    return {};
}

JobError
JobManager::stream(const std::string& id, std::size_t from,
                   std::vector<JobEvent>& out, bool& done_out,
                   std::chrono::milliseconds wait)
{
    std::unique_lock<std::mutex> lk(mu_);
    const Job* job = findLocked(id);
    if (job == nullptr)
        return {JobErrorKind::UnknownJob, "id", "no such job '" + id + "'"};
    eventCv_.wait_for(lk, wait, [&] {
        return job->events.size() > from || isTerminal(job->state)
            || stopping_;
    });
    out.clear();
    for (std::size_t i = from; i < job->events.size(); ++i)
        out.push_back(job->events[i]);
    // ">=" — an out-of-range `from` (client typo, or events cleared by a
    // shutdown re-queue) on a terminal job is end-of-stream, not grounds
    // for the caller to poll forever waiting for events that never come.
    done_out = (isTerminal(job->state) || stopping_)
        && from + out.size() >= job->events.size();
    return {};
}

void
JobManager::drain()
{
    std::lock_guard<std::mutex> lk(mu_);
    draining_ = true;
}

bool
JobManager::draining() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return draining_ || stopping_;
}

bool
JobManager::idle() const
{
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& job : jobs_) {
        if (!isTerminal(job->state))
            return false;
    }
    return true;
}

void
JobManager::shutdown()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopped_)
            return;
        stopping_ = true;
        // Running jobs stop at their next block boundary and checkpoint;
        // the worker re-queues them below.
        for (const auto& job : jobs_) {
            if (job->state == JobState::Running)
                job->stop.store(true, std::memory_order_relaxed);
        }
        workCv_.notify_all();
        eventCv_.notify_all();
        watchdogCv_.notify_all();
    }
    for (std::thread& t : workers_)
        t.join();
    if (watchdog_.joinable())
        watchdog_.join();
    std::lock_guard<std::mutex> lk(mu_);
    workers_.clear();
    stopped_ = true;
}

// ---------------------------------------------------------------------------
// Scheduler / workers
// ---------------------------------------------------------------------------

JobManager::Job*
JobManager::runnableHeadLocked()
{
    // FIFO with one documented relaxation: a job waiting out its retry
    // backoff is invisible until eligible, so later jobs may pass it.
    const Clock::time_point now = Clock::now();
    for (const auto& job : jobs_) {
        if (job->state == JobState::Queued && job->notBefore <= now)
            return job.get();
    }
    return nullptr;
}

void
JobManager::settleFailureLocked(Job& job, bool transient,
                                const std::string& what)
{
    if (transient && job.attempts < job.spec.maxAttempts) {
        // Abandon the attempt, keep the checkpoint: the retry resumes
        // from the last completed block and stays bitwise identical to a
        // first-try success. Eligibility backs off exponentially in the
        // attempt count so a flapping dependency is not hammered.
        job.state = JobState::Queued;
        // Doubling caps at 2^16 periods: maxAttempts may be up to 100 and
        // a 2^99 shift is both UB and a silly wait.
        job.notBefore = Clock::now()
            + std::chrono::milliseconds(
                cfg_.backoffBaseMs
                << std::min<std::size_t>(job.attempts - 1, 16));
        job.events.clear();
        metrics().counter("service.supervision.retries").add();
        warn("JobManager: transient failure on ", job.id, " (attempt ",
             job.attempts, "/", job.spec.maxAttempts, "), backing off: ",
             what);
        return;
    }
    job.state = JobState::Failed;
    job.error = (transient ? "transient failure (attempt budget spent): "
                           : "permanent failure: ")
        + what;
    removeCheckpoints(job);
    metrics()
        .counter(transient ? "service.supervision.retries_exhausted"
                           : "service.supervision.failures")
        .add();
    warn("JobManager: job ", job.id, " failed: ", job.error);
}

void
JobManager::workerLoop()
{
    for (;;) {
        Job* job = nullptr;
        std::size_t attempt = 0;
        {
            std::unique_lock<std::mutex> lk(mu_);
            workCv_.wait(lk, [&] {
                return stopping_ || runnableHeadLocked() != nullptr;
            });
            if (stopping_)
                return;
            job = runnableHeadLocked();
            job->state = JobState::Running;
            job->deadlineExpired = false;
            job->notBefore = Clock::time_point{};
            job->startedAt = Clock::now();
            attempt = ++job->attempts;
            // This Running record (with its attempt count) is the crash
            // marker: if the daemon dies before the job settles, restart
            // sees Running at rest and counts the attempt against the
            // quarantine budget.
            persistLocked(*job);
        }

        // Chaos: stall at every block boundary. Pure wall-time, outside
        // the lock, observe-only — results stay bitwise identical; only
        // deadlines notice.
        const bool stall = chaos_.enabled()
            && chaos_.fires(FaultSite::JobStall,
                            FaultInjector::serviceKey(job->id));

        // The streaming sink appends under the lock; events are
        // observe-only, so this cannot affect the evaluation itself.
        auto sink = [this, job, stall](const basecall::BlockEvent& block) {
            if (stall)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(150));
            std::lock_guard<std::mutex> lk(mu_);
            JobEvent ev;
            ev.seq = job->events.size();
            ev.block = block;
            job->events.push_back(ev);
            eventCv_.notify_all();
        };

        // Fault containment: nothing a job throws may take the worker
        // (and with it the daemon) down. TransientJobError is the typed
        // retryable vocabulary; anything else is permanent.
        JobResult result;
        bool threw = false;
        bool transient = false;
        std::string what;
        try {
            // Chaos: keyed on (id, attempt) so an injected transient
            // failure can clear on the retry, exercising the backoff
            // path end to end.
            if (chaos_.enabled()
                && chaos_.fires(
                    FaultSite::JobThrow,
                    FaultInjector::serviceKey(
                        job->id + "@" + std::to_string(attempt)))) {
                metrics().counter("service.chaos.job_throws").add();
                throw TransientJobError(
                    "chaos: injected transient job failure");
            }
            result = runJobSpec(job->spec, sink, &job->stop,
                                checkpointPath(job->id));
        } catch (const TransientJobError& e) {
            threw = true;
            transient = true;
            what = e.what();
        } catch (const std::exception& e) {
            threw = true;
            what = e.what();
        } catch (...) {
            threw = true;
            what = "unknown exception";
        }

        {
            std::lock_guard<std::mutex> lk(mu_);
            if (!threw)
                job->result = result;
            if (job->userCancelled) {
                job->state = JobState::Cancelled;
                removeCheckpoints(*job);
            } else if (threw) {
                settleFailureLocked(*job, transient, what);
            } else if (job->deadlineExpired && result.interrupted) {
                // The watchdog raised the stop flag past the deadline and
                // the job yielded at its next block boundary.
                job->state = JobState::TimedOut;
                job->error = "deadline of "
                    + std::to_string(job->spec.deadlineS)
                    + "s expired after " + std::to_string(attempt)
                    + " attempt(s)";
                removeCheckpoints(*job);
                metrics()
                    .counter("service.supervision.deadline_timeouts")
                    .add();
            } else if (result.interrupted
                       && (stopping_ || shutdownRequested())) {
                // Graceful daemon shutdown mid-job: the evaluation
                // checkpointed at its last block boundary. Back to
                // Queued — the restarted daemon resumes it bitwise. The
                // attempt did not crash; it does not count against the
                // quarantine budget.
                job->state = JobState::Queued;
                --job->attempts;
                job->events.clear();
            } else {
                job->state = JobState::Completed;
                removeCheckpoints(*job);
            }
            persistLocked(*job);
            workCv_.notify_all();
            eventCv_.notify_all();
        }
    }
}

void
JobManager::watchdogLoop()
{
    std::unique_lock<std::mutex> lk(mu_);
    while (!stopping_) {
        watchdogCv_.wait_for(
            lk, std::chrono::milliseconds(cfg_.watchdogPollMs));
        if (stopping_)
            return;
        const Clock::time_point now = Clock::now();
        bool wake = false;
        for (const auto& job : jobs_) {
            if (job->state == JobState::Running && !job->deadlineExpired
                && job->spec.deadlineS > 0.0
                && now - job->startedAt
                       >= std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               job->spec.deadlineS))) {
                // Cooperative: raise the stop flag; the worker settles
                // the job as TimedOut when it yields at the next block
                // boundary (or as Completed if it finishes first).
                job->deadlineExpired = true;
                job->stop.store(true, std::memory_order_relaxed);
            }
            if (job->state == JobState::Queued
                && job->notBefore != Clock::time_point{}
                && job->notBefore <= now) {
                // Backoff expired: make the job visible again and wake a
                // worker (nothing else notifies at this instant).
                job->notBefore = Clock::time_point{};
                wake = true;
            }
        }
        if (wake)
            workCv_.notify_all();
    }
}

} // namespace swordfish::service
