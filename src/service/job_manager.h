/**
 * @file
 * JobManager: the daemon's core — typed admission (validation, bounded
 * queue, per-tenant quotas), a FIFO scheduler, a worker pool, per-job
 * progress streams, and a crash-safe spool.
 *
 * Concurrency / determinism contract:
 *  - Jobs are fully isolated: each worker materializes its own dataset,
 *    model, and registry backend (seeded from the spec), and a job's
 *    fault and refresh specs bind onto its own request and scenario, so
 *    any scheduler interleaving produces bitwise-identical per-job
 *    results and any jobs may run side by side.
 *  - The daemon's own chaos sites (service.*) fire from its own injector
 *    (JobManagerConfig::chaos), never from a job's.
 *  - Thread-width overrides are rejected at admission: resizing the global
 *    pool is not safe while sibling jobs share it.
 *
 * Crash safety: every state transition persists the job's spool record
 * atomically; running jobs checkpoint at block boundaries under
 * spool/<id>.ckpt. A daemon killed mid-job re-admits the job on restart
 * and resumes from the checkpoint, bitwise-identical to an uninterrupted
 * run.
 *
 * Supervision (see DESIGN.md §4.15): a watchdog thread enforces per-job
 * wall-clock deadlines cooperatively (stop flag at block boundaries ->
 * TimedOut); exceptions escaping a job never kill a worker — transient
 * ones (TransientJobError) re-queue the job with 2^attempts backoff until
 * its attempt budget runs out, permanent ones fail it; attempt counts are
 * persisted, so a job whose execution crashed the daemon maxAttempts
 * times is quarantined at restart instead of re-admitted (poison-job
 * containment), and unparseable spool records move to spool/quarantine/
 * with a .reason file; an optional queue high-watermark sheds submissions
 * early with a typed Overloaded error carrying a retry-after hint.
 */

#ifndef SWORDFISH_SERVICE_JOB_MANAGER_H
#define SWORDFISH_SERVICE_JOB_MANAGER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/job.h"
#include "util/fault.h"

namespace swordfish::service {

/** Sizing and placement knobs for a JobManager. */
struct JobManagerConfig
{
    std::size_t workers = 1;       ///< concurrent job slots; 0 = admit
                                   ///< only, never run (tests/inspection)
    std::size_t queueCapacity = 16;///< max jobs waiting in Queued
    std::size_t tenantQuota = 8;   ///< max queued+running jobs per tenant
    std::string spoolDir;          ///< "" = no persistence / no checkpoints

    /**
     * Overload shedding: submissions are rejected with a typed Overloaded
     * error (carrying a retry-after hint) once this many jobs are queued.
     * 0 disables shedding, leaving only the hard QueueFull bound; a
     * useful watermark is below queueCapacity so well-behaved clients
     * back off before the queue is actually full.
     */
    std::size_t shedWatermark = 0;

    /** Base of the transient-retry backoff: attempt k (1-based) becomes
     *  eligible again after backoffBaseMs * 2^(k-1). */
    std::size_t backoffBaseMs = 1000;

    /** Deadline-watchdog poll period (also wakes workers whose next job
     *  is waiting out a backoff window). */
    std::size_t watchdogPollMs = 50;

    /** The daemon's chaos campaign: only its service.* sites are read
     *  (spool write/read, job throw/stall, connection drop). */
    FaultConfig chaos = envFaultConfig();
};

class JobManager
{
  public:
    explicit JobManager(JobManagerConfig cfg);
    ~JobManager(); ///< shuts down gracefully if still running

    JobManager(const JobManager&) = delete;
    JobManager& operator=(const JobManager&) = delete;

    /**
     * Re-admit persisted jobs from the spool (call once, before serving).
     * Queued/Running records become Queued again (Running ones resume
     * from their checkpoints); terminal records are kept for status/list.
     * Returns the number of re-admitted jobs.
     */
    std::size_t resumeSpooled();

    /**
     * Validate and enqueue a job. On success fills `id_out` and returns
     * ok; otherwise a typed error (validation, Draining, QueueFull,
     * QuotaExceeded, BadThreads) and no state change.
     */
    basecall::JobError submit(const JobSpec& spec, std::string& id_out);

    /** Request cancellation: a queued job cancels immediately, a running
     *  one stops at its next block boundary. */
    basecall::JobError cancel(const std::string& id);

    basecall::JobError status(const std::string& id, JobStatus& out) const;

    /** All jobs, admission order. */
    std::vector<JobStatus> list() const;

    /**
     * Copy events with seq >= `from` into `out`, waiting up to `wait` for
     * new ones. `done_out` reports whether the job is terminal AND every
     * event has been delivered — the stream's end-of-file condition.
     */
    basecall::JobError stream(const std::string& id, std::size_t from,
                              std::vector<JobEvent>& out, bool& done_out,
                              std::chrono::milliseconds wait);

    /** Stop admitting; queued/running jobs still run to completion. */
    void drain();

    bool draining() const;

    /** The daemon's chaos injector (see JobManagerConfig::chaos). */
    const FaultInjector& chaos() const { return chaos_; }

    /** True when no job is queued or running. */
    bool idle() const;

    /**
     * Graceful shutdown: stop admission, ask running jobs to stop (they
     * checkpoint at the next block boundary), persist them back to
     * Queued, and join the workers. Idempotent.
     */
    void shutdown();

  private:
    using Clock = std::chrono::steady_clock;

    struct Job
    {
        std::string id;
        JobSpec spec;
        JobState state = JobState::Queued;
        JobResult result;
        std::string error;
        std::atomic<bool> stop{false}; ///< per-job cooperative stop
        bool userCancelled = false;    ///< distinguishes Cancelled from
                                       ///< a shutdown re-queue
        bool deadlineExpired = false;  ///< watchdog raised the stop flag
        std::size_t attempts = 0;      ///< execution starts (persisted)
        Clock::time_point notBefore{}; ///< backoff eligibility time
        Clock::time_point startedAt{}; ///< current attempt start
        std::vector<JobEvent> events;
    };

    void workerLoop();
    void watchdogLoop();
    Job* findLocked(const std::string& id);
    const Job* findLocked(const std::string& id) const;
    /** The first eligible queued job, else nullptr. Jobs waiting out a
     *  backoff window are invisible until eligible. */
    Job* runnableHeadLocked();
    void persistLocked(const Job& job);
    void removeCheckpoints(const Job& job);
    /** Move a spool file to spool/quarantine/ with a .reason file. */
    void quarantineSpoolFile(const std::string& path,
                             const std::string& reason);
    /** Classify an execution failure and settle the job (mu_ held). */
    void settleFailureLocked(Job& job, bool transient,
                             const std::string& what);
    std::string checkpointPath(const std::string& id) const;
    std::string spoolPath(const std::string& id) const;
    JobStatus snapshotLocked(const Job& job) const;

    JobManagerConfig cfg_;
    const FaultInjector chaos_;
    mutable std::mutex mu_;
    std::condition_variable workCv_;  ///< workers: runnable head / stop
    std::condition_variable eventCv_; ///< streamers: new events / state
    std::condition_variable watchdogCv_; ///< watchdog: poll tick / stop
                                         ///< (own cv: it must not steal
                                         ///< worker wakeups)
    std::vector<std::unique_ptr<Job>> jobs_; ///< admission order
    std::vector<std::thread> workers_;
    std::thread watchdog_;            ///< deadline/backoff timer thread
    std::uint64_t nextId_ = 1;
    bool draining_ = false;
    bool stopping_ = false;
    bool stopped_ = false;
};

} // namespace swordfish::service

#endif // SWORDFISH_SERVICE_JOB_MANAGER_H
