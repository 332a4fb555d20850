/**
 * @file
 * JobManager lifecycle and the daemon determinism contract: typed
 * admission (validation, queue bounds, tenant quotas, thread-override
 * rejection), cancellation of queued and running jobs, ordered progress
 * streams, crash-safe spool persistence with checkpoint resume after a
 * shutdown mid-job, and bitwise agreement between a daemon-run job and the
 * direct CLI-style runJobSpec path across {scalar, avx2}.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/job_manager.h"
#include "tensor/simd.h"
#include "util/fault.h"
#include "util/shutdown.h"

using namespace swordfish;
using namespace std::chrono_literals;
using basecall::JobError;
using basecall::JobErrorKind;
using service::JobManager;
using service::JobManagerConfig;
using service::JobSpec;
using service::JobState;
using service::JobStatus;

namespace {

/** Fresh scratch directory per test (spool + checkpoints). */
std::filesystem::path
freshSpool(const std::string& name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / ("swordfish_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** A small, fast digital-eval job (sub-second on this machine). */
JobSpec
quickSpec()
{
    JobSpec spec;
    spec.kind = service::JobKind::Eval;
    spec.datasetId = "D1";
    spec.datasetReads = 4;
    spec.request.runs = 1;
    spec.request.checkpointEvery = 2;
    return spec;
}

/** Poll status until the job reaches a terminal state (or time out). */
JobStatus
awaitTerminal(JobManager& manager, const std::string& id,
              std::chrono::seconds deadline = 120s)
{
    const auto until = std::chrono::steady_clock::now() + deadline;
    JobStatus status;
    while (std::chrono::steady_clock::now() < until) {
        if (manager.status(id, status))
            break; // unknown id: report whatever we last saw
        if (service::isTerminal(status.state))
            return status;
        std::this_thread::sleep_for(20ms);
    }
    return status;
}

std::uint64_t
bits(double value)
{
    std::uint64_t out;
    std::memcpy(&out, &value, sizeof(out));
    return out;
}

} // namespace

TEST(JobManager, SubmitRunsToCompletion)
{
    JobManagerConfig cfg;
    cfg.spoolDir = freshSpool("jm_complete").string();
    JobManager manager(cfg);

    std::string id;
    const JobError err = manager.submit(quickSpec(), id);
    ASSERT_FALSE(err) << err.message;
    EXPECT_EQ(id, "j1");

    const JobStatus status = awaitTerminal(manager, id);
    EXPECT_EQ(status.state, JobState::Completed);
    EXPECT_EQ(status.result.completedReads, 4u);
    EXPECT_FALSE(status.result.interrupted);
    EXPECT_GT(status.result.mean, 0.0);
    EXPECT_GT(status.events, 0u);
}

TEST(JobManager, AdmissionRejectsInvalidSpecsTyped)
{
    JobManagerConfig cfg;
    cfg.workers = 0; // admission-only: nothing must ever run
    cfg.spoolDir = freshSpool("jm_admission").string();
    JobManager manager(cfg);

    std::string id;
    JobSpec bad = quickSpec();
    bad.datasetId = "D9";
    EXPECT_EQ(manager.submit(bad, id).kind, JobErrorKind::BadValue);

    bad = quickSpec();
    bad.request.runs = 0;
    EXPECT_EQ(manager.submit(bad, id).kind, JobErrorKind::BadRuns);

    // A job inherits its runner's pool: resizing the global pool under
    // sibling jobs is unsafe, so the spec validator (shared by submit,
    // restart and runJobSpec) refuses a thread override.
    bad = quickSpec();
    bad.request.threads = 2;
    ASSERT_FALSE(bad.validate().empty());
    EXPECT_EQ(bad.validate().front().kind, JobErrorKind::BadThreads);
    EXPECT_EQ(manager.submit(bad, id).kind, JobErrorKind::BadThreads);

    // The removed interpreter engine is refused at admission.
    bad = quickSpec();
    bad.request.backend = "interpreter:analytical";
    EXPECT_EQ(manager.submit(bad, id).kind, JobErrorKind::BadBackend);

    EXPECT_TRUE(manager.list().empty());
    EXPECT_TRUE(manager.idle());
}

TEST(JobManager, FamilyContradictingTheScenarioIsRefused)
{
    // A combined-scenario job naming the measured family used to pass
    // admission and then abort the daemon in its worker. It is refused
    // typed, and the manager goes on to complete a plain job.
    JobManagerConfig cfg;
    cfg.spoolDir = freshSpool("jm_family").string();
    JobManager manager(cfg);

    JobSpec bad = quickSpec();
    bad.kind = service::JobKind::NonIdeal;
    bad.scenarioKind = "combined";
    bad.request.backend = "measured";
    std::string id;
    EXPECT_EQ(manager.submit(bad, id).kind, JobErrorKind::BadBackend);

    ASSERT_FALSE(manager.submit(quickSpec(), id));
    EXPECT_EQ(awaitTerminal(manager, id).state, JobState::Completed);
}

TEST(JobManager, QueueBoundsAndTenantQuotas)
{
    JobManagerConfig cfg;
    cfg.workers = 0; // keep everything Queued: bounds are then exact
    cfg.queueCapacity = 3;
    cfg.tenantQuota = 2;
    cfg.spoolDir = freshSpool("jm_bounds").string();
    JobManager manager(cfg);

    std::string id;
    JobSpec spec = quickSpec();
    spec.tenant = "labA";
    ASSERT_FALSE(manager.submit(spec, id));
    ASSERT_FALSE(manager.submit(spec, id));
    EXPECT_EQ(manager.submit(spec, id).kind, JobErrorKind::QuotaExceeded);

    spec.tenant = "labB";
    ASSERT_FALSE(manager.submit(spec, id)); // queue now at capacity 3
    EXPECT_EQ(manager.submit(spec, id).kind, JobErrorKind::QueueFull);

    // A cancelled job frees its queue slot and quota.
    ASSERT_FALSE(manager.cancel("j1"));
    JobStatus status;
    ASSERT_FALSE(manager.status("j1", status));
    EXPECT_EQ(status.state, JobState::Cancelled);
    spec.tenant = "labA";
    EXPECT_FALSE(manager.submit(spec, id));
}

TEST(JobManager, DrainStopsAdmission)
{
    JobManagerConfig cfg;
    cfg.workers = 0;
    cfg.spoolDir = freshSpool("jm_drain").string();
    JobManager manager(cfg);

    EXPECT_FALSE(manager.draining());
    manager.drain();
    EXPECT_TRUE(manager.draining());
    std::string id;
    EXPECT_EQ(manager.submit(quickSpec(), id).kind,
              JobErrorKind::Draining);
}

TEST(JobManager, UnknownIdsAreTyped)
{
    JobManagerConfig cfg;
    cfg.workers = 0;
    cfg.spoolDir = freshSpool("jm_unknown").string();
    JobManager manager(cfg);

    JobStatus status;
    EXPECT_EQ(manager.status("j9", status).kind, JobErrorKind::UnknownJob);
    EXPECT_EQ(manager.cancel("j9").kind, JobErrorKind::UnknownJob);
    std::vector<service::JobEvent> events;
    bool done = false;
    EXPECT_EQ(manager.stream("j9", 0, events, done, 0ms).kind,
              JobErrorKind::UnknownJob);
}

TEST(JobManager, CancelRunningJobStopsAtBlockBoundary)
{
    // Stall every block boundary (150 ms; observe-only) so the cancel
    // below lands while the job is still running.
    JobManagerConfig cfg;
    cfg.spoolDir = freshSpool("jm_cancel_running").string();
    cfg.chaos = FaultConfig{};
    cfg.chaos.setP(FaultSite::JobStall, 1.0);
    JobManager manager(cfg);

    // Every single-run kind basecalls through the one read loop, so each
    // emits progress and yields to the stop flag at a block boundary.
    for (const service::JobKind kind :
         {service::JobKind::Eval, service::JobKind::Quantized,
          service::JobKind::Pipeline}) {
        SCOPED_TRACE(service::jobKindName(kind));
        JobSpec spec = quickSpec();
        spec.kind = kind;
        spec.datasetReads = 16; // long enough to still be running
        spec.request.checkpointEvery = 1;
        std::string id;
        ASSERT_FALSE(manager.submit(spec, id));

        // Wait for the first progress event so the job is provably
        // mid-run.
        std::vector<service::JobEvent> events;
        bool done = false;
        const auto until = std::chrono::steady_clock::now() + 120s;
        while (events.empty() && std::chrono::steady_clock::now() < until)
            ASSERT_FALSE(manager.stream(id, 0, events, done, 250ms));
        ASSERT_FALSE(events.empty());

        ASSERT_FALSE(manager.cancel(id));
        const JobStatus status = awaitTerminal(manager, id);
        EXPECT_EQ(status.state, JobState::Cancelled);
        EXPECT_TRUE(status.result.interrupted);
        EXPECT_LT(status.result.completedReads, 16u);
        // Cancellation must not leave a checkpoint behind.
        EXPECT_FALSE(std::filesystem::exists(
            std::filesystem::path(cfg.spoolDir) / (id + ".ckpt")));
    }
}

TEST(JobManager, StreamDeliversOrderedDenseEvents)
{
    JobManagerConfig cfg;
    cfg.spoolDir = freshSpool("jm_stream").string();
    JobManager manager(cfg);

    JobSpec spec = quickSpec();
    spec.request.checkpointEvery = 1; // one event per read
    std::string id;
    ASSERT_FALSE(manager.submit(spec, id));

    std::vector<service::JobEvent> all;
    bool done = false;
    const auto until = std::chrono::steady_clock::now() + 120s;
    while (!done && std::chrono::steady_clock::now() < until) {
        std::vector<service::JobEvent> batch;
        ASSERT_FALSE(manager.stream(id, all.size(), batch, done, 250ms));
        all.insert(all.end(), batch.begin(), batch.end());
    }
    ASSERT_TRUE(done);
    ASSERT_EQ(all.size(), 4u); // 4 reads, block length 1
    for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(all[i].seq, i); // dense, ordered
        EXPECT_EQ(all[i].block.done, i + 1);
        EXPECT_EQ(all[i].block.total, 4u);
    }

    // Replays from an arbitrary offset work after completion.
    std::vector<service::JobEvent> tail;
    ASSERT_FALSE(manager.stream(id, 2, tail, done, 0ms));
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_EQ(tail[0].seq, 2u);
    EXPECT_TRUE(done);
}

TEST(JobManager, StreamPastEndOfTerminalJobIsDone)
{
    JobManagerConfig cfg;
    cfg.spoolDir = freshSpool("jm_stream_past_end").string();
    JobManager manager(cfg);

    std::string id;
    ASSERT_FALSE(manager.submit(quickSpec(), id));
    const JobStatus status = awaitTerminal(manager, id);
    ASSERT_EQ(status.state, JobState::Completed);

    // A `from` beyond the event log (client typo, or events cleared by a
    // shutdown re-queue) on a finished job must read as end-of-stream,
    // not trap the serving thread in an endless poll loop.
    std::vector<service::JobEvent> events;
    bool done = false;
    ASSERT_FALSE(manager.stream(id, status.events + 5, events, done, 0ms));
    EXPECT_TRUE(events.empty());
    EXPECT_TRUE(done);
}

TEST(JobManager, SpoolPersistsQueuedJobsAcrossRestart)
{
    const std::filesystem::path spool = freshSpool("jm_spool");
    std::string id;
    {
        JobManagerConfig cfg;
        cfg.workers = 0; // job must still be Queued at shutdown
        cfg.spoolDir = spool.string();
        JobManager manager(cfg);
        ASSERT_FALSE(manager.submit(quickSpec(), id));
        manager.shutdown();
    }

    JobManagerConfig cfg;
    cfg.spoolDir = spool.string();
    JobManager manager(cfg);
    EXPECT_EQ(manager.resumeSpooled(), 1u);
    const JobStatus status = awaitTerminal(manager, id);
    EXPECT_EQ(status.state, JobState::Completed);
    EXPECT_EQ(status.id, "j1"); // id survives the restart

    // A new submission continues the id sequence instead of colliding.
    std::string id2;
    ASSERT_FALSE(manager.submit(quickSpec(), id2));
    EXPECT_EQ(id2, "j2");
}

TEST(JobManager, ResumeSkipsSpoolRecordsWithForeignIds)
{
    const std::filesystem::path spool = freshSpool("jm_foreign_id");
    std::string id;
    {
        JobManagerConfig cfg;
        cfg.workers = 0;
        cfg.spoolDir = spool.string();
        JobManager manager(cfg);
        ASSERT_FALSE(manager.submit(quickSpec(), id));
        manager.shutdown();
    }

    // Forge a record whose id is not of the minted "j<N>" shape (as a
    // hand-edited or foreign spool file would be): clone j1's record and
    // rewrite its id.
    {
        std::ifstream in(spool / (id + ".json"));
        std::stringstream buffer;
        buffer << in.rdbuf();
        std::string forged = buffer.str();
        const std::string needle = "\"id\":\"" + id + "\"";
        const std::size_t at = forged.find(needle);
        ASSERT_NE(at, std::string::npos);
        forged.replace(at, needle.size(), "\"id\":\"zzz\"");
        std::ofstream out(spool / "zzz.json");
        out << forged;
    }

    JobManagerConfig cfg;
    cfg.workers = 0;
    cfg.spoolDir = spool.string();
    JobManager manager(cfg);
    // Only the well-formed record is readmitted; the foreign id must not
    // reset the counter and let a fresh submit collide with "zzz".
    EXPECT_EQ(manager.resumeSpooled(), 1u);
    EXPECT_EQ(manager.list().size(), 1u);
    std::string id2;
    ASSERT_FALSE(manager.submit(quickSpec(), id2));
    EXPECT_EQ(id2, "j2");
}

TEST(JobManager, ShutdownMidJobResumesFromCheckpointBitwise)
{
    // An eval or quantized job resumes from its checkpoint; a pipeline
    // job keeps none and reruns from read 0. Either way the restarted
    // job lands on the uninterrupted run's bits.
    for (const service::JobKind kind :
         {service::JobKind::Eval, service::JobKind::Quantized,
          service::JobKind::Pipeline}) {
        SCOPED_TRACE(service::jobKindName(kind));
        // Reference: the same spec run uninterrupted, directly.
        JobSpec spec = quickSpec();
        spec.kind = kind;
        spec.datasetReads = 10;
        spec.request.checkpointEvery = 2;
        spec.request.seedBase = 7;
        const service::JobResult reference = service::runJobSpec(spec);

        const std::filesystem::path spool = freshSpool("jm_resume");
        std::string id;
        {
            // Stall every block boundary (150 ms; observe-only) so the
            // shutdown below lands while the job is still running.
            JobManagerConfig cfg;
            cfg.spoolDir = spool.string();
            cfg.chaos = FaultConfig{};
            cfg.chaos.setP(FaultSite::JobStall, 1.0);
            JobManager manager(cfg);
            ASSERT_FALSE(manager.submit(spec, id));

            // Let it make some progress, then shut the daemon down
            // mid-job.
            std::vector<service::JobEvent> events;
            bool done = false;
            const auto until = std::chrono::steady_clock::now() + 120s;
            while (events.empty()
                   && std::chrono::steady_clock::now() < until)
                ASSERT_FALSE(manager.stream(id, 0, events, done, 250ms));
            ASSERT_FALSE(events.empty());
            manager.shutdown();

            // The interrupted job is re-queued (an eval or quantized job
            // with its checkpoint kept).
            JobStatus status;
            ASSERT_FALSE(manager.status(id, status));
            EXPECT_EQ(status.state, JobState::Queued);
        }

        JobManagerConfig cfg;
        cfg.spoolDir = spool.string();
        JobManager manager(cfg);
        manager.resumeSpooled();
        const JobStatus status = awaitTerminal(manager, id);
        EXPECT_EQ(status.state, JobState::Completed);
        EXPECT_FALSE(status.result.interrupted);
        EXPECT_EQ(status.result.completedReads, reference.completedReads);
        EXPECT_EQ(status.result.survivors, reference.survivors);
        // The resumed run is bitwise identical to the uninterrupted one.
        EXPECT_EQ(bits(status.result.mean), bits(reference.mean));
    }
}

TEST(JobManager, FaultAndRefreshJobsRunConcurrentlyBitwise)
{
    // A job's fault and refresh specs bind onto its own request and
    // scenario, so such jobs share the daemon with any other job and
    // still match their solo runs bit for bit.
    auto nonideal = [](std::uint64_t seed) {
        JobSpec spec;
        spec.kind = service::JobKind::NonIdeal;
        spec.datasetId = "D1";
        spec.datasetReads = 4;
        spec.crossbarSize = 32;
        spec.request.runs = 2;
        spec.request.seedBase = seed;
        spec.request.checkpointEvery = 2;
        return spec;
    };
    JobSpec faults = nonideal(11);
    faults.faults = "seed=21,retries=1,decode=0.25,program=0.2,"
                    "vmm.nan=0.2,vmm.stuck=0.5,task=0.3";
    JobSpec refresh = nonideal(12);
    refresh.refresh = "threshold=0.25,age_h_per_read=50,probe_reads=2,"
                      "spares=2,nu=0.3,nu_sigma=0";
    const std::vector<JobSpec> specs = {faults, refresh, nonideal(13),
                                        nonideal(14)};
    std::vector<service::JobResult> solo;
    for (const JobSpec& spec : specs)
        solo.push_back(service::runJobSpec(spec));
    ASSERT_GT(solo[0].skipped, 0u) << "the fault campaign never fired";

    JobManagerConfig cfg;
    cfg.workers = 4;
    cfg.spoolDir = freshSpool("jm_concurrent").string();
    // Stall every block boundary (150 ms) so the jobs' lifetimes overlap
    // widely.
    cfg.chaos = FaultConfig{};
    cfg.chaos.setP(FaultSite::JobStall, 1.0);
    JobManager manager(cfg);

    std::vector<std::string> ids(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        ASSERT_FALSE(manager.submit(specs[i], ids[i]));

    // list() snapshots every job under one lock: watch for the faults job
    // and the refresh job Running in the same snapshot.
    bool overlapped = false;
    const auto until = std::chrono::steady_clock::now() + 120s;
    for (bool settled = false; !settled;) {
        ASSERT_LT(std::chrono::steady_clock::now(), until);
        std::map<std::string, JobState> state;
        for (const JobStatus& st : manager.list())
            state[st.id] = st.state;
        overlapped = overlapped
            || (state[ids[0]] == JobState::Running
                && state[ids[1]] == JobState::Running);
        settled = true;
        for (const std::string& id : ids)
            settled = settled && service::isTerminal(state[id]);
        std::this_thread::sleep_for(5ms);
    }
    EXPECT_TRUE(overlapped)
        << "the faults and refresh jobs never ran at the same time";

    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(ids[i]);
        const JobStatus status = awaitTerminal(manager, ids[i]);
        ASSERT_EQ(status.state, JobState::Completed) << status.error;
        EXPECT_EQ(bits(status.result.mean), bits(solo[i].mean));
        EXPECT_EQ(bits(status.result.stddev), bits(solo[i].stddev));
        EXPECT_EQ(status.result.survivors, solo[i].survivors);
        EXPECT_EQ(status.result.skipped, solo[i].skipped);
    }
}

/**
 * The tentpole determinism contract: a daemon-submitted job produces
 * bitwise-identical results to the direct CLI-style path — same seed, any
 * scheduler interleaving — across {scalar, avx2}. The daemon adds only
 * observe-only hooks (streaming sink, stop flag, checkpoint path), so not
 * a single bit may move.
 */
TEST(ServiceDeterminism, DaemonJobMatchesDirectRunBitwise)
{
    JobSpec nonideal;
    nonideal.kind = service::JobKind::NonIdeal;
    nonideal.datasetId = "D1";
    nonideal.datasetReads = 4;
    nonideal.scenarioKind = "combined";
    nonideal.crossbarSize = 32;
    nonideal.request.runs = 2;
    nonideal.request.seedBase = 11;
    nonideal.request.checkpointEvery = 2;
    nonideal.request.backend = "compiled";
    JobSpec quantized = nonideal;
    quantized.kind = service::JobKind::Quantized;
    quantized.weightBits = 8;
    quantized.activationBits = 8;
    JobSpec pipeline = nonideal;
    pipeline.kind = service::JobKind::Pipeline;

    std::vector<SimdLevel> levels = {SimdLevel::Scalar};
    if (cpuSupportsAvx2())
        levels.push_back(SimdLevel::Avx2);

    for (const SimdLevel level : levels) {
        SCOPED_TRACE(simdLevelName(level));
        ScopedSimdLevel scoped(level);
        for (const JobSpec& spec : {nonideal, quantized, pipeline}) {
            SCOPED_TRACE(service::jobKindName(spec.kind));
            const service::JobResult direct = service::runJobSpec(spec);

            JobManagerConfig cfg;
            cfg.spoolDir = freshSpool("jm_determinism").string();
            JobManager manager(cfg);
            std::string id;
            ASSERT_FALSE(manager.submit(spec, id));
            const JobStatus status = awaitTerminal(manager, id);
            ASSERT_EQ(status.state, JobState::Completed);

            EXPECT_EQ(bits(status.result.mean), bits(direct.mean));
            EXPECT_EQ(bits(status.result.stddev), bits(direct.stddev));
            EXPECT_EQ(status.result.runs, direct.runs);
            EXPECT_EQ(status.result.completedReads, direct.completedReads);
            EXPECT_EQ(status.result.survivors, direct.survivors);
            EXPECT_EQ(status.result.skipped, direct.skipped);
        }
    }
}
