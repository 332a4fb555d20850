/**
 * @file
 * The swordfishd supervision layer: cooperative deadlines (watchdog ->
 * TimedOut), transient-failure retry with exponential backoff (bitwise
 * identical to a first-try success), poison-job quarantine of crash-loop
 * records at restart, corrupt-spool-record quarantine with operator
 * breadcrumbs, overload shedding with a typed retry-after hint, and
 * daemon survival under dropped spool writes. Chaos is injected through
 * the deterministic FaultInjector service sites, so every scenario here
 * replays identically.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "service/job_manager.h"
#include "service/wire.h"
#include "util/fault.h"
#include "util/json.h"
#include "util/serialize.h"

using namespace swordfish;
using namespace std::chrono_literals;
using basecall::JobError;
using basecall::JobErrorKind;
using service::JobManager;
using service::JobManagerConfig;
using service::JobResult;
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
            break;
        if (service::isTerminal(status.state))
            return status;
        std::this_thread::sleep_for(10ms);
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

/** A chaos config with only the given service site enabled. */
FaultConfig
chaosConfig(FaultSite site, double p, std::uint64_t seed = 1)
{
    FaultConfig cfg;
    cfg.seed = seed;
    cfg.setP(site, p);
    return cfg;
}

/** Forge a spool record the way persistLocked writes one. */
void
forgeRecord(const std::filesystem::path& spool, const std::string& id,
            const char* state, std::size_t attempts,
            const std::string& spec_json)
{
    const std::string record = JsonWriter()
        .field("version", 1)
        .field("id", id)
        .field("state", state)
        .field("attempts", static_cast<std::uint64_t>(attempts))
        .field("error", "")
        .raw("spec", spec_json)
        .raw("result", JobResult{}.toJson())
        .str();
    ASSERT_TRUE(atomicWriteFile((spool / (id + ".json")).string(), record));
}

void
forgeRecord(const std::filesystem::path& spool, const std::string& id,
            const char* state, std::size_t attempts, const JobSpec& spec)
{
    forgeRecord(spool, id, state, attempts, spec.toJson());
}

} // namespace

// ---------------------------------------------------------------------------
// Spec knobs: validation and round-trip
// ---------------------------------------------------------------------------

TEST(Supervision, SpecKnobsValidateTyped)
{
    JobSpec spec = quickSpec();
    spec.deadlineS = -1.0;
    auto errors = spec.validate();
    ASSERT_FALSE(errors.empty());
    EXPECT_EQ(errors.front().kind, JobErrorKind::BadDeadline);

    spec = quickSpec();
    spec.maxAttempts = 0;
    errors = spec.validate();
    ASSERT_FALSE(errors.empty());
    EXPECT_EQ(errors.front().kind, JobErrorKind::BadAttempts);

    spec = quickSpec();
    spec.maxAttempts = 101;
    errors = spec.validate();
    ASSERT_FALSE(errors.empty());
    EXPECT_EQ(errors.front().kind, JobErrorKind::BadAttempts);
}

TEST(Supervision, SpecKnobsRoundTripThroughJson)
{
    JobSpec spec = quickSpec();
    spec.deadlineS = 2.5;
    spec.maxAttempts = 7;
    JobSpec back;
    ASSERT_FALSE(JobSpec::fromJson(spec.toJson(), back));
    EXPECT_EQ(back.deadlineS, 2.5);
    EXPECT_EQ(back.maxAttempts, 7u);
    // Unset knobs keep their defaults through the round-trip.
    JobSpec defaulted;
    ASSERT_FALSE(JobSpec::fromJson(quickSpec().toJson(), defaulted));
    EXPECT_EQ(defaulted.deadlineS, 0.0);
    EXPECT_EQ(defaulted.maxAttempts, 3u);
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST(Supervision, DeadlineExpiryMidBlockTimesOut)
{
    // Chaos-stall every block boundary (150ms each) so a 50ms deadline
    // reliably expires while the job is mid-run.
    JobManagerConfig cfg;
    cfg.chaos = chaosConfig(FaultSite::JobStall, 1.0);
    cfg.spoolDir = freshSpool("sup_deadline").string();
    cfg.watchdogPollMs = 5;
    JobManager manager(cfg);

    JobSpec spec = quickSpec();
    spec.request.checkpointEvery = 1; // more block boundaries to yield at
    spec.deadlineS = 0.05;
    std::string id;
    ASSERT_FALSE(manager.submit(spec, id));

    const JobStatus status = awaitTerminal(manager, id);
    EXPECT_EQ(status.state, JobState::TimedOut);
    EXPECT_TRUE(status.result.interrupted);
    EXPECT_NE(status.error.find("deadline"), std::string::npos)
        << status.error;
    // A second job without a deadline is untouched by the watchdog.
    JobSpec free_spec = quickSpec();
    std::string id2;
    ASSERT_FALSE(manager.submit(free_spec, id2));
    EXPECT_EQ(awaitTerminal(manager, id2).state, JobState::Completed);
}

// ---------------------------------------------------------------------------
// Transient retry / backoff
// ---------------------------------------------------------------------------

TEST(Supervision, TransientFailureRetriesBitwiseIdentical)
{
    // Find a chaos seed where the injected transient failure fires on
    // attempt 1 of j1 but clears on attempt 2 — the schedule is a pure
    // function of (seed, site, key), so this search is deterministic.
    std::uint64_t seed = 0;
    for (std::uint64_t s = 1; s < 10000 && seed == 0; ++s) {
        const FaultInjector probe(chaosConfig(FaultSite::JobThrow, 0.5, s));
        if (probe.fires(FaultSite::JobThrow,
                        FaultInjector::serviceKey("j1@1"))
            && !probe.fires(FaultSite::JobThrow,
                            FaultInjector::serviceKey("j1@2")))
            seed = s;
    }
    ASSERT_NE(seed, 0u) << "no seed fires attempt 1 but not attempt 2";

    // The bitwise reference: the same job, in-process, with no daemon.
    const JobResult reference = service::runJobSpec(quickSpec());

    JobManagerConfig cfg;
    cfg.chaos = chaosConfig(FaultSite::JobThrow, 0.5, seed);
    cfg.spoolDir = freshSpool("sup_retry").string();
    cfg.backoffBaseMs = 1;
    cfg.watchdogPollMs = 5;
    JobManager manager(cfg);

    std::string id;
    ASSERT_FALSE(manager.submit(quickSpec(), id));
    ASSERT_EQ(id, "j1");
    const JobStatus status = awaitTerminal(manager, id);
    EXPECT_EQ(status.state, JobState::Completed);
    EXPECT_EQ(status.attempts, 2u);
    EXPECT_EQ(status.result.completedReads, reference.completedReads);
    EXPECT_EQ(bits(status.result.mean), bits(reference.mean));
}

TEST(Supervision, RetryBudgetExhaustionFailsTyped)
{
    // p=1: every attempt of every job throws; the budget must run out.
    JobManagerConfig cfg;
    cfg.chaos = chaosConfig(FaultSite::JobThrow, 1.0);
    cfg.spoolDir = freshSpool("sup_exhaust").string();
    cfg.backoffBaseMs = 1;
    cfg.watchdogPollMs = 5;
    JobManager manager(cfg);

    JobSpec spec = quickSpec();
    spec.maxAttempts = 2;
    std::string id;
    ASSERT_FALSE(manager.submit(spec, id));
    const JobStatus status = awaitTerminal(manager, id);
    EXPECT_EQ(status.state, JobState::Failed);
    EXPECT_EQ(status.attempts, 2u);
    EXPECT_NE(status.error.find("attempt budget"), std::string::npos)
        << status.error;
    // The manager (and its workers) survived both throws.
    std::string id2;
    ASSERT_FALSE(manager.submit(quickSpec(), id2));
}

// ---------------------------------------------------------------------------
// Poison-job and corrupt-record quarantine
// ---------------------------------------------------------------------------

TEST(Supervision, CrashLoopRecordsQuarantineAtRestart)
{
    const std::filesystem::path spool = freshSpool("sup_poison");
    // j1 crashed the daemon 3 times (= the default budget): poison.
    forgeRecord(spool, "j1", "running", 3, quickSpec());
    // j2 crashed once: re-admitted, attempt count preserved.
    forgeRecord(spool, "j2", "running", 1, quickSpec());

    JobManagerConfig cfg;
    cfg.workers = 0; // admit/inspect only: nothing must actually run
    cfg.spoolDir = spool.string();
    JobManager manager(cfg);
    EXPECT_EQ(manager.resumeSpooled(), 1u);

    JobStatus status;
    ASSERT_FALSE(manager.status("j1", status));
    EXPECT_EQ(status.state, JobState::Quarantined);
    EXPECT_EQ(status.attempts, 3u);
    EXPECT_NE(status.error.find("quarantined"), std::string::npos);
    ASSERT_FALSE(manager.status("j2", status));
    EXPECT_EQ(status.state, JobState::Queued);
    EXPECT_EQ(status.attempts, 1u);

    // The quarantine is persisted: a second restart must not resurrect it.
    JobManager again(cfg);
    EXPECT_EQ(again.resumeSpooled(), 1u);
    ASSERT_FALSE(again.status("j1", status));
    EXPECT_EQ(status.state, JobState::Quarantined);
}

TEST(Supervision, CorruptRecordsMoveToQuarantineWithReason)
{
    const std::filesystem::path spool = freshSpool("sup_corrupt");
    ASSERT_TRUE(atomicWriteFile((spool / "j1.json").string(),
                                "{this is not json"));
    ASSERT_TRUE(atomicWriteFile((spool / "j2.json").string(),
                                "{\"id\":\"evil/../path\",\"state\":"
                                "\"queued\"}"));
    forgeRecord(spool, "j3", "queued", 0, quickSpec());

    JobManagerConfig cfg;
    cfg.workers = 0;
    cfg.spoolDir = spool.string();
    JobManager manager(cfg);
    EXPECT_EQ(manager.resumeSpooled(), 1u); // only the healthy j3

    JobStatus status;
    EXPECT_TRUE(manager.status("j1", status)); // unknown: not silently kept
    ASSERT_FALSE(manager.status("j3", status));
    EXPECT_EQ(status.state, JobState::Queued);

    // Both bad records moved aside, each with a reason breadcrumb.
    for (const char* name : {"j1.json", "j2.json"}) {
        EXPECT_FALSE(std::filesystem::exists(spool / name)) << name;
        EXPECT_TRUE(
            std::filesystem::exists(spool / "quarantine" / name))
            << name;
        EXPECT_TRUE(std::filesystem::exists(
            spool / "quarantine" / (std::string(name) + ".reason")))
            << name;
    }
}

TEST(Supervision, SpooledRemovedBackendTokenFailsTypedAtRestart)
{
    // A queued record written before the interpreter engine or the family
    // choice was removed parses, but no longer validates: the resume path
    // fails it with the typed message instead of handing it to a worker,
    // and persists that.
    for (const char* token : {"interpreter:analytical", "measured"}) {
        SCOPED_TRACE(token);
        const std::filesystem::path spool =
            freshSpool("sup_removed_backend");
        JobSpec spec = quickSpec();
        spec.request.backend = token;
        forgeRecord(spool, "j1", "queued", 0, spec);

        JobManagerConfig cfg;
        cfg.workers = 0;
        cfg.spoolDir = spool.string();
        JobManager manager(cfg);
        EXPECT_EQ(manager.resumeSpooled(), 0u);
        JobStatus status;
        ASSERT_FALSE(manager.status("j1", status));
        EXPECT_EQ(status.state, JobState::Failed);
        EXPECT_NE(status.error.find("removed"), std::string::npos);

        JobManager again(cfg);
        EXPECT_EQ(again.resumeSpooled(), 0u);
        ASSERT_FALSE(again.status("j1", status));
        EXPECT_EQ(status.state, JobState::Failed);
    }
}

TEST(Supervision, ParentFormatRecordResumesBitwise)
{
    // Records written before the int8 family was removed carry
    // "int8_kernel":false in their request. Such a record still resumes,
    // and completes bitwise like a fresh submit of the same spec.
    const JobSpec spec;
    std::string spec_json = spec.toJson();
    if (spec_json.find("\"int8_kernel\"") == std::string::npos) {
        // Where the old writer put it: just before the request's backend.
        const std::size_t request = spec_json.find("\"request\":");
        ASSERT_NE(request, std::string::npos);
        const std::size_t backend =
            spec_json.find("\"backend\":", request);
        ASSERT_NE(backend, std::string::npos);
        spec_json.insert(backend, "\"int8_kernel\":false,");
    }
    ASSERT_NE(spec_json.find("\"int8_kernel\":false"), std::string::npos);

    const std::filesystem::path spool = freshSpool("sup_parent_record");
    forgeRecord(spool, "j1", "queued", 0, spec_json);
    JobManagerConfig cfg;
    cfg.spoolDir = spool.string();
    JobManager manager(cfg);
    EXPECT_EQ(manager.resumeSpooled(), 1u);
    const JobStatus resumed = awaitTerminal(manager, "j1");
    ASSERT_EQ(resumed.state, JobState::Completed) << resumed.error;

    JobManagerConfig fresh_cfg;
    fresh_cfg.spoolDir = freshSpool("sup_parent_fresh").string();
    JobManager fresh(fresh_cfg);
    std::string id;
    ASSERT_FALSE(fresh.submit(spec, id));
    const JobStatus submitted = awaitTerminal(fresh, id);
    ASSERT_EQ(submitted.state, JobState::Completed) << submitted.error;

    EXPECT_EQ(bits(resumed.result.mean), bits(submitted.result.mean));
    EXPECT_EQ(bits(resumed.result.stddev), bits(submitted.result.stddev));
    EXPECT_EQ(resumed.result.runs, submitted.result.runs);
    EXPECT_EQ(resumed.result.survivors, submitted.result.survivors);
    EXPECT_EQ(resumed.result.skipped, submitted.result.skipped);
}

TEST(Supervision, SpooledChaosSiteFaultsFailTypedAtRestart)
{
    // A queued record whose faults name a daemon chaos site (accepted
    // before job faults stopped reaching those sites) fails validation at
    // restart and is persisted Failed with the typed message.
    const std::filesystem::path spool = freshSpool("sup_chaos_site");
    JobSpec spec = quickSpec();
    spec.faults = "service.spool.write=1";
    forgeRecord(spool, "j1", "queued", 0, spec);

    JobManagerConfig cfg;
    cfg.workers = 0;
    cfg.spoolDir = spool.string();
    JobManager manager(cfg);
    EXPECT_EQ(manager.resumeSpooled(), 0u);
    JobStatus status;
    ASSERT_FALSE(manager.status("j1", status));
    EXPECT_EQ(status.state, JobState::Failed);
    EXPECT_NE(status.error.find("SWORDFISH_CHAOS"), std::string::npos)
        << status.error;
}

// ---------------------------------------------------------------------------
// Overload shedding
// ---------------------------------------------------------------------------

TEST(Supervision, ShedWatermarkRejectsTypedWithRetryHint)
{
    JobManagerConfig cfg;
    cfg.workers = 0; // nothing drains: the queue only grows
    cfg.queueCapacity = 16;
    cfg.shedWatermark = 2;
    JobManager manager(cfg);

    std::string id;
    ASSERT_FALSE(manager.submit(quickSpec(), id));
    ASSERT_FALSE(manager.submit(quickSpec(), id));
    const JobError err = manager.submit(quickSpec(), id);
    ASSERT_EQ(err.kind, JobErrorKind::Overloaded);
    EXPECT_GT(err.retryAfterMs, 0u);
    // The hint crosses the wire as a machine-readable field.
    const std::string wire = service::errorResponse(err);
    EXPECT_NE(wire.find("\"error\":\"overloaded\""), std::string::npos)
        << wire;
    EXPECT_NE(wire.find("\"retry_after_ms\":"), std::string::npos) << wire;
}

TEST(Supervision, ShedDisabledKeepsQueueFullSemantics)
{
    JobManagerConfig cfg;
    cfg.workers = 0;
    cfg.queueCapacity = 2; // shedWatermark stays 0: shedding off
    JobManager manager(cfg);

    std::string id;
    ASSERT_FALSE(manager.submit(quickSpec(), id));
    ASSERT_FALSE(manager.submit(quickSpec(), id));
    const JobError err = manager.submit(quickSpec(), id);
    EXPECT_EQ(err.kind, JobErrorKind::QueueFull);
    EXPECT_EQ(err.retryAfterMs, 0u);
}

// ---------------------------------------------------------------------------
// Spool-write chaos: persistence loss must not take the daemon down
// ---------------------------------------------------------------------------

TEST(Supervision, DroppedSpoolWritesDoNotAffectExecution)
{
    JobManagerConfig cfg;
    cfg.chaos = chaosConfig(FaultSite::SpoolWrite, 1.0);
    cfg.spoolDir = freshSpool("sup_spooldrop").string();
    JobManager manager(cfg);

    std::string id;
    ASSERT_FALSE(manager.submit(quickSpec(), id));
    const JobStatus status = awaitTerminal(manager, id);
    EXPECT_EQ(status.state, JobState::Completed);
    EXPECT_GT(status.result.mean, 0.0);
    // Every write was dropped: no record on disk, yet the in-memory
    // lifecycle ran to completion and the manager still answers.
    EXPECT_FALSE(std::filesystem::exists(
        std::filesystem::path(cfg.spoolDir) / (id + ".json")));
}
