/**
 * @file
 * chaos_smoke — the deterministic chaos drill for swordfishd, run against
 * the real daemon binary (path passed as --daemon by ctest).
 *
 * The daemon runs under a fixed SWORDFISH_CHAOS spec that throws
 * transient job failures, stalls block boundaries, drops connections
 * before dispatch, and drops spool writes; a SIGTERM + restart in the
 * middle of the queue additionally exercises spool-read chaos and the
 * restart quarantine path. The job mix covers every job kind: a NonIdeal
 * job with its own fault campaign and one with its own refresh policy
 * share the daemon's workers with plain evals, a quantized job and a
 * pipeline job. The supervision invariants under all of that:
 *
 *   1. the daemon never dies un-asked;
 *   2. every submitted job reaches a terminal state (or its spool record
 *      was chaos-quarantined at restart and it vanished from the index);
 *   3. every job that Completed produced a result bitwise identical to a
 *      chaos-free in-process run of the same spec, and the fault and
 *      refresh jobs both Completed;
 *   4. the daemon still shuts down cleanly over the wire.
 *
 * Chaos decisions are pure functions of (seed, site, key), so this drill
 * replays the same schedule on every run.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "service/client.h"
#include "service/job_spec.h"
#include "util/fault.h"
#include "util/json.h"

#include "test_util.h"

using namespace swordfish;
using namespace std::chrono_literals;

namespace {

std::string g_daemon_path;

const char* kSocket = "/tmp/swordfish_chaos_smoke/daemon.sock";
const char* kSpool = "/tmp/swordfish_chaos_smoke/spool";

/**
 * The fixed chaos campaign. conn.drop stays well below 1 so a retrying
 * client always gets through eventually; job.throw below the default
 * attempt budget's survival threshold so most jobs complete.
 */
const char* kChaosSpec =
    "seed=1337,service.job.throw=0.35,service.job.stall=0.3,"
    "service.conn.drop=0.2,service.spool.write=0.15,"
    "service.spool.read=0.15";

pid_t
startDaemon()
{
    const pid_t pid = fork();
    if (pid == 0) {
        // The drill pins its own spec: the schedule must not depend on
        // whatever SWORDFISH_CHAOS the invoking environment carries.
        setenv(kChaosEnv, kChaosSpec, 1);
        execl(g_daemon_path.c_str(), g_daemon_path.c_str(), "--socket",
              kSocket, "--spool", kSpool, "--workers", "2", "--queue",
              "16", "--shed", "12", "--backoff-ms", "20", "--watchdog-ms",
              "10", nullptr);
        _exit(127);
    }
    return pid;
}

bool
daemonAlive(pid_t pid)
{
    return waitpid(pid, nullptr, WNOHANG) == 0;
}

/**
 * One request -> one parsed reply, tolerating chaos: a dropped or wedged
 * connection reconnects and resends. Safe for submit too — the daemon's
 * conn.drop chaos severs the connection *before* dispatching the request
 * line, so a retried submit was never half-processed.
 */
bool
chaosRequest(const std::string& request, JsonValue& reply)
{
    for (int attempt = 0; attempt < 100; ++attempt) {
        service::ServiceClient client(kSocket);
        if (!client.connected()) {
            std::this_thread::sleep_for(100ms);
            continue;
        }
        if (!client.sendLine(request)) {
            std::this_thread::sleep_for(50ms);
            continue;
        }
        std::string line;
        if (client.recvLine(line, 10000) != service::RecvStatus::Line) {
            std::this_thread::sleep_for(50ms);
            continue;
        }
        return !JsonValue::parse(line, reply);
    }
    return false;
}

/** Indices of the NonIdeal fault and refresh jobs in chaosSpecs(). */
constexpr std::size_t kFaultsJob = 0;
constexpr std::size_t kRefreshJob = 1;

/**
 * The job mix: a NonIdeal job with a fault campaign and one with a refresh
 * policy, then small evals with distinct seeds, two carrying deadlines,
 * then quantized, pipeline and quantized jobs. Chaos is keyed on job id,
 * so the order fixes each job's schedule; the two NonIdeal jobs come
 * first (j1, j2), where the schedule lets them complete, and the last
 * three (j9..j11) leave the schedules of j1..j8 as they were.
 */
std::vector<service::JobSpec>
chaosSpecs()
{
    std::vector<service::JobSpec> specs;
    for (std::size_t i = 0; i < 2; ++i) {
        service::JobSpec spec;
        spec.kind = service::JobKind::NonIdeal;
        spec.datasetId = "D1";
        spec.datasetReads = 4;
        spec.crossbarSize = 32;
        spec.request.runs = 2;
        spec.request.seedBase = 50 + i;
        spec.request.checkpointEvery = 2;
        if (i == kFaultsJob)
            spec.faults = "seed=21,retries=1,decode=0.25,vmm.stuck=0.5,"
                          "task=0.3";
        else
            spec.refresh = "threshold=0.25,age_h_per_read=50,"
                           "probe_reads=2,spares=2,nu=0.3,nu_sigma=0";
        specs.push_back(spec);
    }
    for (std::size_t i = 0; i < 6; ++i) {
        service::JobSpec spec;
        spec.kind = service::JobKind::Eval;
        spec.datasetId = "D1";
        spec.datasetReads = 4;
        spec.request.runs = 1;
        spec.request.seedBase = 100 + i;
        spec.request.checkpointEvery = 2;
        if (i == 3)
            spec.deadlineS = 30.0; // generous: must still complete
        if (i == 4)
            spec.deadlineS = 0.03; // tight: TimedOut is a valid outcome
        specs.push_back(spec);
    }
    // j9's record reads back corrupt at restart under this seed, so a
    // second quantized job (j11) is the one that can complete after it.
    for (const service::JobKind kind :
         {service::JobKind::Quantized, service::JobKind::Pipeline,
          service::JobKind::Quantized}) {
        service::JobSpec spec;
        spec.kind = kind;
        spec.tenant = "kinds"; // the default tenant's quota is 8 jobs
        spec.datasetId = "D1";
        spec.datasetReads = 4;
        spec.weightBits = 8;
        spec.activationBits = 8;
        spec.request.runs = 1;
        spec.request.seedBase = 200 + specs.size();
        spec.request.checkpointEvery = 2;
        specs.push_back(spec);
    }
    return specs;
}

std::uint64_t
bits(double value)
{
    std::uint64_t out;
    std::memcpy(&out, &value, sizeof(out));
    return out;
}

} // namespace

TEST(ChaosSmoke, SupervisedDaemonSurvivesChaosBitwise)
{
    std::filesystem::remove_all("/tmp/swordfish_chaos_smoke");
    std::filesystem::create_directories(kSpool);

    // In-process references: no daemon, so no chaos site is ever read.
    const std::vector<service::JobSpec> specs = chaosSpecs();
    std::vector<service::JobResult> references;
    for (const service::JobSpec& spec : specs)
        references.push_back(service::runJobSpec(spec));

    pid_t daemon = startDaemon();
    swordfish::testing::ChildGuard guard(daemon);
    ASSERT_GT(daemon, 0);

    // Submit everything, honoring overload shedding if it triggers.
    std::map<std::string, std::size_t> submitted; // job id -> spec index
    for (std::size_t i = 0; i < specs.size(); ++i) {
        JsonValue reply;
        for (int attempt = 0;; ++attempt) {
            ASSERT_TRUE(chaosRequest("{\"op\":\"submit\",\"spec\":"
                                         + specs[i].toJson() + "}",
                                     reply))
                << "submit " << i << " never got a reply";
            if (reply.get("ok").asBool(false))
                break;
            ASSERT_EQ(reply.get("error").asString(), "overloaded")
                << reply.dump();
            ASSERT_LT(attempt, 50) << "shed forever";
            std::this_thread::sleep_for(std::chrono::milliseconds(
                reply.get("retry_after_ms").asU64(100)));
        }
        const std::string id = reply.get("id").asString();
        ASSERT_FALSE(id.empty());
        submitted[id] = i;
        EXPECT_TRUE(daemonAlive(daemon)) << "daemon died during submits";
    }

    // Let the queue make some progress, then kill the daemon mid-flight:
    // the restart replays the spool under spool-read chaos.
    std::this_thread::sleep_for(1500ms);
    ASSERT_TRUE(daemonAlive(daemon)) << "daemon died before SIGTERM";
    ASSERT_EQ(kill(daemon, SIGTERM), 0);
    int wstatus = 0;
    ASSERT_EQ(waitpid(daemon, &wstatus, 0), daemon);
    ASSERT_TRUE(WIFEXITED(wstatus)) << "daemon crashed on SIGTERM";
    EXPECT_EQ(WEXITSTATUS(wstatus), 0);

    daemon = startDaemon();
    guard.arm(daemon);
    ASSERT_GT(daemon, 0);

    // Poll the job index until every submitted job is terminal — or gone,
    // which under spool chaos means its record was quarantined or its
    // (dropped) spool write never survived the restart. The daemon must
    // stay alive throughout.
    const auto until = std::chrono::steady_clock::now() + 180s;
    std::map<std::string, JsonValue> last; // id -> last seen status
    for (;;) {
        ASSERT_LT(std::chrono::steady_clock::now(), until)
            << "jobs did not settle in time";
        ASSERT_TRUE(daemonAlive(daemon)) << "daemon died while settling";
        JsonValue reply;
        ASSERT_TRUE(chaosRequest("{\"op\":\"list\"}", reply));
        last.clear();
        const JsonValue& jobs = reply.get("jobs");
        for (std::size_t i = 0; i < jobs.size(); ++i)
            last[jobs.at(i).get("id").asString()] = jobs.at(i);
        bool settled = true;
        for (const auto& [id, index] : submitted) {
            (void)index;
            const auto it = last.find(id);
            if (it == last.end())
                continue; // vanished: chaos-quarantined record
            const std::string state = it->second.get("state").asString();
            if (state == "queued" || state == "running") {
                settled = false;
                break;
            }
        }
        if (settled)
            break;
        std::this_thread::sleep_for(200ms);
    }

    // Survivors are bitwise-identical to the chaos-free references.
    std::size_t completed = 0;
    for (const auto& [id, index] : submitted) {
        const bool own_settings = index == kFaultsJob || index == kRefreshJob;
        const auto it = last.find(id);
        if (it == last.end()) {
            EXPECT_FALSE(own_settings) << id << " vanished";
            continue;
        }
        const JsonValue& status = it->second;
        const std::string state = status.get("state").asString();
        EXPECT_TRUE(state == "completed" || state == "failed"
                    || state == "timed_out" || state == "quarantined")
            << id << " settled as " << state;
        if (own_settings) {
            EXPECT_EQ(state, "completed") << id << ": " << status.dump();
        }
        if (state != "completed")
            continue;
        ++completed;
        const JsonValue& result = status.get("result");
        EXPECT_EQ(result.get("completed_reads").asU64(),
                  references[index].completedReads)
            << id;
        EXPECT_EQ(bits(result.get("mean").asDouble(0.0)),
                  bits(references[index].mean))
            << id << " diverged from its chaos-free reference";
    }
    // The campaign's probabilities are tuned so chaos cannot wipe out the
    // whole fleet; at least one job must have survived to prove the
    // bitwise comparison actually ran.
    EXPECT_GT(completed, 0u) << "no survivors: chaos spec too hot";

    // Clean wire shutdown, retried until the daemon acts on one: the
    // shutdown connection itself may be chaos-dropped.
    bool exited = false;
    for (int i = 0; i < 200 && !exited; ++i) {
        service::ServiceClient client(kSocket);
        if (client.connected()
            && client.sendLine("{\"op\":\"shutdown\"}")) {
            std::string line;
            client.recvLine(line, 500);
        }
        for (int j = 0; j < 10; ++j) {
            if (waitpid(daemon, &wstatus, WNOHANG) == daemon) {
                exited = true;
                break;
            }
            std::this_thread::sleep_for(50ms);
        }
    }
    ASSERT_TRUE(exited) << "daemon ignored shutdown";
    ASSERT_TRUE(WIFEXITED(wstatus));
    EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

int
main(int argc, char** argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--daemon")
            g_daemon_path = argv[i + 1];
    }
    if (g_daemon_path.empty()) {
        std::fprintf(stderr, "usage: chaos_smoke --daemon <swordfishd>\n");
        return 2;
    }
    return RUN_ALL_TESTS();
}
