/**
 * @file
 * End-to-end swordfishd smoke test, run against the real daemon binary
 * over its socket (path passed as --daemon by ctest):
 *
 *   1. start swordfishd, wait for the socket;
 *   2. submit two jobs (worker pool of one: the first runs while the
 *      second queues behind it), cancel the queued one;
 *   3. stream the first job's block events until it is provably mid-run,
 *      then SIGTERM the daemon and verify a clean exit;
 *   4. restart swordfishd on the same spool, verify the interrupted job
 *      resumed from its checkpoint and finished with a final result
 *      bitwise identical to an uninterrupted in-process run;
 *   5. shut the daemon down over the wire.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "service/client.h"
#include "service/job_spec.h"
#include "util/json.h"

#include "test_util.h"

using namespace swordfish;
using namespace std::chrono_literals;

namespace {

std::string g_daemon_path;

const char* kSocket = "/tmp/swordfish_service_smoke/daemon.sock";
const char* kSpool = "/tmp/swordfish_service_smoke/spool";

pid_t
startDaemon()
{
    const pid_t pid = fork();
    if (pid == 0) {
        execl(g_daemon_path.c_str(), g_daemon_path.c_str(), "--socket",
              kSocket, "--spool", kSpool, "--workers", "1", nullptr);
        _exit(127); // exec failed
    }
    return pid;
}

/** Connect with retries while the daemon boots. */
std::unique_ptr<service::ServiceClient>
connectDaemon()
{
    for (int attempt = 0; attempt < 300; ++attempt) {
        auto client = std::make_unique<service::ServiceClient>(kSocket);
        if (client->connected())
            return client;
        std::this_thread::sleep_for(100ms);
    }
    return nullptr;
}

/** One request -> one parsed reply, asserting ok:true. */
JsonValue
roundTrip(service::ServiceClient& client, const std::string& request)
{
    EXPECT_TRUE(client.sendLine(request)) << client.lastError();
    std::string line;
    EXPECT_EQ(client.recvLine(line, 120000), service::RecvStatus::Line)
        << "no reply to " << request << ": " << client.lastError();
    JsonValue reply;
    EXPECT_FALSE(JsonValue::parse(line, reply)) << line;
    EXPECT_TRUE(reply.get("ok").asBool(false)) << line;
    return reply;
}

std::uint64_t
bits(double value)
{
    std::uint64_t out;
    std::memcpy(&out, &value, sizeof(out));
    return out;
}

/** The long job the SIGTERM lands in the middle of: a non-ideal crossbar
 *  evaluation, slow enough per block that the signal reliably arrives
 *  while it is running. */
service::JobSpec
longSpec()
{
    service::JobSpec spec;
    spec.kind = service::JobKind::NonIdeal;
    spec.datasetId = "D1";
    spec.datasetReads = 12;
    spec.scenarioKind = "combined";
    spec.crossbarSize = 64;
    spec.request.runs = 1;
    spec.request.seedBase = 7;
    spec.request.checkpointEvery = 2;
    return spec;
}

} // namespace

TEST(ServiceSmoke, FullDaemonLifecycle)
{
    std::filesystem::remove_all("/tmp/swordfish_service_smoke");
    std::filesystem::create_directories(kSpool);

    // The bitwise reference: the same job, uninterrupted, in-process.
    const service::JobResult reference = service::runJobSpec(longSpec());

    pid_t daemon = startDaemon();
    swordfish::testing::ChildGuard guard(daemon);
    ASSERT_GT(daemon, 0);
    auto client = connectDaemon();
    ASSERT_NE(client, nullptr) << "daemon did not come up";

    roundTrip(*client, "{\"op\":\"ping\"}");

    // Two jobs: jA runs (single worker), jB queues behind it.
    const JsonValue sub_a = roundTrip(
        *client, "{\"op\":\"submit\",\"spec\":" + longSpec().toJson() + "}");
    const std::string job_a = sub_a.get("id").asString();
    ASSERT_FALSE(job_a.empty());
    const JsonValue sub_b = roundTrip(
        *client, "{\"op\":\"submit\",\"spec\":" + longSpec().toJson() + "}");
    const std::string job_b = sub_b.get("id").asString();
    ASSERT_NE(job_b, job_a);

    // Cancel the queued job; its terminal state must be visible at once.
    roundTrip(*client, "{\"op\":\"cancel\",\"id\":\"" + job_b + "\"}");
    const JsonValue cancelled = roundTrip(
        *client, "{\"op\":\"status\",\"id\":\"" + job_b + "\"}");
    EXPECT_EQ(cancelled.get("status").get("state").asString(), "cancelled");

    // Stream jA until at least one block event proves it is mid-run.
    // (A second connection, so the first stays free for control ops.)
    auto streamer = connectDaemon();
    ASSERT_NE(streamer, nullptr);
    ASSERT_TRUE(streamer->sendLine(
        "{\"op\":\"stream\",\"id\":\"" + job_a + "\",\"from\":0}"));
    std::string line;
    bool saw_event = false;
    while (streamer->recvLine(line, 120000) == service::RecvStatus::Line) {
        JsonValue msg;
        ASSERT_FALSE(JsonValue::parse(line, msg)) << line;
        if (msg.has("event")) {
            saw_event = true;
            break;
        }
        if (msg.get("done").asBool(false))
            break; // job won the race and finished: still a valid restart
    }
    EXPECT_TRUE(saw_event) << "no progress event before SIGTERM";

    // SIGTERM mid-job: the daemon checkpoints, re-queues, exits cleanly.
    ASSERT_EQ(kill(daemon, SIGTERM), 0);
    int wstatus = 0;
    ASSERT_EQ(waitpid(daemon, &wstatus, 0), daemon);
    ASSERT_TRUE(WIFEXITED(wstatus));
    EXPECT_EQ(WEXITSTATUS(wstatus), 0);
    client.reset();
    streamer.reset();

    // Restart on the same spool: jA resumes from its checkpoint.
    daemon = startDaemon();
    guard.arm(daemon);
    ASSERT_GT(daemon, 0);
    client = connectDaemon();
    ASSERT_NE(client, nullptr) << "daemon did not restart";

    // The cancelled job's terminal state survived the restart.
    const JsonValue still_cancelled = roundTrip(
        *client, "{\"op\":\"status\",\"id\":\"" + job_b + "\"}");
    EXPECT_EQ(still_cancelled.get("status").get("state").asString(),
              "cancelled");

    // Stream jA to completion and check the final result.
    ASSERT_TRUE(client->sendLine(
        "{\"op\":\"stream\",\"id\":\"" + job_a + "\",\"from\":0}"));
    JsonValue final_status;
    while (client->recvLine(line, 120000) == service::RecvStatus::Line) {
        JsonValue msg;
        ASSERT_FALSE(JsonValue::parse(line, msg)) << line;
        ASSERT_TRUE(msg.get("ok").asBool(false)) << line;
        if (msg.get("done").asBool(false)) {
            final_status = msg.get("status");
            break;
        }
    }
    ASSERT_TRUE(final_status.isObject()) << "stream ended without status";
    EXPECT_EQ(final_status.get("state").asString(), "completed");
    const JsonValue& result = final_status.get("result");
    EXPECT_FALSE(result.get("interrupted").asBool(true));
    EXPECT_EQ(result.get("completed_reads").asU64(),
              reference.completedReads);
    // Checkpoint resume is bitwise: the interrupted-and-resumed job ends
    // with exactly the reference mean.
    EXPECT_EQ(bits(result.get("mean").asDouble(0.0)),
              bits(reference.mean));

    // Clean wire-protocol shutdown.
    roundTrip(*client, "{\"op\":\"shutdown\"}");
    ASSERT_EQ(waitpid(daemon, &wstatus, 0), daemon);
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
        std::fprintf(stderr, "usage: service_smoke --daemon <swordfishd>\n");
        return 2;
    }
    return RUN_ALL_TESTS();
}
