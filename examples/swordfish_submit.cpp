/**
 * @file
 * swordfish_submit — example swordfishd client.
 *
 * Builds a JobSpec from a few command-line knobs (or reads one as JSON
 * from a file), submits it to a running daemon, then streams per-block
 * progress until the job finishes and prints the final status.
 *
 *   swordfishd --socket /tmp/swordfish.sock --spool /tmp/spool &
 *   swordfish_submit --socket /tmp/swordfish.sock \
 *       --kind nonideal --dataset D1 --scenario combined --runs 3
 *   swordfish_submit --socket /tmp/swordfish.sock --spec job.json
 */

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>

#include "service/client.h"
#include "service/job_spec.h"
#include "service/wire.h"
#include "util/json.h"

using namespace swordfish;

namespace {

void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH [--spec FILE.json]\n"
        "          [--kind eval|nonideal|quantized|pipeline]\n"
        "          [--dataset D1..D4] [--reads N] [--scenario KIND]\n"
        "          [--crossbar N] [--runs N] [--seed N]\n",
        argv0);
}

bool
sendAndReceive(service::ServiceClient& client, const std::string& request,
               JsonValue& reply)
{
    if (!client.sendLine(request)) {
        std::fprintf(stderr, "swordfish_submit: send failed: %s\n",
                     client.lastError().c_str());
        return false;
    }
    std::string line;
    if (client.recvLine(line, 10000) != service::RecvStatus::Line) {
        std::fprintf(stderr,
                     "swordfish_submit: no reply from daemon (%s)\n",
                     client.lastError().c_str());
        return false;
    }
    if (JsonValue::parse(line, reply)) {
        std::fprintf(stderr, "swordfish_submit: bad reply: %s\n",
                     line.c_str());
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string socket_path;
    std::string spec_file;
    service::JobSpec spec;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        }
        const char* value = (i + 1 < argc) ? argv[i + 1] : nullptr;
        if (value == nullptr) {
            std::fprintf(stderr, "swordfish_submit: %s needs a value\n",
                         arg.c_str());
            return 2;
        }
        if (arg == "--socket")
            socket_path = value;
        else if (arg == "--spec")
            spec_file = value;
        else if (arg == "--kind") {
            service::JobKind kind;
            if (!service::parseJobKind(value, kind)) {
                std::fprintf(stderr,
                             "swordfish_submit: unknown kind '%s'\n",
                             value);
                return 2;
            }
            spec.kind = kind;
        } else if (arg == "--dataset")
            spec.datasetId = value;
        else if (arg == "--reads")
            spec.datasetReads = std::strtoull(value, nullptr, 10);
        else if (arg == "--scenario")
            spec.scenarioKind = value;
        else if (arg == "--crossbar")
            spec.crossbarSize = std::strtoull(value, nullptr, 10);
        else if (arg == "--runs")
            spec.request.runs = std::strtoull(value, nullptr, 10);
        else if (arg == "--seed")
            spec.request.seedBase = std::strtoull(value, nullptr, 10);
        else {
            std::fprintf(stderr, "swordfish_submit: unknown option '%s'\n",
                         arg.c_str());
            usage(argv[0]);
            return 2;
        }
        ++i;
    }
    if (socket_path.empty()) {
        usage(argv[0]);
        return 2;
    }
    if (!spec_file.empty()) {
        std::ifstream in(spec_file);
        if (!in) {
            std::fprintf(stderr, "swordfish_submit: cannot read %s\n",
                         spec_file.c_str());
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        if (const basecall::JobError err =
                service::JobSpec::fromJson(text.str(), spec)) {
            std::fprintf(stderr, "swordfish_submit: bad spec: %s\n",
                         err.message.c_str());
            return 2;
        }
    }

    service::ServiceClient client(socket_path);
    if (!client.connected()) {
        std::fprintf(stderr,
                     "swordfish_submit: cannot connect to %s "
                     "(is swordfishd running?)\n",
                     socket_path.c_str());
        return 1;
    }

    // Submit, honoring overload shedding: the daemon's retry_after_ms
    // hint is scaled by a random jitter factor so a herd of shed clients
    // does not reconverge on the same instant.
    const std::string submit = std::string("{\"op\":\"submit\",\"spec\":")
        + spec.toJson() + "}";
    std::mt19937 rng(static_cast<std::uint32_t>(::getpid()));
    std::uniform_real_distribution<double> jitter(0.5, 1.5);
    JsonValue reply;
    std::string id;
    for (int attempt = 0;; ++attempt) {
        if (!sendAndReceive(client, submit, reply))
            return 1;
        if (reply.get("ok").asBool(false)) {
            id = reply.get("id").asString();
            break;
        }
        if (reply.get("error").asString() == "overloaded" && attempt < 5) {
            const std::uint64_t wait = static_cast<std::uint64_t>(
                static_cast<double>(
                    reply.get("retry_after_ms").asU64(1000))
                * jitter(rng));
            std::fprintf(stderr,
                         "swordfish_submit: daemon overloaded; retrying "
                         "in %llu ms\n",
                         static_cast<unsigned long long>(wait));
            std::this_thread::sleep_for(std::chrono::milliseconds(wait));
            continue;
        }
        std::fprintf(stderr, "swordfish_submit: rejected: %s (%s)\n",
                     reply.get("message").asString().c_str(),
                     reply.get("error").asString().c_str());
        return 1;
    }
    std::printf("submitted %s\n", id.c_str());

    // Stream progress until done. Each reply line is either an event or
    // the terminal done+status line.
    if (!client.sendLine("{\"op\":\"stream\",\"id\":\"" + id
                         + "\",\"from\":0}")) {
        std::fprintf(stderr, "swordfish_submit: send failed\n");
        return 1;
    }
    std::string line;
    while (client.recvLine(line, 120000) == service::RecvStatus::Line) {
        JsonValue msg;
        if (JsonValue::parse(line, msg))
            continue;
        if (!msg.get("ok").asBool(false)) {
            std::fprintf(stderr, "swordfish_submit: stream error: %s\n",
                         msg.get("message").asString().c_str());
            return 1;
        }
        if (msg.has("event")) {
            const JsonValue& ev = msg.get("event");
            std::printf("  run %llu: %llu/%llu reads, identity %.4f\n",
                        static_cast<unsigned long long>(
                            ev.get("run").asU64()),
                        static_cast<unsigned long long>(
                            ev.get("done").asU64()),
                        static_cast<unsigned long long>(
                            ev.get("total").asU64()),
                        ev.get("mean_identity").asDouble(0.0));
            continue;
        }
        if (msg.get("done").asBool(false)) {
            const JsonValue& status = msg.get("status");
            std::printf("%s: %s\n", id.c_str(),
                        status.get("state").asString().c_str());
            if (status.has("result")) {
                const JsonValue& result = status.get("result");
                std::printf("  mean identity %.4f (stddev %.4f, %llu "
                            "run(s))\n",
                            result.get("mean").asDouble(0.0),
                            result.get("stddev").asDouble(0.0),
                            static_cast<unsigned long long>(
                                result.get("runs").asU64()));
            }
            return 0;
        }
    }
    std::fprintf(stderr,
                 "swordfish_submit: stream ended unexpectedly (%s)\n",
                 client.lastError().c_str());
    return 1;
}
