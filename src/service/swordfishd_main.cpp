/**
 * @file
 * swordfishd — the basecalling job daemon.
 *
 * Listens on an AF_UNIX socket for newline-delimited JSON requests,
 * runs submitted JobSpecs through a bounded queue + worker pool, and
 * streams per-block progress back to clients. On SIGTERM it checkpoints
 * running jobs and re-queues them; on restart it resumes them from the
 * spool directory, bitwise-identically.
 *
 *   swordfishd --socket /tmp/swordfish.sock --spool /tmp/spool \
 *              [--workers N] [--queue N] [--quota N] [--shed N] \
 *              [--backoff-ms N] [--watchdog-ms N]
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "service/job_manager.h"
#include "service/server.h"
#include "util/logging.h"
#include "util/shutdown.h"

namespace {

void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH --spool DIR [--workers N] "
        "[--queue N] [--quota N] [--shed N] [--backoff-ms N] "
        "[--watchdog-ms N]\n"
        "  --socket PATH    AF_UNIX socket to listen on\n"
        "  --spool DIR      job spool directory (crash-safe state)\n"
        "  --workers N      worker threads (default 1)\n"
        "  --queue N        admission queue capacity (default 16)\n"
        "  --quota N        per-tenant active-job quota (default 8)\n"
        "  --shed N         overload watermark: shed submits once N jobs\n"
        "                   are queued (default: off)\n"
        "  --backoff-ms N   transient-retry backoff base (default 1000)\n"
        "  --watchdog-ms N  deadline watchdog poll period (default 50)\n",
        argv0);
}

bool
parseCount(const char* text, std::size_t& out)
{
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || v == 0)
        return false;
    out = static_cast<std::size_t>(v);
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace swordfish;

    service::JobManagerConfig cfg;
    service::ServerConfig server;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* value = (i + 1 < argc) ? argv[i + 1] : nullptr;
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        }
        if (value == nullptr) {
            std::fprintf(stderr, "swordfishd: %s needs a value\n",
                         arg.c_str());
            usage(argv[0]);
            return 2;
        }
        if (arg == "--socket") {
            server.socketPath = value;
        } else if (arg == "--spool") {
            cfg.spoolDir = value;
        } else if (arg == "--workers") {
            if (!parseCount(value, cfg.workers)) {
                std::fprintf(stderr,
                             "swordfishd: --workers needs a positive "
                             "integer, got '%s'\n",
                             value);
                return 2;
            }
        } else if (arg == "--queue") {
            if (!parseCount(value, cfg.queueCapacity)) {
                std::fprintf(stderr,
                             "swordfishd: --queue needs a positive "
                             "integer, got '%s'\n",
                             value);
                return 2;
            }
        } else if (arg == "--quota") {
            if (!parseCount(value, cfg.tenantQuota)) {
                std::fprintf(stderr,
                             "swordfishd: --quota needs a positive "
                             "integer, got '%s'\n",
                             value);
                return 2;
            }
        } else if (arg == "--shed") {
            if (!parseCount(value, cfg.shedWatermark)) {
                std::fprintf(stderr,
                             "swordfishd: --shed needs a positive "
                             "integer, got '%s'\n",
                             value);
                return 2;
            }
        } else if (arg == "--backoff-ms") {
            if (!parseCount(value, cfg.backoffBaseMs)) {
                std::fprintf(stderr,
                             "swordfishd: --backoff-ms needs a positive "
                             "integer, got '%s'\n",
                             value);
                return 2;
            }
        } else if (arg == "--watchdog-ms") {
            if (!parseCount(value, cfg.watchdogPollMs)) {
                std::fprintf(stderr,
                             "swordfishd: --watchdog-ms needs a positive "
                             "integer, got '%s'\n",
                             value);
                return 2;
            }
        } else {
            std::fprintf(stderr, "swordfishd: unknown option '%s'\n",
                         arg.c_str());
            usage(argv[0]);
            return 2;
        }
        ++i;
    }
    if (server.socketPath.empty() || cfg.spoolDir.empty()) {
        usage(argv[0]);
        return 2;
    }

    // A client that disconnects while we stream to it must not raise a
    // process-killing SIGPIPE; writes already use MSG_NOSIGNAL, this
    // covers any future plain write on a socket.
    std::signal(SIGPIPE, SIG_IGN);
    installShutdownHandler();

    service::JobManager manager(cfg);
    const std::size_t resumed = manager.resumeSpooled();
    if (resumed > 0)
        inform("swordfishd: re-queued ", resumed,
               " interrupted job(s) from spool");

    return service::runServer(server, manager) ? 0 : 1;
}
