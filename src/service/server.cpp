#include "server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "service/wire.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/shutdown.h"

namespace swordfish::service {

namespace {

/**
 * Write the full buffer plus newline; false when the peer went away.
 * MSG_NOSIGNAL turns a disconnected peer into EPIPE instead of a
 * process-killing SIGPIPE — a mid-stream client hangup must never take
 * the daemon (and every queued job) down with it.
 */
bool
writeLine(int fd, const std::string& line)
{
    std::string framed = line;
    framed.push_back('\n');
    std::size_t off = 0;
    while (off < framed.size()) {
        const ssize_t n = ::send(fd, framed.data() + off,
                                 framed.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Serve a stream op: forward events as they arrive until the job is done
 * or the daemon shuts down. Uses short manager waits so shutdown and a
 * dead peer are both noticed promptly.
 */
void
serveStream(int fd, JobManager& manager, const WireRequest& req)
{
    std::size_t next = req.from;
    for (;;) {
        std::vector<JobEvent> events;
        bool done = false;
        const basecall::JobError err = manager.stream(
            req.id, next, events, done, std::chrono::milliseconds(250));
        if (err) {
            writeLine(fd, errorResponse(err));
            return;
        }
        for (const JobEvent& ev : events) {
            if (!writeLine(fd, eventResponse(ev)))
                return;
        }
        next += events.size();
        if (done) {
            JobStatus status;
            if (manager.status(req.id, status))
                return;
            writeLine(fd, streamEndResponse(status));
            return;
        }
        if (shutdownRequested())
            return;
    }
}

void
handleRequestLine(int fd, JobManager& manager, const std::string& line)
{
    WireRequest req;
    if (const basecall::JobError err = parseWireRequest(line, req)) {
        writeLine(fd, errorResponse(err));
        return;
    }
    switch (req.op) {
      case WireOp::Ping:
        writeLine(fd, okResponse("op", "ping"));
        break;
      case WireOp::Submit: {
        std::string id;
        if (const basecall::JobError err = manager.submit(req.spec, id))
            writeLine(fd, errorResponse(err));
        else
            writeLine(fd, okResponse("id", id));
        break;
      }
      case WireOp::Status: {
        JobStatus status;
        if (const basecall::JobError err = manager.status(req.id, status))
            writeLine(fd, errorResponse(err));
        else
            writeLine(fd, statusResponse(status));
        break;
      }
      case WireOp::List: {
        std::string jobs = "[";
        bool first = true;
        for (const JobStatus& status : manager.list()) {
            if (!first)
                jobs += ",";
            first = false;
            jobs += status.toJson();
        }
        jobs += "]";
        writeLine(fd,
                  JsonWriter().field("ok", true).raw("jobs", jobs).str());
        break;
      }
      case WireOp::Stream:
        serveStream(fd, manager, req);
        break;
      case WireOp::Cancel: {
        if (const basecall::JobError err = manager.cancel(req.id))
            writeLine(fd, errorResponse(err));
        else
            writeLine(fd, okResponse());
        break;
      }
      case WireOp::Drain:
        manager.drain();
        writeLine(fd, okResponse());
        break;
      case WireOp::Shutdown:
        writeLine(fd, okResponse());
        requestShutdown();
        break;
    }
}

/** One connection: read lines, dispatch, until EOF or shutdown. */
void
serveConnection(int fd, JobManager& manager)
{
    // Chaos: this connection drops after its first request, without a
    // reply — the worst-behaved peer a client can meet. Keyed on the
    // process-lifetime connection ordinal so a chaos run drops the same
    // connections every time.
    static std::atomic<std::uint64_t> connSeq{0};
    const std::uint64_t connKey =
        connSeq.fetch_add(1, std::memory_order_relaxed);
    const FaultInjector& chaos = manager.chaos();
    const bool chaosDrop =
        chaos.enabled() && chaos.fires(FaultSite::ConnDrop, connKey);

    std::string buffer;
    char chunk[4096];
    bool overlong = false;
    bool dropped = false;
    for (;!dropped;) {
        struct pollfd pfd = {fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200);
        if (shutdownRequested())
            break;
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (ready == 0)
            continue;
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0)
            break;
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (;;) {
            const std::size_t nl = buffer.find('\n', start);
            if (nl == std::string::npos)
                break;
            std::string line = buffer.substr(start, nl - start);
            start = nl + 1;
            if (overlong) {
                // The tail of a line already rejected as oversized.
                overlong = false;
                continue;
            }
            if (!line.empty()) {
                if (chaosDrop) {
                    metrics().counter("service.chaos.conn_drops").add();
                    dropped = true;
                    break;
                }
                handleRequestLine(fd, manager, line);
            }
        }
        buffer.erase(0, start);
        if (buffer.size() > kMaxWireLine) {
            // Reject the frame now instead of buffering without bound;
            // everything up to the next newline belongs to it.
            writeLine(fd, errorResponse(
                {basecall::JobErrorKind::BadRequest, "",
                 "request line exceeds "
                     + std::to_string(kMaxWireLine) + " bytes"}));
            buffer.clear();
            overlong = true;
        }
    }
    ::close(fd);
}

} // namespace

bool
runServer(const ServerConfig& cfg, JobManager& manager)
{
    const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) {
        warn("swordfishd: socket(): ", std::strerror(errno));
        return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg.socketPath.size() >= sizeof(addr.sun_path)) {
        warn("swordfishd: socket path too long: ", cfg.socketPath);
        ::close(listen_fd);
        return false;
    }
    std::strncpy(addr.sun_path, cfg.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(cfg.socketPath.c_str()); // replace a stale socket file
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0
        || ::listen(listen_fd, 16) < 0) {
        warn("swordfishd: bind/listen on ", cfg.socketPath, ": ",
             std::strerror(errno));
        ::close(listen_fd);
        return false;
    }
    inform("swordfishd: listening on ", cfg.socketPath);

    // Each connection gets a thread plus a done flag the thread sets on
    // exit; the accept loop reaps finished threads so a long-running
    // daemon does not accumulate one joinable thread per connection ever
    // accepted.
    struct Connection
    {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> done;
    };
    std::vector<Connection> connections;
    const auto reapFinished = [&connections] {
        connections.erase(
            std::remove_if(connections.begin(), connections.end(),
                           [](Connection& c) {
                               if (!c.done->load(std::memory_order_acquire))
                                   return false;
                               c.thread.join();
                               return true;
                           }),
            connections.end());
    };
    while (!shutdownRequested()) {
        struct pollfd pfd = {listen_fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("swordfishd: poll(): ", std::strerror(errno));
            break;
        }
        reapFinished();
        if (ready == 0)
            continue;
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto done = std::make_shared<std::atomic<bool>>(false);
        std::thread thread([fd, &manager, done] {
            serveConnection(fd, manager);
            done->store(true, std::memory_order_release);
        });
        connections.push_back({std::move(thread), std::move(done)});
    }

    // Graceful teardown: no new connections, stop the manager (running
    // jobs checkpoint and re-queue), then join connection threads — their
    // loops observe shutdownRequested() within one poll interval.
    ::close(listen_fd);
    ::unlink(cfg.socketPath.c_str());
    manager.shutdown();
    for (Connection& c : connections)
        c.thread.join();
    inform("swordfishd: shut down cleanly");
    return true;
}

} // namespace swordfish::service
