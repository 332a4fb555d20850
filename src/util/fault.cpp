#include "fault.h"

#include <sstream>

#include "util/env.h"
#include "util/logging.h"
#include "util/sanitize.h"
#include "util/spec.h"

namespace swordfish {

namespace {

/** Distinct hash tags so site schedules are independent streams. */
constexpr std::uint64_t kFireTag = 0xfa017f17e5ULL;
constexpr std::uint64_t kDrawTag = 0xfa017d7a3ULL;
constexpr std::uint64_t kRetryTag = 0xfa0173e7717ULL;

constexpr const char* kSiteNames[kFaultSiteCount] = {
    "decode", "chunk", "program", "vmm.nan", "vmm.stuck", "task",
    "service.spool.write", "service.spool.read", "service.job.throw",
    "service.job.stall", "service.conn.drop",
};

/** Map a 64-bit hash to a uniform double in [0, 1). */
double
hashToUniform(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

} // namespace

const char*
faultSiteName(FaultSite site)
{
    const auto i = static_cast<std::size_t>(site);
    return i < kFaultSiteCount ? kSiteNames[i] : "?";
}

bool
FaultConfig::anyEnabled() const
{
    for (double p : probability)
        if (p > 0.0)
            return true;
    return false;
}

bool
FaultConfig::parse(const std::string& spec, FaultConfig& out,
                   std::string& error)
{
    FaultConfig cfg;
    const auto on_pair = [&](const std::string& key,
                             const std::string& value) -> bool {
        if (key == "seed") {
            if (!parseU64(value, cfg.seed)) {
                error = "fault spec: bad seed '" + value + "'";
                return false;
            }
            return true;
        }
        if (key == "retries") {
            std::uint64_t n = 0;
            if (!parseU64(value, n) || n > 1000) {
                error = "fault spec: bad retries '" + value + "'";
                return false;
            }
            cfg.maxRetries = static_cast<std::size_t>(n);
            return true;
        }
        for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
            if (key == kSiteNames[i]) {
                double p = 0.0;
                if (!parseFiniteDouble(value, p) || p < 0.0 || p > 1.0) {
                    error = "fault spec: probability of '" + key
                        + "' must be in [0, 1], got '" + value + "'";
                    return false;
                }
                cfg.probability[i] = p;
                return true;
            }
        }
        error = "fault spec: unknown site '" + key + "'";
        return false;
    };
    if (!parseKeyValueSpec(spec, "fault", error, on_pair))
        return false;
    out = cfg;
    return true;
}

std::string
FaultConfig::toJson() const
{
    std::ostringstream os;
    os << "{\"seed\":" << seed << ",\"retries\":" << maxRetries;
    for (std::size_t i = 0; i < kFaultSiteCount; ++i)
        os << ",\"" << kSiteNames[i] << "\":" << probability[i];
    os << "}";
    return os.str();
}

FaultInjector::FaultInjector()
{
    auto* cfg = new FaultConfig();
    // SWORDFISH_CHAOS composes after SWORDFISH_FAULTS: one grammar, one
    // parse, later tokens (including a chaos seed=) win.
    std::string spec = runtimeConfig().faults;
    const std::string& chaos = runtimeConfig().chaos;
    if (!chaos.empty())
        spec += (spec.empty() ? "" : ",") + chaos;
    if (!spec.empty()) {
        std::string error;
        if (!FaultConfig::parse(spec, *cfg, error))
            fatal("SWORDFISH_FAULTS/SWORDFISH_CHAOS: ", error);
    }
    enabled_.store(cfg->anyEnabled(), std::memory_order_relaxed);
    leakIntentionally(cfg);
    cfg_.store(cfg, std::memory_order_release);
}

FaultInjector&
FaultInjector::instance()
{
    // Leaked (like the metrics registry) so worker threads and atexit
    // hooks can always consult it.
    static FaultInjector* injector = [] {
        auto* inj = new FaultInjector();
        leakIntentionally(inj);
        return inj;
    }();
    return *injector;
}

void
FaultInjector::configure(const FaultConfig& cfg)
{
    // Old snapshots are intentionally leaked: reconfiguration happens a
    // handful of times per process (tests, campaign setup) and readers may
    // still hold the previous pointer.
    auto* next = new FaultConfig(cfg);
    leakIntentionally(next);
    cfg_.store(next, std::memory_order_release);
    enabled_.store(next->anyEnabled(), std::memory_order_relaxed);
}

FaultConfig
FaultInjector::config() const
{
    return *cfg_.load(std::memory_order_acquire);
}

std::size_t
FaultInjector::maxRetries() const
{
    return cfg_.load(std::memory_order_acquire)->maxRetries;
}

bool
FaultInjector::fires(FaultSite site, std::uint64_t key) const
{
    const FaultConfig* cfg = cfg_.load(std::memory_order_acquire);
    const double p = cfg->p(site);
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    const std::uint64_t h = hashSeed(
        {cfg->seed, static_cast<std::uint64_t>(site), key, kFireTag});
    return hashToUniform(h) < p;
}

std::uint64_t
FaultInjector::draw(FaultSite site, std::uint64_t key,
                    std::uint64_t n) const
{
    const FaultConfig* cfg = cfg_.load(std::memory_order_acquire);
    const std::uint64_t h = hashSeed(
        {cfg->seed, static_cast<std::uint64_t>(site), key, kDrawTag});
    return n > 0 ? h % n : 0;
}

std::uint64_t
FaultInjector::retryStream(std::uint64_t read_stream, std::size_t attempt)
{
    return hashSeed({read_stream, static_cast<std::uint64_t>(attempt),
                     kRetryTag});
}

std::uint64_t
FaultInjector::serviceKey(const std::string& name)
{
    // FNV-1a, 64-bit: stable across processes (unlike std::hash).
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

FaultInjector&
faultInjector()
{
    return FaultInjector::instance();
}

} // namespace swordfish
