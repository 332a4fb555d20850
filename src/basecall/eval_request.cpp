/**
 * @file
 * The serializable request surface: typed error vocabulary, the backend
 * selector check, EvalRequest validation, and the schema-versioned
 * JSON round-trip shared by the CLI entry points, bench drivers, and the
 * swordfishd admission path.
 */

#include "eval_request.h"

#include "util/json.h"
#include "util/logging.h"

namespace swordfish::basecall {

const char*
jobErrorName(JobErrorKind kind)
{
    switch (kind) {
      case JobErrorKind::None: return "none";
      case JobErrorKind::BadJson: return "bad_json";
      case JobErrorKind::BadVersion: return "bad_version";
      case JobErrorKind::MissingField: return "missing_field";
      case JobErrorKind::UnknownField: return "unknown_field";
      case JobErrorKind::BadValue: return "bad_value";
      case JobErrorKind::NoDataset: return "no_dataset";
      case JobErrorKind::BadRuns: return "bad_runs";
      case JobErrorKind::BadBatch: return "bad_batch";
      case JobErrorKind::BadThreads: return "bad_threads";
      case JobErrorKind::BadBeamWidth: return "bad_beam_width";
      case JobErrorKind::BadBackend: return "bad_backend";
      case JobErrorKind::BadCheckpoint: return "bad_checkpoint";
      case JobErrorKind::BadFaultSpec: return "bad_fault_spec";
      case JobErrorKind::BadRefreshSpec: return "bad_refresh_spec";
      case JobErrorKind::BadNoiseSpec: return "bad_noise_spec";
      case JobErrorKind::BadEnsemble: return "bad_ensemble";
      case JobErrorKind::BadDeadline: return "bad_deadline";
      case JobErrorKind::BadAttempts: return "bad_attempts";
      case JobErrorKind::QueueFull: return "queue_full";
      case JobErrorKind::QuotaExceeded: return "quota_exceeded";
      case JobErrorKind::Overloaded: return "overloaded";
      case JobErrorKind::UnknownJob: return "unknown_job";
      case JobErrorKind::Draining: return "draining";
      case JobErrorKind::BadRequest: return "bad_request";
    }
    return "unknown";
}

JobError
checkBackendTokens(const std::string& text)
{
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t sep = text.find_first_of(":,+", pos);
        const std::string token = text.substr(
            pos, sep == std::string::npos ? std::string::npos : sep - pos);
        pos = sep == std::string::npos ? text.size() : sep + 1;
        if (token.empty() || token == "compiled")
            continue; // the only engine, so it selects nothing
        if (token == "interpreter" || token == "interpreted")
            return {JobErrorKind::BadBackend, "backend",
                    "backend token '" + token + "' in '" + text
                        + "' names the interpreter engine, which was "
                          "removed; use 'compiled' or omit the mode"};
        if (token == "digital" || token == "int8" || token == "analytical"
            || token == "measured")
            return {JobErrorKind::BadBackend, "backend",
                    "backend token '" + token + "' in '" + text
                        + "' chooses a backend family, which was removed: "
                          "each evaluation implies its own (digital when "
                          "quantized, else measured or analytical by "
                          "scenario); use 'compiled' or omit it"};
        return {JobErrorKind::BadBackend, "backend",
                "unknown backend token '" + token + "' in '" + text
                    + "' (the only token is 'compiled')"};
    }
    return {};
}

std::vector<JobError>
EvalRequest::validate() const
{
    std::vector<JobError> errors;
    auto add = [&](JobErrorKind kind, const char* field, std::string msg) {
        errors.push_back({kind, field, std::move(msg)});
    };
    if (dataset == nullptr)
        add(JobErrorKind::NoDataset, "dataset",
            "EvalRequest has no dataset");
    if (runs == 0)
        add(JobErrorKind::BadRuns, "runs", "runs must be >= 1");
    if (batch > kMaxBatchCapacity)
        add(JobErrorKind::BadBatch, "batch",
            "batch capacity " + std::to_string(batch)
                + " exceeds the maximum "
                + std::to_string(kMaxBatchCapacity));
    // threads == 0 is a valid override: a zero-worker pool runs serially.
    if (threads != kInheritThreads && threads > kMaxRequestThreads)
        add(JobErrorKind::BadThreads, "threads",
            "thread override must be <= "
                + std::to_string(kMaxRequestThreads) + " (0 = serial)");
    if (decoder == Decoder::Beam && beamWidth == 0)
        add(JobErrorKind::BadBeamWidth, "beam_width",
            "beam decoder requires beam_width >= 1");
    if (JobError err = checkBackendTokens(backend))
        errors.push_back(std::move(err));
    // Bound kept in agreement with core::kMaxEnsembleReplicas (basecall/
    // cannot include core/); a core-side test asserts the two match.
    if (ensembleK == 0 || ensembleK > 16)
        add(JobErrorKind::BadEnsemble, "ensemble_k",
            "ensemble_k must be within [1, 16], got "
                + std::to_string(ensembleK));
    // Note: checkpointEvery without a checkpointPath is legal — it sizes
    // the blocks of a block-mode run without persisting anything.
    return errors;
}

void
requireValid(const EvalRequest& req, const char* where)
{
    const std::vector<JobError> errors = req.validate();
    if (errors.empty())
        return;
    // The CLI failure style: first violation, loudly. Daemon admission
    // reports the full typed list over the wire instead.
    panic(where, ": ", errors.front().message, " [",
          jobErrorName(errors.front().kind), "]");
}

// ---------------------------------------------------------------------------
// JSON round-trip (schema version 1)
// ---------------------------------------------------------------------------

namespace {

constexpr std::int64_t kSchemaVersion = 1;

/** Read a non-negative integral field into a size_t. */
bool
readCount(const JsonValue& v, std::size_t& out)
{
    if (!v.isIntegral() || v.asI64(-1) < 0)
        return false;
    out = static_cast<std::size_t>(v.asU64());
    return true;
}

} // namespace

std::string
EvalRequest::toJson() const
{
    // threads serializes as -1 for "inherit" so the sentinel is readable
    // in spool files; every other count is a plain non-negative integer.
    return JsonWriter()
        .field("version", kSchemaVersion)
        .field("runs", static_cast<std::uint64_t>(runs))
        .field("max_reads", static_cast<std::uint64_t>(maxReads))
        .field("seed_base", seedBase)
        .field("batch", static_cast<std::uint64_t>(batch))
        .field("threads", threads == kInheritThreads
                   ? std::int64_t{-1} : static_cast<std::int64_t>(threads))
        .field("decoder", decoder == Decoder::Beam ? "beam" : "greedy")
        .field("beam_width", static_cast<std::uint64_t>(beamWidth))
        .field("checkpoint_path", checkpointPath)
        .field("checkpoint_every",
               static_cast<std::uint64_t>(checkpointEvery))
        .field("backend", backend)
        .field("ensemble_k", static_cast<std::uint64_t>(ensembleK))
        .field("ensemble_layers", ensembleLayers)
        .str();
}

JobError
EvalRequest::fromJson(const std::string& text, EvalRequest& out)
{
    JsonValue doc;
    if (const JsonError err = JsonValue::parse(text, doc))
        return {JobErrorKind::BadJson, "", err.message};
    return fromJsonValue(doc, out);
}

JobError
EvalRequest::fromJsonValue(const JsonValue& doc, EvalRequest& out)
{
    if (!doc.isObject())
        return {JobErrorKind::BadJson, "",
                "request document must be a JSON object"};
    if (!doc.has("version"))
        return {JobErrorKind::MissingField, "version",
                "missing schema version"};
    const JsonValue& ver = doc.get("version");
    if (!ver.isIntegral() || ver.asI64() != kSchemaVersion)
        return {JobErrorKind::BadVersion, "version",
                "unsupported schema version (expected "
                    + std::to_string(kSchemaVersion) + ")"};

    // Parse into a copy so `out` keeps its runtime-only bindings (dataset
    // pointer, hooks) and is untouched when any field is rejected.
    EvalRequest req = out;
    auto bad = [](const std::string& key) {
        return JobError{JobErrorKind::BadValue, key,
                        "field '" + key + "' has the wrong type or range"};
    };
    for (const auto& [key, value] : doc.members()) {
        if (key == "version") {
            continue;
        } else if (key == "runs") {
            if (!readCount(value, req.runs))
                return bad(key);
        } else if (key == "max_reads") {
            if (!readCount(value, req.maxReads))
                return bad(key);
        } else if (key == "seed_base") {
            // Exact u64: seeds above 2^53 must survive the round-trip.
            if (!value.isIntegral() || value.asDouble(-1.0) < 0.0)
                return bad(key);
            req.seedBase = value.asU64();
        } else if (key == "batch") {
            if (!readCount(value, req.batch))
                return bad(key);
        } else if (key == "threads") {
            if (!value.isIntegral())
                return bad(key);
            const std::int64_t t = value.asI64(-2);
            if (t < -1)
                return bad(key);
            req.threads = t < 0 ? kInheritThreads
                                : static_cast<std::size_t>(t);
        } else if (key == "decoder") {
            if (value.asString() == "greedy")
                req.decoder = Decoder::Greedy;
            else if (value.asString() == "beam")
                req.decoder = Decoder::Beam;
            else
                return bad(key);
        } else if (key == "beam_width") {
            if (!readCount(value, req.beamWidth))
                return bad(key);
        } else if (key == "checkpoint_path") {
            if (!value.isString())
                return bad(key);
            req.checkpointPath = value.asString();
        } else if (key == "checkpoint_every") {
            if (!readCount(value, req.checkpointEvery))
                return bad(key);
        } else if (key == "stop_after_reads") {
            // Records written before this test-only stop was removed
            // always carry it: 0 is the default and resumes; any other
            // count asked for a stop the request can no longer express.
            std::size_t reads = 0;
            if (!readCount(value, reads))
                return bad(key);
            if (reads != 0)
                return {JobErrorKind::BadValue, key,
                        "field 'stop_after_reads' was removed; stop a run "
                        "through its stop flag instead"};
        } else if (key == "int8_kernel") {
            // Records written before the int8 family was removed always
            // carry this key: false is the default and resumes; true asked
            // for the removed backend.
            if (!value.isBool())
                return bad(key);
            if (value.asBool())
                return {JobErrorKind::BadBackend, key,
                        "field 'int8_kernel' asks for the int8 backend, "
                        "which was removed"};
        } else if (key == "backend") {
            if (!value.isString())
                return bad(key);
            req.backend = value.asString();
        } else if (key == "ensemble_k") {
            if (!readCount(value, req.ensembleK))
                return bad(key);
        } else if (key == "ensemble_layers") {
            if (!value.isString())
                return bad(key);
            req.ensembleLayers = value.asString();
        } else {
            return {JobErrorKind::UnknownField, key,
                    "unknown field '" + key + "'"};
        }
    }
    out = std::move(req);
    return {};
}

} // namespace swordfish::basecall
