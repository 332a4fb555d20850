#include "job_spec.h"

#include "basecall/basecaller.h"
#include "basecall/pipeline.h"
#include "core/evaluator.h"
#include "core/health.h"
#include "core/noise_model.h"
#include "genomics/dataset.h"
#include "util/fault.h"
#include "util/logging.h"

namespace swordfish::service {

using basecall::JobError;
using basecall::JobErrorKind;

const char*
jobKindName(JobKind kind)
{
    switch (kind) {
      case JobKind::Eval: return "eval";
      case JobKind::NonIdeal: return "nonideal";
      case JobKind::Quantized: return "quantized";
      case JobKind::Pipeline: return "pipeline";
    }
    return "unknown";
}

bool
parseJobKind(const std::string& name, JobKind& out)
{
    if (name == "eval")
        out = JobKind::Eval;
    else if (name == "nonideal")
        out = JobKind::NonIdeal;
    else if (name == "quantized")
        out = JobKind::Quantized;
    else if (name == "pipeline")
        out = JobKind::Pipeline;
    else
        return false;
    return true;
}

namespace {

/** Wire labels for scenario kinds, index-aligned with the enum list. */
const struct { const char* name; core::NonIdealityKind kind; }
kScenarioKinds[] = {
    {"ideal", core::NonIdealityKind::None},
    {"synaptic_wires", core::NonIdealityKind::SynapticWires},
    {"sense_adc", core::NonIdealityKind::SenseAdc},
    {"dac_driver", core::NonIdealityKind::DacDriver},
    {"combined", core::NonIdealityKind::Combined},
    {"measured", core::NonIdealityKind::Measured},
};

bool
datasetIdKnown(const std::string& id)
{
    for (const genomics::DatasetSpec& spec : genomics::table2Specs()) {
        if (spec.id == id)
            return true;
    }
    return false;
}

} // namespace

bool
parseScenarioKind(const std::string& name, core::NonIdealityKind& out)
{
    for (const auto& entry : kScenarioKinds) {
        if (name == entry.name) {
            out = entry.kind;
            return true;
        }
    }
    return false;
}

std::vector<JobError>
JobSpec::validate() const
{
    std::vector<JobError> errors;
    auto add = [&](JobErrorKind kind, const char* field, std::string msg) {
        errors.push_back({kind, field, std::move(msg)});
    };

    if (!datasetIdKnown(datasetId))
        add(JobErrorKind::BadValue, "dataset.id",
            "unknown dataset id '" + datasetId + "' (Table 2: D1..D4)");
    if (model.convChannels == 0 || model.lstmHidden == 0
        || model.convKernel == 0 || model.convStride == 0)
        add(JobErrorKind::BadValue, "model",
            "model dimensions must all be >= 1");

    core::NonIdealityKind scenario_kind;
    if (!parseScenarioKind(scenarioKind, scenario_kind))
        add(JobErrorKind::BadValue, "scenario.kind",
            "unknown scenario kind '" + scenarioKind
                + "' (ideal, synaptic_wires, sense_adc, dac_driver, "
                  "combined, measured)");
    if (crossbarSize == 0)
        add(JobErrorKind::BadValue, "scenario.size",
            "crossbar size must be >= 1");
    if (remapFraction < 0.0 || remapFraction > 1.0)
        add(JobErrorKind::BadValue, "scenario.remap_fraction",
            "remap fraction must be in [0, 1]");
    if (weightBits < 2 || weightBits > 32 || activationBits < 2
        || activationBits > 32)
        add(JobErrorKind::BadValue, "quant",
            "quantization bits must be in [2, 32]");

    if (!noise.empty()) {
        core::NoiseModel parsed_noise;
        std::string err;
        if (!core::NoiseModel::parse(noise, parsed_noise, err))
            add(JobErrorKind::BadNoiseSpec, "scenario.noise", err);
    }

    if (!(deadlineS >= 0.0) || deadlineS > 1e9)
        add(JobErrorKind::BadDeadline, "deadline_s",
            "deadline must be a finite number of seconds >= 0 (0 = none)");
    if (maxAttempts < 1 || maxAttempts > 100)
        add(JobErrorKind::BadAttempts, "max_attempts",
            "attempt budget must be in [1, 100]");

    if (!faults.empty()) {
        FaultConfig cfg;
        std::string err;
        if (!FaultConfig::parse(faults, cfg, err))
            add(JobErrorKind::BadFaultSpec, "faults", err);
        // A job's injector never consults the daemon's chaos sites, so
        // naming one would be silently inert.
        for (auto i = static_cast<std::size_t>(FaultSite::SpoolWrite);
             i < kFaultSiteCount; ++i) {
            const auto site = static_cast<FaultSite>(i);
            if (cfg.p(site) > 0.0)
                add(JobErrorKind::BadFaultSpec, "faults",
                    std::string("'") + faultSiteName(site)
                        + "' is a daemon chaos site that a job's faults "
                          "never reach; set it through SWORDFISH_CHAOS");
        }
    }
    if (!refresh.empty()) {
        core::RefreshConfig cfg;
        std::string err;
        if (!core::RefreshConfig::parse(refresh, cfg, err))
            add(JobErrorKind::BadRefreshSpec, "refresh", err);
    }

    // A job runs on its runner's pool: resizing that pool joins and
    // replaces it under any sibling job, so a job may not override it.
    if (request.threads != basecall::kInheritThreads)
        add(JobErrorKind::BadThreads, "request.threads",
            "jobs inherit the service thread pool; thread overrides are "
            "not allowed");

    // Request knobs, minus the dataset binding (materialized at run time).
    for (JobError err : request.validate()) {
        if (err.kind == JobErrorKind::NoDataset)
            continue;
        err.field = "request." + err.field;
        errors.push_back(std::move(err));
    }
    return errors;
}

// ---------------------------------------------------------------------------
// JSON round-trip (schema version 1)
// ---------------------------------------------------------------------------

namespace {

constexpr std::int64_t kSchemaVersion = 1;

bool
readCount(const JsonValue& v, std::size_t& out)
{
    if (!v.isIntegral() || v.asI64(-1) < 0)
        return false;
    out = static_cast<std::size_t>(v.asU64());
    return true;
}

bool
readBits(const JsonValue& v, int& out)
{
    if (!v.isIntegral())
        return false;
    const std::int64_t b = v.asI64(-1);
    if (b < 0 || b > 64)
        return false;
    out = static_cast<int>(b);
    return true;
}

JobError
badField(const std::string& key)
{
    return {JobErrorKind::BadValue, key,
            "field '" + key + "' has the wrong type or range"};
}

} // namespace

std::string
JobSpec::toJson() const
{
    const std::string model_json = JsonWriter()
        .field("conv_channels",
               static_cast<std::uint64_t>(model.convChannels))
        .field("conv_kernel", static_cast<std::uint64_t>(model.convKernel))
        .field("conv_stride", static_cast<std::uint64_t>(model.convStride))
        .field("lstm_hidden", static_cast<std::uint64_t>(model.lstmHidden))
        .field("lstm_layers", static_cast<std::uint64_t>(model.lstmLayers))
        .field("init_seed", model.initSeed)
        .str();
    const std::string scenario_json = JsonWriter()
        .field("kind", scenarioKind)
        .field("size", static_cast<std::uint64_t>(crossbarSize))
        .field("remap_fraction", remapFraction)
        .field("weight_bits", weightBits)
        .field("activation_bits", activationBits)
        .field("noise", noise)
        .str();
    const std::string dataset_json = JsonWriter()
        .field("id", datasetId)
        .field("reads", static_cast<std::uint64_t>(datasetReads))
        .str();
    return JsonWriter()
        .field("version", kSchemaVersion)
        .field("kind", jobKindName(kind))
        .field("tenant", tenant)
        .raw("dataset", dataset_json)
        .raw("model", model_json)
        .raw("scenario", scenario_json)
        .field("faults", faults)
        .field("refresh", refresh)
        .field("deadline_s", deadlineS)
        .field("max_attempts", static_cast<std::uint64_t>(maxAttempts))
        .raw("request", request.toJson())
        .str();
}

JobError
JobSpec::fromJsonValue(const JsonValue& doc, JobSpec& out)
{
    if (!doc.isObject())
        return {JobErrorKind::BadJson, "",
                "job spec must be a JSON object"};
    if (!doc.has("version"))
        return {JobErrorKind::MissingField, "version",
                "missing schema version"};
    const JsonValue& ver = doc.get("version");
    if (!ver.isIntegral() || ver.asI64() != kSchemaVersion)
        return {JobErrorKind::BadVersion, "version",
                "unsupported schema version (expected "
                    + std::to_string(kSchemaVersion) + ")"};

    JobSpec spec;
    for (const auto& [key, value] : doc.members()) {
        if (key == "version") {
            continue;
        } else if (key == "kind") {
            if (!parseJobKind(value.asString(), spec.kind))
                return badField(key);
        } else if (key == "tenant") {
            if (!value.isString() || value.asString().empty())
                return badField(key);
            spec.tenant = value.asString();
        } else if (key == "dataset") {
            if (!value.isObject())
                return badField(key);
            for (const auto& [k2, v2] : value.members()) {
                if (k2 == "id") {
                    if (!v2.isString())
                        return badField("dataset.id");
                    spec.datasetId = v2.asString();
                } else if (k2 == "reads") {
                    if (!readCount(v2, spec.datasetReads))
                        return badField("dataset.reads");
                } else {
                    return {JobErrorKind::UnknownField, "dataset." + k2,
                            "unknown field 'dataset." + k2 + "'"};
                }
            }
        } else if (key == "model") {
            if (!value.isObject())
                return badField(key);
            for (const auto& [k2, v2] : value.members()) {
                if (k2 == "conv_channels") {
                    if (!readCount(v2, spec.model.convChannels))
                        return badField("model." + k2);
                } else if (k2 == "conv_kernel") {
                    if (!readCount(v2, spec.model.convKernel))
                        return badField("model." + k2);
                } else if (k2 == "conv_stride") {
                    if (!readCount(v2, spec.model.convStride))
                        return badField("model." + k2);
                } else if (k2 == "lstm_hidden") {
                    if (!readCount(v2, spec.model.lstmHidden))
                        return badField("model." + k2);
                } else if (k2 == "lstm_layers") {
                    if (!readCount(v2, spec.model.lstmLayers))
                        return badField("model." + k2);
                } else if (k2 == "init_seed") {
                    if (!v2.isIntegral() || v2.asDouble(-1.0) < 0.0)
                        return badField("model." + k2);
                    spec.model.initSeed = v2.asU64();
                } else {
                    return {JobErrorKind::UnknownField, "model." + k2,
                            "unknown field 'model." + k2 + "'"};
                }
            }
        } else if (key == "scenario") {
            if (!value.isObject())
                return badField(key);
            for (const auto& [k2, v2] : value.members()) {
                if (k2 == "kind") {
                    if (!v2.isString())
                        return badField("scenario.kind");
                    spec.scenarioKind = v2.asString();
                } else if (k2 == "size") {
                    if (!readCount(v2, spec.crossbarSize))
                        return badField("scenario." + k2);
                } else if (k2 == "remap_fraction") {
                    if (!v2.isNumber())
                        return badField("scenario." + k2);
                    spec.remapFraction = v2.asDouble();
                } else if (k2 == "weight_bits") {
                    if (!readBits(v2, spec.weightBits))
                        return badField("scenario." + k2);
                } else if (k2 == "activation_bits") {
                    if (!readBits(v2, spec.activationBits))
                        return badField("scenario." + k2);
                } else if (k2 == "noise") {
                    if (!v2.isString())
                        return badField("scenario." + k2);
                    spec.noise = v2.asString();
                } else {
                    return {JobErrorKind::UnknownField, "scenario." + k2,
                            "unknown field 'scenario." + k2 + "'"};
                }
            }
        } else if (key == "faults") {
            if (!value.isString())
                return badField(key);
            spec.faults = value.asString();
        } else if (key == "refresh") {
            if (!value.isString())
                return badField(key);
            spec.refresh = value.asString();
        } else if (key == "deadline_s") {
            if (!value.isNumber() || !(value.asDouble() >= 0.0))
                return badField(key);
            spec.deadlineS = value.asDouble();
        } else if (key == "max_attempts") {
            std::size_t attempts = 0;
            if (!readCount(value, attempts) || attempts == 0)
                return badField(key);
            spec.maxAttempts = attempts;
        } else if (key == "request") {
            if (!value.isObject())
                return badField(key);
            if (JobError err =
                    basecall::EvalRequest::fromJson(value.dump(),
                                                    spec.request)) {
                err.field = err.field.empty()
                    ? "request" : "request." + err.field;
                return err;
            }
        } else {
            return {JobErrorKind::UnknownField, key,
                    "unknown field '" + key + "'"};
        }
    }
    out = std::move(spec);
    return {};
}

JobError
JobSpec::fromJson(const std::string& text, JobSpec& out)
{
    JsonValue doc;
    if (const JsonError err = JsonValue::parse(text, doc))
        return {JobErrorKind::BadJson, "", err.message};
    return fromJsonValue(doc, out);
}

std::string
JobResult::toJson() const
{
    return JsonWriter()
        .field("mean", mean)
        .field("stddev", stddev)
        .field("runs", static_cast<std::uint64_t>(runs))
        .field("completed_reads", static_cast<std::uint64_t>(completedReads))
        .field("survivors", static_cast<std::uint64_t>(survivors))
        .field("skipped", static_cast<std::uint64_t>(skipped))
        .field("interrupted", interrupted)
        .str();
}

JobError
JobResult::fromJsonValue(const JsonValue& doc, JobResult& out)
{
    if (!doc.isObject())
        return {JobErrorKind::BadJson, "",
                "job result must be a JSON object"};
    JobResult res;
    for (const auto& [key, value] : doc.members()) {
        if (key == "mean") {
            if (!value.isNumber())
                return badField(key);
            res.mean = value.asDouble();
        } else if (key == "stddev") {
            if (!value.isNumber())
                return badField(key);
            res.stddev = value.asDouble();
        } else if (key == "runs") {
            if (!readCount(value, res.runs))
                return badField(key);
        } else if (key == "completed_reads") {
            if (!readCount(value, res.completedReads))
                return badField(key);
        } else if (key == "survivors") {
            if (!readCount(value, res.survivors))
                return badField(key);
        } else if (key == "skipped") {
            if (!readCount(value, res.skipped))
                return badField(key);
        } else if (key == "interrupted") {
            if (!value.isBool())
                return badField(key);
            res.interrupted = value.asBool();
        } else {
            return {JobErrorKind::UnknownField, key,
                    "unknown field '" + key + "'"};
        }
    }
    out = res;
    return {};
}

JobError
JobResult::fromJson(const std::string& text, JobResult& out)
{
    JsonValue doc;
    if (const JsonError err = JsonValue::parse(text, doc))
        return {JobErrorKind::BadJson, "", err.message};
    return fromJsonValue(doc, out);
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

namespace {

/** The result of a one-run job: what its read loop measured. */
JobResult
singleRunResult(double mean, const basecall::DegradedResult& degraded,
                std::size_t completed_reads, bool interrupted)
{
    JobResult result;
    result.mean = mean;
    result.runs = 1;
    result.completedReads = completed_reads;
    result.survivors = degraded.survivors();
    result.skipped = degraded.skippedReads();
    result.interrupted = interrupted;
    return result;
}

} // namespace

JobResult
runJobSpec(const JobSpec& spec,
           const std::function<void(const basecall::BlockEvent&)>& on_block,
           const std::atomic<bool>* stop_flag,
           const std::string& checkpoint_path)
{
    const std::vector<JobError> errors = spec.validate();
    if (!errors.empty())
        panic("runJobSpec: ", errors.front().message, " [",
              basecall::jobErrorName(errors.front().kind), "]");

    const genomics::PoreModel pore;
    const genomics::Dataset dataset = genomics::makeDataset(
        genomics::specById(spec.datasetId), pore, spec.datasetReads);
    nn::SequenceModel model = basecall::buildBonitoLite(spec.model);

    basecall::EvalRequest req = spec.request;
    req.dataset = &dataset;
    req.onBlock = on_block;
    req.stopFlag = stop_flag;
    if (!checkpoint_path.empty())
        req.checkpointPath = checkpoint_path;
    // validate() passed, so the fault and refresh specs parse.
    std::string spec_error;
    if (!spec.faults.empty())
        FaultConfig::parse(spec.faults, req.faults.emplace(), spec_error);

    JobResult result;
    switch (spec.kind) {
      case JobKind::Eval: {
        const basecall::AccuracyResult acc =
            basecall::evaluateAccuracy(model, req);
        result = singleRunResult(acc.meanIdentity, acc.degraded,
                                 acc.completedReads, acc.interrupted);
        break;
      }
      case JobKind::NonIdeal: {
        core::NonIdealityConfig scenario;
        parseScenarioKind(spec.scenarioKind, scenario.kind);
        scenario.crossbar.size = spec.crossbarSize;
        scenario.quant = QuantConfig{spec.weightBits, spec.activationBits};
        scenario.noise = spec.noise;
        if (!spec.refresh.empty())
            core::RefreshConfig::parse(spec.refresh,
                                       scenario.refresh.emplace(),
                                       spec_error);
        core::SramRemapConfig remap;
        remap.fraction = spec.remapFraction;
        const core::AccuracySummary summary =
            core::evaluateNonIdealAccuracy(model, {scenario, remap}, req);
        result.mean = summary.mean;
        result.stddev = summary.stddev;
        result.runs = summary.runs;
        result.survivors = summary.degraded.survivors();
        result.skipped = summary.degraded.skippedReads();
        result.completedReads = result.survivors + result.skipped;
        result.interrupted = summary.interrupted;
        break;
      }
      case JobKind::Quantized: {
        const QuantConfig quant{spec.weightBits, spec.activationBits};
        const basecall::AccuracyResult acc =
            core::evaluateQuantizedAccuracy(model, quant, req);
        result = singleRunResult(acc.meanIdentity, acc.degraded,
                                 acc.completedReads, acc.interrupted);
        break;
      }
      case JobKind::Pipeline: {
        const basecall::PipelineReport report =
            basecall::runPipeline(model, req);
        result = singleRunResult(report.meanMapIdentity, report.degraded,
                                 report.completedReads, report.interrupted);
        break;
      }
    }
    return result;
}

} // namespace swordfish::service
