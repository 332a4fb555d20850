/**
 * @file
 * The serializable request surface: EvalRequest / JobSpec JSON round-trips
 * (schema versioning, unknown-field rejection, 64-bit seed exactness),
 * typed validation errors, the CLI-panic / daemon-admission agreement
 * contract, and fuzz-style strictness of the JobSpec and wire-protocol
 * parsers (mangled documents never crash, never leave partial state).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "basecall/eval_request.h"
#include "genomics/dataset.h"
#include "service/job_spec.h"
#include "service/wire.h"
#include "util/json.h"

using namespace swordfish;
using basecall::EvalRequest;
using basecall::JobError;
using basecall::JobErrorKind;
using service::JobSpec;

namespace {

/** First validation error kind, or None when valid. */
template <typename T>
JobErrorKind
firstError(const T& value)
{
    const std::vector<JobError> errors = value.validate();
    return errors.empty() ? JobErrorKind::None : errors.front().kind;
}

/** True when validate() reports the given kind (anywhere in the list). */
template <typename T>
bool
hasError(const T& value, JobErrorKind kind)
{
    const std::vector<JobError> errors = value.validate();
    return std::any_of(errors.begin(), errors.end(),
                       [kind](const JobError& e) { return e.kind == kind; });
}

} // namespace

// ---------------------------------------------------------------------------
// EvalRequest JSON round-trip
// ---------------------------------------------------------------------------

TEST(EvalRequestJson, RoundTripPreservesEveryScalarKnob)
{
    EvalRequest req;
    req.runs = 7;
    req.maxReads = 123;
    req.seedBase = 987654321;
    req.batch = 16;
    req.threads = 2;
    req.decoder = basecall::Decoder::Beam;
    req.beamWidth = 5;
    req.checkpointPath = "/tmp/ck.json";
    req.checkpointEvery = 4;
    req.stopAfterReads = 50;
    req.backend = "compiled";

    EvalRequest back;
    const JobError err = EvalRequest::fromJson(req.toJson(), back);
    ASSERT_FALSE(err) << err.message;
    EXPECT_EQ(back.runs, req.runs);
    EXPECT_EQ(back.maxReads, req.maxReads);
    EXPECT_EQ(back.seedBase, req.seedBase);
    EXPECT_EQ(back.batch, req.batch);
    EXPECT_EQ(back.threads, req.threads);
    EXPECT_EQ(back.decoder, req.decoder);
    EXPECT_EQ(back.beamWidth, req.beamWidth);
    EXPECT_EQ(back.checkpointPath, req.checkpointPath);
    EXPECT_EQ(back.checkpointEvery, req.checkpointEvery);
    EXPECT_EQ(back.stopAfterReads, req.stopAfterReads);
    EXPECT_EQ(back.backend, req.backend);
    // Round-trip fixed point: serialize(parse(serialize(x))) is stable.
    EXPECT_EQ(back.toJson(), req.toJson());
}

TEST(EvalRequestJson, RemovedInt8KeyIsReadButNeverWritten)
{
    // Every record written before the int8 family was removed carries
    // "int8_kernel":false. It still parses and is ignored; true asked for
    // the removed backend and is a typed error; the key is never written.
    EXPECT_EQ(EvalRequest{}.toJson().find("int8_kernel"), std::string::npos);
    EvalRequest out;
    ASSERT_FALSE(EvalRequest::fromJson(
        "{\"version\":1,\"runs\":3,\"int8_kernel\":false}", out));
    EXPECT_EQ(out.runs, 3u);
    EXPECT_EQ(out.toJson(), [] {
        EvalRequest expect;
        expect.runs = 3;
        return expect.toJson();
    }());

    const JobError err = EvalRequest::fromJson(
        "{\"version\":1,\"runs\":5,\"int8_kernel\":true}", out);
    EXPECT_EQ(err.kind, JobErrorKind::BadBackend);
    EXPECT_EQ(err.field, "int8_kernel");
    EXPECT_NE(err.message.find("removed"), std::string::npos);
    EXPECT_EQ(out.runs, 3u); // untouched on failure
    EXPECT_EQ(
        EvalRequest::fromJson("{\"version\":1,\"int8_kernel\":0}", out)
            .kind,
        JobErrorKind::BadValue);
}

TEST(EvalRequestJson, SeedsAbove2Pow53SurviveExactly)
{
    // Doubles lose integers above 2^53; the JSON layer must not.
    EvalRequest req;
    req.seedBase = 0xFFFFFFFFFFFFFFF5ull;
    EvalRequest back;
    ASSERT_FALSE(EvalRequest::fromJson(req.toJson(), back));
    EXPECT_EQ(back.seedBase, 0xFFFFFFFFFFFFFFF5ull);
}

TEST(EvalRequestJson, InheritThreadsSerializesAsMinusOne)
{
    EvalRequest req; // default: kInheritThreads
    EXPECT_NE(req.toJson().find("\"threads\":-1"), std::string::npos);
    EvalRequest back;
    back.threads = 3; // must be overwritten back to the sentinel
    ASSERT_FALSE(EvalRequest::fromJson(req.toJson(), back));
    EXPECT_EQ(back.threads, basecall::kInheritThreads);
}

TEST(EvalRequestJson, StrictSchemaRejections)
{
    EvalRequest out;
    EXPECT_EQ(EvalRequest::fromJson("not json", out).kind,
              JobErrorKind::BadJson);
    EXPECT_EQ(EvalRequest::fromJson("{\"runs\":1}", out).kind,
              JobErrorKind::MissingField);
    EXPECT_EQ(EvalRequest::fromJson("{\"version\":99}", out).kind,
              JobErrorKind::BadVersion);
    EXPECT_EQ(
        EvalRequest::fromJson("{\"version\":1,\"no_such_knob\":3}", out)
            .kind,
        JobErrorKind::UnknownField);
    EXPECT_EQ(
        EvalRequest::fromJson("{\"version\":1,\"runs\":\"three\"}", out)
            .kind,
        JobErrorKind::BadValue);
}

TEST(EvalRequestJson, FailedParseLeavesOutputUntouched)
{
    EvalRequest out;
    out.runs = 42;
    out.backend = "compiled";
    ASSERT_TRUE(EvalRequest::fromJson(
        "{\"version\":1,\"runs\":5,\"bogus\":1}", out));
    EXPECT_EQ(out.runs, 42u);
    EXPECT_EQ(out.backend, "compiled");
}

// ---------------------------------------------------------------------------
// EvalRequest::validate — typed errors, and agreement with requireValid
// ---------------------------------------------------------------------------

TEST(EvalRequestValidate, TypedErrorsPerKnob)
{
    EvalRequest req; // no dataset
    EXPECT_EQ(firstError(req), JobErrorKind::NoDataset);

    req.runs = 0;
    EXPECT_TRUE(hasError(req, JobErrorKind::BadRuns));

    req.runs = 1;
    req.batch = basecall::kMaxBatchCapacity + 1;
    EXPECT_TRUE(hasError(req, JobErrorKind::BadBatch));

    req.batch = 0;
    req.threads = basecall::kMaxRequestThreads + 1;
    EXPECT_TRUE(hasError(req, JobErrorKind::BadThreads));
    req.threads = 0; // zero-worker pool = serial: explicitly legal
    EXPECT_FALSE(hasError(req, JobErrorKind::BadThreads));

    req.decoder = basecall::Decoder::Beam;
    req.beamWidth = 0;
    EXPECT_TRUE(hasError(req, JobErrorKind::BadBeamWidth));

    req.beamWidth = 4;
    req.backend = "warp_drive";
    EXPECT_TRUE(hasError(req, JobErrorKind::BadBackend));
}

TEST(EvalRequestValidate, BackendTokenGrammar)
{
    // Each entry point implies its family, so "compiled" (the one engine)
    // is the only token, and it selects nothing.
    for (const char* text : {"", "compiled", "compiled:compiled", "+,:"}) {
        SCOPED_TRACE(text);
        EXPECT_FALSE(basecall::checkBackendTokens(text));
    }
    const JobError err = basecall::checkBackendTokens("compiled:quantum");
    EXPECT_EQ(err.kind, JobErrorKind::BadBackend);
    EXPECT_EQ(err.field, "backend");
    EXPECT_NE(err.message.find("quantum"), std::string::npos);
}

TEST(EvalRequestValidate, RemovedTokensAreBadBackend)
{
    // The interpreter engine and the choice of family are gone: their
    // tokens are a typed error that says so, never a silent alias.
    const genomics::Dataset dummy{};
    for (const char* text :
         {"interpreter", "interpreted", "interpreter:analytical", "digital",
          "int8", "analytical", "measured", "compiled:measured",
          "int8,digital"}) {
        SCOPED_TRACE(text);
        const JobError err = basecall::checkBackendTokens(text);
        EXPECT_EQ(err.kind, JobErrorKind::BadBackend);
        EXPECT_NE(err.message.find("removed"), std::string::npos);

        EvalRequest req;
        req.dataset = &dummy;
        req.backend = text;
        EXPECT_EQ(firstError(req), JobErrorKind::BadBackend);

        for (const service::JobKind kind :
             {service::JobKind::Eval, service::JobKind::NonIdeal,
              service::JobKind::Quantized, service::JobKind::Pipeline}) {
            JobSpec spec;
            spec.kind = kind;
            spec.request.backend = text;
            EXPECT_EQ(firstError(spec), JobErrorKind::BadBackend);
        }
    }
}

/**
 * The agreement contract: for an invalid request, the CLI panic path
 * (requireValid) dies citing exactly the error kind that daemon admission
 * (validate) reports first — one validator, two failure styles.
 */
TEST(EvalRequestValidateDeathTest, CliPanicAgreesWithTypedValidation)
{
    EvalRequest req; // missing dataset
    ASSERT_EQ(firstError(req), JobErrorKind::NoDataset);
    EXPECT_DEATH(basecall::requireValid(req, "agreement"),
                 basecall::jobErrorName(JobErrorKind::NoDataset));

    const genomics::Dataset dummy{};
    EvalRequest bad_backend;
    bad_backend.dataset = &dummy;
    bad_backend.backend = "warp_drive";
    ASSERT_EQ(firstError(bad_backend), JobErrorKind::BadBackend);
    EXPECT_DEATH(basecall::requireValid(bad_backend, "agreement"),
                 basecall::jobErrorName(JobErrorKind::BadBackend));
}

// ---------------------------------------------------------------------------
// JobSpec
// ---------------------------------------------------------------------------

TEST(JobSpecJson, DefaultsAreValidAndRoundTrip)
{
    JobSpec spec;
    EXPECT_TRUE(spec.validate().empty());
    JobSpec back;
    const JobError err = JobSpec::fromJson(spec.toJson(), back);
    ASSERT_FALSE(err) << err.message;
    EXPECT_EQ(back.toJson(), spec.toJson());
}

TEST(JobSpecJson, RoundTripPreservesEveryField)
{
    JobSpec spec;
    spec.kind = service::JobKind::Quantized;
    spec.tenant = "labA";
    spec.datasetId = "D3";
    spec.datasetReads = 12;
    spec.model.convChannels = 24;
    spec.model.lstmHidden = 40;
    spec.model.initSeed = 0xFEEDFACEFEEDFACEull;
    spec.scenarioKind = "sense_adc";
    spec.crossbarSize = 256;
    spec.remapFraction = 0.25;
    spec.weightBits = 8;
    spec.activationBits = 8;
    spec.noise = "rtn.amp=0.1,cwrite.sigma=0.2,cwrite.len=4";
    spec.faults = "seed=42,decode=0.1";
    spec.refresh = "threshold=0.25,spares=2";
    spec.request.runs = 3;
    spec.request.seedBase = 0xFFFFFFFFFFFFFFF5ull;
    spec.request.backend = "compiled";
    spec.request.ensembleK = 4;
    spec.request.ensembleLayers = "lstm";

    JobSpec back;
    const JobError err = JobSpec::fromJson(spec.toJson(), back);
    ASSERT_FALSE(err) << err.message;
    EXPECT_EQ(back.kind, spec.kind);
    EXPECT_EQ(back.tenant, spec.tenant);
    EXPECT_EQ(back.datasetId, spec.datasetId);
    EXPECT_EQ(back.datasetReads, spec.datasetReads);
    EXPECT_EQ(back.model.convChannels, spec.model.convChannels);
    EXPECT_EQ(back.model.lstmHidden, spec.model.lstmHidden);
    EXPECT_EQ(back.model.initSeed, spec.model.initSeed);
    EXPECT_EQ(back.scenarioKind, spec.scenarioKind);
    EXPECT_EQ(back.crossbarSize, spec.crossbarSize);
    EXPECT_DOUBLE_EQ(back.remapFraction, spec.remapFraction);
    EXPECT_EQ(back.weightBits, spec.weightBits);
    EXPECT_EQ(back.activationBits, spec.activationBits);
    EXPECT_EQ(back.noise, spec.noise);
    EXPECT_EQ(back.faults, spec.faults);
    EXPECT_EQ(back.refresh, spec.refresh);
    EXPECT_EQ(back.request.runs, spec.request.runs);
    EXPECT_EQ(back.request.seedBase, spec.request.seedBase);
    EXPECT_EQ(back.request.ensembleK, spec.request.ensembleK);
    EXPECT_EQ(back.request.ensembleLayers, spec.request.ensembleLayers);
    EXPECT_EQ(back.toJson(), spec.toJson());
}

TEST(JobSpecJson, StrictNestedRejections)
{
    JobSpec valid;
    const std::string good = valid.toJson();
    JobSpec out;
    EXPECT_EQ(JobSpec::fromJson("[1,2]", out).kind, JobErrorKind::BadJson);
    EXPECT_EQ(JobSpec::fromJson("{}", out).kind,
              JobErrorKind::MissingField);
    EXPECT_EQ(JobSpec::fromJson("{\"version\":2}", out).kind,
              JobErrorKind::BadVersion);

    // Unknown fields are rejected at every nesting level, with a dotted
    // path naming the offender.
    JobError err = JobSpec::fromJson(
        "{\"version\":1,\"dataset\":{\"id\":\"D1\",\"oops\":1}}", out);
    EXPECT_EQ(err.kind, JobErrorKind::UnknownField);
    EXPECT_EQ(err.field, "dataset.oops");
    err = JobSpec::fromJson(
        "{\"version\":1,\"request\":{\"version\":1,\"oops\":1}}", out);
    EXPECT_EQ(err.kind, JobErrorKind::UnknownField);
    EXPECT_EQ(err.field, "request.oops");
}

TEST(JobSpecValidate, TypedErrors)
{
    JobSpec spec;
    spec.datasetId = "D9";
    EXPECT_EQ(firstError(spec), JobErrorKind::BadValue);

    spec = JobSpec{};
    spec.scenarioKind = "cosmic_rays";
    EXPECT_EQ(firstError(spec), JobErrorKind::BadValue);

    spec = JobSpec{};
    spec.remapFraction = 1.5;
    EXPECT_EQ(firstError(spec), JobErrorKind::BadValue);

    spec = JobSpec{};
    spec.weightBits = 1;
    EXPECT_EQ(firstError(spec), JobErrorKind::BadValue);

    spec = JobSpec{};
    spec.faults = "decode=notanumber";
    EXPECT_EQ(firstError(spec), JobErrorKind::BadFaultSpec);

    spec = JobSpec{};
    spec.refresh = "no_such_key=1";
    EXPECT_EQ(firstError(spec), JobErrorKind::BadRefreshSpec);

    // Malformed composable-noise specs are typed admission errors with a
    // dotted field path, not worker-side panics.
    spec = JobSpec{};
    spec.noise = "rtn.amp=2";
    {
        const std::vector<JobError> errors = spec.validate();
        ASSERT_FALSE(errors.empty());
        EXPECT_EQ(errors.front().kind, JobErrorKind::BadNoiseSpec);
        EXPECT_EQ(errors.front().field, "scenario.noise");
    }
    spec.noise = "rtn.amp=0.1";
    EXPECT_TRUE(spec.validate().empty());

    // The embedded request's ensemble bound is enforced at admission too.
    spec = JobSpec{};
    spec.request.ensembleK = 0;
    EXPECT_TRUE(hasError(spec, JobErrorKind::BadEnsemble));
    spec.request.ensembleK = 17;
    EXPECT_TRUE(hasError(spec, JobErrorKind::BadEnsemble));
    spec.request.ensembleK = 2;
    EXPECT_TRUE(spec.validate().empty());
}

TEST(JobSpecValidate, FamilyContradictingTheScenarioIsBadBackend)
{
    // The scenario implies the family. A request naming the other one
    // used to pass admission and then abort the daemon in runJobSpec.
    JobSpec spec;
    spec.kind = service::JobKind::NonIdeal;
    spec.scenarioKind = "combined";
    spec.request.backend = "measured";
    EXPECT_EQ(firstError(spec), JobErrorKind::BadBackend);
    spec.scenarioKind = "measured";
    spec.request.backend = "analytical";
    EXPECT_EQ(firstError(spec), JobErrorKind::BadBackend);
    {
        const std::vector<JobError> errors = spec.validate();
        ASSERT_EQ(errors.size(), 1u);
        EXPECT_EQ(errors.front().field, "request.backend");
    }
    spec.request.backend = "compiled";
    EXPECT_TRUE(spec.validate().empty());
}

TEST(JobSpecValidate, RejectsDaemonChaosSitesInJobFaults)
{
    // A job's faults reach only its own evaluation; the daemon's service.*
    // sites fire from SWORDFISH_CHAOS, so a job naming one would be inert.
    JobSpec spec;
    spec.faults = "seed=3,decode=0.1,vmm.nan=0.2";
    EXPECT_TRUE(spec.validate().empty());
    for (const char* site :
         {"service.spool.write", "service.spool.read", "service.job.throw",
          "service.job.stall", "service.conn.drop"}) {
        SCOPED_TRACE(site);
        spec.faults = std::string("decode=0.1,") + site + "=0.5";
        const std::vector<JobError> errors = spec.validate();
        ASSERT_EQ(errors.size(), 1u);
        EXPECT_EQ(errors.front().kind, JobErrorKind::BadFaultSpec);
        EXPECT_EQ(errors.front().field, "faults");
        EXPECT_NE(errors.front().message.find(site), std::string::npos);
        EXPECT_NE(errors.front().message.find("SWORDFISH_CHAOS"),
                  std::string::npos)
            << errors.front().message;
    }
    // Probability zero enables nothing, so there is nothing to reject.
    spec.faults = "service.job.throw=0";
    EXPECT_TRUE(spec.validate().empty());
}

// ---------------------------------------------------------------------------
// Fuzz-style strictness: mangled documents never crash, never leave
// partial state. Deterministic (seeded) so failures reproduce.
// ---------------------------------------------------------------------------

namespace {

std::string
mangle(std::string text, std::mt19937_64& rng)
{
    switch (rng() % 4) {
      case 0: { // truncate
        if (!text.empty())
            text.resize(rng() % text.size());
        break;
      }
      case 1: { // flip one byte
        if (!text.empty())
            text[rng() % text.size()] =
                static_cast<char>(rng() % 256);
        break;
      }
      case 2: { // insert noise
        const char noise[] = "{}[]\",:x0\\";
        text.insert(rng() % (text.size() + 1), 1,
                    noise[rng() % (sizeof(noise) - 1)]);
        break;
      }
      default: { // duplicate a slice
        if (text.size() > 4) {
            const std::size_t at = rng() % (text.size() - 2);
            text.insert(at, text.substr(at, 1 + rng() % 16));
        }
        break;
      }
    }
    return text;
}

} // namespace

TEST(JobSpecFuzz, MangledSpecsNeverCrashOrLeavePartialState)
{
    JobSpec seed_spec;
    seed_spec.request.runs = 3;
    seed_spec.faults = "decode=0.1";
    const std::string pristine = seed_spec.toJson();

    std::mt19937_64 rng(20260808);
    std::size_t rejected = 0;
    for (int i = 0; i < 400; ++i) {
        std::string doc = pristine;
        const int rounds = 1 + static_cast<int>(rng() % 3);
        for (int r = 0; r < rounds; ++r)
            doc = mangle(std::move(doc), rng);

        JobSpec sentinel;
        sentinel.tenant = "sentinel";
        sentinel.datasetId = "D4";
        if (JobSpec::fromJson(doc, sentinel)) {
            ++rejected;
            // No partial state: the output is exactly the sentinel still.
            EXPECT_EQ(sentinel.tenant, "sentinel");
            EXPECT_EQ(sentinel.datasetId, "D4");
        }
    }
    // The mangler must actually be exercising the failure paths.
    EXPECT_GT(rejected, 100u);
}

TEST(WireProtocol, ParsesEveryOp)
{
    service::WireRequest req;
    EXPECT_FALSE(service::parseWireRequest("{\"op\":\"ping\"}", req));
    EXPECT_EQ(req.op, service::WireOp::Ping);
    EXPECT_FALSE(service::parseWireRequest(
        "{\"op\":\"status\",\"id\":\"j7\"}", req));
    EXPECT_EQ(req.op, service::WireOp::Status);
    EXPECT_EQ(req.id, "j7");
    EXPECT_FALSE(service::parseWireRequest(
        "{\"op\":\"stream\",\"id\":\"j7\",\"from\":3}", req));
    EXPECT_EQ(req.from, 3u);

    const std::string submit =
        "{\"op\":\"submit\",\"spec\":" + JobSpec{}.toJson() + "}";
    EXPECT_FALSE(service::parseWireRequest(submit, req));
    EXPECT_EQ(req.op, service::WireOp::Submit);
}

TEST(WireProtocol, TypedRejections)
{
    service::WireRequest req;
    EXPECT_EQ(service::parseWireRequest("", req).kind,
              JobErrorKind::BadRequest);
    EXPECT_EQ(service::parseWireRequest("{\"op\":\"levitate\"}", req).kind,
              JobErrorKind::BadRequest);
    EXPECT_EQ(service::parseWireRequest("{\"op\":\"cancel\"}", req).kind,
              JobErrorKind::BadRequest); // id required
    EXPECT_EQ(service::parseWireRequest("{\"op\":\"submit\"}", req).kind,
              JobErrorKind::BadRequest); // spec required
    EXPECT_EQ(service::parseWireRequest(
                  "{\"op\":\"ping\",\"surprise\":1}", req)
                  .kind,
              JobErrorKind::BadRequest);

    // Oversized frames are rejected whole, before JSON parsing.
    std::string huge = "{\"op\":\"ping\",\"pad\":\"";
    huge.append(service::kMaxWireLine, 'x');
    huge += "\"}";
    EXPECT_EQ(service::parseWireRequest(huge, req).kind,
              JobErrorKind::BadRequest);

    // A bad spec surfaces the nested error with a dotted path.
    const JobError err = service::parseWireRequest(
        "{\"op\":\"submit\",\"spec\":{\"version\":1,\"bogus\":1}}", req);
    EXPECT_EQ(err.kind, JobErrorKind::UnknownField);
    EXPECT_EQ(err.field, "spec.bogus");
}

TEST(WireProtocolFuzz, MangledFramesNeverCrashOrLeavePartialState)
{
    const std::string pristine =
        "{\"op\":\"submit\",\"spec\":" + JobSpec{}.toJson() + "}";
    std::mt19937_64 rng(424242);
    std::size_t rejected = 0;
    for (int i = 0; i < 400; ++i) {
        std::string doc = pristine;
        const int rounds = 1 + static_cast<int>(rng() % 3);
        for (int r = 0; r < rounds; ++r)
            doc = mangle(std::move(doc), rng);

        service::WireRequest out;
        out.id = "sentinel";
        out.from = 99;
        if (service::parseWireRequest(doc, out)) {
            ++rejected;
            EXPECT_EQ(out.id, "sentinel");
            EXPECT_EQ(out.from, 99u);
        }
    }
    EXPECT_GT(rejected, 100u);
}
