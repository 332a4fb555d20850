#include "context.h"

#include <filesystem>
#include <sstream>

#include "basecall/basecaller.h"
#include "basecall/trainer.h"
#include "core/deploy.h"
#include "core/noise_model.h"
#include "util/env.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/timer.h"

namespace swordfish::core {

namespace {

std::string
defaultArtifactDir()
{
    const std::string& dir = runtimeConfig().artifacts;
    return dir.empty() ? std::string("artifacts") : dir;
}

} // namespace

ExperimentContext::ExperimentContext(std::string artifact_dir)
    : artifactDir_(artifact_dir.empty() ? defaultArtifactDir()
                                        : std::move(artifact_dir))
{
    std::error_code ec;
    std::filesystem::create_directories(artifactDir_, ec);
    if (ec)
        warn("ExperimentContext: cannot create ", artifactDir_, ": ",
             ec.message());
}

std::string
ExperimentContext::cachePath(const std::string& name) const
{
    return artifactDir_ + "/" + name;
}

basecall::BonitoLiteConfig
ExperimentContext::modelConfig()
{
    return {};
}

basecall::TrainConfig
ExperimentContext::teacherTrainConfig()
{
    basecall::TrainConfig tc;
    tc.epochs = static_cast<std::size_t>(
        envLong("SWORDFISH_TEACHER_EPOCHS", fastMode() ? 6 : 14));
    return tc;
}

std::size_t
ExperimentContext::evalReads()
{
    const RuntimeConfig& cfg = runtimeConfig();
    if (cfg.evalReads >= 0)
        return static_cast<std::size_t>(cfg.evalReads);
    return cfg.fast ? 4 : 10;
}

std::size_t
ExperimentContext::evalRuns(std::size_t dflt)
{
    const RuntimeConfig& cfg = runtimeConfig();
    if (cfg.evalRuns > 0)
        return static_cast<std::size_t>(cfg.evalRuns);
    return cfg.fast ? std::max<std::size_t>(1, dflt / 2) : dflt;
}

const genomics::PoreModel&
ExperimentContext::pore()
{
    if (!pore_)
        pore_.emplace();
    return *pore_;
}

const std::vector<basecall::TrainChunk>&
ExperimentContext::trainChunks()
{
    if (!chunks_) {
        const std::size_t reads = static_cast<std::size_t>(
            envLong("SWORDFISH_TRAIN_READS", fastMode() ? 16 : 40));
        const genomics::Dataset train =
            genomics::makeTrainingDataset(reads, 400, pore());
        chunks_ = basecall::chunkDataset(train, 256);
        inform("training corpus: ", chunks_->size(), " chunks from ",
               reads, " reads");
    }
    return *chunks_;
}

nn::SequenceModel&
ExperimentContext::teacher()
{
    if (teacher_)
        return *teacher_;

    teacher_ = basecall::buildBonitoLite(modelConfig());
    const std::string path = cachePath("bonito_lite_teacher.bin");
    if (teacher_->load(path)) {
        inform("teacher loaded from ", path);
        return *teacher_;
    }

    inform("training FP32 teacher (one-time, cached to ", path, ")...");
    ScopeTimer timer("teacher training");
    const double loss = basecall::trainCtc(*teacher_, trainChunks(),
                                           teacherTrainConfig());
    inform("teacher trained, final loss ", loss);
    teacher_->save(path);
    return *teacher_;
}

const std::vector<genomics::Dataset>&
ExperimentContext::datasets()
{
    if (!datasets_) {
        datasets_.emplace();
        for (const auto& spec : genomics::table2Specs())
            datasets_->push_back(genomics::makeDataset(spec, pore()));
    }
    return *datasets_;
}

const genomics::Dataset&
ExperimentContext::dataset(const std::string& id)
{
    for (const auto& ds : datasets())
        if (ds.spec.id == id)
            return ds;
    fatal("ExperimentContext::dataset: unknown id ", id);
}

double
ExperimentContext::baselineAccuracy(std::size_t dataset_index)
{
    const auto& ds = datasets().at(dataset_index);
    auto it = baselineAcc_.find(ds.spec.id);
    if (it != baselineAcc_.end())
        return it->second;
    const auto acc = basecall::evaluateAccuracy(teacher(), ds, evalReads());
    baselineAcc_[ds.spec.id] = acc.meanIdentity;
    return acc.meanIdentity;
}

std::string
ExperimentContext::enhancedCacheName(const NonIdealityConfig& scenario,
                                     const EnhancerConfig& config)
{
    // The knobs behind the retrained weights: the tile programming the
    // RSA+KD probe picks its SRAM cells from (device, write variation,
    // wires, the resolved noise composition, the measured library), and
    // the retraining itself. DAC and ADC act only at read time.
    const crossbar::CrossbarConfig& xb = scenario.crossbar;
    const crossbar::LibraryStats& lib = scenario.library;
    const std::string knobs =
        JsonWriter()
            .field("g_min", xb.device.gMin)
            .field("g_max", xb.device.gMax)
            .field("levels", xb.device.conductanceLevels)
            .field("read_v", xb.device.readVoltage)
            .field("sense_v", xb.device.senseMarginV)
            .field("nonlinearity", xb.device.stateNonlinearity)
            .field("scheme", static_cast<int>(xb.scheme))
            .field("verify", xb.verifyIterations)
            .field("wv", xb.writeVariationRate)
            .field("wv_add", xb.writeVariationAddFactor)
            .field("wire", xb.wire.segmentResistanceRatio)
            .field("sneak", xb.wire.sneakCoefficient)
            .field("lib_cell", lib.cellSigma)
            .field("lib_add", lib.cellAddSigma)
            .field("lib_tail_p", lib.cellTailProb)
            .field("lib_tail", lib.cellTailScale)
            .field("lib_gain", lib.columnGainSigma)
            .field("lib_offset", lib.columnOffsetSigma)
            .field("lib_stuck", lib.stuckProb)
            .field("noise", resolveNoiseModel(scenario).describe())
            .field("sram", config.sramFraction)
            .field("lr", static_cast<double>(config.retrainLr))
            .field("seed", config.seed)
            .str();
    std::ostringstream key;
    key << "enh_" << techniqueName(config.technique) << "_"
        << nonIdealityName(scenario.kind) << "_" << xb.size << "_"
        << scenario.quant.weightBits << "-" << scenario.quant.activationBits
        << "_wv" << static_cast<int>(xb.writeVariationRate * 100) << "_sr"
        << static_cast<int>(config.sramFraction * 1000) << "_e"
        << config.retrainEpochs << "_" << std::hex
        << std::hash<std::string>{}(knobs) << ".bin";
    std::string fname = key.str();
    for (char& c : fname)
        if (c == '+')
            c = 'p'; // "RSA+KD" -> filesystem-safe
    return fname;
}

EnhancedModel
ExperimentContext::enhanced(const NonIdealityConfig& scenario,
                            const EnhancerConfig& config)
{
    if (!enhancer_)
        enhancer_ = std::make_unique<AccuracyEnhancer>(teacher(),
                                                       trainChunks());

    const nn::SequenceModel deployed = quantizeModel(teacher(),
                                                     scenario.quant);

    // Techniques that do not retrain are cheap: no disk cache needed.
    if (config.technique == Technique::None
        || config.technique == Technique::Rvw
        || config.technique == Technique::Rsa) {
        return enhancer_->enhance(deployed, scenario, config);
    }
    const std::string path = cachePath(enhancedCacheName(scenario, config));

    // Try the disk cache: rebuild the EnhancedModel scaffolding, then
    // load the retrained weights into it.
    EnhancedModel out = enhancer_->enhance(
        deployed, scenario,
        EnhancerConfig{Technique::None, config.sramFraction, 0,
                       config.retrainLr, config.seed});
    // Reconstruct the scenario modifications the real technique applies.
    if (config.technique == Technique::All) {
        out.evalConfig.crossbar.scheme =
            crossbar::WriteScheme::WriteReadVerify;
        out.remap.fraction = config.sramFraction;
    } else if (config.technique == Technique::RsaKd) {
        out.remap.fraction = config.sramFraction;
    }
    if (out.model.load(path)) {
        debugLog("enhanced model loaded from ", path);
        return out;
    }

    inform("retraining ", techniqueName(config.technique), " for ",
           scenario.describe(), " (cached to ", path, ")");
    EnhancedModel fresh = enhancer_->enhance(deployed, scenario, config);
    fresh.model.save(path);
    return fresh;
}

} // namespace swordfish::core
