/**
 * @file
 * Shared experiment context: lazily builds and disk-caches the expensive
 * artifacts every bench and example needs — the trained FP32 teacher, the
 * training corpus, the four Table 2 datasets, and enhanced (retrained)
 * model variants keyed by their scenario.
 *
 * Artifacts live in the directory named by SWORDFISH_ARTIFACTS (default
 * "artifacts/" under the current working directory); delete it to force
 * retraining. SWORDFISH_FAST=1 shrinks training and evaluation sizes for
 * smoke runs.
 */

#ifndef SWORDFISH_CORE_CONTEXT_H
#define SWORDFISH_CORE_CONTEXT_H

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "basecall/bonito_lite.h"
#include "basecall/chunker.h"
#include "core/enhancer.h"
#include "core/nonideality.h"
#include "genomics/dataset.h"
#include "nn/model.h"

namespace swordfish::core {

/** Lazily-constructed, disk-cached experiment state. */
class ExperimentContext
{
  public:
    /** @param artifact_dir cache directory ("" = env / default) */
    explicit ExperimentContext(std::string artifact_dir = "");

    /** The shared pore model (one flowcell chemistry for everything). */
    const genomics::PoreModel& pore();

    /** The trained FP32 Bonito(Lite) teacher; trains on first use. */
    nn::SequenceModel& teacher();

    /** Training corpus chunks (independent genome from all datasets). */
    const std::vector<basecall::TrainChunk>& trainChunks();

    /** The four Table 2 datasets, materialized once. */
    const std::vector<genomics::Dataset>& datasets();

    /** Dataset by id ("D1".."D4"). */
    const genomics::Dataset& dataset(const std::string& id);

    /**
     * Enhanced model for (technique, scenario), trained on first use and
     * cached on disk under enhancedCacheName(scenario, config).
     */
    EnhancedModel enhanced(const NonIdealityConfig& scenario,
                           const EnhancerConfig& config);

    /**
     * The cache file name of an enhanced model: a readable head naming
     * the figure axes (technique, kind, size, quant bits, write variation,
     * SRAM fraction, epochs) and a digest of every knob that changes the
     * retrained weights, so two scenarios that share the head never share
     * a file.
     */
    static std::string enhancedCacheName(const NonIdealityConfig& scenario,
                                         const EnhancerConfig& config);

    /** FP32 baseline accuracy of dataset index (cached). */
    double baselineAccuracy(std::size_t dataset_index);

    /** Reads evaluated per accuracy measurement (env/fast aware). */
    static std::size_t evalReads();

    /** Noisy instantiations per error-bar measurement (env/fast aware). */
    static std::size_t evalRuns(std::size_t dflt = 5);

    /** BonitoLite architecture used across all experiments. */
    static basecall::BonitoLiteConfig modelConfig();

    /** Teacher training hyperparameters (env/fast aware). */
    static basecall::TrainConfig teacherTrainConfig();

  private:
    std::string cachePath(const std::string& name) const;

    std::string artifactDir_;
    std::optional<genomics::PoreModel> pore_;
    std::optional<nn::SequenceModel> teacher_;
    std::optional<std::vector<basecall::TrainChunk>> chunks_;
    std::optional<std::vector<genomics::Dataset>> datasets_;
    std::unique_ptr<AccuracyEnhancer> enhancer_;
    std::map<std::string, double> baselineAcc_;
};

} // namespace swordfish::core

#endif // SWORDFISH_CORE_CONTEXT_H
