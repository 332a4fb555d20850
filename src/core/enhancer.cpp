#include "enhancer.h"

#include <cmath>

#include "core/deploy.h"
#include "nn/ctc.h"
#include "util/logging.h"

namespace swordfish::core {

namespace {

/**
 * Temporarily replaces VMM weights with noisy, quantized versions during a
 * training step — the paper's "inject the modeled errors in the training"
 * (Section 3.4.1). The optimizer always updates the clean weights.
 */
class WeightPerturber
{
  public:
    WeightPerturber(nn::SequenceModel& model, double sigma,
                    const QuantConfig& quant, std::uint64_t seed)
        : quantizer_(quant.weightBits), sigma_(sigma), rng_(seed)
    {
        for (nn::Parameter* p : model.parameters())
            if (isVmmWeight(p->name))
                params_.push_back(p);
        saved_.resize(params_.size());
    }

    /** Save clean weights and install noisy/quantized replicas. */
    void
    perturb()
    {
        for (std::size_t i = 0; i < params_.size(); ++i) {
            auto& w = params_[i]->value;
            saved_[i] = w.raw();
            if (sigma_ > 0.0) {
                for (float& v : w.raw())
                    v = static_cast<float>(
                        static_cast<double>(v)
                        * rng_.logNormal(0.0, sigma_));
            }
            quantizer_.apply(w);
        }
    }

    /** Restore the clean weights. */
    void
    restore()
    {
        for (std::size_t i = 0; i < params_.size(); ++i)
            params_[i]->value.raw() = saved_[i];
    }

  private:
    std::vector<nn::Parameter*> params_;
    std::vector<FloatVec> saved_;
    Quantizer quantizer_;
    double sigma_;
    Rng rng_;
};

/**
 * Training-time noise magnitude for a scenario: the programming-scheme
 * write sigma when the scenario includes synaptic variation, plus a
 * surrogate term for circuit-level effects the weight-space injection has
 * to stand in for (paper: errors modeled "at the end of each layer" or per
 * VMM are folded into the weights here).
 */
double
injectionSigma(const NonIdealityConfig& scenario)
{
    const double write_sigma = crossbar::effectiveWriteSigma(
        scenario.crossbar.scheme, scenario.crossbar.writeVariationRate,
        scenario.crossbar.verifyIterations);
    switch (scenario.kind) {
      case NonIdealityKind::None: return 0.0;
      case NonIdealityKind::SynapticWires: return write_sigma + 0.02;
      case NonIdealityKind::SenseAdc: return 0.03;
      case NonIdealityKind::DacDriver: return 0.03;
      case NonIdealityKind::Combined: return write_sigma + 0.05;
      default: return write_sigma + 0.07; // Measured
    }
}

} // namespace

AccuracyEnhancer::AccuracyEnhancer(
    const nn::SequenceModel& teacher,
    const std::vector<basecall::TrainChunk>& chunks)
    : teacher_(teacher), chunks_(chunks)
{}

void
AccuracyEnhancer::retrain(nn::SequenceModel& model,
                          const NonIdealityConfig& scenario,
                          const EnhancerConfig& config, bool distill,
                          const std::map<std::string,
                                         std::vector<std::uint8_t>>* masks)
{
    WeightPerturber perturber(model, injectionSigma(scenario),
                              scenario.quant, config.seed);

    // KD teacher copy: forward mutates layer caches, so distillation works
    // on a private clone of the (ideal FP32) teacher.
    nn::SequenceModel teacher_copy;
    if (distill)
        teacher_copy = teacher_;

    basecall::TrainConfig tc;
    tc.epochs = config.retrainEpochs;
    tc.lr = config.retrainLr;
    tc.batchSize = 4;
    tc.lrDecay = 0.9f;
    tc.shuffleSeed = hashSeed({config.seed, 0x7e7e7eULL});

    basecall::TrainHooks hooks;
    hooks.preForward = [&] { perturber.perturb(); };
    hooks.postBackward = [&] { perturber.restore(); };
    if (distill) {
        hooks.extraGrad = [&](const basecall::TrainChunk& chunk,
                              const Matrix& logits) {
            // Distillation gradient: softmax(student) - softmax(teacher),
            // the gradient of CE against the teacher's soft targets
            // (Hinton et al.; paper Section 3.4.2).
            const Matrix t_logits = teacher_copy.forward(chunk.signal);
            const Matrix s_lp = nn::logSoftmaxRows(logits);
            const Matrix t_lp = nn::logSoftmaxRows(t_logits);
            Matrix g(logits.rows(), logits.cols());
            constexpr float kLambda = 0.7f;
            for (std::size_t i = 0; i < g.size(); ++i)
                g.raw()[i] = kLambda
                    * (std::exp(s_lp.raw()[i]) - std::exp(t_lp.raw()[i]));
            return g;
        };
    }
    if (masks != nullptr) {
        hooks.configureOptimizer = [&](nn::Adam& adam) {
            const auto& params = adam.params();
            for (std::size_t i = 0; i < params.size(); ++i) {
                const auto it = masks->find(params[i]->name);
                if (it != masks->end())
                    adam.setMask(i, it->second);
            }
        };
    }
    basecall::trainCtc(model, chunks_, tc, hooks);
}

EnhancedModel
AccuracyEnhancer::enhance(const nn::SequenceModel& deployed,
                          const NonIdealityConfig& scenario,
                          const EnhancerConfig& config)
{
    EnhancedModel out;
    out.model = deployed; // deep copy
    out.evalConfig = scenario;
    out.remap.fraction = 0.0;

    switch (config.technique) {
      case Technique::None:
        return out;

      case Technique::Vat:
        retrain(out.model, scenario, config, /*distill=*/false, nullptr);
        break;

      case Technique::Kd:
        retrain(out.model, scenario, config, /*distill=*/true, nullptr);
        break;

      case Technique::Rvw:
        // Pure programming-scheme change: iterative write-read-verify
        // shrinks the residual conductance error (no retraining).
        out.evalConfig.crossbar.scheme =
            crossbar::WriteScheme::WriteReadVerify;
        break;

      case Technique::Rsa:
        out.remap.fraction = config.sramFraction;
        out.remap.useErrorKnowledge = true;
        break;

      case Technique::RsaKd: {
        out.remap.fraction = config.sramFraction;
        out.remap.useErrorKnowledge = true;
        // Online loop (paper Fig. 6): program tiles, learn which weights
        // live in SRAM, then KD-retrain only those weights under injected
        // non-ideality.
        CrossbarVmmBackend probe(scenario, /*run_seed=*/0);
        probe.setSramRemap(out.remap);
        if (const CompileError err = probe.compile(out.model))
            panic("Enhancer: RSA+KD probe: ", err.message);
        retrain(out.model, scenario, config, /*distill=*/true,
                &probe.sramMasks());
        break;
      }

      case Technique::All: {
        // Combine everything: VAT+KD retraining against the (smaller)
        // residual noise of R-V-W programming, plus the RSA remap.
        out.evalConfig.crossbar.scheme =
            crossbar::WriteScheme::WriteReadVerify;
        out.remap.fraction = config.sramFraction;
        out.remap.useErrorKnowledge = true;
        retrain(out.model, out.evalConfig, config, /*distill=*/true,
                nullptr);
        break;
      }
    }

    // The hardware stores fixed-point weights: re-quantize whatever the
    // retraining produced before deployment.
    out.model = quantizeModel(out.model, scenario.quant);
    return out;
}

} // namespace swordfish::core
