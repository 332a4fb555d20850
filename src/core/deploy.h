/**
 * @file
 * Model deployment helpers: weight quantization (the FPP X-Y precision
 * constraint of the hardware) and the quantization-only backend used by
 * the Table 3 experiments, where precision is the sole non-ideality.
 */

#ifndef SWORDFISH_CORE_DEPLOY_H
#define SWORDFISH_CORE_DEPLOY_H

#include <string>

#include "nn/model.h"
#include "tensor/quantize.h"

namespace swordfish::core {

/** True for parameters mapped onto crossbars (weights, not biases). */
inline bool
isVmmWeight(const std::string& param_name)
{
    const auto dot = param_name.rfind('.');
    if (dot == std::string::npos)
        return false;
    const std::string suffix = param_name.substr(dot);
    return suffix == ".w" || suffix == ".wih" || suffix == ".whh";
}

/**
 * Produce a deployed copy of the model with VMM weights quantized to the
 * configured precision (per-tensor symmetric fixed point).
 */
inline nn::SequenceModel
quantizeModel(const nn::SequenceModel& model, const QuantConfig& quant)
{
    nn::SequenceModel deployed = model; // deep copy via clone()
    const Quantizer wq(quant.weightBits);
    if (!wq.isIdentity()) {
        for (nn::Parameter* p : deployed.parameters())
            if (isVmmWeight(p->name))
                wq.apply(p->value);
    }
    return deployed;
}

/**
 * Ideal-matmul backend that only models activation quantization — digital
 * fixed-point execution with no crossbar, for Table 3 / Fig. 10.
 */
class QuantOnlyBackend : public nn::VmmBackend
{
  public:
    explicit QuantOnlyBackend(const QuantConfig& quant)
        : actQuant_(quant.activationBits)
    {}

    void
    matmul(const std::string&, const Matrix& w, const Matrix& x,
           Matrix& y) override
    {
        gemmBT(x, w, y);
    }

    void
    onActivations(Matrix& activations) override
    {
        actQuant_.apply(activations);
    }

    void
    onActivationsRows(Matrix& m, std::size_t row_begin,
                      std::size_t row_end) override
    {
        actQuant_.applyRows(m, row_begin, row_end);
    }

  private:
    Quantizer actQuant_;
};

} // namespace swordfish::core

#endif // SWORDFISH_CORE_DEPLOY_H
