/**
 * @file
 * 1-D convolution over the time axis, lowered to a VMM via im2col.
 *
 * This lowering is not just an implementation convenience: it is exactly how
 * PUMA (and every crossbar accelerator) executes convolutions, so routing the
 * lowered matmul through the VmmBackend gives the crossbar simulator the
 * same operand shapes the hardware would see.
 */

#ifndef SWORDFISH_NN_CONV1D_H
#define SWORDFISH_NN_CONV1D_H

#include <string>

#include "nn/module.h"

namespace swordfish::nn {

/**
 * Valid (no padding) strided 1-D convolution.
 *
 * Input [T x Cin] -> output [T' x Cout] with T' = (T - k)/stride + 1.
 */
class Conv1d : public Module
{
  public:
    Conv1d(std::string name, std::size_t in_channels,
           std::size_t out_channels, std::size_t kernel, std::size_t stride,
           Rng& rng);

    Matrix forward(const Matrix& x) override;
    Matrix backward(const Matrix& dy) override;
    void forwardBatch(SequenceBatch& batch) override;

    std::vector<Parameter*>
    parameters() override
    {
        return {&weight_, &bias_};
    }

    std::unique_ptr<Module> clone() const override;
    std::string describe() const override;

    std::size_t
    outChannels(std::size_t) const override
    {
        return weight_.value.rows();
    }

    std::size_t strideFactor() const override { return stride_; }

    std::size_t kernel() const { return kernel_; }
    std::size_t stride() const { return stride_; }
    Parameter& weight() { return weight_; }

    /** Output timesteps for a given input length (0 if too short). */
    std::size_t
    outSteps(std::size_t in_steps) const
    {
        return in_steps < kernel_ ? 0 : (in_steps - kernel_) / stride_ + 1;
    }

  private:
    /** Expand input windows into rows of the lowered matrix. */
    Matrix im2col(const Matrix& x) const;

    std::string name_;
    std::size_t inChannels_;
    std::size_t kernel_;
    std::size_t stride_;
    Parameter weight_; ///< Cout x (k * Cin)
    Parameter bias_;   ///< 1 x Cout
    Matrix colCache_;  ///< cached im2col(x) for backward
    std::size_t inSteps_ = 0;
};

} // namespace swordfish::nn

#endif // SWORDFISH_NN_CONV1D_H
