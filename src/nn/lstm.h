/**
 * @file
 * Unidirectional LSTM layer with full backpropagation-through-time.
 *
 * BonitoLite stacks these with alternating directions (reverse flag), the
 * same trick Bonito's LSTM encoder uses instead of true bidirectionality.
 * Both the input projection (one big VMM over all timesteps) and the
 * per-step recurrent projection go through the VmmBackend, because on the
 * accelerator both weight matrices live in crossbars.
 */

#ifndef SWORDFISH_NN_LSTM_H
#define SWORDFISH_NN_LSTM_H

#include <string>
#include <vector>

#include "nn/module.h"

namespace swordfish::nn {

/** Single-direction LSTM: input [T x I] to hidden-state sequence [T x H]. */
class Lstm : public Module
{
  public:
    /**
     * @param name    layer name prefix
     * @param in      input feature count
     * @param hidden  hidden state size
     * @param reverse process the sequence back-to-front when true
     * @param rng     initializer stream
     */
    Lstm(std::string name, std::size_t in, std::size_t hidden, bool reverse,
         Rng& rng);

    Matrix forward(const Matrix& x) override;
    Matrix backward(const Matrix& dy) override;

    /**
     * Batched inference: the input projection runs as one stacked VMM and
     * each timestep's recurrent projection gathers the still-active lanes'
     * hidden states into a single [B x H] operand — one backend call per
     * step for the whole group instead of one per lane. Lanes retire as
     * their sequences end; no backward caches are written.
     */
    void forwardBatch(SequenceBatch& batch) override;

    std::vector<Parameter*>
    parameters() override
    {
        return {&wih_, &whh_, &bias_};
    }

    std::unique_ptr<Module> clone() const override;
    std::string describe() const override;

    std::size_t outChannels(std::size_t) const override { return hidden_; }

    Parameter& inputWeight() { return wih_; }
    Parameter& recurrentWeight() { return whh_; }

  private:
    /** Flip a sequence matrix along the time axis. */
    static Matrix timeReversed(const Matrix& m);

    std::string name_;
    std::size_t in_;
    std::size_t hidden_;
    bool reverse_;

    Parameter wih_;  ///< 4H x I, gate order [i, f, g, o]
    Parameter whh_;  ///< 4H x H
    Parameter bias_; ///< 1 x 4H

    // Forward caches (time-forward orientation, post-reversal).
    Matrix input_;   ///< [T x I]
    Matrix gates_;   ///< [T x 4H] post-nonlinearity gate values
    Matrix cells_;   ///< [T x H] cell states
    Matrix tanhC_;   ///< [T x H] tanh(cell)
    Matrix hidden_states_; ///< [T x H]
};

} // namespace swordfish::nn

#endif // SWORDFISH_NN_LSTM_H
