/**
 * @file
 * Core abstractions of the from-scratch NN library: named parameters, the
 * Module (layer) interface, and the VmmBackend hook through which Swordfish
 * redirects every vector-matrix multiplication to a (possibly non-ideal)
 * crossbar implementation.
 *
 * Design notes
 * ------------
 * Sequences are time-major float matrices [T x channels]; there is no batch
 * dimension — the basecaller trains chunk-by-chunk with gradient
 * accumulation, which is the right tradeoff on a small-core machine and
 * mirrors how the accelerator streams chunks (paper Section 3.2: "the input
 * streams into the first layer").
 *
 * Every weight matrix that is large enough to be mapped onto crossbars is
 * applied through VmmBackend::matmul(name, W, X, Y) computing Y = X * W^T.
 * The default backend is an exact GEMM; the Swordfish core installs a
 * backend that routes each named matrix through programmed crossbar tiles
 * with DAC/ADC transfer functions (paper Fig. 4/5).
 */

#ifndef SWORDFISH_NN_MODULE_H
#define SWORDFISH_NN_MODULE_H

#include <memory>
#include <string>
#include <vector>

#include "nn/batch.h"
#include "tensor/lanes.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace swordfish::nn {

using swordfish::Matrix;

/** A trainable tensor: value plus accumulated gradient, with a name. */
struct Parameter
{
    std::string name;
    Matrix value;
    Matrix grad;

    Parameter() = default;

    Parameter(std::string n, std::size_t rows, std::size_t cols)
        : name(std::move(n)), value(rows, cols), grad(rows, cols)
    {}

    /** Clear the accumulated gradient. */
    void zeroGrad() { grad.zero(); }

    std::size_t size() const { return value.size(); }
};

/**
 * Strategy interface for executing Y = X * W^T.
 *
 * @param name stable identifier of the weight matrix (e.g. "lstm0.wih"),
 *             used by crossbar backends to look up programmed tiles.
 * @param w    the canonical (digital) weight matrix, out_features x
 *             in_features.
 * @param x    input activations, T x in_features.
 * @param y    output, resized to T x out_features.
 */
class VmmBackend
{
  public:
    virtual ~VmmBackend() = default;

    virtual void matmul(const std::string& name, const Matrix& w,
                        const Matrix& x, Matrix& y) = 0;

    /**
     * Post-activation hook: backends that model quantized/limited-precision
     * activation storage override this (default: leave exact).
     */
    virtual void onActivations(Matrix&) {}

    /**
     * Per-read noise-stream hook: the evaluation loops call this on the
     * processing thread before each read's forward pass with a stable
     * stream id (the read index). Backends that consume randomness at
     * inference time (per-conversion ADC noise) derive that read's noise
     * stream from it, making results independent of which thread runs
     * which read — the determinism contract of the parallel evaluator.
     * Default: stateless backends ignore it.
     */
    virtual void beginRead(std::uint64_t /*read_stream*/) {}

    /**
     * Open a batched pass: one noise stream per lane, keyed the same way
     * beginRead() keys a serial read. Backends that consume randomness keep
     * one stream per lane so batched results stay bitwise-identical to
     * running the lanes serially. Default: stateless backends ignore it.
     */
    virtual void beginBatch(const std::vector<std::uint64_t>& /*streams*/) {}

    /** Close the batched pass opened by beginBatch(). */
    virtual void endBatch() {}

    /**
     * Route subsequent *serial* matmul()/onActivations() calls to the given
     * lane's noise stream (kNoLane deselects). Used by the generic per-lane
     * forwardBatch() fallback so layers without a native batched path still
     * draw from the right stream.
     */
    virtual void selectBatchLane(std::size_t /*lane*/) {}

    /**
     * Batched Y = X * W^T where x stacks several lanes row-wise as
     * described by layout. Per-lane input state (normalization scale,
     * conversion noise) must match what per-lane matmul() calls would
     * produce. Default: backends without lane-dependent state execute the
     * stacked operand as one plain matmul.
     */
    virtual void
    matmulBatched(const std::string& name, const Matrix& w, const Matrix& x,
                  Matrix& y, const BatchLayout& layout)
    {
        (void)layout;
        matmul(name, w, x, y);
    }

    /**
     * Compile hook: the evaluation entry points offer every model
     * parameter to the backend before the first read. Backends with
     * per-weight state (crossbar programming, execution-plan lowering)
     * build it here and only here, so their matmuls only read it; they
     * filter for the parameters they map (biases are offered too).
     * Default: stateless backends ignore it.
     */
    virtual void prepareWeight(const std::string& /*name*/,
                               const Matrix& /*w*/)
    {}

    /** Called once after the prepareWeight() sweep. Default: no-op, and
     *  no backend in the library overrides it. */
    virtual void finishCompile() {}

    /**
     * Health-epoch granularity in reads: > 0 when the backend runs a
     * self-healing maintenance loop (tile aging + probes + refresh) every
     * that-many reads. The evaluation loops align their processing blocks
     * to this so tiles stay frozen while reads are in flight. Default 0:
     * no maintenance loop.
     */
    virtual std::size_t healthEpochReads() const { return 0; }

    /**
     * Advance the maintenance loop one epoch: age tiles, probe their
     * health, and refresh / fail over unhealthy ones. Called serially
     * between read blocks (never concurrently with matmuls). Default:
     * no-op for backends without a healing runtime.
     */
    virtual void healthEpochAdvance() {}

    /**
     * True once healing has exhausted its spares and a dead tile can no
     * longer be repaired: subsequent reads through this backend are
     * unreliable and the caller should degrade them instead of trusting
     * the output. Default: never degraded.
     */
    virtual bool healthDegraded() const { return false; }

    /**
     * onActivations() restricted to rows [row_begin, row_end) of a stacked
     * operand — one lane's slice. Default: copy out, apply, copy back.
     */
    virtual void
    onActivationsRows(Matrix& m, std::size_t row_begin, std::size_t row_end)
    {
        if (row_begin >= row_end)
            return;
        Matrix slice(row_end - row_begin, m.cols());
        float* base = m.raw().data() + row_begin * m.cols();
        std::copy(base, base + slice.size(), slice.raw().begin());
        onActivations(slice);
        std::copy(slice.raw().begin(), slice.raw().end(), base);
    }
};

/** Exact float GEMM backend (the digital / training path). */
class IdealVmmBackend : public VmmBackend
{
  public:
    void
    matmul(const std::string&, const Matrix& w, const Matrix& x,
           Matrix& y) override
    {
        gemmBT(x, w, y);
    }
};

/** Process-wide shared ideal backend instance. */
VmmBackend& idealBackend();

/**
 * Base class for all layers.
 *
 * Contract: forward() caches whatever backward() needs; backward() consumes
 * that cache, accumulates parameter gradients, and returns the gradient
 * w.r.t. the layer input. A second forward() before backward() overwrites
 * the cache (single-sample training).
 */
class Module
{
  public:
    virtual ~Module() = default;

    /** Forward pass: input [T x in] to output [T' x out]. */
    virtual Matrix forward(const Matrix& x) = 0;

    /** Backward pass: dLoss/dOutput to dLoss/dInput; accumulates grads. */
    virtual Matrix backward(const Matrix& dy) = 0;

    /**
     * Batched forward pass over a group of stacked lanes (inference only —
     * no backward caches are maintained). The generic fallback runs each
     * lane through forward() with the backend pointed at that lane's noise
     * stream; layers whose work amortizes across lanes override this with
     * a native stacked implementation. Either way the per-lane results are
     * bitwise-identical to serial forward() calls.
     */
    virtual void
    forwardBatch(SequenceBatch& batch)
    {
        std::vector<Matrix> outs(batch.laneCount());
        for (std::size_t lane = 0; lane < batch.laneCount(); ++lane) {
            backend().selectBatchLane(lane);
            outs[lane] = forward(batch.laneMatrix(lane));
        }
        backend().selectBatchLane(kNoLane);
        batch.assignLanes(outs);
    }

    /** All trainable parameters of this layer (may be empty). */
    virtual std::vector<Parameter*> parameters() { return {}; }

    /** Deep copy with the same weights (fresh gradient state). */
    virtual std::unique_ptr<Module> clone() const = 0;

    /** Human-readable layer description for mapping reports. */
    virtual std::string describe() const = 0;

    /** Output channel count given an input channel count. */
    virtual std::size_t outChannels(std::size_t in_channels) const = 0;

    /**
     * Downsampling factor: output timesteps = input timesteps / factor
     * (exactly 1 for everything except strided convolutions).
     */
    virtual std::size_t strideFactor() const { return 1; }

    /** Clear gradients of all parameters. */
    void
    zeroGrad()
    {
        for (Parameter* p : parameters())
            p->zeroGrad();
    }

    /** Install the VMM execution backend (nullptr resets to ideal). */
    void
    setBackend(VmmBackend* backend)
    {
        backend_ = backend != nullptr ? backend : &idealBackend();
    }

    VmmBackend& backend() const { return *backend_; }

  protected:
    VmmBackend* backend_ = &idealBackend();
};

/** Xavier-uniform initialization for a weight matrix. */
void xavierInit(Matrix& w, std::size_t fan_in, std::size_t fan_out, Rng& rng);

} // namespace swordfish::nn

#endif // SWORDFISH_NN_MODULE_H
