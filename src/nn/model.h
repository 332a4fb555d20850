/**
 * @file
 * Sequential container of Modules with whole-network forward/backward,
 * cloning (for the KD teacher/student split), serialization, and backend
 * installation.
 */

#ifndef SWORDFISH_NN_MODEL_H
#define SWORDFISH_NN_MODEL_H

#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"

namespace swordfish::nn {

/** A feed-forward stack of layers applied in order. */
class SequenceModel
{
  public:
    SequenceModel() = default;
    SequenceModel(const SequenceModel& other) { *this = other; }

    SequenceModel&
    operator=(const SequenceModel& other)
    {
        if (this != &other) {
            layers_.clear();
            for (const auto& layer : other.layers_)
                layers_.push_back(layer->clone());
        }
        return *this;
    }

    SequenceModel(SequenceModel&&) = default;
    SequenceModel& operator=(SequenceModel&&) = default;

    /** Append a layer; returns a reference for chaining. */
    SequenceModel&
    add(std::unique_ptr<Module> layer)
    {
        layers_.push_back(std::move(layer));
        return *this;
    }

    /** Typed in-place construction of a layer. */
    template <typename LayerT, typename... Args>
    LayerT&
    emplace(Args&&... args)
    {
        auto layer = std::make_unique<LayerT>(std::forward<Args>(args)...);
        LayerT& ref = *layer;
        layers_.push_back(std::move(layer));
        return ref;
    }

    /** Run the full forward pass. */
    Matrix
    forward(const Matrix& x)
    {
        Matrix h = x;
        for (auto& layer : layers_)
            h = layer->forward(h);
        return h;
    }

    /**
     * Batched forward pass over a group of stacked lanes (inference only).
     * Opens one noise stream per lane on the backend, runs every layer's
     * batched path, and closes the streams; per-lane outputs are
     * bitwise-identical to beginRead(stream) + forward(lane) per lane. No
     * layer state is written, so threads may run it on one model at once.
     */
    void
    forwardBatch(SequenceBatch& batch)
    {
        backend().beginBatch(batch.streams);
        for (auto& layer : layers_)
            layer->forwardBatch(batch);
        backend().endBatch();
    }

    /** Run the full backward pass from the output gradient. */
    Matrix
    backward(const Matrix& dy)
    {
        Matrix g = dy;
        for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
            g = (*it)->backward(g);
        return g;
    }

    /** Aggregate all trainable parameters, in layer order. */
    std::vector<Parameter*>
    parameters()
    {
        std::vector<Parameter*> out;
        for (auto& layer : layers_)
            for (Parameter* p : layer->parameters())
                out.push_back(p);
        return out;
    }

    /** Zero all parameter gradients. */
    void
    zeroGrad()
    {
        for (auto& layer : layers_)
            layer->zeroGrad();
    }

    /** Install a VMM backend on every layer (nullptr restores ideal). */
    void
    setBackend(VmmBackend* backend)
    {
        for (auto& layer : layers_)
            layer->setBackend(backend);
    }

    /** The installed VMM backend (the ideal one when none was set). */
    VmmBackend&
    backend() const
    {
        return layers_.empty() ? idealBackend() : layers_.front()->backend();
    }

    /** Announce the per-read noise stream to the backend (see VmmBackend). */
    void
    beginRead(std::uint64_t read_stream)
    {
        backend().beginRead(read_stream);
    }

    /**
     * Offer every parameter to the backend's compile hook (see
     * VmmBackend::prepareWeight). The evaluation entry points call this
     * before the first read; it is idempotent, and a no-op for backends
     * without per-weight setup.
     */
    void
    compileBackend()
    {
        VmmBackend& b = backend();
        for (Parameter* p : parameters())
            b.prepareWeight(p->name, p->value);
        b.finishCompile();
    }

    std::size_t layerCount() const { return layers_.size(); }
    Module& layer(std::size_t i) { return *layers_[i]; }
    const Module& layer(std::size_t i) const { return *layers_[i]; }

    /** Total downsampling factor (product of layer stride factors). */
    std::size_t
    strideFactor() const
    {
        std::size_t f = 1;
        for (const auto& layer : layers_)
            f *= layer->strideFactor();
        return f;
    }

    /** Total parameter count. */
    std::size_t
    parameterCount()
    {
        std::size_t n = 0;
        for (Parameter* p : parameters())
            n += p->size();
        return n;
    }

    /** Multi-line architecture description. */
    std::string
    describe() const
    {
        std::string out;
        for (const auto& layer : layers_)
            out += layer->describe() + "\n";
        return out;
    }

    /** Write all parameters (by name) to a binary file. */
    void save(const std::string& path);

    /**
     * Load parameters by name into the already-constructed architecture.
     * @return false when the file is missing/corrupt or any name/shape
     *         does not match.
     */
    bool load(const std::string& path);

  private:
    std::vector<std::unique_ptr<Module>> layers_;
};

} // namespace swordfish::nn

#endif // SWORDFISH_NN_MODEL_H
