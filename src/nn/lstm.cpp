#include "lstm.h"

#include <algorithm>
#include <cmath>

#include "nn/activations.h"
#include "tensor/kernels.h"

namespace swordfish::nn {

namespace {

/**
 * Per-thread stacked buffers of Lstm::forwardBatch. An 8-lane group's
 * input projection is megabytes, above glibc's mmap threshold, and
 * allocating it per group and layer would make peak RSS depend on thread
 * timing. Each thread keeps the largest group it has run, as the VMM
 * backend's matmul scratch does.
 */
struct TlsLstmScratch
{
    Matrix reversed; ///< per-lane time-reversed input of a reverse layer
    Matrix zIn;      ///< input projection of every lane and timestep
};
thread_local TlsLstmScratch tls_lstm;

} // namespace

Lstm::Lstm(std::string name, std::size_t in, std::size_t hidden,
           bool reverse, Rng& rng)
    : name_(std::move(name)),
      in_(in),
      hidden_(hidden),
      reverse_(reverse),
      wih_(name_ + ".wih", 4 * hidden, in),
      whh_(name_ + ".whh", 4 * hidden, hidden),
      bias_(name_ + ".b", 1, 4 * hidden)
{
    xavierInit(wih_.value, in, hidden, rng);
    xavierInit(whh_.value, hidden, hidden, rng);
    // Positive forget-gate bias: standard trick for stable early training.
    for (std::size_t h = 0; h < hidden_; ++h)
        bias_.value(0, hidden_ + h) = 1.0f;
}

Matrix
Lstm::timeReversed(const Matrix& m)
{
    Matrix out(m.rows(), m.cols());
    for (std::size_t t = 0; t < m.rows(); ++t) {
        const float* src = m.rowPtr(m.rows() - 1 - t);
        float* dst = out.rowPtr(t);
        for (std::size_t c = 0; c < m.cols(); ++c)
            dst[c] = src[c];
    }
    return out;
}

Matrix
Lstm::forward(const Matrix& x)
{
    if (x.cols() != in_)
        panic("Lstm::forward: expected ", in_, " channels, got ", x.cols());

    input_ = reverse_ ? timeReversed(x) : x;
    const std::size_t t_len = input_.rows();
    const std::size_t h4 = 4 * hidden_;

    // Input projection for all timesteps at once: one large VMM.
    Matrix z_in;
    backend().matmul(wih_.name, wih_.value, input_, z_in);

    gates_ = Matrix(t_len, h4);
    cells_ = Matrix(t_len, hidden_);
    tanhC_ = Matrix(t_len, hidden_);
    hidden_states_ = Matrix(t_len, hidden_);

    Matrix h_prev(1, hidden_);
    std::vector<float> c_prev(hidden_, 0.0f);
    Matrix z_rec;
    for (std::size_t t = 0; t < t_len; ++t) {
        backend().matmul(whh_.name, whh_.value, h_prev, z_rec);
        // Fused gate math via the SIMD kernel layer; gates_/cells_/tanhC_
        // receive the activated values the backward pass replays.
        float* c = cells_.rowPtr(t);
        float* h = hidden_states_.rowPtr(t);
        kernels::lstmGateBlock(z_in.rowPtr(t), z_rec.rowPtr(0),
                               bias_.value.rowPtr(0), hidden_,
                               c_prev.data(), c, tanhC_.rowPtr(t), h,
                               gates_.rowPtr(t));
        std::copy(c, c + hidden_, c_prev.begin());
        std::copy(h, h + hidden_, h_prev.rowPtr(0));
    }

    Matrix y = reverse_ ? timeReversed(hidden_states_) : hidden_states_;
    backend().onActivations(y);
    return y;
}

void
Lstm::forwardBatch(SequenceBatch& batch)
{
    if (batch.data.cols() != in_)
        panic("Lstm::forwardBatch: expected ", in_, " channels, got ",
              batch.data.cols());

    const std::size_t lanes = batch.laneCount();

    // Per-lane time reversal: orientation is a per-sequence property. A
    // forward layer projects batch.data itself.
    const Matrix* input = &batch.data;
    if (reverse_) {
        Matrix& reversed = tls_lstm.reversed;
        reversed.resizeUninit(batch.data.rows(), in_); // fully overwritten
        for (std::size_t l = 0; l < lanes; ++l) {
            const std::size_t off = batch.laneOffset(l);
            const std::size_t t_len = batch.laneRows(l);
            for (std::size_t t = 0; t < t_len; ++t) {
                const float* src = batch.data.rowPtr(off + t_len - 1 - t);
                float* dst = reversed.rowPtr(off + t);
                for (std::size_t c = 0; c < in_; ++c)
                    dst[c] = src[c];
            }
        }
        input = &reversed;
    }

    // Input projection for every lane and timestep in one stacked VMM.
    Matrix& z_in = tls_lstm.zIn;
    backend().matmulBatched(wih_.name, wih_.value, *input, z_in,
                            batch.layout());

    Matrix out(batch.data.rows(), hidden_);
    Matrix h_prev(lanes, hidden_); // zero-initialized, one row per lane
    std::vector<std::vector<float>> c_prev(
        lanes, std::vector<float>(hidden_, 0.0f));
    std::size_t t_max = 0;
    for (std::size_t l = 0; l < lanes; ++l)
        t_max = std::max(t_max, batch.laneRows(l));

    // One recurrent VMM per timestep over the still-active lanes: gather
    // their previous hidden states, run the batched projection, scatter
    // the gate math back per lane. Each lane draws conversion noise from
    // its own stream for exactly its first T_l steps, reproducing the
    // serial per-lane sequence bitwise.
    Matrix h_act, z_rec;
    std::vector<std::size_t> active;
    BatchLayout step_layout;
    const float* b = bias_.value.rowPtr(0);
    for (std::size_t t = 0; t < t_max; ++t) {
        active.clear();
        step_layout.clear();
        for (std::size_t l = 0; l < lanes; ++l) {
            if (batch.laneRows(l) > t) {
                active.push_back(l);
                step_layout.push_back({l, 1});
            }
        }
        h_act.resize(active.size(), hidden_);
        for (std::size_t i = 0; i < active.size(); ++i) {
            const float* src = h_prev.rowPtr(active[i]);
            float* dst = h_act.rowPtr(i);
            for (std::size_t j = 0; j < hidden_; ++j)
                dst[j] = src[j];
        }
        backend().matmulBatched(whh_.name, whh_.value, h_act, z_rec,
                                step_layout);

        for (std::size_t i = 0; i < active.size(); ++i) {
            const std::size_t l = active[i];
            const float* zi = z_in.rowPtr(batch.laneOffset(l) + t);
            const float* zr = z_rec.rowPtr(i);
            float* h = out.rowPtr(batch.laneOffset(l) + t);
            float* hp = h_prev.rowPtr(l);
            std::vector<float>& cp = c_prev[l];
            // Same fused kernel as the serial path (inference-only here, so
            // no gates/tanh(c) stash); c updates in place.
            kernels::lstmGateBlock(zi, zr, b, hidden_, cp.data(), cp.data(),
                                   nullptr, h, nullptr);
            std::copy(h, h + hidden_, hp);
        }
    }

    if (reverse_) {
        // Un-reverse each lane in place (swap rows around the midpoint).
        std::vector<float> tmp(hidden_);
        for (std::size_t l = 0; l < lanes; ++l) {
            const std::size_t off = batch.laneOffset(l);
            const std::size_t t_len = batch.laneRows(l);
            for (std::size_t t = 0; t < t_len / 2; ++t) {
                float* a = out.rowPtr(off + t);
                float* z = out.rowPtr(off + t_len - 1 - t);
                std::copy(a, a + hidden_, tmp.begin());
                std::copy(z, z + hidden_, a);
                std::copy(tmp.begin(), tmp.end(), z);
            }
        }
    }

    batch.data = std::move(out);
    for (std::size_t l = 0; l < lanes; ++l)
        backend().onActivationsRows(batch.data, batch.laneOffset(l),
                                    batch.laneOffset(l)
                                        + batch.laneRows(l));
}

Matrix
Lstm::backward(const Matrix& dy_in)
{
    const Matrix dy = reverse_ ? timeReversed(dy_in) : dy_in;
    const std::size_t t_len = input_.rows();
    const std::size_t h4 = 4 * hidden_;

    Matrix dz_all(t_len, h4);
    std::vector<float> dh_next(hidden_, 0.0f);
    std::vector<float> dc_next(hidden_, 0.0f);
    std::vector<float> dh_rec(hidden_, 0.0f);

    for (std::size_t tt = t_len; tt-- > 0;) {
        const float* g = gates_.rowPtr(tt);
        const float* c = cells_.rowPtr(tt);
        const float* tc = tanhC_.rowPtr(tt);
        const float* c_prev = tt > 0 ? cells_.rowPtr(tt - 1) : nullptr;
        float* dz = dz_all.rowPtr(tt);

        for (std::size_t j = 0; j < hidden_; ++j) {
            const float ig = g[j];
            const float fg = g[hidden_ + j];
            const float gg = g[2 * hidden_ + j];
            const float og = g[3 * hidden_ + j];
            const float dh = dy(tt, j) + dh_next[j];
            const float dc = dh * og * tanhGradFromOut(tc[j]) + dc_next[j];
            const float cp = c_prev != nullptr ? c_prev[j] : 0.0f;

            dz[j] = dc * gg * sigmoidGradFromOut(ig);
            dz[hidden_ + j] = dc * cp * sigmoidGradFromOut(fg);
            dz[2 * hidden_ + j] = dc * ig * tanhGradFromOut(gg);
            dz[3 * hidden_ + j] = dh * tc[j] * sigmoidGradFromOut(og);
            dc_next[j] = dc * fg;
        }
        (void)c;

        // dh_next = Whh^T * dz ; accumulate dWhh += dz (x) h_{t-1}.
        std::vector<float> dz_vec(dz, dz + h4);
        gemvT(whh_.value, dz_vec, dh_rec);
        dh_next = dh_rec;
        if (tt > 0) {
            const float* h_prev = hidden_states_.rowPtr(tt - 1);
            for (std::size_t r = 0; r < h4; ++r) {
                if (dz[r] == 0.0f)
                    continue;
                float* wrow = whh_.grad.rowPtr(r);
                for (std::size_t j = 0; j < hidden_; ++j)
                    wrow[j] += dz[r] * h_prev[j];
            }
        }
        for (std::size_t r = 0; r < h4; ++r)
            bias_.grad(0, r) += dz[r];
    }

    // Input-projection gradients over all timesteps at once.
    gemmAT(dz_all, input_, wih_.grad, /*accumulate=*/true);
    Matrix dx;
    gemm(dz_all, wih_.value, dx);
    return reverse_ ? timeReversed(dx) : dx;
}

std::unique_ptr<Module>
Lstm::clone() const
{
    auto copy = std::make_unique<Lstm>(*this);
    copy->input_ = Matrix();
    copy->gates_ = Matrix();
    copy->cells_ = Matrix();
    copy->tanhC_ = Matrix();
    copy->hidden_states_ = Matrix();
    copy->zeroGrad();
    copy->setBackend(nullptr);
    return copy;
}

std::string
Lstm::describe() const
{
    return "LSTM(" + std::to_string(in_) + " -> " + std::to_string(hidden_)
        + (reverse_ ? ", reverse" : ", forward") + ")";
}

} // namespace swordfish::nn
