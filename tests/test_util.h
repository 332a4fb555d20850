/**
 * @file
 * Shared test helpers: random tensors, numeric gradient checking for NN
 * layers, tolerances, a request that stops on a block boundary, and a
 * guard that never leaves a forked child running.
 */

#ifndef SWORDFISH_TESTS_TEST_UTIL_H
#define SWORDFISH_TESTS_TEST_UTIL_H

#include <atomic>
#include <cmath>
#include <csignal>
#include <functional>
#include <vector>
#include <sys/types.h>
#include <sys/wait.h>

#include <gtest/gtest.h>

#include "basecall/eval_request.h"
#include "nn/module.h"
#include "tensor/matrix.h"
#include "tensor/simd.h"
#include "util/rng.h"

namespace swordfish::testing {

/** Gaussian random matrix with a fixed seed. */
inline Matrix
randomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed,
             double sigma = 0.5)
{
    Matrix m(rows, cols);
    Rng rng(seed);
    for (float& v : m.raw())
        v = static_cast<float>(rng.gauss(0.0, sigma));
    return m;
}

/** Every SIMD level this CPU runs, lowest first (scalar is always one). */
inline std::vector<SimdLevel>
supportedSimdLevels()
{
    std::vector<SimdLevel> levels;
    for (const SimdLevel level :
         {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512})
        if (simdLevelSupported(level))
            levels.push_back(level);
    return levels;
}

/**
 * `opts` plus a stop on the block boundary where `reads` reads are done:
 * its block sink raises `flag`, which the read loop checks right after
 * the sink returns.
 */
inline basecall::EvalOptions
stopOnceDone(basecall::EvalOptions opts, std::atomic<bool>& flag,
               std::size_t reads)
{
    opts.stopFlag(&flag).onBlock(
        [&flag, reads](const basecall::BlockEvent& ev) {
            if (ev.done >= reads)
                flag.store(true, std::memory_order_relaxed);
        });
    return opts;
}

/**
 * Kills and reaps the guarded child on scope exit, or when re-armed, if it
 * is still running. A failed ASSERT_* returns from the test body, and a
 * forked daemon left behind would keep ctest's output pipe open. A child
 * the test already reaped is left alone: waitpid() then no longer reports
 * it as ours.
 */
class ChildGuard
{
  public:
    explicit ChildGuard(pid_t pid) : pid_(pid) {}
    ~ChildGuard() { release(); }
    ChildGuard(const ChildGuard&) = delete;
    ChildGuard& operator=(const ChildGuard&) = delete;

    /** Guard `pid` from now on, settling the previous child first. */
    void
    arm(pid_t pid)
    {
        if (pid != pid_) // a recycled pid is the new child, not the old
            release();
        pid_ = pid;
    }

  private:
    void
    release()
    {
        if (pid_ > 0 && waitpid(pid_, nullptr, WNOHANG) == 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
        pid_ = -1;
    }

    pid_t pid_;
};

/** Sum-of-elements loss, gradient of which is all-ones. */
inline double
sumLoss(const Matrix& y)
{
    double s = 0.0;
    for (float v : y.raw())
        s += v;
    return s;
}

/**
 * Finite-difference gradient check of a layer: compares the analytic
 * parameter and input gradients of loss = sum(layer(x)) against central
 * differences. Checks a subsample of coordinates for speed.
 */
inline void
checkLayerGradients(nn::Module& layer, const Matrix& x,
                    double tol = 2e-2, std::size_t max_coords = 24)
{
    // Analytic gradients.
    layer.zeroGrad();
    Matrix y = layer.forward(x);
    Matrix dy(y.rows(), y.cols());
    dy.fill(1.0f);
    Matrix dx = layer.backward(dy);

    const float eps = 1e-3f;
    // Input gradient.
    Matrix xm = x;
    const std::size_t x_stride =
        std::max<std::size_t>(1, x.size() / max_coords);
    for (std::size_t i = 0; i < x.size(); i += x_stride) {
        const float orig = xm.raw()[i];
        xm.raw()[i] = orig + eps;
        const double up = sumLoss(layer.forward(xm));
        xm.raw()[i] = orig - eps;
        const double down = sumLoss(layer.forward(xm));
        xm.raw()[i] = orig;
        const double numeric = (up - down) / (2.0 * eps);
        EXPECT_NEAR(dx.raw()[i], numeric,
                    tol * std::max(1.0, std::fabs(numeric)))
            << "input grad coord " << i;
    }

    // Parameter gradients.
    for (nn::Parameter* p : layer.parameters()) {
        const std::size_t stride =
            std::max<std::size_t>(1, p->size() / max_coords);
        for (std::size_t i = 0; i < p->size(); i += stride) {
            const float orig = p->value.raw()[i];
            p->value.raw()[i] = orig + eps;
            const double up = sumLoss(layer.forward(x));
            p->value.raw()[i] = orig - eps;
            const double down = sumLoss(layer.forward(x));
            p->value.raw()[i] = orig;
            const double numeric = (up - down) / (2.0 * eps);
            EXPECT_NEAR(p->grad.raw()[i], numeric,
                        tol * std::max(1.0, std::fabs(numeric)))
                << p->name << " grad coord " << i;
        }
    }
}

} // namespace swordfish::testing

#endif // SWORDFISH_TESTS_TEST_UTIL_H
