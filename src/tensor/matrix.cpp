#include "matrix.h"

#include <algorithm>
#include <cmath>

#include "tensor/gemm_rows.h"
#include "tensor/kernels.h"

namespace swordfish {

Matrix
Matrix::transposed() const
{
    Matrix t(cols_, rows_);
    // Cache-blocked: the naive loop strides the destination by rows_ on
    // every element, missing on each write for large matrices. 32x32 float
    // blocks (2 x 4 KiB) keep both source and destination tiles resident.
    constexpr std::size_t kBlock = 32;
    for (std::size_t rb = 0; rb < rows_; rb += kBlock) {
        const std::size_t r_end = std::min(rows_, rb + kBlock);
        for (std::size_t cb = 0; cb < cols_; cb += kBlock) {
            const std::size_t c_end = std::min(cols_, cb + kBlock);
            for (std::size_t r = rb; r < r_end; ++r)
                for (std::size_t c = cb; c < c_end; ++c)
                    t(c, r) = at(r, c);
        }
    }
    return t;
}

float
Matrix::absMax() const
{
    return kernels::absMaxRange(data_.data(), data_.size());
}

float
Matrix::frobeniusNorm() const
{
    double acc = 0.0;
    for (float v : data_)
        acc += static_cast<double>(v) * v;
    return static_cast<float>(std::sqrt(acc));
}

Matrix&
Matrix::operator+=(const Matrix& other)
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        panic("Matrix::operator+=: shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
    return *this;
}

Matrix&
Matrix::operator*=(float s)
{
    for (float& v : data_)
        v *= s;
    return *this;
}

namespace {

/** Common shape check + output preparation for the gemm family. */
void
prepareOutput(Matrix& c, std::size_t m, std::size_t n, bool accumulate)
{
    if (!accumulate) {
        c = Matrix(m, n);
    } else if (c.rows() != m || c.cols() != n) {
        panic("gemm: accumulate target has wrong shape");
    }
}

} // namespace

void
gemm(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate)
{
    if (a.cols() != b.rows())
        panic("gemm: inner dimensions mismatch (", a.cols(), " vs ",
              b.rows(), ")");
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    prepareOutput(c, m, n, accumulate);

    kernels::forEachRow(m, m * n * k, [&](std::size_t i) {
        float* crow = c.rowPtr(i);
        const float* arow = a.rowPtr(i);
        for (std::size_t p = 0; p < k; ++p) {
            const float av = arow[p];
            if (av == 0.0f)
                continue;
            const float* brow = b.rowPtr(p);
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    });
}

void
gemmBT(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate)
{
    // The hottest kernel in the framework (every VMM and projection lands
    // here); dispatched through the SIMD kernel layer.
    kernels::gemmBT(a, b, c, accumulate);
}

void
gemmAT(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate)
{
    if (a.rows() != b.rows())
        panic("gemmAT: inner dimensions mismatch");
    const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
    prepareOutput(c, m, n, accumulate);

    // Rows of C outside, k inside: one thread owns each row, so the rows
    // split race-free in one region per call, and every c(i, j) sums p in
    // ascending order whichever thread computes it.
    kernels::forEachRow(m, m * n * k, [&](std::size_t i) {
        float* crow = c.rowPtr(i);
        for (std::size_t p = 0; p < k; ++p) {
            const float av = a.rowPtr(p)[i];
            if (av == 0.0f)
                continue;
            const float* brow = b.rowPtr(p);
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    });
}

void
gemv(const Matrix& w, const std::vector<float>& x, std::vector<float>& y,
     bool accumulate)
{
    if (w.cols() != x.size())
        panic("gemv: dimension mismatch");
    if (!accumulate)
        y.assign(w.rows(), 0.0f);
    else if (y.size() != w.rows())
        panic("gemv: accumulate target has wrong size");
    for (std::size_t i = 0; i < w.rows(); ++i) {
        const float* row = w.rowPtr(i);
        float acc = 0.0f;
        for (std::size_t j = 0; j < w.cols(); ++j)
            acc += row[j] * x[j];
        y[i] += acc;
    }
}

void
gemvT(const Matrix& w, const std::vector<float>& x, std::vector<float>& y,
      bool accumulate)
{
    if (w.rows() != x.size())
        panic("gemvT: dimension mismatch");
    if (!accumulate)
        y.assign(w.cols(), 0.0f);
    else if (y.size() != w.cols())
        panic("gemvT: accumulate target has wrong size");
    for (std::size_t i = 0; i < w.rows(); ++i) {
        const float xi = x[i];
        if (xi == 0.0f)
            continue;
        const float* row = w.rowPtr(i);
        for (std::size_t j = 0; j < w.cols(); ++j)
            y[j] += xi * row[j];
    }
}

void
axpy(float alpha, const std::vector<float>& x, std::vector<float>& y)
{
    if (x.size() != y.size())
        panic("axpy: size mismatch");
    for (std::size_t i = 0; i < x.size(); ++i)
        y[i] += alpha * x[i];
}

float
dot(const std::vector<float>& a, const std::vector<float>& b)
{
    if (a.size() != b.size())
        panic("dot: size mismatch");
    float acc = 0.0f;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += a[i] * b[i];
    return acc;
}

void
addRowBias(Matrix& m, const FloatVec& bias)
{
    if (m.cols() != bias.size())
        panic("addRowBias: size mismatch");
    for (std::size_t r = 0; r < m.rows(); ++r) {
        float* row = m.rowPtr(r);
        for (std::size_t c = 0; c < m.cols(); ++c)
            row[c] += bias[c];
    }
}

} // namespace swordfish
