/**
 * @file
 * Dense row-major float matrix and the small set of BLAS-like kernels the
 * NN library and crossbar simulator need.
 *
 * Everything in the framework funnels through these kernels, so they are
 * written cache-friendly (ikj loop order), and a large call made outside
 * the thread pool splits its rows over OpenMP threads when available
 * (kernels::gemmForks). Float32 is the reference numeric type; reduced
 * precisions are
 * *simulated* on top of it by the quantizer (as in the paper's FPP X-Y
 * configurations).
 */

#ifndef SWORDFISH_TENSOR_MATRIX_H
#define SWORDFISH_TENSOR_MATRIX_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "util/logging.h"

namespace swordfish {

/** Alignment of Matrix storage: one full cache line / AVX-512 vector. */
inline constexpr std::size_t kMatrixAlignment = 64;

/**
 * Minimal std allocator yielding `Align`-byte-aligned storage, so the SIMD
 * kernel layer (tensor/kernels.h) can rely on Matrix::data() alignment.
 */
template <typename T, std::size_t Align>
struct AlignedAllocator
{
    using value_type = T;

    AlignedAllocator() = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept
    {}

    T*
    allocate(std::size_t n)
    {
        return static_cast<T*>(
            ::operator new(n * sizeof(T), std::align_val_t{Align}));
    }

    void
    deallocate(T* p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t{Align});
    }

    template <typename U>
    bool operator==(const AlignedAllocator<U, Align>&) const noexcept
    {
        return true;
    }
    template <typename U>
    bool operator!=(const AlignedAllocator<U, Align>&) const noexcept
    {
        return false;
    }

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };
};

/** 64-byte-aligned float vector: the storage type behind Matrix::raw(). */
using FloatVec = std::vector<float, AlignedAllocator<float, kMatrixAlignment>>;

/** Dense row-major matrix of float. */
class Matrix
{
  public:
    Matrix() = default;

    /** Construct rows x cols, zero-initialized. */
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
    {
        checkAlignment();
    }

    /** Construct from explicit data (size must equal rows*cols). */
    Matrix(std::size_t rows, std::size_t cols, std::vector<float> data)
        : rows_(rows), cols_(cols), data_(data.begin(), data.end())
    {
        if (data_.size() != rows_ * cols_)
            panic("Matrix: data size ", data_.size(), " != ", rows_ * cols_);
        checkAlignment();
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    float at(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    float& operator()(std::size_t r, std::size_t c) { return at(r, c); }
    float operator()(std::size_t r, std::size_t c) const { return at(r, c); }

    float* data() { return data_.data(); }
    const float* data() const { return data_.data(); }

    float* rowPtr(std::size_t r) { return data_.data() + r * cols_; }
    const float* rowPtr(std::size_t r) const
    {
        return data_.data() + r * cols_;
    }

    FloatVec& raw() { return data_; }
    const FloatVec& raw() const { return data_; }

    /**
     * Reshape to rows x cols with all elements zeroed, reusing the existing
     * allocation when capacity suffices. Use this for accumulation targets
     * that rely on starting from zero; scratch that overwrites every
     * element before reading should use resizeUninit() and skip the O(n)
     * clear.
     */
    void
    resize(std::size_t rows, std::size_t cols)
    {
        rows_ = rows;
        cols_ = cols;
        data_.assign(rows * cols, 0.0f);
        checkAlignment();
    }

    /**
     * Reshape to rows x cols WITHOUT clearing: existing element values are
     * unspecified afterwards. The scratch-buffer primitive of the hot VMM
     * paths — only valid when every element is written before it is read.
     * Reuses the allocation when the element count is unchanged.
     */
    void
    resizeUninit(std::size_t rows, std::size_t cols)
    {
        rows_ = rows;
        cols_ = cols;
        if (data_.size() != rows * cols)
            data_.resize(rows * cols);
        checkAlignment();
    }

    /** Set every element to v. */
    void
    fill(float v)
    {
        std::fill(data_.begin(), data_.end(), v);
    }

    /** Reset all elements to zero. */
    void zero() { fill(0.0f); }

    /** Return the transposed matrix. */
    Matrix transposed() const;

    /** Largest absolute element value (0 for an empty matrix). */
    float absMax() const;

    /** Frobenius norm. */
    float frobeniusNorm() const;

    /** Elementwise in-place addition; shapes must match. */
    Matrix& operator+=(const Matrix& other);

    /** Elementwise in-place scale. */
    Matrix& operator*=(float s);

  private:
    void
    checkAlignment() const
    {
#ifndef NDEBUG
        assert(data_.empty()
               || reinterpret_cast<std::uintptr_t>(data_.data())
                       % kMatrixAlignment
                   == 0);
#endif
    }

    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    FloatVec data_;
};

/**
 * C = A * B. Shapes: A is m x k, B is k x n, C resized to m x n.
 * @param accumulate when true, adds into existing C (which must be m x n).
 */
void gemm(const Matrix& a, const Matrix& b, Matrix& c,
          bool accumulate = false);

/** C = A * B^T. A is m x k, B is n x k, C is m x n. */
void gemmBT(const Matrix& a, const Matrix& b, Matrix& c,
            bool accumulate = false);

/** C = A^T * B. A is k x m, B is k x n, C is m x n. */
void gemmAT(const Matrix& a, const Matrix& b, Matrix& c,
            bool accumulate = false);

/** y = W * x (+ y if accumulate). W is m x n, x has n entries. */
void gemv(const Matrix& w, const std::vector<float>& x,
          std::vector<float>& y, bool accumulate = false);

/** y = W^T * x (+ y if accumulate). W is m x n, x has m entries. */
void gemvT(const Matrix& w, const std::vector<float>& x,
           std::vector<float>& y, bool accumulate = false);

/** y += alpha * x for equal-length vectors. */
void axpy(float alpha, const std::vector<float>& x, std::vector<float>& y);

/** Dot product of two equal-length vectors. */
float dot(const std::vector<float>& a, const std::vector<float>& b);

/** Add a row vector (bias) to each row of m in place. */
void addRowBias(Matrix& m, const FloatVec& bias);

} // namespace swordfish

#endif // SWORDFISH_TENSOR_MATRIX_H
