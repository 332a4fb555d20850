/**
 * @file
 * The one OpenMP row loop of the GEMM family (gemm, gemmAT, kernels::gemmBT
 * and kernels::int8Matmul). Private to the tensor layer: only the two files
 * that compile those kernels include it, and they link OpenMP when it
 * exists (without it the pragma is ignored and both branches are the same
 * plain loop).
 */

#ifndef SWORDFISH_TENSOR_GEMM_ROWS_H
#define SWORDFISH_TENSOR_GEMM_ROWS_H

#include <cstddef>

#include "tensor/kernels.h"

namespace swordfish::kernels {

/**
 * row(i) for every i in [0, rows): split over an OpenMP team when
 * gemmForks(work), else a plain loop that never enters libgomp. One thread
 * writes each output row with the same operations either way, so the
 * choice never changes a bit.
 */
template <typename Row>
void
forEachRow(std::size_t rows, std::size_t work, const Row& row)
{
    if (gemmForks(work)) {
        #pragma omp parallel for schedule(static)
        for (std::size_t i = 0; i < rows; ++i)
            row(i);
        return;
    }
    for (std::size_t i = 0; i < rows; ++i)
        row(i);
}

} // namespace swordfish::kernels

#endif // SWORDFISH_TENSOR_GEMM_ROWS_H
