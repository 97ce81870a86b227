// Dense float matrix operations used by the reference (un-quantized) paths.
#pragma once

#include "tensor/matrix.h"

namespace hack {

// MAC count above which a dense matmul fans its output rows (or, for a
// packed B, its column panels) out over the shared pool. Every output
// element is computed by the same serial inner code whatever the
// partitioning, so the threaded result is bit-identical to the serial one;
// below the threshold the dispatch overhead dominates.
inline constexpr std::size_t kParallelMatmulMinMacs = std::size_t{1} << 21;

// C = A * B. A is MxZ, B is ZxN. Large products (>= ~2M MACs, M >= 2) fan
// their output rows out over the shared ThreadPool; each row runs the same
// serial inner loop, so results are bit-identical to the serial path for any
// pool size (single-row decode GEMVs never split).
Matrix matmul(const Matrix& a, const Matrix& b);

// C = A * B^T. A is MxZ, B is NxZ. Attention computes Q K^T in this form.
// Row-parallel above the same threshold as matmul, same bit-identity.
Matrix matmul_nt(const Matrix& a, const Matrix& b);

Matrix transpose(const Matrix& a);

// Row-wise softmax, numerically stabilized by the row max (Eq. 3).
Matrix softmax_rows(const Matrix& scores);

// Row-wise softmax over the leading `valid` entries of each row only; the
// remainder of the row is zeroed. Used for causal masking where row i of the
// score matrix may attend to keys [0, offset + i].
Matrix softmax_rows_causal(const Matrix& scores, std::size_t key_offset);

// a + b, a - b, elementwise (shape-checked).
Matrix add(const Matrix& a, const Matrix& b);
Matrix sub(const Matrix& a, const Matrix& b);

// alpha * a.
Matrix scale(const Matrix& a, float alpha);

// Appends the rows of `extra` below `base` (column counts must match).
Matrix vstack(const Matrix& base, const Matrix& extra);

// Takes rows [begin, end) of a.
Matrix take_rows(const Matrix& a, std::size_t begin, std::size_t end);

// Takes columns [begin, end) of a.
Matrix take_cols(const Matrix& a, std::size_t begin, std::size_t end);

}  // namespace hack
