#include "tensor/packed_matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "base/thread_pool.h"
#include "tensor/ops.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define HACK_X86_SIMD 1
#include <immintrin.h>
#endif

namespace hack {
namespace {

constexpr std::size_t kPanel = PackedMatrix::kPanelCols;

// Row tile of the main sweep: 8 rows x one 8-column panel of C in registers.
constexpr int kTileRows = 8;

std::atomic<bool> g_force_portable{false};

// One product's operands: C (m x n) = A (m x z) * B (packed), A and C
// dense row-major.
struct Gemm {
  const float* a;
  const PackedMatrix* b;
  float* c;
  std::size_t z;
  std::size_t n;
};

// Writes one 8-wide accumulator row to C, clipped to the matrix's last
// column (the padded panel columns are dropped).
inline void store_row(const Gemm& g, std::size_t i, std::size_t p,
                      const float* acc) {
  const std::size_t col = p * kPanel;
  const std::size_t width = std::min(kPanel, g.n - col);
  std::copy(acc, acc + width, g.c + i * g.n + col);
}

// Portable arm: an R-row x P-panel tile, ascending k, multiply then add.
template <int R, int P>
void tile_portable(const Gemm& g, std::size_t i, std::size_t p) {
  float acc[R][P][kPanel] = {};
  for (std::size_t k = 0; k < g.z; ++k) {
    for (int r = 0; r < R; ++r) {
      const float av = g.a[(i + r) * g.z + k];
      for (int q = 0; q < P; ++q) {
        const float* bk = g.b->panel(p + q) + k * kPanel;
        for (std::size_t jj = 0; jj < kPanel; ++jj) {
          const float prod = av * bk[jj];
          acc[r][q][jj] = acc[r][q][jj] + prod;
        }
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int q = 0; q < P; ++q) store_row(g, i + r, p + q, acc[r][q]);
  }
}

#ifdef HACK_X86_SIMD

bool cpu_has_avx2() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

// AVX2 arm: the same tile with one __m256 per (row, panel). The target is
// AVX2 only — not FMA — so _mm256_mul_ps/_mm256_add_ps stay two roundings,
// exactly the scalar operation order.
template <int R, int P>
__attribute__((target("avx2"))) void tile_avx2(const Gemm& g, std::size_t i,
                                               std::size_t p) {
  __m256 acc[R][P];
  for (int r = 0; r < R; ++r) {
    for (int q = 0; q < P; ++q) acc[r][q] = _mm256_setzero_ps();
  }
  const float* panels[P];
  for (int q = 0; q < P; ++q) panels[q] = g.b->panel(p + q);
  const float* arow = g.a + i * g.z;
  for (std::size_t k = 0; k < g.z; ++k) {
    __m256 bv[P];
    for (int q = 0; q < P; ++q) {
      bv[q] = _mm256_loadu_ps(panels[q] + k * kPanel);
    }
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(arow + r * g.z + k);
      for (int q = 0; q < P; ++q) {
        acc[r][q] = _mm256_add_ps(acc[r][q], _mm256_mul_ps(av, bv[q]));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int q = 0; q < P; ++q) {
      alignas(32) float out[kPanel];
      _mm256_store_ps(out, acc[r][q]);
      store_row(g, i + r, p + q, out);
    }
  }
}

#endif  // HACK_X86_SIMD

template <int R, int P, bool kSimd>
void tile(const Gemm& g, std::size_t i, std::size_t p) {
#ifdef HACK_X86_SIMD
  if constexpr (kSimd) {
    tile_avx2<R, P>(g, i, p);
    return;
  }
#endif
  tile_portable<R, P>(g, i, p);
}

// R rows (R < kTileRows, so no full tile) over panels [p_begin, p_end).
// Few rows leave the accumulators' add latency exposed, so the tile widens
// to P panels — R * P <= 8 independent chains — instead.
template <int R, bool kSimd>
void short_rows(const Gemm& g, std::size_t i, std::size_t p_begin,
                std::size_t p_end) {
  constexpr int P = R == 1 ? 8 : R == 2 ? 4 : R <= 4 ? 2 : 1;
  std::size_t p = p_begin;
  for (; p + P <= p_end; p += P) tile<R, P, kSimd>(g, i, p);
  for (; p < p_end; ++p) tile<R, 1, kSimd>(g, i, p);
}

template <bool kSimd>
void short_rows(const Gemm& g, std::size_t rows, std::size_t i,
                std::size_t p_begin, std::size_t p_end) {
  switch (rows) {
    case 1: return short_rows<1, kSimd>(g, i, p_begin, p_end);
    case 2: return short_rows<2, kSimd>(g, i, p_begin, p_end);
    case 3: return short_rows<3, kSimd>(g, i, p_begin, p_end);
    case 4: return short_rows<4, kSimd>(g, i, p_begin, p_end);
    case 5: return short_rows<5, kSimd>(g, i, p_begin, p_end);
    case 6: return short_rows<6, kSimd>(g, i, p_begin, p_end);
    case 7: return short_rows<7, kSimd>(g, i, p_begin, p_end);
    default: HACK_CHECK(false, "short row block of " << rows);
  }
}

// All m rows over panels [p_begin, p_end). Panel-outer: one panel
// (z x 8 floats) stays cache-hot while every 8-row block of A passes over
// it, so B is read from memory once per call.
template <bool kSimd>
void sweep(const Gemm& g, std::size_t m, std::size_t p_begin,
           std::size_t p_end) {
  const std::size_t full = m - m % kTileRows;
  if (full == 0) {
    short_rows<kSimd>(g, m, 0, p_begin, p_end);
    return;
  }
  for (std::size_t p = p_begin; p < p_end; ++p) {
    for (std::size_t i = 0; i < full; i += kTileRows) {
      tile<kTileRows, 1, kSimd>(g, i, p);
    }
    if (full < m) short_rows<kSimd>(g, m - full, full, p, p + 1);
  }
}

void sweep_dispatch(const Gemm& g, std::size_t m, std::size_t p_begin,
                    std::size_t p_end) {
#ifdef HACK_X86_SIMD
  if (cpu_has_avx2() && !g_force_portable.load(std::memory_order_relaxed)) {
    sweep<true>(g, m, p_begin, p_end);
    return;
  }
#endif
  sweep<false>(g, m, p_begin, p_end);
}

}  // namespace

PackedMatrix::PackedMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols) {
  data_.assign(panels() * rows_ * kPanelCols, 0.0f);
}

PackedMatrix::PackedMatrix(const Matrix& b)
    : PackedMatrix(b.rows(), b.cols()) {
  for (std::size_t k = 0; k < rows_; ++k) set_row(k, b.row(k));
}

void PackedMatrix::set_row(std::size_t k, std::span<const float> values) {
  HACK_CHECK(k < rows_ && values.size() == cols_,
             "packed row " << k << " of " << values.size() << " values into "
                           << rows_ << "x" << cols_);
  for (std::size_t j = 0; j < cols_; ++j) {
    HACK_CHECK(std::isfinite(values[j]),
               "packed weight (" << k << "," << j << ") is not finite");
    data_[(j / kPanelCols) * rows_ * kPanelCols + k * kPanelCols +
          j % kPanelCols] = values[j];
  }
}

Matrix matmul(const Matrix& a, const PackedMatrix& b, int threads) {
  HACK_CHECK(a.cols() == b.rows(), "packed matmul shape mismatch: "
                                       << a.rows() << "x" << a.cols() << " * "
                                       << b.rows() << "x" << b.cols());
  const std::size_t m = a.rows(), z = a.cols(), n = b.cols();
  Matrix c(m, n);
  if (m == 0 || n == 0) return c;
  const Gemm g{a.flat().data(), &b, c.flat().data(), z, n};
  const std::size_t panels = b.panels();
  ThreadPool& pool = ThreadPool::global();
  const std::size_t chunks =
      m * z * n < kParallelMatmulMinMacs
          ? 1
          : chunks_for_request(threads, panels, pool.lanes());
  if (chunks <= 1) {
    sweep_dispatch(g, m, 0, panels);
  } else {
    pool.parallel_for(panels, chunks,
                      [&](std::size_t begin, std::size_t end) {
                        sweep_dispatch(g, m, begin, end);
                      });
  }
  return c;
}

void packed_matmul_force_portable(bool on) {
  g_force_portable.store(on, std::memory_order_relaxed);
}

}  // namespace hack
