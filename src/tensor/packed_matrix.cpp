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

// Row tile of the main sweep: 8 rows x one accumulator column of C in
// registers.
constexpr int kTileRows = 8;

// Panels one accumulator covers: the AVX-512 arm's 16 lanes span a pair.
template <PackedArm kArm>
constexpr std::size_t kStep = kArm == PackedArm::kAvx512 ? 2 : 1;

// The forced arm as an int, or -1 for run-time dispatch.
std::atomic<int> g_forced_arm{-1};

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

// AVX-512 arm: one __m512 per (row, panel pair), panel p + 2q in the low
// half and p + 2q + 1 in the high half. The layout is unchanged, so a pair
// is two 8-float loads joined by an insert. The target names no FMA, and
// the library builds with -ffp-contract=off, so _mm512_mul_ps and
// _mm512_add_ps stay two per-lane roundings (AVX-512F itself has 512-bit
// FMA; the flag is what keeps the compiler from fusing them).
template <int R, int Q>
__attribute__((target("avx512f,avx512dq"))) void tile_avx512(
    const Gemm& g, std::size_t i, std::size_t p) {
  __m512 acc[R][Q];
  for (int r = 0; r < R; ++r) {
    for (int q = 0; q < Q; ++q) acc[r][q] = _mm512_setzero_ps();
  }
  const float* lo[Q];
  const float* hi[Q];
  for (int q = 0; q < Q; ++q) {
    lo[q] = g.b->panel(p + 2 * q);
    hi[q] = g.b->panel(p + 2 * q + 1);
  }
  const float* arow = g.a + i * g.z;
  for (std::size_t k = 0; k < g.z; ++k) {
    __m512 bv[Q];
    for (int q = 0; q < Q; ++q) {
      bv[q] = _mm512_insertf32x8(
          _mm512_castps256_ps512(_mm256_loadu_ps(lo[q] + k * kPanel)),
          _mm256_loadu_ps(hi[q] + k * kPanel), 1);
    }
    for (int r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(arow[r * g.z + k]);
      for (int q = 0; q < Q; ++q) {
        acc[r][q] = _mm512_add_ps(acc[r][q], _mm512_mul_ps(av, bv[q]));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int q = 0; q < Q; ++q) {
      alignas(64) float out[2 * kPanel];
      _mm512_store_ps(out, acc[r][q]);
      store_row(g, i + r, p + 2 * q, out);
      store_row(g, i + r, p + 2 * q + 1, out + kPanel);
    }
  }
}

#endif  // HACK_X86_SIMD

// An R-row x P-accumulator tile at panel p (P * kStep<kArm> panels).
template <int R, int P, PackedArm kArm>
void tile(const Gemm& g, std::size_t i, std::size_t p) {
#ifdef HACK_X86_SIMD
  if constexpr (kArm == PackedArm::kAvx512) {
    tile_avx512<R, P>(g, i, p);
    return;
  } else if constexpr (kArm == PackedArm::kAvx2) {
    tile_avx2<R, P>(g, i, p);
    return;
  }
#endif
  tile_portable<R, P>(g, i, p);
}

// R rows (R < kTileRows, so no full tile) over panels [p_begin, p_end), a
// whole number of accumulator steps. Few rows leave the accumulators' add
// latency exposed, so the tile widens to P accumulators — R * P <= 8
// independent chains — instead.
template <int R, PackedArm kArm>
void short_rows(const Gemm& g, std::size_t i, std::size_t p_begin,
                std::size_t p_end) {
  constexpr int P = R == 1 ? 8 : R == 2 ? 4 : R <= 4 ? 2 : 1;
  constexpr std::size_t step = kStep<kArm>;
  std::size_t p = p_begin;
  for (; p + P * step <= p_end; p += P * step) tile<R, P, kArm>(g, i, p);
  for (; p < p_end; p += step) tile<R, 1, kArm>(g, i, p);
}

template <PackedArm kArm>
void short_rows(const Gemm& g, std::size_t rows, std::size_t i,
                std::size_t p_begin, std::size_t p_end) {
  switch (rows) {
    case 1: return short_rows<1, kArm>(g, i, p_begin, p_end);
    case 2: return short_rows<2, kArm>(g, i, p_begin, p_end);
    case 3: return short_rows<3, kArm>(g, i, p_begin, p_end);
    case 4: return short_rows<4, kArm>(g, i, p_begin, p_end);
    case 5: return short_rows<5, kArm>(g, i, p_begin, p_end);
    case 6: return short_rows<6, kArm>(g, i, p_begin, p_end);
    case 7: return short_rows<7, kArm>(g, i, p_begin, p_end);
    default: HACK_CHECK(false, "short row block of " << rows);
  }
}

// All m rows over panels [p_begin, p_end). Panel-outer: one accumulator
// step of panels (z x 8 floats each) stays cache-hot while every 8-row
// block of A passes over it, so B is read from memory once per call. An odd
// trailing panel of the AVX-512 arm runs the AVX2 tile.
template <PackedArm kArm>
void sweep(const Gemm& g, std::size_t m, std::size_t p_begin,
           std::size_t p_end) {
  constexpr std::size_t step = kStep<kArm>;
  const std::size_t p_mid = p_begin + (p_end - p_begin) / step * step;
  const std::size_t full = m - m % kTileRows;
  if (full == 0) {
    short_rows<kArm>(g, m, 0, p_begin, p_mid);
  } else {
    for (std::size_t p = p_begin; p < p_mid; p += step) {
      for (std::size_t i = 0; i < full; i += kTileRows) {
        tile<kTileRows, 1, kArm>(g, i, p);
      }
      if (full < m) short_rows<kArm>(g, m - full, full, p, p + step);
    }
  }
  if constexpr (step > 1) {
    if (p_mid < p_end) sweep<PackedArm::kAvx2>(g, m, p_mid, p_end);
  }
}

void sweep_dispatch(const Gemm& g, std::size_t m, std::size_t p_begin,
                    std::size_t p_end) {
  switch (packed_matmul_arm()) {
#ifdef HACK_X86_SIMD
    case PackedArm::kAvx512:
      return sweep<PackedArm::kAvx512>(g, m, p_begin, p_end);
    case PackedArm::kAvx2:
      return sweep<PackedArm::kAvx2>(g, m, p_begin, p_end);
#endif
    default:
      return sweep<PackedArm::kPortable>(g, m, p_begin, p_end);
  }
}

// The arms this CPU runs, portable first; run-time dispatch takes the last.
const std::vector<PackedArm>& supported_arms() {
  static const std::vector<PackedArm> arms = [] {
    std::vector<PackedArm> found = {PackedArm::kPortable};
#ifdef HACK_X86_SIMD
    if (__builtin_cpu_supports("avx2")) {
      found.push_back(PackedArm::kAvx2);
      // The AVX-512 arm hands odd trailing panels to the AVX2 tile.
      if (__builtin_cpu_supports("avx512f") &&
          __builtin_cpu_supports("avx512dq")) {
        found.push_back(PackedArm::kAvx512);
      }
    }
#endif
    return found;
  }();
  return arms;
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

void PackedMatrix::set_col(std::size_t j, std::span<const float> values) {
  HACK_CHECK(j < cols_ && values.size() == rows_,
             "packed column " << j << " of " << values.size()
                              << " values into " << rows_ << "x" << cols_);
  float* lane = data_.data() + (j / kPanelCols) * rows_ * kPanelCols +
                j % kPanelCols;
  for (std::size_t k = 0; k < rows_; ++k) {
    HACK_CHECK(std::isfinite(values[k]),
               "packed weight (" << k << "," << j << ") is not finite");
    lane[k * kPanelCols] = values[k];
  }
}

void PackedMatrix::copy_col(std::size_t j, std::span<float> out) const {
  HACK_CHECK(j < cols_ && out.size() == rows_,
             "packed column " << j << " into " << out.size() << " of "
                              << rows_ << "x" << cols_);
  const float* lane = panel(j / kPanelCols) + j % kPanelCols;
  for (std::size_t k = 0; k < rows_; ++k) out[k] = lane[k * kPanelCols];
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
  // The pool splits panel pairs, so no chunk but the last ends on an odd
  // panel the AVX-512 arm would hand to the AVX2 tile.
  const std::size_t pairs = (panels + 1) / 2;
  const std::size_t chunks =
      m * z * n < kParallelMatmulMinMacs
          ? 1
          : chunks_for_request(threads, pairs, pool.lanes());
  if (chunks <= 1) {
    sweep_dispatch(g, m, 0, panels);
  } else {
    pool.parallel_for(pairs, chunks, [&](std::size_t begin, std::size_t end) {
      sweep_dispatch(g, m, 2 * begin, std::min(2 * end, panels));
    });
  }
  return c;
}

const char* packed_arm_name(PackedArm arm) {
  switch (arm) {
    case PackedArm::kPortable: return "portable";
    case PackedArm::kAvx2: return "avx2";
    case PackedArm::kAvx512: return "avx512";
  }
  return "?";
}

std::vector<PackedArm> packed_matmul_arms() { return supported_arms(); }

PackedArm packed_matmul_arm() {
  const int forced = g_forced_arm.load(std::memory_order_relaxed);
  return forced >= 0 ? static_cast<PackedArm>(forced)
                     : supported_arms().back();
}

void packed_matmul_force_arm(std::optional<PackedArm> arm) {
  if (arm) {
    const std::vector<PackedArm>& arms = supported_arms();
    HACK_CHECK(std::find(arms.begin(), arms.end(), *arm) != arms.end(),
               "packed arm " << packed_arm_name(*arm)
                             << " is not supported by this CPU");
  }
  g_forced_arm.store(arm ? static_cast<int>(*arm) : -1,
                     std::memory_order_relaxed);
}

}  // namespace hack
