// Dense fp32 weights packed into column panels, and the GEMM that reads them.
//
// The model's projections multiply a block of hidden rows (one per decode
// lane, or a prefill chunk) by a fixed K x N weight matrix. `matmul` on a
// row-major B streams all of B once per output row, so stacking rows buys
// nothing on one core. PackedMatrix stores B as ceil(N / 8) column panels;
// panel p holds columns [8p, 8p + 8) for every k, contiguously and k-major
// (panel[k * 8 + jj] = B(k, 8p + jj)), the last panel zero-padded. The kernel
// keeps an R-row x 8-column tile of C in registers while it walks one panel
// (16 columns over two adjacent panels on the AVX-512 arm), so each panel is
// read once per R rows instead of once per row.
//
// Bit-identity with matmul(a, unpacked B): every C(i, j) starts at +0 and
// accumulates a(i, k) * B(k, j) in ascending k, one rounded multiply then one
// rounded add per step (no FMA, in any dispatch arm). matmul skips
// a(i, k) == 0; the packed kernel does not, which adds a(i, k) * B(k, j) =
// ±0 instead. That is the identity on C because C is never -0 (it starts at
// +0, and a rounded sum is -0 only when both addends are), provided B(k, j)
// is finite — which the constructor checks. The result therefore equals
// matmul bit for bit for any row count, tile shape or pool partition.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "tensor/matrix.h"

namespace hack {

class PackedMatrix {
 public:
  static constexpr std::size_t kPanelCols = 8;

  PackedMatrix() = default;
  // A K x N matrix of zeros, to be filled with set_row.
  PackedMatrix(std::size_t rows, std::size_t cols);
  // Packs a row-major K x N matrix. Every entry must be finite.
  explicit PackedMatrix(const Matrix& b);

  // Overwrites row k with `values` (cols() entries, each finite). Lets a
  // caller pack a matrix as it is generated, one row held unpacked at a time.
  void set_row(std::size_t k, std::span<const float> values);
  // Overwrites column j with `values` (rows() entries, each finite): packs
  // a transpose as its rows are generated.
  void set_col(std::size_t j, std::span<const float> values);
  // Copies column j (rows() entries) into `out`.
  void copy_col(std::size_t j, std::span<float> out) const;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t panels() const { return (cols_ + kPanelCols - 1) / kPanelCols; }

  // Panel p: rows() x kPanelCols floats, k-major.
  const float* panel(std::size_t p) const {
    return data_.data() + p * rows_ * kPanelCols;
  }

  // Stored floats, padding included.
  std::size_t stored_size() const { return data_.size(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

// C = A * B with B packed. A is M x K. Bit-identical to matmul(A, B) on the
// unpacked B (see above). Products of at least kParallelMatmulMinMacs split
// B's panels over the shared ThreadPool; a column's result does not depend
// on which lane computes it. `threads` follows the library convention
// (0 = all pool lanes, 1 = serial, N = at most N chunks of panels).
Matrix matmul(const Matrix& a, const PackedMatrix& b, int threads = 0);

// The packed kernel's dispatch arms. kAvx512 holds two adjacent panels in
// one 16-wide register; kAvx2 one panel per 8-wide register; kPortable is
// plain C++. All three give the same bits.
enum class PackedArm { kPortable, kAvx2, kAvx512 };

const char* packed_arm_name(PackedArm arm);

// The arms this CPU can run, portable first. Run-time dispatch picks the
// last one.
std::vector<PackedArm> packed_matmul_arms();

// The arm the next packed matmul runs.
PackedArm packed_matmul_arm();

// Test hook: force `arm` (one of packed_matmul_arms()) regardless of what
// dispatch would pick, or restore dispatch with std::nullopt. Not
// thread-safe against in-flight GEMMs; flip it only around single-threaded
// test sections.
void packed_matmul_force_arm(std::optional<PackedArm> arm);

}  // namespace hack
