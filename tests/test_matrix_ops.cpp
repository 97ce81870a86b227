#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/packed_matrix.h"

namespace hack {
namespace {

TEST(Matrix, ShapeAndFill) {
  Matrix m(3, 4, 2.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (const float v : m.flat()) EXPECT_EQ(v, 2.5f);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), CheckError);
  EXPECT_THROW(m.at(0, 2), CheckError);
}

TEST(Matrix, FromRowsValidatesSize) {
  EXPECT_THROW(Matrix::from_rows(2, 2, {1.0f, 2.0f, 3.0f}), CheckError);
}

TEST(Matmul, KnownProduct) {
  const Matrix a = Matrix::from_rows(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix b = Matrix::from_rows(3, 2, {7, 8, 9, 10, 11, 12});
  const Matrix c = matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(Matmul, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(matmul(a, b), CheckError);
}

TEST(MatmulNT, AgreesWithExplicitTranspose) {
  Rng rng(42);
  const Matrix a = Matrix::random_uniform(5, 7, rng);
  const Matrix b = Matrix::random_uniform(6, 7, rng);
  const Matrix direct = matmul_nt(a, b);
  const Matrix via_transpose = matmul(a, transpose(b));
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct.flat()[i], via_transpose.flat()[i], 1e-5f);
  }
}

TEST(Transpose, Involution) {
  Rng rng(1);
  const Matrix a = Matrix::random_uniform(4, 9, rng);
  EXPECT_TRUE(transpose(transpose(a)) == a);
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(2);
  const Matrix s = Matrix::random_uniform(6, 11, rng, -5.0f, 5.0f);
  const Matrix p = softmax_rows(s);
  for (std::size_t i = 0; i < p.rows(); ++i) {
    float sum = 0.0f;
    for (std::size_t j = 0; j < p.cols(); ++j) {
      EXPECT_GT(p(i, j), 0.0f);
      sum += p(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Softmax, InvariantToRowShift) {
  const Matrix a = Matrix::from_rows(1, 3, {1.0f, 2.0f, 3.0f});
  const Matrix b = Matrix::from_rows(1, 3, {101.0f, 102.0f, 103.0f});
  const Matrix pa = softmax_rows(a);
  const Matrix pb = softmax_rows(b);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(pa(0, j), pb(0, j), 1e-6f);
  }
}

TEST(Softmax, NumericallyStableAtLargeMagnitude) {
  const Matrix a = Matrix::from_rows(1, 2, {1000.0f, 999.0f});
  const Matrix p = softmax_rows(a);
  EXPECT_FALSE(std::isnan(p(0, 0)));
  EXPECT_NEAR(p(0, 0) + p(0, 1), 1.0f, 1e-6f);
  EXPECT_GT(p(0, 0), p(0, 1));
}

TEST(SoftmaxCausal, MasksFutureKeys) {
  Rng rng(3);
  const Matrix s = Matrix::random_uniform(4, 4, rng);
  const Matrix p = softmax_rows_causal(s, /*key_offset=*/0);
  for (std::size_t i = 0; i < 4; ++i) {
    float sum = 0.0f;
    for (std::size_t j = 0; j < 4; ++j) {
      if (j > i) {
        EXPECT_EQ(p(i, j), 0.0f) << i << "," << j;
      }
      sum += p(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxCausal, OffsetShiftsVisibility) {
  Rng rng(4);
  const Matrix s = Matrix::random_uniform(2, 6, rng);
  const Matrix p = softmax_rows_causal(s, /*key_offset=*/3);
  // Row 0 sees keys 0..3, row 1 sees 0..4.
  EXPECT_EQ(p(0, 4), 0.0f);
  EXPECT_EQ(p(0, 5), 0.0f);
  EXPECT_EQ(p(1, 5), 0.0f);
  EXPECT_GT(p(1, 4), 0.0f);
}

TEST(AddSubScale, Elementwise) {
  const Matrix a = Matrix::from_rows(2, 2, {1, 2, 3, 4});
  const Matrix b = Matrix::from_rows(2, 2, {10, 20, 30, 40});
  const Matrix sum = add(a, b);
  const Matrix diff = sub(b, a);
  const Matrix twice = scale(a, 2.0f);
  EXPECT_FLOAT_EQ(sum(1, 1), 44.0f);
  EXPECT_FLOAT_EQ(diff(0, 1), 18.0f);
  EXPECT_FLOAT_EQ(twice(1, 0), 6.0f);
}

TEST(Vstack, StacksRows) {
  const Matrix a = Matrix::from_rows(1, 2, {1, 2});
  const Matrix b = Matrix::from_rows(2, 2, {3, 4, 5, 6});
  const Matrix c = vstack(a, b);
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_FLOAT_EQ(c(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(c(2, 1), 6.0f);
}

TEST(Vstack, EmptyBaseReturnsExtra) {
  const Matrix b = Matrix::from_rows(2, 2, {3, 4, 5, 6});
  EXPECT_TRUE(vstack(Matrix(), b) == b);
}

TEST(TakeRowsCols, Slicing) {
  const Matrix a = Matrix::from_rows(3, 3, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Matrix mid_rows = take_rows(a, 1, 2);
  EXPECT_EQ(mid_rows.rows(), 1u);
  EXPECT_FLOAT_EQ(mid_rows(0, 2), 6.0f);
  const Matrix right_cols = take_cols(a, 2, 3);
  EXPECT_EQ(right_cols.cols(), 1u);
  EXPECT_FLOAT_EQ(right_cols(1, 0), 6.0f);
}

TEST(Tensor3, SliceRoundTrip) {
  Tensor3 t(2, 3, 4);
  Rng rng(5);
  const Matrix m = Matrix::random_uniform(3, 4, rng);
  t.set_slice(1, m);
  EXPECT_TRUE(t.slice(1) == m);
  // Slice 0 untouched. (Bind the slice: flat() returns a span into it.)
  const Matrix s0 = t.slice(0);
  for (const float v : s0.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(Matrix, RoundToFp16AppliesPrecisionFilter) {
  Matrix m = Matrix::from_rows(1, 2, {1.0000001f, 3.14159265f});
  m.round_to_fp16();
  EXPECT_EQ(m(0, 0), 1.0f);
  EXPECT_NEAR(m(0, 1), 3.140625f, 1e-6f);  // nearest binary16 to pi
}

// ------------------------------------------------------------ packed GEMM

// memcmp, not ==: the packed kernel must reproduce every bit of matmul,
// including the sign of zeros.
bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.size() * sizeof(float)) == 0;
}

// A with exact zeros matmul's `aik == 0` skip fires on: scattered +0/-0
// entries, one whole zero row and one whole zero column.
Matrix a_with_zeros(std::size_t m, std::size_t z, Rng& rng) {
  Matrix a = Matrix::random_uniform(m, z, rng);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < z; ++k) {
      if ((i * 7 + k * 3) % 5 == 0) a(i, k) = (k % 2 == 0) ? 0.0f : -0.0f;
    }
  }
  if (m > 2) {
    for (std::size_t k = 0; k < z; ++k) a(m / 2, k) = 0.0f;
  }
  for (std::size_t i = 0; i < m; ++i) a(i, z / 2) = 0.0f;
  return a;
}

// Runs fn(arm name) once on every packed-kernel arm this CPU has, forced,
// restoring run-time dispatch afterwards.
template <typename Fn>
void for_each_arm(Fn&& fn) {
  for (const PackedArm arm : packed_matmul_arms()) {
    packed_matmul_force_arm(arm);
    fn(packed_arm_name(arm));
  }
  packed_matmul_force_arm(std::nullopt);
}

// The arms for_each_arm runs here, for the test log.
void print_arms() {
  std::string names;
  for (const PackedArm arm : packed_matmul_arms()) {
    names += std::string(" ") + packed_arm_name(arm);
  }
  std::printf("packed GEMM arms exercised:%s\n", names.c_str());
}

TEST(PackedMatmul, BitIdenticalToMatmulAcrossShapes) {
  Rng rng(2024);
  const std::vector<std::size_t> ms = {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 128};
  for (const std::size_t z : {1u, 37u, 129u}) {
    // 24 and 1000 leave an odd trailing panel (3 and 125 panels).
    for (const std::size_t n : {1u, 7u, 13u, 24u, 100u, 256u, 1000u}) {
      const Matrix b = Matrix::random_gaussian(z, n, rng);
      const PackedMatrix packed(b);
      for (const std::size_t m : ms) {
        const Matrix a = a_with_zeros(m, z, rng);
        const Matrix want = matmul(a, b);
        for_each_arm([&](const char* arm) {
          EXPECT_TRUE(bitwise_equal(matmul(a, packed), want))
              << "m " << m << " z " << z << " n " << n << " arm " << arm;
        });
      }
    }
  }
  print_arms();
}

// Above the parallel threshold the panels split over the pool; the result
// must not depend on the partition.
TEST(PackedMatmul, BitIdenticalForAnyPoolPartition) {
  Rng rng(77);
  const std::size_t z = 1023, n = 300;
  const Matrix b = Matrix::random_gaussian(z, n, rng);
  const PackedMatrix packed(b);
  for (const std::size_t m : {8u, 17u, 128u}) {
    ASSERT_GE(m * z * n, kParallelMatmulMinMacs);
    const Matrix a = a_with_zeros(m, z, rng);
    const Matrix want = matmul(a, b);
    for_each_arm([&](const char* arm) {
      for (const int lanes : {1, 2, 4}) {
        EXPECT_TRUE(bitwise_equal(matmul(a, packed, lanes), want))
            << "m " << m << " lanes " << lanes << " arm " << arm;
      }
    });
  }
}

TEST(PackedMatmul, KeepsShapeAndPadsNothingIntoC) {
  const Matrix b = Matrix::from_rows(2, 3, {7, 8, 9, 10, 11, 12});
  const PackedMatrix packed(b);
  EXPECT_EQ(packed.rows(), 2u);
  EXPECT_EQ(packed.cols(), 3u);
  EXPECT_EQ(packed.panels(), 1u);
  EXPECT_EQ(packed.stored_size(), 2u * PackedMatrix::kPanelCols);
  const Matrix a = Matrix::from_rows(2, 2, {1, 2, 3, 4});
  const Matrix c = matmul(a, packed);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 3u);
  EXPECT_EQ(c(0, 0), 27.0f);
  EXPECT_EQ(c(1, 2), 75.0f);
}

TEST(PackedMatmul, ShapeMismatchThrows) {
  const PackedMatrix packed(Matrix(3, 4));
  EXPECT_THROW(matmul(Matrix(2, 2), packed), CheckError);
}

// Packing row by row as rows are drawn (how the model builds its weights)
// gives the same matrix as packing the whole row-major draw.
TEST(PackedMatrix, RowByRowPackingMatchesWholeMatrix) {
  Rng whole_rng(31), row_rng(31);
  const Matrix b = Matrix::random_gaussian(13, 21, whole_rng);
  PackedMatrix by_row(13, 21);
  for (std::size_t k = 0; k < 13; ++k) {
    by_row.set_row(k, Matrix::random_gaussian(1, 21, row_rng).row(0));
  }
  Rng a_rng(32);
  const Matrix a = Matrix::random_uniform(5, 13, a_rng);
  EXPECT_TRUE(bitwise_equal(matmul(a, by_row), matmul(a, PackedMatrix(b))));
  EXPECT_THROW(by_row.set_row(13, b.row(0)), CheckError);
  EXPECT_THROW(by_row.set_row(0, std::vector<float>(20, 1.0f)), CheckError);
}

// Packing a transpose column by column (how the model packs its tied
// embedding) gives the same panels as packing it row by row, and copy_col
// reads a column back.
TEST(PackedMatrix, ColumnPackingMatchesRowPacking) {
  Rng rng(33);
  const Matrix b = Matrix::random_gaussian(11, 19, rng);
  const Matrix bt = transpose(b);
  PackedMatrix by_col(11, 19);
  for (std::size_t j = 0; j < 19; ++j) by_col.set_col(j, bt.row(j));
  const Matrix a = Matrix::random_uniform(3, 11, rng);
  EXPECT_TRUE(bitwise_equal(matmul(a, by_col), matmul(a, PackedMatrix(b))));
  std::vector<float> col(11);
  for (std::size_t j = 0; j < 19; ++j) {
    by_col.copy_col(j, col);
    for (std::size_t k = 0; k < 11; ++k) EXPECT_EQ(col[k], b(k, j));
  }
  EXPECT_THROW(by_col.set_col(19, bt.row(0)), CheckError);
  EXPECT_THROW(by_col.copy_col(0, std::span<float>(col).first(10)),
               CheckError);
  std::vector<float> bad(11, 1.0f);
  bad[4] = std::numeric_limits<float>::infinity();
  EXPECT_THROW(by_col.set_col(2, bad), CheckError);
}

// Run-time dispatch picks the widest arm the CPU has; forcing an arm and
// clearing the force round-trips.
TEST(PackedMatmul, DispatchPicksWidestArm) {
  const std::vector<PackedArm> arms = packed_matmul_arms();
  ASSERT_FALSE(arms.empty());
  EXPECT_EQ(arms.front(), PackedArm::kPortable);
  EXPECT_EQ(packed_matmul_arm(), arms.back());
  packed_matmul_force_arm(PackedArm::kPortable);
  EXPECT_EQ(packed_matmul_arm(), PackedArm::kPortable);
  packed_matmul_force_arm(std::nullopt);
  EXPECT_EQ(packed_matmul_arm(), arms.back());
}

// Finite weights are the precondition of dropping matmul's zero skip
// (0 * inf is NaN), so packing rejects anything else.
TEST(PackedMatrix, RejectsNonFiniteWeights) {
  for (const float bad : {std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()}) {
    Matrix b(4, 9, 0.5f);
    b(3, 8) = bad;
    EXPECT_THROW(PackedMatrix{b}, CheckError) << bad;
    PackedMatrix rows(4, 9);
    EXPECT_THROW(rows.set_row(3, b.row(3)), CheckError) << bad;
  }
}

}  // namespace
}  // namespace hack
