#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "base/thread_pool.h"

namespace hack {
namespace {

// Runs fn(i) for every output row, pool-parallel when the product is large
// enough. Nested calls (e.g. from a per-sequence serving-engine task) run
// inline on the caller via the pool's re-entrancy guard.
void for_each_row(std::size_t m, std::size_t macs,
                  const std::function<void(std::size_t)>& fn) {
  if (m <= 1 || macs < kParallelMatmulMinMacs) {
    for (std::size_t i = 0; i < m; ++i) fn(i);
    return;
  }
  ThreadPool::global().parallel_for(
      m, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      });
}

}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b) {
  HACK_CHECK(a.cols() == b.rows(), "matmul shape mismatch: " << a.rows() << "x"
                                   << a.cols() << " * " << b.rows() << "x"
                                   << b.cols());
  const std::size_t m = a.rows(), z = a.cols(), n = b.cols();
  Matrix c(m, n);
  // ikj loop order keeps the B row contiguous in the inner loop.
  for_each_row(m, m * z * n, [&](std::size_t i) {
    for (std::size_t k = 0; k < z; ++k) {
      const float aik = a(i, k);
      if (aik == 0.0f) continue;
      for (std::size_t j = 0; j < n; ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  });
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  HACK_CHECK(a.cols() == b.cols(), "matmul_nt inner dim mismatch: "
                                   << a.cols() << " vs " << b.cols());
  const std::size_t m = a.rows(), z = a.cols(), n = b.rows();
  Matrix c(m, n);
  for_each_row(m, m * z * n, [&](std::size_t i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < z; ++k) {
        acc += a(i, k) * b(j, k);
      }
      c(i, j) = acc;
    }
  });
  return c;
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      t(j, i) = a(i, j);
    }
  }
  return t;
}

Matrix softmax_rows(const Matrix& scores) {
  Matrix p(scores.rows(), scores.cols());
  for (std::size_t i = 0; i < scores.rows(); ++i) {
    const auto row = scores.row(i);
    const float row_max = *std::max_element(row.begin(), row.end());
    float denom = 0.0f;
    for (std::size_t j = 0; j < scores.cols(); ++j) {
      const float e = std::exp(scores(i, j) - row_max);
      p(i, j) = e;
      denom += e;
    }
    for (std::size_t j = 0; j < scores.cols(); ++j) {
      p(i, j) /= denom;
    }
  }
  return p;
}

Matrix softmax_rows_causal(const Matrix& scores, std::size_t key_offset) {
  Matrix p(scores.rows(), scores.cols(), 0.0f);
  for (std::size_t i = 0; i < scores.rows(); ++i) {
    const std::size_t valid = std::min(scores.cols(), key_offset + i + 1);
    HACK_CHECK(valid > 0, "causal row with no visible keys");
    float row_max = scores(i, 0);
    for (std::size_t j = 1; j < valid; ++j) {
      row_max = std::max(row_max, scores(i, j));
    }
    float denom = 0.0f;
    for (std::size_t j = 0; j < valid; ++j) {
      const float e = std::exp(scores(i, j) - row_max);
      p(i, j) = e;
      denom += e;
    }
    for (std::size_t j = 0; j < valid; ++j) {
      p(i, j) /= denom;
    }
  }
  return p;
}

Matrix add(const Matrix& a, const Matrix& b) {
  HACK_CHECK(a.rows() == b.rows() && a.cols() == b.cols(), "add shape mismatch");
  Matrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    c.flat()[i] = a.flat()[i] + b.flat()[i];
  }
  return c;
}

Matrix sub(const Matrix& a, const Matrix& b) {
  HACK_CHECK(a.rows() == b.rows() && a.cols() == b.cols(), "sub shape mismatch");
  Matrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    c.flat()[i] = a.flat()[i] - b.flat()[i];
  }
  return c;
}

Matrix scale(const Matrix& a, float alpha) {
  Matrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    c.flat()[i] = alpha * a.flat()[i];
  }
  return c;
}

Matrix vstack(const Matrix& base, const Matrix& extra) {
  if (base.empty()) return extra;
  HACK_CHECK(base.cols() == extra.cols(), "vstack column mismatch");
  Matrix c(base.rows() + extra.rows(), base.cols());
  std::copy(base.flat().begin(), base.flat().end(), c.flat().begin());
  std::copy(extra.flat().begin(), extra.flat().end(),
            c.flat().begin() + static_cast<std::ptrdiff_t>(base.size()));
  return c;
}

Matrix take_rows(const Matrix& a, std::size_t begin, std::size_t end) {
  HACK_CHECK(begin <= end && end <= a.rows(), "take_rows range invalid");
  Matrix c(end - begin, a.cols());
  for (std::size_t i = begin; i < end; ++i) {
    const auto src = a.row(i);
    std::copy(src.begin(), src.end(), c.row(i - begin).begin());
  }
  return c;
}

Matrix take_cols(const Matrix& a, std::size_t begin, std::size_t end) {
  HACK_CHECK(begin <= end && end <= a.cols(), "take_cols range invalid");
  Matrix c(a.rows(), end - begin);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = begin; j < end; ++j) {
      c(i, j - begin) = a(i, j);
    }
  }
  return c;
}

}  // namespace hack
