#include "stats/mvn.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "linalg/cholesky.h"
#include "linalg/eigen.h"
#include "linalg/kernels.h"
#include "linalg/matrix_util.h"

namespace randrecon {
namespace stats {

Result<MultivariateNormalSampler> MultivariateNormalSampler::Create(
    const linalg::Vector& mean, const linalg::Matrix& covariance) {
  if (covariance.rows() != covariance.cols()) {
    return Status::InvalidArgument("MVN: covariance is not square");
  }
  if (mean.size() != covariance.rows()) {
    return Status::InvalidArgument("MVN: mean length != covariance dimension");
  }
  if (!linalg::IsSymmetric(covariance,
                           1e-8 * (1.0 + linalg::FrobeniusNorm(covariance)))) {
    return Status::InvalidArgument("MVN: covariance is not symmetric");
  }

  // Fast path: positive-definite covariance factors via Cholesky.
  Result<linalg::CholeskyFactorization> chol =
      linalg::CholeskyFactorization::Compute(covariance);
  if (chol.ok()) {
    return MultivariateNormalSampler(mean, chol.value().lower());
  }

  // PSD (possibly singular) path: A = Q √Λ with negative eigenvalues
  // clipped at zero; reject covariances that are meaningfully indefinite.
  RR_ASSIGN_OR_RETURN(linalg::EigenDecomposition eig,
                      linalg::SymmetricEigen(covariance));
  const double scale = linalg::FrobeniusNorm(covariance);
  const double tolerance = 1e-8 * (1.0 + scale);
  linalg::Matrix factor = eig.eigenvectors;
  for (size_t j = 0; j < factor.cols(); ++j) {
    double lambda = eig.eigenvalues[j];
    if (lambda < -tolerance) {
      return Status::NumericalError(
          "MVN: covariance has negative eigenvalue " + std::to_string(lambda));
    }
    const double root = lambda > 0.0 ? std::sqrt(lambda) : 0.0;
    for (size_t i = 0; i < factor.rows(); ++i) factor(i, j) *= root;
  }
  return MultivariateNormalSampler(mean, std::move(factor));
}

Result<MultivariateNormalSampler> MultivariateNormalSampler::CreateZeroMean(
    const linalg::Matrix& covariance) {
  return Create(linalg::Vector(covariance.rows(), 0.0), covariance);
}

linalg::Vector MultivariateNormalSampler::SampleRecord(Philox* rng) const {
  const size_t m = dimension();
  linalg::Vector z(m);
  for (size_t i = 0; i < m; ++i) z[i] = rng->Gaussian();
  linalg::Vector x = factor_ * z;
  for (size_t i = 0; i < m; ++i) x[i] += mean_[i];
  return x;
}

namespace {

/// x = z Aᵀ + mean for a row-major block of `rows` records.
void ApplyFactor(const double* z, const linalg::Matrix& factor,
                 const linalg::Vector& mean, size_t rows, double* out) {
  const size_t m = factor.rows();
  linalg::kernels::MatMulABt(z, factor.data(), out, rows, m, m);
  bool zero_mean = true;
  for (size_t j = 0; j < m; ++j) {
    if (mean[j] != 0.0) {
      zero_mean = false;
      break;
    }
  }
  if (zero_mean) return;
  for (size_t i = 0; i < rows; ++i) {
    double* row = out + i * m;
    for (size_t j = 0; j < m; ++j) row[j] += mean[j];
  }
}

}  // namespace

void ForEachBatchBlock(
    uint64_t record_begin, size_t rows, const ParallelOptions& options,
    const std::function<void(uint64_t, uint64_t, uint64_t)>& body) {
  if (rows == 0) return;
  const uint64_t r0 = record_begin;
  const uint64_t r1 = record_begin + rows;
  const uint64_t b0 = r0 / kBatchBlockRows;
  const uint64_t b1 = (r1 - 1) / kBatchBlockRows;
  ParallelForEach(0, static_cast<size_t>(b1 - b0 + 1), [&](size_t i) {
    const uint64_t b = b0 + i;
    const uint64_t lo = std::max<uint64_t>(r0, b * kBatchBlockRows);
    const uint64_t hi = std::min<uint64_t>(r1, (b + 1) * kBatchBlockRows);
    body(b, lo, hi);
  }, options);
}

linalg::Matrix MultivariateNormalSampler::SampleMatrix(size_t n,
                                                       Philox* gen) const {
  const size_t m = dimension();
  linalg::Matrix z(n, m);
  gen->FillGaussian(z.data(), n * m);
  linalg::Matrix out(n, m);
  ApplyFactor(z.data(), factor_, mean_, n, out.data());
  return out;
}

void MultivariateNormalSampler::SampleBlockSlice(const Philox& base,
                                                 uint64_t block_index,
                                                 size_t row_begin,
                                                 size_t row_end,
                                                 double* out) const {
  RR_CHECK(row_begin < row_end && row_end <= kBatchBlockRows)
      << "SampleBlockSlice: bad row range";
  const size_t m = dimension();
  std::vector<double> z(kBatchBlockRows * m);
  GaussianSliceAt(base.Substream(block_index), 0, z.data(),
                  kBatchBlockRows * m);
  if (row_begin == 0 && row_end == kBatchBlockRows) {
    ApplyFactor(z.data(), factor_, mean_, kBatchBlockRows, out);
    return;
  }
  // Partial slice: the product still runs over the FULL block so the
  // bytes match the full-block path, then the slice is copied out.
  std::vector<double> x(kBatchBlockRows * m);
  ApplyFactor(z.data(), factor_, mean_, kBatchBlockRows, x.data());
  std::memcpy(out, x.data() + row_begin * m,
              (row_end - row_begin) * m * sizeof(double));
}

void MultivariateNormalSampler::SampleRecordsAt(
    const Philox& base, uint64_t record_begin, size_t rows,
    linalg::Matrix* out, size_t out_row, const ParallelOptions& options) const {
  if (rows == 0) return;
  const size_t m = dimension();
  RR_CHECK_EQ(out->cols(), m) << "SampleRecordsAt: output width mismatch";
  RR_CHECK_LE(out_row + rows, out->rows());
  ForEachBatchBlock(
      record_begin, rows, options, [&](uint64_t b, uint64_t lo, uint64_t hi) {
        SampleBlockSlice(
            base, b, static_cast<size_t>(lo - b * kBatchBlockRows),
            static_cast<size_t>(hi - b * kBatchBlockRows),
            out->row_data(out_row + static_cast<size_t>(lo - record_begin)));
      });
}

}  // namespace stats
}  // namespace randrecon
