#include "stats/streaming_moments.h"

#include <algorithm>

#include "common/check.h"
#include "linalg/kernels.h"

namespace randrecon {
namespace stats {

using linalg::kernels::kGramChunkRows;

StreamingMoments::StreamingMoments(size_t num_attributes,
                                   const ParallelOptions& options)
    : num_attributes_(num_attributes),
      options_(options),
      sums_(num_attributes, 0.0) {
  RR_CHECK_GT(num_attributes, 0u) << "StreamingMoments: zero attributes";
}

void StreamingMoments::AccumulateMeansColumns(const double* const* columns,
                                              size_t num_rows) {
  RR_CHECK(phase_ == Phase::kMeans)
      << "StreamingMoments: AccumulateMeansColumns after FinalizeMeans";
  // sums_[j] folds only column j's values, in record order: the exact
  // summation order of stats::ColumnMeans. Four columns advance together
  // so their independent add chains overlap; each column's order is
  // untouched.
  const size_t m = num_attributes_;
  size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    const double* c0 = columns[j];
    const double* c1 = columns[j + 1];
    const double* c2 = columns[j + 2];
    const double* c3 = columns[j + 3];
    double s0 = sums_[j], s1 = sums_[j + 1], s2 = sums_[j + 2],
           s3 = sums_[j + 3];
    for (size_t i = 0; i < num_rows; ++i) {
      s0 += c0[i];
      s1 += c1[i];
      s2 += c2[i];
      s3 += c3[i];
    }
    sums_[j] = s0;
    sums_[j + 1] = s1;
    sums_[j + 2] = s2;
    sums_[j + 3] = s3;
  }
  for (; j < m; ++j) {
    const double* column = columns[j];
    double sum = sums_[j];
    for (size_t i = 0; i < num_rows; ++i) sum += column[i];
    sums_[j] = sum;
  }
  mean_count_ += num_rows;
}

void StreamingMoments::FinalizeMeans() {
  RR_CHECK(phase_ == Phase::kMeans) << "StreamingMoments: double FinalizeMeans";
  RR_CHECK_GT(mean_count_, 0u) << "StreamingMoments: no records accumulated";
  means_ = sums_;
  for (double& value : means_) value /= static_cast<double>(mean_count_);
  phase_ = Phase::kScatter;
}

const linalg::Vector& StreamingMoments::means() const {
  RR_CHECK(phase_ != Phase::kMeans)
      << "StreamingMoments: means() before FinalizeMeans";
  return means_;
}

void StreamingMoments::AccumulateScatterColumns(const double* const* columns,
                                                size_t num_rows) {
  RR_CHECK(phase_ == Phase::kScatter)
      << "StreamingMoments: AccumulateScatterColumns outside the scatter phase";
  const size_t m = num_attributes_;
  if (staging_.empty() && num_rows > 0) {
    staging_.resize(kGramChunkRows * m);
    partial_.resize(m * m);
    scatter_.assign(m * m, 0.0);
  }
  size_t consumed = 0;
  while (consumed < num_rows) {
    const size_t span = std::min(num_rows - consumed,
                                 kGramChunkRows - staging_rows_);
    // Centered rows x_ij − µ_j: the element-wise op CenterColumns applies.
    linalg::kernels::ColumnsToRows(columns, consumed, span, m, means_.data(),
                                   staging_.data() + staging_rows_ * m, m);
    staging_rows_ += span;
    consumed += span;
    // Flushes happen exactly every kGramChunkRows records, so block
    // boundaries sit at global record indices that are multiples of the
    // constant — invariant to the caller's block sizes.
    if (staging_rows_ == kGramChunkRows) FlushStagingBlock();
  }
  scatter_count_ += num_rows;
}

void StreamingMoments::FlushStagingBlock() {
  const size_t m = num_attributes_;
  linalg::kernels::GramAtAChunk(staging_.data(), staging_rows_, m,
                                partial_.data(), options_);
  // Fold the block partial in block order — the same ordered merge
  // kernels::GramAtA performs, so the bits match the in-memory path.
  for (size_t p = 0; p < m; ++p) {
    double* scatter_row = scatter_.data() + p * m;
    const double* partial_row = partial_.data() + p * m;
    for (size_t q = p; q < m; ++q) scatter_row[q] += partial_row[q];
  }
  staging_rows_ = 0;
}

linalg::Matrix StreamingMoments::FinalizeCovariance(int ddof) {
  RR_CHECK(phase_ == Phase::kScatter)
      << "StreamingMoments: FinalizeCovariance outside the scatter phase";
  RR_CHECK(ddof == 0 || ddof == 1) << "ddof must be 0 or 1";
  RR_CHECK_EQ(scatter_count_, mean_count_)
      << "StreamingMoments: scatter pass saw a different record count";
  RR_CHECK_GT(mean_count_, static_cast<size_t>(ddof)) << "not enough records";
  if (staging_rows_ > 0) FlushStagingBlock();
  phase_ = Phase::kDone;

  const size_t m = num_attributes_;
  linalg::Matrix covariance(m, m);
  double* c = covariance.data();
  std::copy(scatter_.begin(), scatter_.end(), c);
  // Mirror, then divide — the order kernels::GramMatrix uses.
  for (size_t p = 0; p < m; ++p) {
    for (size_t q = p + 1; q < m; ++q) c[q * m + p] = c[p * m + q];
  }
  const double denom = static_cast<double>(mean_count_ - ddof);
  for (size_t i = 0; i < covariance.size(); ++i) c[i] /= denom;
  return covariance;
}

}  // namespace stats
}  // namespace randrecon
