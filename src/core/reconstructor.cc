#include "core/reconstructor.h"

#include "linalg/kernels.h"
#include "stats/moments.h"

namespace randrecon {
namespace core {

Status ValidateShapes(const linalg::Matrix& disguised,
                      const perturb::NoiseModel& noise) {
  if (disguised.cols() != noise.num_attributes()) {
    return Status::InvalidArgument(
        "Reconstruct: data has " + std::to_string(disguised.cols()) +
        " attributes but noise model describes " +
        std::to_string(noise.num_attributes()));
  }
  if (disguised.rows() == 0) {
    return Status::InvalidArgument("Reconstruct: empty dataset");
  }
  return Status::OK();
}

void ProjectRecords(const double* disguised, size_t rows,
                    const linalg::Vector& mean, const linalg::Matrix& q_hat,
                    double* scores, double* reconstructed,
                    const ParallelOptions& parallel) {
  const size_t m = q_hat.rows();
  const size_t p = q_hat.cols();
  // PCA needs zero-mean data (§5.1.1); the noise is zero-mean, so Y's
  // means are X's. `reconstructed` holds the centered rows until MatMulABt.
  for (size_t i = 0; i < rows; ++i) {
    const double* in_row = disguised + i * m;
    double* out_row = reconstructed + i * m;
    for (size_t j = 0; j < m; ++j) out_row[j] = in_row[j] - mean[j];
  }
  linalg::kernels::MatMul(reconstructed, q_hat.data(), scores, rows, m, p,
                          parallel);
  linalg::kernels::MatMulABt(scores, q_hat.data(), reconstructed, rows, p, m,
                             parallel);
  for (size_t i = 0; i < rows; ++i) {
    double* row = reconstructed + i * m;
    for (size_t j = 0; j < m; ++j) row[j] += mean[j];
  }
}

linalg::Matrix ProjectOntoBasis(const linalg::Matrix& disguised,
                                const ProjectionBasis& basis) {
  const linalg::Matrix q_hat =
      basis.eigenvectors.LeftColumns(basis.num_components);
  linalg::Matrix scores(disguised.rows(), basis.num_components);
  linalg::Matrix reconstructed(disguised.rows(), disguised.cols());
  ProjectRecords(disguised.data(), disguised.rows(),
                 stats::ColumnMeans(disguised), q_hat, scores.data(),
                 reconstructed.data());
  return reconstructed;
}

}  // namespace core
}  // namespace randrecon
