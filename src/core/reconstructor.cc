#include "core/reconstructor.h"

#include "linalg/kernels.h"

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

namespace {

/// Replaces the centered rows in `records` by their projections plus
/// `mean`. MatMul reads the rows before MatMulABt overwrites them.
void ProjectCenteredInPlace(double* records, size_t rows,
                            const linalg::Vector& mean,
                            const linalg::Matrix& q_hat, double* scores,
                            const ParallelOptions& parallel) {
  const size_t m = q_hat.rows();
  const size_t p = q_hat.cols();
  linalg::kernels::MatMul(records, q_hat.data(), scores, rows, m, p,
                          parallel);
  linalg::kernels::MatMulABt(scores, q_hat.data(), records, rows, p, m,
                             parallel);
  for (size_t i = 0; i < rows; ++i) {
    double* row = records + i * m;
    for (size_t j = 0; j < m; ++j) row[j] += mean[j];
  }
}

}  // namespace

void ProjectRecords(const double* disguised, size_t rows,
                    const linalg::Vector& mean, const linalg::Matrix& q_hat,
                    double* scores, double* reconstructed,
                    const ParallelOptions& parallel) {
  const size_t m = q_hat.rows();
  // PCA needs zero-mean data (§5.1.1); the noise is zero-mean, so Y's
  // means are X's. `reconstructed` holds the centered rows until MatMulABt.
  for (size_t i = 0; i < rows; ++i) {
    const double* in_row = disguised + i * m;
    double* out_row = reconstructed + i * m;
    for (size_t j = 0; j < m; ++j) out_row[j] = in_row[j] - mean[j];
  }
  ProjectCenteredInPlace(reconstructed, rows, mean, q_hat, scores, parallel);
}

linalg::Matrix ProjectOntoBasis(linalg::Matrix centered,
                                const linalg::Vector& mean,
                                const ProjectionBasis& basis) {
  const linalg::Matrix q_hat =
      basis.eigenvectors.LeftColumns(basis.num_components);
  linalg::Matrix scores(centered.rows(), basis.num_components);
  ProjectCenteredInPlace(centered.data(), centered.rows(), mean, q_hat,
                         scores.data(), {});
  return centered;
}

}  // namespace core
}  // namespace randrecon
