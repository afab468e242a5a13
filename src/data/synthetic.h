// Synthetic data generation following §7.1 of the paper:
//
//   1. Specify Λ (a diagonal of eigenvalues).
//   2. Generate a random orthogonal Q (Gram-Schmidt of a Gaussian draw).
//   3. Form the covariance C = Q Λ Qᵀ.
//   4. Sample X ~ N(µ, C)  (the mvnrnd step).
//
// The generator returns the ground-truth covariance/eigenstructure next to
// the data so experiments can compare estimated quantities against truth.

#ifndef RANDRECON_DATA_SYNTHETIC_H_
#define RANDRECON_DATA_SYNTHETIC_H_

#include "common/result.h"
#include "data/dataset.h"
#include "stats/philox.h"

namespace randrecon {
namespace data {

/// Declarative description of a §7.1 synthetic dataset.
struct SyntheticDatasetSpec {
  /// Eigenvalues of the covariance matrix (all >= 0). Its length defines
  /// the number of attributes m.
  linalg::Vector eigenvalues;
  /// Mean vector; empty means zero mean (the paper's setting).
  linalg::Vector mean;
};

/// A generated dataset bundled with its ground truth.
struct SyntheticDataset {
  Dataset dataset;              ///< X ~ N(mean, covariance), n x m.
  linalg::Matrix covariance;    ///< C = Q Λ Qᵀ exactly as constructed.
  linalg::Matrix eigenvectors;  ///< Q (columns are eigenvectors).
  linalg::Vector eigenvalues;   ///< Λ diagonal, in spec order.
  linalg::Vector mean;          ///< The mean used.
};

/// Runs the §7.1 recipe; the basis and the mvnrnd draw (one batch
/// SampleMatrix fill) both come from `rng`. Fails with InvalidArgument
/// on empty/negative eigenvalues or a mean of the wrong length.
Result<SyntheticDataset> GenerateSpectrumDataset(
    const SyntheticDatasetSpec& spec, size_t num_records, stats::Philox* rng);

/// Builds the two-level spectrum used by every experiment: the first
/// `num_principal` eigenvalues equal `principal_value`, the remaining
/// m − p equal `residual_value`.
linalg::Vector TwoLevelSpectrum(size_t num_attributes, size_t num_principal,
                                double principal_value, double residual_value);

/// Builds a two-level spectrum whose *trace* is pinned to
/// `num_attributes * per_attribute_variance` (the Eq. 12 trick that holds
/// the UDR baseline constant across sweep points): residuals are fixed at
/// `residual_value` and the principal value is solved for. RR_CHECKs that
/// the resulting principal value stays >= residual_value.
linalg::Vector TwoLevelSpectrumWithTrace(size_t num_attributes,
                                         size_t num_principal,
                                         double residual_value,
                                         double per_attribute_variance);

/// Σλᵢ — by Eq. 12 this equals the covariance trace, i.e. the summed
/// attribute variances.
double SpectrumTrace(const linalg::Vector& eigenvalues);

/// A clustered (mixture-of-Gaussians) dataset for the §6 "other
/// distributions" extension: records come from `cluster_means.rows()`
/// clusters with equal mixing weights, all sharing one within-cluster
/// covariance built from `within_cluster_eigenvalues` via the §7.1
/// recipe. Ground truth (per-record cluster labels, shared covariance)
/// is returned for evaluation.
struct MixtureDataset {
  Dataset dataset;                    ///< n x m records.
  linalg::Matrix cluster_means;      ///< K x m.
  linalg::Matrix within_covariance;  ///< Shared m x m covariance.
  std::vector<size_t> labels;        ///< True cluster of each record.
};

/// Generates a MixtureDataset. Fails with InvalidArgument on empty
/// inputs or dimension mismatches.
Result<MixtureDataset> GenerateGaussianMixtureDataset(
    const linalg::Matrix& cluster_means,
    const linalg::Vector& within_cluster_eigenvalues, size_t num_records,
    stats::Philox* rng);

}  // namespace data
}  // namespace randrecon

#endif  // RANDRECON_DATA_SYNTHETIC_H_
