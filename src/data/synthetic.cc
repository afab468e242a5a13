#include "data/synthetic.h"

#include "linalg/eigen.h"
#include "linalg/vector_ops.h"
#include "stats/mvn.h"
#include "stats/random_orthogonal.h"

namespace randrecon {
namespace data {

Result<SyntheticDataset> GenerateSpectrumDataset(
    const SyntheticDatasetSpec& spec, size_t num_records, stats::Philox* rng) {
  const size_t m = spec.eigenvalues.size();
  if (m == 0) {
    return Status::InvalidArgument("GenerateSpectrumDataset: empty spectrum");
  }
  for (double lambda : spec.eigenvalues) {
    if (lambda < 0.0) {
      return Status::InvalidArgument(
          "GenerateSpectrumDataset: negative eigenvalue " +
          std::to_string(lambda));
    }
  }
  linalg::Vector mean = spec.mean;
  if (mean.empty()) {
    mean.assign(m, 0.0);
  } else if (mean.size() != m) {
    return Status::InvalidArgument(
        "GenerateSpectrumDataset: mean length != spectrum length");
  }

  // §7.1 steps 2-3: random orthogonal eigenbasis, C = Q Λ Qᵀ.
  linalg::Matrix q = stats::RandomOrthogonalMatrix(m, rng);
  linalg::Matrix covariance = linalg::ComposeFromEigen(spec.eigenvalues, q);

  // §7.1 step 4: the mvnrnd draw.
  RR_ASSIGN_OR_RETURN(stats::MultivariateNormalSampler sampler,
                      stats::MultivariateNormalSampler::Create(mean,
                                                               covariance));
  linalg::Matrix records = sampler.SampleMatrix(num_records, rng);

  SyntheticDataset out{Dataset(std::move(records)), std::move(covariance),
                       std::move(q), spec.eigenvalues, std::move(mean)};
  return out;
}

linalg::Vector TwoLevelSpectrum(size_t num_attributes, size_t num_principal,
                                double principal_value,
                                double residual_value) {
  RR_CHECK_LE(num_principal, num_attributes);
  RR_CHECK_GE(principal_value, 0.0);
  RR_CHECK_GE(residual_value, 0.0);
  linalg::Vector spectrum(num_attributes, residual_value);
  for (size_t i = 0; i < num_principal; ++i) spectrum[i] = principal_value;
  return spectrum;
}

linalg::Vector TwoLevelSpectrumWithTrace(size_t num_attributes,
                                         size_t num_principal,
                                         double residual_value,
                                         double per_attribute_variance) {
  RR_CHECK_GT(num_principal, 0u);
  RR_CHECK_LE(num_principal, num_attributes);
  const double m = static_cast<double>(num_attributes);
  const double p = static_cast<double>(num_principal);
  const double target_trace = m * per_attribute_variance;
  // Solve p * principal + (m - p) * residual = target_trace.
  const double principal =
      (target_trace - (m - p) * residual_value) / p;
  RR_CHECK_GE(principal, residual_value)
      << "trace too small for the requested residual level";
  return TwoLevelSpectrum(num_attributes, num_principal, principal,
                          residual_value);
}

double SpectrumTrace(const linalg::Vector& eigenvalues) {
  return linalg::Sum(eigenvalues);
}

Result<MixtureDataset> GenerateGaussianMixtureDataset(
    const linalg::Matrix& cluster_means,
    const linalg::Vector& within_cluster_eigenvalues, size_t num_records,
    stats::Philox* rng) {
  const size_t num_clusters = cluster_means.rows();
  const size_t m = cluster_means.cols();
  if (num_clusters == 0 || m == 0) {
    return Status::InvalidArgument(
        "GenerateGaussianMixtureDataset: empty cluster means");
  }
  if (within_cluster_eigenvalues.size() != m) {
    return Status::InvalidArgument(
        "GenerateGaussianMixtureDataset: eigenvalue count != attribute count");
  }

  linalg::Matrix q = stats::RandomOrthogonalMatrix(m, rng);
  linalg::Matrix covariance =
      linalg::ComposeFromEigen(within_cluster_eigenvalues, q);
  RR_ASSIGN_OR_RETURN(
      stats::MultivariateNormalSampler sampler,
      stats::MultivariateNormalSampler::CreateZeroMean(covariance));

  MixtureDataset out;
  linalg::Matrix records(num_records, m);
  out.labels.resize(num_records);
  for (size_t i = 0; i < num_records; ++i) {
    const size_t cluster = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(num_clusters) - 1));
    out.labels[i] = cluster;
    linalg::Vector record = sampler.SampleRecord(rng);
    for (size_t j = 0; j < m; ++j) record[j] += cluster_means(cluster, j);
    records.SetRow(i, record);
  }
  out.dataset = Dataset(std::move(records));
  out.cluster_means = cluster_means;
  out.within_covariance = std::move(covariance);
  return out;
}

}  // namespace data
}  // namespace randrecon
