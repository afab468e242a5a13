#include "experiment/figures.h"

#include <map>
#include <memory>

#include "common/string_util.h"
#include "core/attack_suite.h"
#include "core/be_dr.h"
#include "core/pca_dr.h"
#include "core/spectral_filtering.h"
#include "core/udr.h"
#include "data/synthetic.h"
#include "linalg/matrix_util.h"
#include "perturb/schemes.h"
#include "stats/dissimilarity.h"
#include "stats/moments.h"

namespace randrecon {
namespace experiment {
namespace {

/// Deterministic per-(sweep point, trial) seed derivation.
uint64_t DeriveSeed(uint64_t base, size_t point, size_t trial) {
  uint64_t h = base;
  h ^= (static_cast<uint64_t>(point) + 1) * 0x9E3779B97F4A7C15ULL;
  h ^= (static_cast<uint64_t>(trial) + 1) * 0xC2B2AE3D27D4EB4FULL;
  h ^= h >> 29;
  return h;
}

/// The four curves of Figures 1-3. When `common.oracle_moments` is set,
/// PCA-DR and BE-DR receive the sample covariance / mean of the original
/// data (the paper's §5.3 analysis mode); SF and UDR never use Σx.
core::AttackSuite FigureAttacks(const CommonConfig& common,
                                const data::SyntheticDataset& synthetic) {
  core::AttackSuite suite;
  core::UdrOptions udr;
  udr.estimator = common.fast_udr
                      ? core::UdrDensityEstimator::kGaussianClosedForm
                      : core::UdrDensityEstimator::kAs2000Grid;
  suite.Add(std::make_unique<core::UdrReconstructor>(udr));
  suite.Add(std::make_unique<core::SpectralFilteringReconstructor>());

  core::PcaOptions pca;
  core::BeDrOptions be;
  if (common.oracle_moments) {
    const linalg::Matrix original_cov =
        stats::SampleCovariance(synthetic.dataset.records());
    pca.oracle_covariance = original_cov;
    be.oracle_covariance = original_cov;
    be.oracle_mean = stats::ColumnMeans(synthetic.dataset.records());
  }
  suite.Add(std::make_unique<core::PcaReconstructor>(pca));
  suite.Add(std::make_unique<core::BayesEstimateReconstructor>(be));
  return suite;
}

/// One independent-noise trial: generate X from `spectrum`, disguise with
/// N(0, σ²) noise, run the suite, return RMSE per attack name.
Result<std::map<std::string, double>> RunIndependentNoiseTrial(
    const linalg::Vector& spectrum, const CommonConfig& common,
    uint64_t seed) {
  stats::Philox rng(seed);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = spectrum;
  RR_ASSIGN_OR_RETURN(
      data::SyntheticDataset synthetic,
      data::GenerateSpectrumDataset(spec, common.num_records, &rng));

  const perturb::IndependentNoiseScheme scheme =
      perturb::IndependentNoiseScheme::Gaussian(spectrum.size(),
                                                common.noise_stddev);
  RR_ASSIGN_OR_RETURN(data::Dataset disguised,
                      scheme.Disguise(synthetic.dataset, &rng));

  const core::AttackSuite suite = FigureAttacks(common, synthetic);
  RR_ASSIGN_OR_RETURN(
      std::vector<core::ReconstructionReport> reports,
      suite.RunAll(synthetic.dataset, disguised, scheme.noise_model()));

  std::map<std::string, double> rmse;
  for (const core::ReconstructionReport& report : reports) {
    rmse[report.attack_name] = report.rmse;
  }
  return rmse;
}

/// Averages RunIndependentNoiseTrial over common.num_trials.
Result<std::map<std::string, double>> AverageIndependentNoiseTrials(
    const linalg::Vector& spectrum, const CommonConfig& common,
    size_t point_index) {
  std::map<std::string, double> sums;
  for (size_t trial = 0; trial < common.num_trials; ++trial) {
    RR_ASSIGN_OR_RETURN(
        auto rmse,
        RunIndependentNoiseTrial(
            spectrum, common, DeriveSeed(common.seed, point_index, trial)));
    for (const auto& [name, value] : rmse) sums[name] += value;
  }
  for (auto& [name, value] : sums) {
    value /= static_cast<double>(common.num_trials);
  }
  return sums;
}

/// Appends one x point to each of the four scheme series.
void AppendPoint(double x, const std::map<std::string, double>& rmse,
                 std::map<std::string, Series>* series) {
  for (const auto& [name, value] : rmse) {
    (*series)[name].name = name;
    (*series)[name].points.push_back({x, value});
  }
}

/// Assembles series in the paper's legend order.
std::vector<Series> InLegendOrder(std::map<std::string, Series> series,
                                  const std::vector<std::string>& order) {
  std::vector<Series> out;
  for (const std::string& name : order) {
    auto it = series.find(name);
    if (it != series.end()) out.push_back(std::move(it->second));
  }
  return out;
}

}  // namespace

Result<ExperimentResult> RunFigure1(const Figure1Config& config) {
  RR_RETURN_NOT_OK(config.common.Validate());
  if (config.num_principal == 0) {
    return Status::InvalidArgument("Figure1: num_principal must be >= 1");
  }
  ExperimentResult result;
  result.experiment_id = "Figure 1";
  result.title = "Increase the Number of Attributes (p = " +
                 std::to_string(config.num_principal) + " fixed)";
  result.x_label = "num_attributes";
  result.y_label = "Root Mean Square Error";

  std::map<std::string, Series> series;
  size_t point_index = 0;
  for (size_t m : config.attribute_counts) {
    if (m < config.num_principal) {
      return Status::InvalidArgument(
          "Figure1: attribute count " + std::to_string(m) +
          " below num_principal");
    }
    // Eq. 12 trace pin: Σλ = m · per_attribute_variance keeps the UDR
    // baseline flat while m (hence correlation redundancy) grows.
    const linalg::Vector spectrum = data::TwoLevelSpectrumWithTrace(
        m, config.num_principal, config.residual_eigenvalue,
        config.common.per_attribute_variance);
    RR_ASSIGN_OR_RETURN(auto rmse, AverageIndependentNoiseTrials(
                                       spectrum, config.common, point_index));
    AppendPoint(static_cast<double>(m), rmse, &series);
    ++point_index;
  }
  result.series =
      InLegendOrder(std::move(series), {"UDR", "SF", "PCA-DR", "BE-DR"});
  return result;
}

Result<ExperimentResult> RunFigure2(const Figure2Config& config) {
  RR_RETURN_NOT_OK(config.common.Validate());
  ExperimentResult result;
  result.experiment_id = "Figure 2";
  result.title = "Increase the Number of Principal Components (m = " +
                 std::to_string(config.num_attributes) + ")";
  result.x_label = "num_principal";
  result.y_label = "Root Mean Square Error";

  std::map<std::string, Series> series;
  size_t point_index = 0;
  for (size_t p : config.principal_counts) {
    if (p == 0 || p > config.num_attributes) {
      return Status::InvalidArgument("Figure2: invalid principal count " +
                                     std::to_string(p));
    }
    const linalg::Vector spectrum = data::TwoLevelSpectrumWithTrace(
        config.num_attributes, p, config.residual_eigenvalue,
        config.common.per_attribute_variance);
    RR_ASSIGN_OR_RETURN(auto rmse, AverageIndependentNoiseTrials(
                                       spectrum, config.common, point_index));
    AppendPoint(static_cast<double>(p), rmse, &series);
    ++point_index;
  }
  result.series =
      InLegendOrder(std::move(series), {"UDR", "SF", "PCA-DR", "BE-DR"});
  return result;
}

Result<ExperimentResult> RunFigure3(const Figure3Config& config) {
  RR_RETURN_NOT_OK(config.common.Validate());
  if (config.num_principal == 0 ||
      config.num_principal > config.num_attributes) {
    return Status::InvalidArgument("Figure3: invalid num_principal");
  }
  ExperimentResult result;
  result.experiment_id = "Figure 3";
  result.title =
      "Increase the Eigenvalues of the non-Principal Components (lambda = " +
      FormatDouble(config.principal_eigenvalue, 0) + ")";
  result.x_label = "residual_eigenvalue";
  result.y_label = "Root Mean Square Error";

  std::map<std::string, Series> series;
  size_t point_index = 0;
  for (double residual : config.residual_eigenvalues) {
    if (residual < 0.0 || residual >= config.principal_eigenvalue) {
      return Status::InvalidArgument(
          "Figure3: residual eigenvalue must be in [0, lambda)");
    }
    const linalg::Vector spectrum = data::TwoLevelSpectrum(
        config.num_attributes, config.num_principal,
        config.principal_eigenvalue, residual);
    RR_ASSIGN_OR_RETURN(auto rmse, AverageIndependentNoiseTrials(
                                       spectrum, config.common, point_index));
    AppendPoint(residual, rmse, &series);
    ++point_index;
  }
  result.series =
      InLegendOrder(std::move(series), {"UDR", "SF", "PCA-DR", "BE-DR"});
  return result;
}

Result<ExperimentResult> RunFigure4(const Figure4Config& config) {
  RR_RETURN_NOT_OK(config.common.Validate());
  if (config.num_principal == 0 ||
      config.num_principal > config.num_attributes) {
    return Status::InvalidArgument("Figure4: invalid num_principal");
  }
  ExperimentResult result;
  result.experiment_id = "Figure 4";
  result.title =
      "Increasing the correlation dissimilarity of data and random noise";
  result.x_label = "dissimilarity";
  result.y_label = "Root Mean Square Error";

  const size_t m = config.num_attributes;
  const double sigma2 = config.common.noise_stddev * config.common.noise_stddev;
  // Data spectrum: first 50 eigenvalues "have large numbers" (trace-pinned
  // like the other figures).
  const linalg::Vector data_spectrum = data::TwoLevelSpectrumWithTrace(
      m, config.num_principal, config.residual_eigenvalue,
      config.common.per_attribute_variance);

  // Noise eigenvalue profiles at the two interpolation ends, both with
  // trace m·σ² (total noise power equal to independent noise):
  //  * t = 0 "similar": proportional to the data spectrum — noise
  //    concentrates on the data's principal components (§8.1's recipe);
  //  * t = 1 "dissimilar": the reversed profile — noise concentrates on
  //    the non-principal components (the paper's right-of-the-line
  //    regime).
  const double noise_trace = static_cast<double>(m) * sigma2;
  const double data_trace = data::SpectrumTrace(data_spectrum);
  linalg::Vector similar(m), dissimilar(m);
  for (size_t i = 0; i < m; ++i) {
    similar[i] = data_spectrum[i] * noise_trace / data_trace;
    dissimilar[i] = data_spectrum[m - 1 - i] * noise_trace / data_trace;
  }

  std::map<std::string, Series> series;
  double independent_dissimilarity_sum = 0.0;
  size_t independent_dissimilarity_count = 0;

  size_t point_index = 0;
  for (double knob : config.similarity_knobs) {
    if (knob < 0.0 || knob > 1.0) {
      return Status::InvalidArgument("Figure4: similarity knob out of [0,1]");
    }
    const linalg::Vector noise_spectrum =
        perturb::InterpolateSpectra(similar, dissimilar, knob);

    std::map<std::string, double> rmse_sums;
    double dissimilarity_sum = 0.0;
    for (size_t trial = 0; trial < config.common.num_trials; ++trial) {
      stats::Philox rng(DeriveSeed(config.common.seed, point_index, trial));
      data::SyntheticDatasetSpec spec;
      spec.eigenvalues = data_spectrum;
      RR_ASSIGN_OR_RETURN(
          data::SyntheticDataset synthetic,
          data::GenerateSpectrumDataset(spec, config.common.num_records, &rng));

      // §8.2: "we fix the eigenvectors of the noises to be the same as
      // those of the original data, and we then change the eigenvalues."
      RR_ASSIGN_OR_RETURN(perturb::CorrelatedGaussianScheme scheme,
                          perturb::CorrelatedGaussianScheme::FromEigenstructure(
                              synthetic.eigenvectors, noise_spectrum));
      RR_ASSIGN_OR_RETURN(data::Dataset disguised,
                          scheme.Disguise(synthetic.dataset, &rng));

      // x-axis: Definition 8.1 on the data vs noise correlation matrices.
      const linalg::Matrix corr_x =
          linalg::CovarianceToCorrelation(synthetic.covariance);
      const linalg::Matrix corr_r =
          linalg::CovarianceToCorrelation(scheme.noise_model().covariance());
      RR_ASSIGN_OR_RETURN(double dis,
                          stats::CorrelationDissimilarity(corr_x, corr_r));
      dissimilarity_sum += dis;

      RR_ASSIGN_OR_RETURN(double independent_dis,
                          stats::DissimilarityToIndependentNoise(corr_x));
      independent_dissimilarity_sum += independent_dis;
      ++independent_dissimilarity_count;

      // Figure 4's line-up: SF, PCA-DR and the improved (Theorem 8.1)
      // BE-DR — our BE-DR applies Theorem 8.1 whenever the NoiseModel is
      // correlated. Oracle moments per the shared §5.3 analysis mode.
      core::AttackSuite suite;
      suite.Add(std::make_unique<core::SpectralFilteringReconstructor>());
      core::PcaOptions pca;
      core::BeDrOptions be;
      if (config.common.oracle_moments) {
        const linalg::Matrix original_cov =
            stats::SampleCovariance(synthetic.dataset.records());
        pca.oracle_covariance = original_cov;
        be.oracle_covariance = original_cov;
        be.oracle_mean = stats::ColumnMeans(synthetic.dataset.records());
      }
      suite.Add(std::make_unique<core::PcaReconstructor>(pca));
      suite.Add(std::make_unique<core::BayesEstimateReconstructor>(be));
      RR_ASSIGN_OR_RETURN(
          std::vector<core::ReconstructionReport> reports,
          suite.RunAll(synthetic.dataset, disguised, scheme.noise_model()));
      for (const core::ReconstructionReport& report : reports) {
        rmse_sums[report.attack_name] += report.rmse;
      }
    }
    const double trials = static_cast<double>(config.common.num_trials);
    const double x = dissimilarity_sum / trials;
    for (auto& [name, value] : rmse_sums) value /= trials;
    AppendPoint(x, rmse_sums, &series);
    ++point_index;
  }

  result.series =
      InLegendOrder(std::move(series), {"SF", "PCA-DR", "BE-DR"});
  // The paper labels Figure 4's Bayes curve "Improved BE-DR" (it applies
  // Theorem 8.1 instead of Eq. 11).
  for (Series& s : result.series) {
    if (s.name == "BE-DR") s.name = "Improved-BE-DR";
  }
  if (independent_dissimilarity_count > 0) {
    result.notes.push_back(
        "independent (uncorrelated) noise falls at dissimilarity = " +
        FormatDouble(independent_dissimilarity_sum /
                         static_cast<double>(independent_dissimilarity_count),
                     4) +
        " (the paper's vertical line)");
  }
  return result;
}

}  // namespace experiment
}  // namespace randrecon
