#include "core/partial_disclosure.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/be_dr.h"
#include "data/synthetic.h"
#include "linalg/matrix_util.h"
#include "perturb/schemes.h"
#include "stats/moments.h"
#include "stats/rng.h"

namespace randrecon {
namespace core {
namespace {

using linalg::Matrix;
using linalg::Vector;

struct Scenario {
  data::SyntheticDataset synthetic;
  data::Dataset disguised;
  perturb::NoiseModel noise;
};

Scenario MakeScenario(size_t m, size_t p, size_t n, double sigma,
                      uint64_t seed) {
  stats::Rng rng(seed);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrumWithTrace(m, p, 1.0, 100.0);
  auto synthetic = data::GenerateSpectrumDataset(spec, n, &rng);
  EXPECT_TRUE(synthetic.ok());
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(m, sigma);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  EXPECT_TRUE(disguised.ok());
  return {std::move(synthetic).value(), std::move(disguised).value(),
          scheme.noise_model()};
}

/// True values of the given columns (the side channel).
Matrix KnownColumns(const Matrix& x, const std::vector<size_t>& indices) {
  Matrix out(x.rows(), indices.size());
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t k = 0; k < indices.size(); ++k) {
      out(i, k) = x(i, indices[k]);
    }
  }
  return out;
}

/// RMSE restricted to the columns NOT in `known`.
double UnknownRmse(const Matrix& x, const Matrix& x_hat,
                   const std::vector<size_t>& known) {
  double sum = 0.0;
  size_t count = 0;
  for (size_t j = 0; j < x.cols(); ++j) {
    if (std::find(known.begin(), known.end(), j) != known.end()) continue;
    for (size_t i = 0; i < x.rows(); ++i) {
      const double d = x(i, j) - x_hat(i, j);
      sum += d * d;
      ++count;
    }
  }
  return std::sqrt(sum / static_cast<double>(count));
}

TEST(PartialDisclosureTest, EmptyKnowledgeEqualsBeDr) {
  Scenario s = MakeScenario(10, 2, 600, 5.0, 221);
  PartialDisclosureReconstructor partial({});
  BayesEstimateReconstructor be;
  auto partial_hat = partial.Reconstruct(s.disguised.records(), s.noise,
                                         Matrix(s.disguised.num_records(), 0));
  auto be_hat = be.Reconstruct(s.disguised.records(), s.noise);
  ASSERT_TRUE(partial_hat.ok()) << partial_hat.status().ToString();
  ASSERT_TRUE(be_hat.ok());
  EXPECT_LT(linalg::MaxAbsDifference(partial_hat.value(), be_hat.value()),
            1e-9);
}

TEST(PartialDisclosureTest, KnownColumnsAreCopiedVerbatim) {
  Scenario s = MakeScenario(8, 2, 400, 5.0, 222);
  const std::vector<size_t> known{1, 5};
  PartialDisclosureReconstructor partial({known});
  const Matrix known_values =
      KnownColumns(s.synthetic.dataset.records(), known);
  auto x_hat = partial.Reconstruct(s.disguised.records(), s.noise,
                                   known_values);
  ASSERT_TRUE(x_hat.ok());
  for (size_t i = 0; i < s.disguised.num_records(); ++i) {
    EXPECT_DOUBLE_EQ(x_hat.value()(i, 1), s.synthetic.dataset.records()(i, 1));
    EXPECT_DOUBLE_EQ(x_hat.value()(i, 5), s.synthetic.dataset.records()(i, 5));
  }
}

TEST(PartialDisclosureTest, SideChannelImprovesUnknownAttributes) {
  // The §3 claim: knowing some attributes helps estimate the others.
  Scenario s = MakeScenario(12, 2, 1000, 5.0, 223);
  const Matrix& x = s.synthetic.dataset.records();

  BayesEstimateReconstructor be;
  auto baseline = be.Reconstruct(s.disguised.records(), s.noise);
  ASSERT_TRUE(baseline.ok());

  const std::vector<size_t> known{0, 1, 2, 3};
  PartialDisclosureReconstructor partial({known});
  auto with_knowledge =
      partial.Reconstruct(s.disguised.records(), s.noise,
                          KnownColumns(x, known));
  ASSERT_TRUE(with_knowledge.ok());

  EXPECT_LT(UnknownRmse(x, with_knowledge.value(), known),
            0.95 * UnknownRmse(x, baseline.value(), known));
}

TEST(PartialDisclosureTest, MoreKnowledgeMonotonicallyHelpsWithOracle) {
  // Monotonicity is a property of the *true* conditional prior (the MVN
  // conditional variance shrinks as K grows), so assert it in the §5.3
  // oracle-moments mode. With attacker-estimated moments, conditioning
  // on a noisy Σ_KK can amplify estimation error — the honest-attacker
  // benefit is covered by SideChannelImprovesUnknownAttributes.
  Scenario s = MakeScenario(16, 2, 1500, 5.0, 224);
  const Matrix& x = s.synthetic.dataset.records();
  BeDrOptions oracle;
  oracle.oracle_covariance = stats::SampleCovariance(x);
  oracle.oracle_mean = stats::ColumnMeans(x);
  double previous = 1e9;
  for (size_t k : {0u, 2u, 6u, 12u}) {
    std::vector<size_t> known;
    for (size_t j = 0; j < k; ++j) known.push_back(j);
    PartialDisclosureReconstructor partial({known}, oracle);
    auto x_hat = partial.Reconstruct(s.disguised.records(), s.noise,
                                     KnownColumns(x, known));
    ASSERT_TRUE(x_hat.ok()) << "k=" << k;
    const double rmse = UnknownRmse(x, x_hat.value(), known);
    EXPECT_LE(rmse, previous * 1.02) << "k=" << k;
    previous = rmse;
  }
}

TEST(PartialDisclosureTest, PerfectCorrelationNearPerfectRecovery) {
  // Two perfectly correlated attributes: knowing one pins the other even
  // under enormous noise.
  stats::Rng rng(225);
  const size_t n = 2000;
  Matrix x(n, 2);
  for (size_t i = 0; i < n; ++i) {
    const double v = rng.Gaussian(0.0, 10.0);
    x(i, 0) = v;
    x(i, 1) = 2.0 * v;  // Deterministically tied.
  }
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(2, 50.0);
  Matrix y = x + scheme.GenerateNoise(n, &rng);

  PartialDisclosureReconstructor partial({{0}});
  BeDrOptions oracle;
  oracle.oracle_covariance = stats::SampleCovariance(x);
  oracle.oracle_mean = stats::ColumnMeans(x);
  PartialDisclosureReconstructor partial_oracle({{0}}, oracle);
  auto x_hat = partial_oracle.Reconstruct(y, scheme.noise_model(),
                                          KnownColumns(x, {0}));
  ASSERT_TRUE(x_hat.ok());
  EXPECT_LT(UnknownRmse(x, x_hat.value(), {0}), 0.5);  // Noise was 50!
}

TEST(PartialDisclosureTest, AllAttributesKnownReturnsTruth) {
  Scenario s = MakeScenario(5, 2, 300, 5.0, 226);
  const std::vector<size_t> known{0, 1, 2, 3, 4};
  PartialDisclosureReconstructor partial({known});
  const Matrix& x = s.synthetic.dataset.records();
  auto x_hat = partial.Reconstruct(s.disguised.records(), s.noise,
                                   KnownColumns(x, known));
  ASSERT_TRUE(x_hat.ok());
  EXPECT_LT(linalg::MaxAbsDifference(x_hat.value(), x), 1e-12);
}

TEST(PartialDisclosureTest, ValidationErrors) {
  Scenario s = MakeScenario(4, 1, 200, 5.0, 227);
  const Matrix& y = s.disguised.records();
  // Out-of-range index.
  EXPECT_FALSE(PartialDisclosureReconstructor({{7}})
                   .Reconstruct(y, s.noise, Matrix(y.rows(), 1))
                   .ok());
  // Duplicate index.
  EXPECT_FALSE(PartialDisclosureReconstructor({{1, 1}})
                   .Reconstruct(y, s.noise, Matrix(y.rows(), 2))
                   .ok());
  // Wrong known_values shape.
  EXPECT_FALSE(PartialDisclosureReconstructor({{1}})
                   .Reconstruct(y, s.noise, Matrix(y.rows(), 2))
                   .ok());
  EXPECT_FALSE(PartialDisclosureReconstructor({{1}})
                   .Reconstruct(y, s.noise, Matrix(3, 1))
                   .ok());
}

}  // namespace
}  // namespace core
}  // namespace randrecon
