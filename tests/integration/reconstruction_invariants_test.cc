// Cross-cutting invariants every reconstruction attack must satisfy,
// checked for each attack in the paper suite (TEST_P over attacks).

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/be_dr.h"
#include "core/ndr.h"
#include "core/pca_dr.h"
#include "core/spectral_filtering.h"
#include "core/udr.h"
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

enum class Attack { kNdr, kUdr, kSf, kPca, kBe };

std::unique_ptr<Reconstructor> MakeAttack(Attack which) {
  switch (which) {
    case Attack::kNdr:
      return std::make_unique<NdrReconstructor>();
    case Attack::kUdr: {
      UdrOptions options;
      options.estimator = UdrDensityEstimator::kGaussianClosedForm;
      return std::make_unique<UdrReconstructor>(options);
    }
    case Attack::kSf:
      return std::make_unique<SpectralFilteringReconstructor>();
    case Attack::kPca:
      return std::make_unique<PcaReconstructor>();
    case Attack::kBe:
      return std::make_unique<BayesEstimateReconstructor>();
  }
  return nullptr;
}

class AttackInvariantSweep : public ::testing::TestWithParam<Attack> {
 protected:
  struct Scenario {
    Matrix x;
    Matrix y;
    perturb::NoiseModel noise = perturb::NoiseModel::IndependentGaussian(1, 1);
  };

  static Scenario MakeScenario(uint64_t seed) {
    stats::Rng rng(seed);
    data::SyntheticDatasetSpec spec;
    spec.eigenvalues = data::TwoLevelSpectrumWithTrace(12, 3, 1.0, 100.0);
    auto synthetic = data::GenerateSpectrumDataset(spec, 800, &rng);
    EXPECT_TRUE(synthetic.ok());
    auto scheme = perturb::IndependentNoiseScheme::Gaussian(12, 5.0);
    auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
    EXPECT_TRUE(disguised.ok());
    Scenario s;
    s.x = synthetic.value().dataset.records();
    s.y = disguised.value().records();
    s.noise = scheme.noise_model();
    return s;
  }
};

TEST_P(AttackInvariantSweep, OutputShapeMatchesInput) {
  Scenario s = MakeScenario(301);
  auto attack = MakeAttack(GetParam());
  auto x_hat = attack->Reconstruct(s.y, s.noise);
  ASSERT_TRUE(x_hat.ok()) << attack->name();
  EXPECT_EQ(x_hat.value().rows(), s.y.rows());
  EXPECT_EQ(x_hat.value().cols(), s.y.cols());
}

TEST_P(AttackInvariantSweep, DeterministicGivenSameInput) {
  Scenario s = MakeScenario(302);
  auto attack = MakeAttack(GetParam());
  auto first = attack->Reconstruct(s.y, s.noise);
  auto second = attack->Reconstruct(s.y, s.noise);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(first.value() == second.value()) << attack->name();
}

TEST_P(AttackInvariantSweep, NeverWorseThanTwiceNoiseFloor) {
  // Sanity envelope: no attack should blow the error up beyond ~2x the
  // do-nothing baseline on well-conditioned correlated data.
  Scenario s = MakeScenario(303);
  auto attack = MakeAttack(GetParam());
  auto x_hat = attack->Reconstruct(s.y, s.noise);
  ASSERT_TRUE(x_hat.ok());
  EXPECT_LT(stats::RootMeanSquareError(s.x, x_hat.value()), 10.0)
      << attack->name();
}

TEST_P(AttackInvariantSweep, PreservesColumnMeansApproximately) {
  // Noise is zero-mean, so every sane reconstruction keeps the column
  // means near the disguised-data means.
  Scenario s = MakeScenario(304);
  auto attack = MakeAttack(GetParam());
  auto x_hat = attack->Reconstruct(s.y, s.noise);
  ASSERT_TRUE(x_hat.ok());
  const Vector original_means = stats::ColumnMeans(s.x);
  const Vector reconstructed_means = stats::ColumnMeans(x_hat.value());
  for (size_t j = 0; j < original_means.size(); ++j) {
    EXPECT_NEAR(reconstructed_means[j], original_means[j], 1.5)
        << attack->name() << " attr " << j;
  }
}

TEST_P(AttackInvariantSweep, MeanShiftEquivariance) {
  // Shifting every record by a constant vector shifts the reconstruction
  // by the same vector (all attacks center on column means).
  Scenario s = MakeScenario(305);
  auto attack = MakeAttack(GetParam());
  auto base = attack->Reconstruct(s.y, s.noise);
  ASSERT_TRUE(base.ok());

  Matrix shifted = s.y;
  for (size_t i = 0; i < shifted.rows(); ++i) {
    for (size_t j = 0; j < shifted.cols(); ++j) {
      shifted(i, j) += 100.0 + static_cast<double>(j);
    }
  }
  auto shifted_hat = attack->Reconstruct(shifted, s.noise);
  ASSERT_TRUE(shifted_hat.ok());
  Matrix unshifted = shifted_hat.value();
  for (size_t i = 0; i < unshifted.rows(); ++i) {
    for (size_t j = 0; j < unshifted.cols(); ++j) {
      unshifted(i, j) -= 100.0 + static_cast<double>(j);
    }
  }
  EXPECT_LT(linalg::MaxAbsDifference(unshifted, base.value()), 1e-6)
      << attack->name();
}

TEST_P(AttackInvariantSweep, RejectsMismatchedNoiseModel) {
  Scenario s = MakeScenario(306);
  auto attack = MakeAttack(GetParam());
  auto bad = attack->Reconstruct(
      s.y, perturb::NoiseModel::IndependentGaussian(5, 1.0));
  EXPECT_FALSE(bad.ok()) << attack->name();
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(Attacks, AttackInvariantSweep,
                         ::testing::Values(Attack::kNdr, Attack::kUdr,
                                           Attack::kSf, Attack::kPca,
                                           Attack::kBe));

}  // namespace
}  // namespace core
}  // namespace randrecon
