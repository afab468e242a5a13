#include "core/attack_suite.h"

#include <gtest/gtest.h>

#include "core/ndr.h"
#include "data/synthetic.h"
#include "perturb/schemes.h"
#include "stats/rng.h"

namespace randrecon {
namespace core {
namespace {

using linalg::Matrix;

TEST(AttackSuiteTest, PaperSuiteHasFiveAttacks) {
  AttackSuite suite = AttackSuite::PaperSuite();
  EXPECT_EQ(suite.size(), 5u);
  EXPECT_EQ(suite.attack(0).name(), "NDR");
  EXPECT_EQ(suite.attack(1).name(), "UDR");
  EXPECT_EQ(suite.attack(2).name(), "SF");
  EXPECT_EQ(suite.attack(3).name(), "PCA-DR");
  EXPECT_EQ(suite.attack(4).name(), "BE-DR");
}

TEST(AttackSuiteTest, RunAllProducesOneReportPerAttack) {
  stats::Rng rng(151);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(10, 2, 200.0, 1.0);
  auto synthetic = data::GenerateSpectrumDataset(spec, 500, &rng);
  ASSERT_TRUE(synthetic.ok());
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(10, 5.0);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  ASSERT_TRUE(disguised.ok());

  AttackSuite suite = AttackSuite::PaperSuite();
  auto reports = suite.RunAll(synthetic.value().dataset, disguised.value(),
                              scheme.noise_model());
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports.value().size(), 5u);
  // On highly correlated data, the correlation-aware attacks must beat
  // NDR (rmse σ = 5).
  for (const ReconstructionReport& report : reports.value()) {
    if (report.attack_name == "PCA-DR" || report.attack_name == "BE-DR") {
      EXPECT_LT(report.rmse, 4.0) << report.attack_name;
    }
    if (report.attack_name == "NDR") {
      EXPECT_NEAR(report.rmse, 5.0, 0.5);
    }
  }
}

TEST(AttackSuiteTest, CustomSuite) {
  AttackSuite suite;
  suite.Add(std::make_unique<NdrReconstructor>())
      .Add(std::make_unique<NdrReconstructor>());
  EXPECT_EQ(suite.size(), 2u);
}

TEST(AttackSuiteTest, RunAllFailsOnShapeMismatch) {
  AttackSuite suite = AttackSuite::PaperSuite();
  auto reports = suite.RunAll(Matrix(10, 2), Matrix(10, 2),
                              perturb::NoiseModel::IndependentGaussian(3, 1.0));
  EXPECT_FALSE(reports.ok());
}

TEST(AttackSuiteDeathTest, AddNullAborts) {
  AttackSuite suite;
  EXPECT_DEATH({ suite.Add(nullptr); }, "RR_CHECK");
}

}  // namespace
}  // namespace core
}  // namespace randrecon
