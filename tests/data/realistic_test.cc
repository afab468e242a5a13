#include "data/realistic.h"

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/matrix_util.h"
#include "stats/moments.h"
#include "stats/rng.h"

namespace randrecon {
namespace data {
namespace {

using linalg::Matrix;

TEST(LatentFactorTest, GeneratesRequestedShape) {
  stats::Rng rng(71);
  auto table = GenerateLatentFactorTable(MedicalRecordsSpec(), 500, &rng);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table.value().num_records(), 500u);
  EXPECT_EQ(table.value().num_attributes(), 8u);
  EXPECT_EQ(table.value().attribute_names()[0], "age");
}

TEST(LatentFactorTest, MeansMatchSpec) {
  stats::Rng rng(72);
  const LatentFactorSpec spec = MedicalRecordsSpec();
  auto table = GenerateLatentFactorTable(spec, 40000, &rng);
  ASSERT_TRUE(table.ok());
  const linalg::Vector means =
      stats::ColumnMeans(table.value().records());
  for (size_t j = 0; j < spec.mean.size(); ++j) {
    const double scale = std::max(1.0, std::fabs(spec.mean[j]));
    EXPECT_NEAR(means[j] / scale, spec.mean[j] / scale, 0.05) << "attr " << j;
  }
}

TEST(LatentFactorTest, SampleCovarianceMatchesImpliedCovariance) {
  stats::Rng rng(73);
  const LatentFactorSpec spec = HouseholdFinanceSpec();
  auto table = GenerateLatentFactorTable(spec, 60000, &rng);
  ASSERT_TRUE(table.ok());
  const Matrix implied = LatentFactorCovariance(spec);
  const Matrix sample = stats::SampleCovariance(table.value().records());
  EXPECT_LT(linalg::MaxAbsDifference(sample, implied),
            0.05 * linalg::FrobeniusNorm(implied));
}

TEST(LatentFactorTest, AttributesAreStronglyCorrelated) {
  // The whole point of these tables: shared factors induce the strong
  // correlations PCA-DR/BE-DR exploit.
  stats::Rng rng(74);
  auto table = GenerateLatentFactorTable(MedicalRecordsSpec(), 5000, &rng);
  ASSERT_TRUE(table.ok());
  const Matrix corr = stats::SampleCorrelation(table.value().records());
  // Systolic and diastolic blood pressure share the cardio factor.
  double max_offdiag = 0.0;
  for (size_t i = 0; i < corr.rows(); ++i) {
    for (size_t j = i + 1; j < corr.cols(); ++j) {
      max_offdiag = std::max(max_offdiag, std::fabs(corr(i, j)));
    }
  }
  EXPECT_GT(max_offdiag, 0.7);
}

TEST(LatentFactorTest, ImpliedCovarianceIsSymmetricPsd) {
  const Matrix cov = LatentFactorCovariance(MedicalRecordsSpec());
  EXPECT_TRUE(linalg::IsSymmetric(cov, 1e-9));
  // Diagonal entries are variances.
  for (size_t i = 0; i < cov.rows(); ++i) EXPECT_GT(cov(i, i), 0.0);
}

TEST(LatentFactorTest, RejectsInconsistentSpec) {
  stats::Rng rng(75);
  LatentFactorSpec spec = MedicalRecordsSpec();
  spec.mean.pop_back();
  EXPECT_FALSE(GenerateLatentFactorTable(spec, 10, &rng).ok());
}

TEST(LatentFactorTest, RejectsNegativeIdiosyncraticStddev) {
  stats::Rng rng(76);
  LatentFactorSpec spec = HouseholdFinanceSpec();
  spec.idiosyncratic_stddev[0] = -1.0;
  EXPECT_FALSE(GenerateLatentFactorTable(spec, 10, &rng).ok());
}

TEST(LatentFactorTest, RejectsEmptyLoadings) {
  stats::Rng rng(77);
  LatentFactorSpec spec;
  EXPECT_FALSE(GenerateLatentFactorTable(spec, 10, &rng).ok());
}

TEST(LatentFactorTest, BothBuiltInSpecsAreConsistent) {
  stats::Rng rng(78);
  EXPECT_TRUE(GenerateLatentFactorTable(MedicalRecordsSpec(), 5, &rng).ok());
  EXPECT_TRUE(GenerateLatentFactorTable(HouseholdFinanceSpec(), 5, &rng).ok());
}

}  // namespace
}  // namespace data
}  // namespace randrecon
