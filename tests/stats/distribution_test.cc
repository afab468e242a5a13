#include "stats/distribution.h"
#include "stats/rng.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/vector_ops.h"

namespace randrecon {
namespace stats {
namespace {

TEST(StandardNormalTest, PdfPeakAndSymmetry) {
  EXPECT_NEAR(StandardNormalPdf(0.0), 0.3989422804, 1e-9);
  EXPECT_DOUBLE_EQ(StandardNormalPdf(1.5), StandardNormalPdf(-1.5));
}

TEST(StandardNormalTest, CdfKnownValues) {
  EXPECT_NEAR(StandardNormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(StandardNormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(StandardNormalCdf(-1.96), 0.025, 1e-3);
}

TEST(NormalDistributionTest, Moments) {
  NormalDistribution d(2.0, 3.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 2.0);
  EXPECT_DOUBLE_EQ(d.Variance(), 9.0);
  EXPECT_DOUBLE_EQ(d.stddev(), 3.0);
}

TEST(NormalDistributionTest, PdfIntegratesToOne) {
  NormalDistribution d(1.0, 2.0);
  // Trapezoid over ±8σ.
  double integral = 0.0;
  const double step = 0.01;
  for (double x = 1.0 - 16.0; x < 1.0 + 16.0; x += step) {
    integral += d.Pdf(x) * step;
  }
  EXPECT_NEAR(integral, 1.0, 1e-6);
}

TEST(NormalDistributionTest, CdfMatchesPdfIntegral) {
  NormalDistribution d(0.0, 1.5);
  double integral = 0.0;
  const int num_steps = 12750;  // Exactly covers [-12, 0.75].
  const double step = (0.75 - (-12.0)) / num_steps;
  // Midpoint rule keeps the discretization error well under tolerance.
  for (int k = 0; k < num_steps; ++k) {
    integral += d.Pdf(-12.0 + (k + 0.5) * step) * step;
  }
  EXPECT_NEAR(integral, d.Cdf(0.75), 1e-4);
}

TEST(NormalDistributionTest, SampleMoments) {
  NormalDistribution d(-1.0, 0.5);
  Rng rng(13);
  linalg::Vector sample(50000);
  for (double& v : sample) v = d.Sample(&rng);
  EXPECT_NEAR(linalg::Mean(sample), -1.0, 0.02);
  EXPECT_NEAR(linalg::Variance(sample), 0.25, 0.01);
}

TEST(NormalDistributionTest, CloneIsIndependentCopy) {
  NormalDistribution d(4.0, 2.0);
  auto clone = d.Clone();
  EXPECT_DOUBLE_EQ(clone->Mean(), 4.0);
  EXPECT_DOUBLE_EQ(clone->Variance(), 4.0);
  EXPECT_DOUBLE_EQ(clone->Pdf(4.0), d.Pdf(4.0));
}

TEST(NormalDistributionTest, ToStringMentionsParameters) {
  NormalDistribution d(0.0, 5.0);
  EXPECT_NE(d.ToString().find("Normal"), std::string::npos);
  EXPECT_NE(d.ToString().find("25"), std::string::npos);  // Variance.
}

TEST(NormalDistributionDeathTest, RejectsNonPositiveStddev) {
  EXPECT_DEATH({ NormalDistribution d(0.0, 0.0); }, "positive stddev");
}

TEST(UniformDistributionTest, Moments) {
  UniformDistribution d(-3.0, 3.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 0.0);
  EXPECT_NEAR(d.Variance(), 3.0, 1e-12);  // (b-a)²/12 = 36/12.
}

TEST(UniformDistributionTest, PdfConstantInsideZeroOutside) {
  UniformDistribution d(0.0, 4.0);
  EXPECT_DOUBLE_EQ(d.Pdf(2.0), 0.25);
  EXPECT_DOUBLE_EQ(d.Pdf(-0.1), 0.0);
  EXPECT_DOUBLE_EQ(d.Pdf(4.1), 0.0);
}

TEST(UniformDistributionTest, CdfPiecewise) {
  UniformDistribution d(0.0, 4.0);
  EXPECT_DOUBLE_EQ(d.Cdf(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(d.Cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(d.Cdf(5.0), 1.0);
}

TEST(UniformDistributionTest, SamplesStayInRange) {
  UniformDistribution d(-1.0, 1.0);
  Rng rng(14);
  for (int i = 0; i < 1000; ++i) {
    const double v = d.Sample(&rng);
    EXPECT_GE(v, -1.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(UniformDistributionDeathTest, RejectsEmptyInterval) {
  EXPECT_DEATH({ UniformDistribution d(1.0, 1.0); }, "lo < hi");
}

TEST(LaplaceDistributionTest, Moments) {
  LaplaceDistribution d(1.0, 2.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 1.0);
  EXPECT_DOUBLE_EQ(d.Variance(), 8.0);  // 2b².
}

TEST(LaplaceDistributionTest, PdfPeakAndSymmetry) {
  LaplaceDistribution d(0.0, 1.0);
  EXPECT_DOUBLE_EQ(d.Pdf(0.0), 0.5);
  EXPECT_DOUBLE_EQ(d.Pdf(2.0), d.Pdf(-2.0));
  EXPECT_NEAR(d.Pdf(1.0), 0.5 * std::exp(-1.0), 1e-12);
}

TEST(LaplaceDistributionTest, CdfKnownValues) {
  LaplaceDistribution d(0.0, 1.0);
  EXPECT_DOUBLE_EQ(d.Cdf(0.0), 0.5);
  EXPECT_NEAR(d.Cdf(1.0), 1.0 - 0.5 * std::exp(-1.0), 1e-12);
  EXPECT_NEAR(d.Cdf(-1.0), 0.5 * std::exp(-1.0), 1e-12);
}

TEST(LaplaceDistributionTest, SampleMoments) {
  LaplaceDistribution d(3.0, 1.5);
  Rng rng(15);
  linalg::Vector sample(80000);
  for (double& v : sample) v = d.Sample(&rng);
  EXPECT_NEAR(linalg::Mean(sample), 3.0, 0.05);
  EXPECT_NEAR(linalg::Variance(sample), 4.5, 0.15);
}

TEST(LaplaceDistributionTest, HeavierTailsThanNormalOfSameVariance) {
  LaplaceDistribution laplace(0.0, 1.0);            // Variance 2.
  NormalDistribution normal(0.0, std::sqrt(2.0));   // Variance 2.
  EXPECT_GT(laplace.Pdf(5.0), normal.Pdf(5.0));
}

TEST(LaplaceDistributionDeathTest, RejectsNonPositiveScale) {
  EXPECT_DEATH({ LaplaceDistribution d(0.0, 0.0); }, "positive scale");
}

std::unique_ptr<ScalarDistribution> MakeBimodal() {
  std::vector<std::unique_ptr<ScalarDistribution>> parts;
  parts.push_back(std::make_unique<NormalDistribution>(-3.0, 1.0));
  parts.push_back(std::make_unique<NormalDistribution>(3.0, 1.0));
  auto mix = MixtureDistribution::Create(std::move(parts), {1.0, 1.0});
  EXPECT_TRUE(mix.ok());
  return std::move(mix).value().Clone();
}

TEST(MixtureDistributionTest, WeightsAreNormalized) {
  std::vector<std::unique_ptr<ScalarDistribution>> parts;
  parts.push_back(std::make_unique<NormalDistribution>(0.0, 1.0));
  parts.push_back(std::make_unique<NormalDistribution>(10.0, 1.0));
  auto mix = MixtureDistribution::Create(std::move(parts), {3.0, 1.0});
  ASSERT_TRUE(mix.ok());
  EXPECT_NEAR(mix.value().Mean(), 2.5, 1e-12);  // 0.75·0 + 0.25·10.
}

TEST(MixtureDistributionTest, MomentsOfSymmetricBimodal) {
  auto mix = MakeBimodal();
  EXPECT_NEAR(mix->Mean(), 0.0, 1e-12);
  // Law of total variance: 1 + 9 = 10.
  EXPECT_NEAR(mix->Variance(), 10.0, 1e-12);
}

TEST(MixtureDistributionTest, PdfIsWeightedSum) {
  auto mix = MakeBimodal();
  NormalDistribution left(-3.0, 1.0), right(3.0, 1.0);
  for (double x : {-3.0, 0.0, 3.0}) {
    EXPECT_NEAR(mix->Pdf(x), 0.5 * left.Pdf(x) + 0.5 * right.Pdf(x), 1e-12);
  }
}

TEST(MixtureDistributionTest, CdfEndpoints) {
  auto mix = MakeBimodal();
  EXPECT_NEAR(mix->Cdf(-50.0), 0.0, 1e-9);
  EXPECT_NEAR(mix->Cdf(50.0), 1.0, 1e-9);
  EXPECT_NEAR(mix->Cdf(0.0), 0.5, 1e-9);
}

TEST(MixtureDistributionTest, SampleMomentsMatch) {
  auto mix = MakeBimodal();
  Rng rng(16);
  linalg::Vector sample(60000);
  for (double& v : sample) v = mix->Sample(&rng);
  EXPECT_NEAR(linalg::Mean(sample), 0.0, 0.05);
  EXPECT_NEAR(linalg::Variance(sample), 10.0, 0.2);
}

TEST(MixtureDistributionTest, CreateValidation) {
  EXPECT_FALSE(MixtureDistribution::Create({}, {}).ok());
  std::vector<std::unique_ptr<ScalarDistribution>> one;
  one.push_back(std::make_unique<NormalDistribution>(0.0, 1.0));
  EXPECT_FALSE(MixtureDistribution::Create(std::move(one), {1.0, 2.0}).ok());
  std::vector<std::unique_ptr<ScalarDistribution>> bad_weight;
  bad_weight.push_back(std::make_unique<NormalDistribution>(0.0, 1.0));
  EXPECT_FALSE(MixtureDistribution::Create(std::move(bad_weight), {0.0}).ok());
  std::vector<std::unique_ptr<ScalarDistribution>> has_null;
  has_null.push_back(nullptr);
  EXPECT_FALSE(MixtureDistribution::Create(std::move(has_null), {1.0}).ok());
}

TEST(MixtureDistributionTest, CloneIsDeep) {
  auto mix = MakeBimodal();
  auto clone = mix->Clone();
  EXPECT_DOUBLE_EQ(clone->Pdf(1.2345), mix->Pdf(1.2345));
  EXPECT_NE(clone->ToString().find("Mixture"), std::string::npos);
}

TEST(DistributionBatchTest, SlicesMatchDistributionMoments) {
  const size_t n = 120000;
  std::vector<double> draws(n);

  NormalDistribution normal(1.0, 2.0);
  ASSERT_TRUE(normal.SupportsBatchSampling());
  normal.SampleSliceAt(Philox(2, 0), 0, draws.data(), n);
  double sum = 0.0, sq = 0.0;
  for (double v : draws) { sum += v; sq += v * v; }
  EXPECT_NEAR(sum / n, 1.0, 0.03);
  EXPECT_NEAR(sq / n - (sum / n) * (sum / n), 4.0, 0.1);

  UniformDistribution uniform(-3.0, 1.0);
  ASSERT_TRUE(uniform.SupportsBatchSampling());
  uniform.SampleSliceAt(Philox(3, 0), 0, draws.data(), n);
  sum = sq = 0.0;
  for (double v : draws) {
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 1.0);
    sum += v; sq += v * v;
  }
  EXPECT_NEAR(sum / n, -1.0, 0.03);
  EXPECT_NEAR(sq / n - (sum / n) * (sum / n), 16.0 / 12.0, 0.05);

  LaplaceDistribution laplace(0.5, 1.5);
  ASSERT_TRUE(laplace.SupportsBatchSampling());
  laplace.SampleSliceAt(Philox(4, 0), 0, draws.data(), n);
  sum = sq = 0.0;
  for (double v : draws) { sum += v; sq += v * v; }
  EXPECT_NEAR(sum / n, 0.5, 0.03);
  EXPECT_NEAR(sq / n - (sum / n) * (sum / n), 2.0 * 1.5 * 1.5, 0.15);
}

TEST(DistributionBatchTest, SlicesAreElementIndexed) {
  // Slice [k, k+len) must be the window of slice [0, n) — the property
  // the independent-noise batch path relies on for straddled blocks.
  LaplaceDistribution laplace(0.0, 1.0);
  std::vector<double> whole(500), window(100);
  const Philox stream(9, 7);
  laplace.SampleSliceAt(stream, 0, whole.data(), whole.size());
  laplace.SampleSliceAt(stream, 123, window.data(), window.size());
  for (size_t i = 0; i < window.size(); ++i) {
    ASSERT_EQ(window[i], whole[123 + i]) << i;
  }
}

TEST(DistributionBatchTest, ScalarSamplesAreTheSliceSequence) {
  // Sample() over a fresh generator walks the same canonical sequence as
  // SampleSliceAt from element 0, so a scheme's scalar GenerateNoise and
  // its vectorized batch path agree bit for bit.
  const NormalDistribution normal(1.0, 2.0);
  const UniformDistribution uniform(-3.0, 1.0);
  const LaplaceDistribution laplace(0.5, 1.5);
  for (const ScalarDistribution* d :
       {static_cast<const ScalarDistribution*>(&normal),
        static_cast<const ScalarDistribution*>(&uniform),
        static_cast<const ScalarDistribution*>(&laplace)}) {
    std::vector<double> slice(101);
    d->SampleSliceAt(Philox(6, 2), 0, slice.data(), slice.size());
    Philox gen(6, 2);
    for (size_t i = 0; i < slice.size(); ++i) {
      ASSERT_EQ(d->Sample(&gen), slice[i]) << d->ToString() << " " << i;
    }
  }
}

}  // namespace
}  // namespace stats
}  // namespace randrecon
