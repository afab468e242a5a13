#include "data/timeseries.h"
#include "stats/rng.h"

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/vector_ops.h"

namespace randrecon {
namespace data {
namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(Ar1SpecTest, StationaryVariance) {
  Ar1Spec spec;
  spec.coefficient = 0.8;
  spec.innovation_stddev = 3.0;
  EXPECT_NEAR(Ar1StationaryVariance(spec), 9.0 / 0.36, 1e-12);
}

TEST(Ar1SpecTest, AutocovarianceDecaysGeometrically) {
  Ar1Spec spec;
  spec.coefficient = 0.5;
  spec.innovation_stddev = 1.0;
  const double var = Ar1StationaryVariance(spec);
  EXPECT_DOUBLE_EQ(Ar1Autocovariance(spec, 0), var);
  EXPECT_DOUBLE_EQ(Ar1Autocovariance(spec, 1), 0.5 * var);
  EXPECT_DOUBLE_EQ(Ar1Autocovariance(spec, 3), 0.125 * var);
}

TEST(GenerateAr1Test, ValidationErrors) {
  stats::Rng rng(211);
  Ar1Spec bad;
  bad.coefficient = 1.0;
  EXPECT_FALSE(GenerateAr1Series(bad, 10, &rng).ok());
  bad.coefficient = 0.5;
  bad.innovation_stddev = 0.0;
  EXPECT_FALSE(GenerateAr1Series(bad, 10, &rng).ok());
  bad.innovation_stddev = 1.0;
  EXPECT_FALSE(GenerateAr1Series(bad, 0, &rng).ok());
}

TEST(GenerateAr1Test, SampleMomentsMatchTheory) {
  stats::Rng rng(212);
  Ar1Spec spec;
  spec.coefficient = 0.9;
  spec.innovation_stddev = 2.0;
  spec.mean = 10.0;
  auto series = GenerateAr1Series(spec, 200000, &rng);
  ASSERT_TRUE(series.ok());
  EXPECT_NEAR(linalg::Mean(series.value()), 10.0, 0.3);
  EXPECT_NEAR(linalg::Variance(series.value()), Ar1StationaryVariance(spec),
              0.08 * Ar1StationaryVariance(spec));
}

TEST(GenerateAr1Test, EmpiricalLag1Autocorrelation) {
  stats::Rng rng(213);
  Ar1Spec spec;
  spec.coefficient = 0.7;
  spec.innovation_stddev = 1.0;
  auto series = GenerateAr1Series(spec, 100000, &rng);
  ASSERT_TRUE(series.ok());
  const Vector& x = series.value();
  const double mean = linalg::Mean(x);
  double num = 0.0, denom = 0.0;
  for (size_t t = 0; t + 1 < x.size(); ++t) {
    num += (x[t] - mean) * (x[t + 1] - mean);
    denom += (x[t] - mean) * (x[t] - mean);
  }
  EXPECT_NEAR(num / denom, 0.7, 0.02);
}

TEST(GenerateAr1Test, ZeroCoefficientIsWhiteNoise) {
  stats::Rng rng(214);
  Ar1Spec spec;
  spec.coefficient = 0.0;
  spec.innovation_stddev = 1.0;
  auto series = GenerateAr1Series(spec, 50000, &rng);
  ASSERT_TRUE(series.ok());
  const Vector& x = series.value();
  const double mean = linalg::Mean(x);
  double num = 0.0, denom = 0.0;
  for (size_t t = 0; t + 1 < x.size(); ++t) {
    num += (x[t] - mean) * (x[t + 1] - mean);
    denom += (x[t] - mean) * (x[t] - mean);
  }
  EXPECT_NEAR(num / denom, 0.0, 0.02);
}

TEST(EmbedSeriesTest, WindowsAreSlices) {
  const Vector series{1, 2, 3, 4, 5};
  Matrix windows = EmbedSeries(series, 3);
  EXPECT_EQ(windows.rows(), 3u);
  EXPECT_EQ(windows.cols(), 3u);
  EXPECT_EQ(windows.Row(0), (Vector{1, 2, 3}));
  EXPECT_EQ(windows.Row(2), (Vector{3, 4, 5}));
}

TEST(EmbedSeriesTest, WindowOneIsColumnVector) {
  const Vector series{7, 8};
  Matrix windows = EmbedSeries(series, 1);
  EXPECT_EQ(windows.rows(), 2u);
  EXPECT_EQ(windows.cols(), 1u);
}

TEST(EmbedSeriesDeathTest, WindowLargerThanSeriesAborts) {
  EXPECT_DEATH({ EmbedSeries(Vector{1, 2}, 3); }, "window");
}

TEST(UnembedTest, RoundTripsExactEmbedding) {
  const Vector series{1, 4, 9, 16, 25, 36};
  for (size_t window : {1u, 2u, 4u, 6u}) {
    Matrix windows = EmbedSeries(series, window);
    const Vector back = UnembedSeriesAverage(windows, series.size());
    for (size_t t = 0; t < series.size(); ++t) {
      EXPECT_NEAR(back[t], series[t], 1e-12) << "window=" << window;
    }
  }
}

TEST(UnembedTest, AveragesDisagreeingWindows) {
  // Two windows covering t = 1 with different values: 10 and 20 -> 15.
  Matrix windows{{0, 10}, {20, 0}};
  const Vector back = UnembedSeriesAverage(windows, 3);
  EXPECT_DOUBLE_EQ(back[0], 0.0);
  EXPECT_DOUBLE_EQ(back[1], 15.0);
  EXPECT_DOUBLE_EQ(back[2], 0.0);
}

}  // namespace
}  // namespace data
}  // namespace randrecon
