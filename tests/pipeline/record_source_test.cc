// Contract tests for the RecordSource adapters: chunking, rewind
// reproducibility, and chunk-size invariance of every stream.

#include "pipeline/record_source.h"

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "linalg/matrix_util.h"
#include "stats/distribution.h"
#include "stats/rng.h"

namespace randrecon {
namespace pipeline {
namespace {

using linalg::Matrix;

/// Drains `source` with `chunk_rows`-record reads into one matrix.
Matrix Drain(RecordSource* source, size_t chunk_rows) {
  const size_t m = source->num_attributes();
  Matrix buffer(chunk_rows, m);
  std::vector<double> values;
  size_t n = 0;
  for (;;) {
    auto rows = source->NextChunk(&buffer);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (!rows.ok() || rows.value() == 0) break;
    values.insert(values.end(), buffer.data(),
                  buffer.data() + rows.value() * m);
    n += rows.value();
  }
  return Matrix::FromRowMajor(n, m, std::move(values));
}

TEST(MatrixRecordSourceTest, ChunksAndRewinds) {
  stats::Rng rng(1);
  const Matrix data = rng.GaussianMatrix(103, 5);
  MatrixRecordSource source(data);
  EXPECT_EQ(source.num_attributes(), 5u);
  const Matrix first_pass = Drain(&source, 10);
  EXPECT_EQ(linalg::MaxAbsDifference(first_pass, data), 0.0);
  ASSERT_TRUE(source.Reset().ok());
  const Matrix second_pass = Drain(&source, 64);
  EXPECT_EQ(linalg::MaxAbsDifference(second_pass, data), 0.0);
}

TEST(MatrixRecordSourceTest, BorrowedMatrixIsNotCopied) {
  const Matrix data = Matrix{{1.0, 2.0}, {3.0, 4.0}};
  MatrixRecordSource source(&data);
  EXPECT_EQ(linalg::MaxAbsDifference(Drain(&source, 1), data), 0.0);
}

TEST(CsvRecordSourceTest, StreamsWhatFromCsvStringParses) {
  const std::string csv = "a,b\n1.5,2\n3,4\n5,6\n";
  auto source = CsvRecordSource::FromString(csv);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  CsvRecordSource s = std::move(source).value();
  const Matrix streamed = Drain(&s, 2);
  const Matrix parsed = data::FromCsvString(csv).value().records();
  EXPECT_EQ(linalg::MaxAbsDifference(streamed, parsed), 0.0);
  ASSERT_TRUE(s.Reset().ok());
  EXPECT_EQ(linalg::MaxAbsDifference(Drain(&s, 64), parsed), 0.0);
}

TEST(MvnRecordSourceTest, ResetReplaysIdenticalRecords) {
  const Matrix covariance = Matrix{{2.0, 0.5}, {0.5, 1.0}};
  auto source =
      MvnRecordSource::Create({1.0, -1.0}, covariance, 257, /*seed=*/42);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  MvnRecordSource s = std::move(source).value();
  const Matrix first_pass = Drain(&s, 64);
  ASSERT_EQ(first_pass.rows(), 257u);
  ASSERT_TRUE(s.Reset().ok());
  const Matrix second_pass = Drain(&s, 64);
  EXPECT_EQ(linalg::MaxAbsDifference(first_pass, second_pass), 0.0);
}

TEST(MvnRecordSourceTest, StreamIsChunkSizeInvariant) {
  const Matrix covariance = Matrix::Identity(3);
  auto source =
      MvnRecordSource::Create({0.0, 0.0, 0.0}, covariance, 100, /*seed=*/7);
  ASSERT_TRUE(source.ok());
  MvnRecordSource s = std::move(source).value();
  const Matrix by_fives = Drain(&s, 5);
  ASSERT_TRUE(s.Reset().ok());
  const Matrix by_sixty_four = Drain(&s, 64);
  EXPECT_EQ(linalg::MaxAbsDifference(by_fives, by_sixty_four), 0.0);
}

TEST(PerturbingRecordSourceTest, AddsRewindableNoise) {
  stats::Rng rng(3);
  const Matrix data = rng.GaussianMatrix(80, 4);
  const auto scheme = perturb::IndependentNoiseScheme::Gaussian(4, 0.5);
  PerturbingRecordSource source(std::make_unique<MatrixRecordSource>(&data),
                                &scheme, /*seed=*/11);
  const Matrix first_pass = Drain(&source, 17);
  ASSERT_EQ(first_pass.rows(), 80u);
  // Noise actually moved the records...
  EXPECT_GT(linalg::MaxAbsDifference(first_pass, data), 0.0);
  // ...and the disguised stream replays identically after a rewind.
  ASSERT_TRUE(source.Reset().ok());
  const Matrix second_pass = Drain(&source, 33);
  EXPECT_EQ(linalg::MaxAbsDifference(first_pass, second_pass), 0.0);
}

TEST(PerturbingRecordSourceTest, DisguisedStreamIsChunkSizeInvariant) {
  stats::Rng rng(5);
  const Matrix data = rng.GaussianMatrix(60, 3);
  const auto scheme = perturb::IndependentNoiseScheme::Gaussian(3, 1.0);
  PerturbingRecordSource source(std::make_unique<MatrixRecordSource>(&data),
                                &scheme, /*seed=*/13);
  const Matrix one_by_one = Drain(&source, 1);
  ASSERT_TRUE(source.Reset().ok());
  const Matrix all_at_once = Drain(&source, 60);
  EXPECT_EQ(linalg::MaxAbsDifference(one_by_one, all_at_once), 0.0);
}

/// Drains with an explicit worker budget on the batch sources.
template <typename Source>
Matrix DrainWithThreads(Source* source, size_t chunk_rows, int threads) {
  ParallelOptions options;
  options.num_threads = threads;
  source->set_parallel_options(options);
  return Drain(source, chunk_rows);
}

TEST(MvnRecordSourceTest, IsChunkAndThreadInvariant) {
  const Matrix covariance = Matrix{{2.0, 0.5, 0.1},
                                   {0.5, 1.0, 0.0},
                                   {0.1, 0.0, 3.0}};
  const size_t n = 1000;  // straddles several generation blocks
  auto make = [&] {
    auto source = MvnRecordSource::Create({0.5, 0.0, -1.0}, covariance, n,
                                          /*seed=*/42);
    EXPECT_TRUE(source.ok()) << source.status().ToString();
    return std::move(source).value();
  };
  MvnRecordSource reference_source = make();
  const Matrix reference = DrainWithThreads(&reference_source, 64, 1);
  ASSERT_EQ(reference.rows(), n);
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}, n}) {
    for (int threads : {1, 4}) {
      MvnRecordSource source = make();
      const Matrix streamed = DrainWithThreads(&source, chunk, threads);
      EXPECT_EQ(linalg::MaxAbsDifference(streamed, reference), 0.0)
          << "chunk " << chunk << " threads " << threads;
    }
  }
}

TEST(MvnRecordSourceTest, ResetReplaysIdentically) {
  auto source = MvnRecordSource::Create({0.0, 0.0}, Matrix::Identity(2), 517,
                                        /*seed=*/9);
  ASSERT_TRUE(source.ok());
  MvnRecordSource s = std::move(source).value();
  const Matrix first = Drain(&s, 33);
  ASSERT_TRUE(s.Reset().ok());
  const Matrix second = Drain(&s, 129);
  EXPECT_EQ(linalg::MaxAbsDifference(first, second), 0.0);
}

TEST(PerturbingRecordSourceTest, NoiseIsChunkAndThreadInvariant) {
  stats::Rng rng(5);
  const Matrix data = rng.GaussianMatrix(700, 3);
  const auto scheme = perturb::IndependentNoiseScheme::Gaussian(3, 1.0);
  auto make = [&] {
    return PerturbingRecordSource(std::make_unique<MatrixRecordSource>(&data),
                                  &scheme, /*seed=*/13);
  };
  PerturbingRecordSource reference_source = make();
  const Matrix reference = DrainWithThreads(&reference_source, 64, 1);
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}, size_t{700}}) {
    for (int threads : {1, 4}) {
      PerturbingRecordSource source = make();
      const Matrix streamed = DrainWithThreads(&source, chunk, threads);
      EXPECT_EQ(linalg::MaxAbsDifference(streamed, reference), 0.0)
          << "chunk " << chunk << " threads " << threads;
    }
  }
  // And the noise actually perturbed the records.
  EXPECT_GT(linalg::MaxAbsDifference(reference, data), 0.0);
}

TEST(PerturbingRecordSourceTest, UniformNoiseInvariance) {
  stats::Rng rng(6);
  const Matrix data = rng.GaussianMatrix(300, 2);
  const auto scheme = perturb::IndependentNoiseScheme::Uniform(2, 2.0);
  PerturbingRecordSource a(std::make_unique<MatrixRecordSource>(&data),
                           &scheme, /*seed=*/3);
  const Matrix one_by_one = Drain(&a, 1);
  PerturbingRecordSource b(std::make_unique<MatrixRecordSource>(&data),
                           &scheme, /*seed=*/3);
  const Matrix all_at_once = Drain(&b, 300);
  EXPECT_EQ(linalg::MaxAbsDifference(one_by_one, all_at_once), 0.0);
}

TEST(PerturbingRecordSourceTest, CorrelatedNoiseInvariance) {
  stats::Rng rng(8);
  const Matrix data = rng.GaussianMatrix(600, 2);
  const Matrix noise_cov = Matrix{{1.0, 0.6}, {0.6, 1.0}};
  auto scheme = perturb::CorrelatedGaussianScheme::Create(noise_cov);
  ASSERT_TRUE(scheme.ok());
  auto make = [&] {
    return PerturbingRecordSource(std::make_unique<MatrixRecordSource>(&data),
                                  &scheme.value(), /*seed=*/21);
  };
  PerturbingRecordSource a = make();
  const Matrix by_17 = Drain(&a, 17);
  PerturbingRecordSource b = make();
  const Matrix by_256 = Drain(&b, 256);
  EXPECT_EQ(linalg::MaxAbsDifference(by_17, by_256), 0.0);
}

TEST(PerturbingRecordSourceTest, CorrelatedNoiseCrossesGemmCutoff) {
  // Correlated noise is one SampleMatrix GEMM per generation block, so
  // the blocked-vs-naive GEMM path (cutoff at rows*m*m ~ 2^20) must not
  // follow the chunk size: n=2048 x m=32 puts a one-chunk drain past
  // that cutoff while 64-row chunks stay below it.
  const size_t m = 32, n = 2048;
  stats::Rng cov_rng(99);
  const Matrix g = cov_rng.GaussianMatrix(m, m);
  Matrix cov(m, m);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      double dot = 0.0;
      for (size_t k = 0; k < m; ++k) dot += g(i, k) * g(j, k);
      cov(i, j) = dot / m + (i == j ? 1.0 : 0.0);
    }
  }
  auto scheme = perturb::CorrelatedGaussianScheme::Create(cov);
  ASSERT_TRUE(scheme.ok());
  stats::Rng data_rng(1);
  const Matrix data = data_rng.GaussianMatrix(n, m);
  auto make = [&] {
    return PerturbingRecordSource(std::make_unique<MatrixRecordSource>(&data),
                                  &scheme.value(), /*seed=*/5);
  };
  PerturbingRecordSource small_chunks = make();
  const Matrix by_64 = Drain(&small_chunks, 64);
  PerturbingRecordSource one_chunk = make();
  const Matrix at_once = Drain(&one_chunk, n);
  EXPECT_EQ(linalg::MaxAbsDifference(by_64, at_once), 0.0);
}

TEST(PerturbingRecordSourceTest, SchemeWithoutVectorizedOverrideIsInvariant) {
  // Mixture noise has no batch sampler, so it takes the base
  // AddNoiseAt (GenerateNoise per generation block) and must keep every
  // stream contract on that path: chunk size, thread count and Reset().
  class MixtureNoiseScheme final : public perturb::RandomizationScheme {
   public:
    explicit MixtureNoiseScheme(perturb::NoiseModel model)
        : model_(std::move(model)) {}
    size_t num_attributes() const override { return model_.num_attributes(); }
    linalg::Matrix GenerateNoise(size_t num_records,
                                 stats::Rng* rng) const override {
      linalg::Matrix noise(num_records, num_attributes());
      for (size_t i = 0; i < num_records; ++i) {
        for (size_t j = 0; j < num_attributes(); ++j) {
          noise(i, j) = model_.Marginal(j).Sample(rng);
        }
      }
      return noise;
    }
    const perturb::NoiseModel& noise_model() const override { return model_; }

   private:
    perturb::NoiseModel model_;
  };
  std::vector<std::unique_ptr<stats::ScalarDistribution>> components;
  components.push_back(std::make_unique<stats::NormalDistribution>(-1.0, 0.5));
  components.push_back(std::make_unique<stats::NormalDistribution>(1.0, 0.5));
  auto mixture =
      stats::MixtureDistribution::Create(std::move(components), {1.0, 1.0});
  ASSERT_TRUE(mixture.ok());
  ASSERT_FALSE(mixture.value().SupportsBatchSampling());
  auto model = perturb::NoiseModel::Independent(
      std::make_unique<stats::MixtureDistribution>(std::move(mixture).value()),
      3);
  ASSERT_TRUE(model.ok());
  const MixtureNoiseScheme scheme(std::move(model).value());
  stats::Rng rng(7);
  const size_t n = 600;  // straddles three generation blocks
  const Matrix data = rng.GaussianMatrix(n, 3);
  auto make = [&] {
    return PerturbingRecordSource(std::make_unique<MatrixRecordSource>(&data),
                                  &scheme, /*seed=*/2);
  };
  PerturbingRecordSource reference_source = make();
  const Matrix reference = DrainWithThreads(&reference_source, 64, 1);
  EXPECT_GT(linalg::MaxAbsDifference(reference, data), 0.0);
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}, n}) {
    for (int threads : {1, 4}) {
      PerturbingRecordSource source = make();
      const Matrix streamed = DrainWithThreads(&source, chunk, threads);
      EXPECT_EQ(linalg::MaxAbsDifference(streamed, reference), 0.0)
          << "chunk " << chunk << " threads " << threads;
    }
  }
  ASSERT_TRUE(reference_source.Reset().ok());
  EXPECT_EQ(
      linalg::MaxAbsDifference(Drain(&reference_source, 11), reference), 0.0);
}

TEST(PerturbingRecordSourceTest, MvnPlusNoiseEndToEndInvariance) {
  // The full synthetic attack input — MVN population + independent noise,
  // both on the counter substrate — re-chunks bitwise identically.
  const Matrix covariance = Matrix{{2.0, 0.4}, {0.4, 1.0}};
  const auto scheme = perturb::IndependentNoiseScheme::Gaussian(2, 0.5);
  auto make = [&] {
    auto inner = MvnRecordSource::Create({0.0, 0.0}, covariance, 555,
                                         /*seed=*/31);
    EXPECT_TRUE(inner.ok());
    return PerturbingRecordSource(
        std::make_unique<MvnRecordSource>(std::move(inner).value()), &scheme,
        /*seed=*/32);
  };
  PerturbingRecordSource a = make();
  const Matrix ref = Drain(&a, 64);
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{555}}) {
    PerturbingRecordSource s = make();
    EXPECT_EQ(linalg::MaxAbsDifference(Drain(&s, chunk), ref), 0.0)
        << "chunk " << chunk;
  }
}

}  // namespace
}  // namespace pipeline
}  // namespace randrecon
