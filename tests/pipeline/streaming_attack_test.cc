// End-to-end fidelity of the out-of-core pipeline: streaming SF and
// PCA-DR must reproduce the in-memory reconstructors to <= 1e-10 per
// entry (the covariance underneath is bitwise identical; only the
// chunked projection may differ in the last bits).

#include "pipeline/streaming_attack.h"

#include <cmath>
#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/pca_dr.h"
#include "core/spectral_filtering.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "linalg/matrix_util.h"
#include "perturb/schemes.h"
#include "stats/moments.h"
#include "stats/rng.h"

namespace randrecon {
namespace pipeline {
namespace {

constexpr double kTol = 1e-10;

using linalg::Matrix;

/// A correlated dataset + its disguised version, shared by the tests.
struct Fixture {
  Matrix original;
  Matrix disguised;
  perturb::NoiseModel noise = perturb::NoiseModel::IndependentGaussian(1, 1.0);
};

Fixture MakeFixture(size_t n = 600, size_t m = 12, double sigma = 0.4,
                    size_t principal = 3) {
  stats::Rng rng(29);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(m, principal, 8.0, 0.1);
  auto generated = data::GenerateSpectrumDataset(spec, n, &rng);
  Fixture fixture;
  fixture.original = generated.value().dataset.records();
  const auto scheme =
      perturb::IndependentNoiseScheme::Gaussian(m, sigma);
  fixture.disguised =
      fixture.original + scheme.GenerateNoise(n, &rng);
  fixture.noise = scheme.noise_model();
  return fixture;
}

Matrix RunStreaming(const Fixture& fixture, StreamingAttack attack,
                    size_t chunk_rows, StreamingAttackReport* report_out,
                    RecordSource* reference = nullptr) {
  StreamingAttackOptions options;
  options.attack = attack;
  options.chunk_rows = chunk_rows;
  MatrixRecordSource source(&fixture.disguised);
  CollectChunkSink sink(fixture.disguised.cols());
  auto report = StreamingAttackPipeline(options).Run(&source, fixture.noise,
                                                     &sink, reference);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report_out != nullptr && report.ok()) {
    *report_out = report.value();
  }
  return sink.ToMatrix();
}

TEST(StreamingAttackTest, PcaDrMatchesInMemoryReconstructor) {
  const Fixture fixture = MakeFixture();
  StreamingAttackReport report;
  const Matrix streamed =
      RunStreaming(fixture, StreamingAttack::kPcaDr, 37, &report);

  core::PcaDiagnostics diagnostics;
  const auto in_memory = core::PcaReconstructor().ReconstructWithDiagnostics(
      fixture.disguised, fixture.noise, &diagnostics);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();

  ASSERT_EQ(streamed.rows(), fixture.disguised.rows());
  EXPECT_LE(linalg::MaxAbsDifference(streamed, in_memory.value()), kTol);
  // Identical covariance bits => identical component selection.
  EXPECT_EQ(report.num_components, diagnostics.num_components);
  EXPECT_EQ(report.num_records, fixture.disguised.rows());
}

TEST(StreamingAttackTest, SpectralFilteringMatchesInMemoryReconstructor) {
  const Fixture fixture = MakeFixture();
  StreamingAttackReport report;
  const Matrix streamed =
      RunStreaming(fixture, StreamingAttack::kSpectralFiltering, 64, &report);

  const auto in_memory = core::SpectralFilteringReconstructor().Reconstruct(
      fixture.disguised, fixture.noise);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  EXPECT_LE(linalg::MaxAbsDifference(streamed, in_memory.value()), kTol);
}

TEST(StreamingAttackTest, ReconstructionIsChunkSizeInsensitive) {
  const Fixture fixture = MakeFixture(500, 8);
  const Matrix tiny_chunks =
      RunStreaming(fixture, StreamingAttack::kPcaDr, 7, nullptr);
  const Matrix one_chunk =
      RunStreaming(fixture, StreamingAttack::kPcaDr, 500, nullptr);
  EXPECT_LE(linalg::MaxAbsDifference(tiny_chunks, one_chunk), kTol);
}

// Results are never a function of chunk size: at m = 128 and p = 4 (the
// paper's population) the projection's kernels must give each row the
// same bits whether it shares a call with 99 other rows or with 4095.
TEST(StreamingAttackTest, ReconstructionIsBitwiseChunkInvariantAtWideM) {
  const Fixture fixture = MakeFixture(5000, 128, 0.4, /*principal=*/4);
  StreamingAttackReport reports[2];
  const Matrix small =
      RunStreaming(fixture, StreamingAttack::kPcaDr, 100, &reports[0]);
  const Matrix full =
      RunStreaming(fixture, StreamingAttack::kPcaDr, 4096, &reports[1]);
  ASSERT_EQ(small.size(), full.size());
  ASSERT_EQ(reports[0].num_components, 4u);
  EXPECT_EQ(std::memcmp(small.data(), full.data(),
                        small.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&reports[0].rmse_vs_disguised,
                        &reports[1].rmse_vs_disguised, sizeof(double)),
            0);
}

TEST(StreamingAttackTest, EstimatedMeanIsBitwiseInMemoryMean) {
  const Fixture fixture = MakeFixture(300, 6);
  StreamingAttackReport report;
  RunStreaming(fixture, StreamingAttack::kPcaDr, 41, &report);
  const linalg::Vector means = stats::ColumnMeans(fixture.disguised);
  ASSERT_EQ(report.mean.size(), means.size());
  for (size_t j = 0; j < means.size(); ++j) {
    EXPECT_EQ(report.mean[j], means[j]) << "mean " << j;
  }
}

TEST(StreamingAttackTest, ReferenceStreamFeedsPrivacyRmse) {
  const Fixture fixture = MakeFixture();
  MatrixRecordSource reference(&fixture.original);
  StreamingAttackReport report;
  const Matrix streamed =
      RunStreaming(fixture, StreamingAttack::kPcaDr, 50, &report, &reference);
  ASSERT_TRUE(report.has_reference);
  const double expected =
      stats::RootMeanSquareError(streamed, fixture.original);
  EXPECT_NEAR(report.rmse_vs_reference, expected, 1e-12);
  // The attack removed noise: closer to the truth than the disguised data.
  EXPECT_LT(report.rmse_vs_reference,
            stats::RootMeanSquareError(fixture.disguised, fixture.original));
  EXPECT_GT(report.rmse_vs_disguised, 0.0);
}

TEST(StreamingAttackTest, CsvStreamEndToEnd) {
  const Fixture fixture = MakeFixture(200, 5);
  const std::string csv = data::ToCsvString(
      data::Dataset(fixture.disguised), /*precision=*/12);
  auto source = CsvRecordSource::FromString(csv);
  ASSERT_TRUE(source.ok());
  CsvRecordSource csv_source = std::move(source).value();

  StreamingAttackOptions options;
  options.chunk_rows = 33;
  CollectChunkSink sink(5);
  const auto report =
      StreamingAttackPipeline(options).Run(&csv_source, fixture.noise, &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Compare against the in-memory attack on the SAME parsed records (CSV
  // round-trip quantizes, so attack the quantized table on both sides).
  const Matrix parsed = data::FromCsvString(csv).value().records();
  const auto in_memory =
      core::PcaReconstructor().Reconstruct(parsed, fixture.noise);
  ASSERT_TRUE(in_memory.ok());
  EXPECT_LE(linalg::MaxAbsDifference(sink.ToMatrix(), in_memory.value()),
            kTol);
}

/// A conforming-but-stingy source: never serves more than `trickle`
/// records per call, regardless of the buffer size offered.
class TrickleSource final : public RecordSource {
 public:
  TrickleSource(const Matrix* records, size_t trickle)
      : records_(records), trickle_(trickle) {}
  size_t num_attributes() const override { return records_->cols(); }
  Status Reset() override {
    next_row_ = 0;
    return Status::OK();
  }
  Result<size_t> NextChunk(Matrix* buffer) override {
    const size_t rows = std::min(
        {buffer->rows(), trickle_, records_->rows() - next_row_});
    for (size_t i = 0; i < rows; ++i) {
      buffer->SetRow(i, records_->Row(next_row_ + i));
    }
    next_row_ += rows;
    return rows;
  }

 private:
  const Matrix* records_;
  size_t trickle_;
  size_t next_row_ = 0;
};

TEST(StreamingAttackTest, PartialChunkReferenceSourceIsDrained) {
  // A reference source that under-fills its buffer is still aligned —
  // the pipeline must gather records, not compare per-call chunk sizes.
  const Fixture fixture = MakeFixture(300, 6);
  TrickleSource trickle_reference(&fixture.original, 13);
  StreamingAttackReport trickle_report;
  RunStreaming(fixture, StreamingAttack::kPcaDr, 50, &trickle_report,
               &trickle_reference);
  MatrixRecordSource full_reference(&fixture.original);
  StreamingAttackReport full_report;
  RunStreaming(fixture, StreamingAttack::kPcaDr, 50, &full_report,
               &full_reference);
  ASSERT_TRUE(trickle_report.has_reference);
  EXPECT_EQ(trickle_report.rmse_vs_reference, full_report.rmse_vs_reference);
}

TEST(StreamingAttackTest, MisalignedReferenceIsAnError) {
  const Fixture fixture = MakeFixture(100, 4);
  const Matrix short_reference =
      fixture.original.Block(0, 50, 0, fixture.original.cols());
  MatrixRecordSource source(&fixture.disguised);
  MatrixRecordSource reference(&short_reference);
  NullChunkSink sink;
  const auto report = StreamingAttackPipeline().Run(&source, fixture.noise,
                                                    &sink, &reference);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamingAttackTest, NoiseWidthMismatchIsAnError) {
  const Fixture fixture = MakeFixture(50, 4);
  MatrixRecordSource source(&fixture.disguised);
  NullChunkSink sink;
  const auto report = StreamingAttackPipeline().Run(
      &source, perturb::NoiseModel::IndependentGaussian(3, 1.0), &sink);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

/// A source whose record count shrinks after the first pass — a live log
/// being truncated between sweeps.
class ShrinkingSource final : public RecordSource {
 public:
  explicit ShrinkingSource(const Matrix* records) : records_(records) {}
  size_t num_attributes() const override { return records_->cols(); }
  Status Reset() override {
    ++passes_;
    next_row_ = 0;
    return Status::OK();
  }
  Result<size_t> NextChunk(Matrix* buffer) override {
    const size_t limit = passes_ <= 1 ? records_->rows()
                                      : records_->rows() - 10;
    const size_t rows = std::min(buffer->rows(), limit - next_row_);
    for (size_t i = 0; i < rows; ++i) {
      buffer->SetRow(i, records_->Row(next_row_ + i));
    }
    next_row_ += rows;
    return rows;
  }

 private:
  const Matrix* records_;
  size_t passes_ = 0;
  size_t next_row_ = 0;
};

TEST(StreamingAttackTest, DriftingSourceFailsTheJobNotTheProcess) {
  const Fixture fixture = MakeFixture(100, 4);
  ShrinkingSource source(&fixture.disguised);
  NullChunkSink sink;
  const auto report =
      StreamingAttackPipeline().Run(&source, fixture.noise, &sink);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("sweep"), std::string::npos);
}

TEST(StreamingAttackTest, TooFewRecordsIsAnError) {
  const Matrix one_record(1, 3, 1.0);
  MatrixRecordSource source(&one_record);
  NullChunkSink sink;
  const auto report = StreamingAttackPipeline().Run(
      &source, perturb::NoiseModel::IndependentGaussian(3, 1.0), &sink);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Telemetry: chunk/record counters are exact, and instrumentation never
// perturbs the numbers (common/metrics.h determinism contract).
// ---------------------------------------------------------------------------

uint64_t AttackCounter(const char* name) {
  for (const metrics::CounterSnapshot& c : metrics::Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  ADD_FAILURE() << "no counter named " << name;
  return 0;
}

uint64_t AttackHistogramCount(const char* name) {
  for (const metrics::HistogramSnapshot& h : metrics::Snapshot().histograms) {
    if (h.name == name) return h.count;
  }
  ADD_FAILURE() << "no histogram named " << name;
  return 0;
}

TEST(StreamingAttackTest, TelemetryCountersArePinned) {
  metrics::ResetAllMetrics();
  const Fixture fixture = MakeFixture(100, 4);
  StreamingAttackReport report;
  RunStreaming(fixture, StreamingAttack::kPcaDr, 30, &report);
  ASSERT_EQ(report.num_records, 100u);

  // 100 rows in 30-row chunks is 4 chunks per sweep; pass 1 sweeps the
  // source twice (means, then scatter), pass 2 once. Records are counted
  // on the means sweep and on pass 2 — exactly n each.
  EXPECT_EQ(AttackCounter("attack.runs"), 1u);
  EXPECT_EQ(AttackCounter("attack.records_pass1"), 100u);
  EXPECT_EQ(AttackCounter("attack.records_pass2"), 100u);
  EXPECT_EQ(AttackCounter("attack.chunks_pass1"), 8u);
  EXPECT_EQ(AttackCounter("attack.chunks_pass2"), 4u);
  EXPECT_EQ(AttackHistogramCount("attack.pass1_chunk_nanos"), 8u);
  EXPECT_EQ(AttackHistogramCount("attack.pass2_chunk_nanos"), 4u);
}

TEST(StreamingAttackTest, TracingDoesNotPerturbTheNumbers) {
  const Fixture fixture = MakeFixture(300, 6);

  StreamingAttackReport plain_report;
  const Matrix plain = RunStreaming(fixture, StreamingAttack::kSpectralFiltering,
                                    44, &plain_report);

  trace::StartTracing();
  StreamingAttackReport traced_report;
  const Matrix traced = RunStreaming(
      fixture, StreamingAttack::kSpectralFiltering, 44, &traced_report);
  const std::vector<trace::Span> spans = trace::StopTracing();

  // The capture saw the pipeline's stage spans...
  auto has_span = [&](const char* name) {
    for (const trace::Span& span : spans) {
      if (span.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_span("attack.pass1_means"));
  EXPECT_TRUE(has_span("attack.pass1_scatter"));
  EXPECT_TRUE(has_span("attack.eigen"));
  EXPECT_TRUE(has_span("attack.pass2"));

  // ...and every number is bitwise identical to the uninstrumented run.
  EXPECT_EQ(linalg::MaxAbsDifference(plain, traced), 0.0);
  EXPECT_EQ(plain_report.num_records, traced_report.num_records);
  EXPECT_EQ(plain_report.num_components, traced_report.num_components);
  EXPECT_EQ(plain_report.rmse_vs_disguised, traced_report.rmse_vs_disguised);
  ASSERT_EQ(plain_report.mean.size(), traced_report.mean.size());
  for (size_t j = 0; j < plain_report.mean.size(); ++j) {
    EXPECT_EQ(plain_report.mean[j], traced_report.mean[j]) << "mean " << j;
  }
  ASSERT_EQ(plain_report.eigenvalues.size(), traced_report.eigenvalues.size());
  for (size_t j = 0; j < plain_report.eigenvalues.size(); ++j) {
    EXPECT_EQ(plain_report.eigenvalues[j], traced_report.eigenvalues[j])
        << "eigenvalue " << j;
  }
}

TEST(StreamingAttackTest, ZeroChunkRowsFailsTheJobNotTheProcess) {
  const Fixture fixture = MakeFixture(50, 4);
  MatrixRecordSource source(&fixture.disguised);
  NullChunkSink sink;
  StreamingAttackOptions options;
  options.chunk_rows = 0;
  const auto report =
      StreamingAttackPipeline(options).Run(&source, fixture.noise, &sink);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pipeline
}  // namespace randrecon
