// End-to-end fidelity of the out-of-core pipeline: streaming SF and
// PCA-DR reproduce the in-memory reconstructors bitwise — the covariance
// underneath is bitwise identical, both paths select their basis through
// the same core function, and the projection gives every row the same
// bits whatever the chunk size.

#include "pipeline/streaming_attack.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/pca_dr.h"
#include "core/spectral_filtering.h"
#include "data/column_store.h"
#include "data/csv.h"
#include "data/rolling_store.h"
#include "data/shard_store.h"
#include "data/synthetic.h"
#include "linalg/eigen.h"
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

/// The clip-active population of
/// MomentEstimationTest.PsdClipRemovesNegativeEigenvalues: 30 records of 6
/// unit-variance attributes under σ = 5 noise, so Cov(Y) − σ²I has
/// negative eigenvalues.
Fixture MakeClipActiveFixture() {
  stats::Rng rng(104);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = std::vector<double>(6, 1.0);
  auto generated = data::GenerateSpectrumDataset(spec, 30, &rng);
  const auto scheme = perturb::IndependentNoiseScheme::Gaussian(6, 5.0);
  Fixture fixture;
  fixture.original = generated.value().dataset.records();
  fixture.disguised = fixture.original + scheme.GenerateNoise(30, &rng);
  fixture.noise = scheme.noise_model();
  return fixture;
}

Matrix RunStreaming(const Fixture& fixture, StreamingAttack attack,
                    size_t chunk_rows, StreamingAttackReport* report_out,
                    RecordSource* reference = nullptr,
                    const core::PcaOptions& pca = {}) {
  StreamingAttackOptions options;
  options.attack = attack;
  options.chunk_rows = chunk_rows;
  options.pca = pca;
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

bool BitwiseEqual(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(StreamingAttackTest, PcaDrMatchesInMemoryReconstructor) {
  const Fixture fixture = MakeFixture();
  const Fixture clip_active = MakeClipActiveFixture();
  core::PcaOptions floored;
  floored.moment_options.eigen_floor = 0.1;
  core::PcaOptions bulk;
  bulk.moment_options.bulk_average_nonprincipal = true;
  core::PcaOptions oracle;
  oracle.oracle_covariance = stats::SampleCovariance(fixture.original);
  struct Case {
    const char* name;
    const Fixture* fixture;
    core::PcaOptions options;
  };
  const Case cases[] = {
      {"default", &fixture, {}},
      {"clip_active", &clip_active, {}},
      {"clip_active_floor_0.1", &clip_active, floored},
      {"bulk_average", &fixture, bulk},
      {"oracle", &fixture, oracle},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    StreamingAttackReport report;
    const Matrix streamed = RunStreaming(*c.fixture, StreamingAttack::kPcaDr,
                                         7, &report, nullptr, c.options);

    core::PcaDiagnostics diagnostics;
    const auto in_memory =
        core::PcaReconstructor(c.options).ReconstructWithDiagnostics(
            c.fixture->disguised, c.fixture->noise, &diagnostics);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();

    ASSERT_EQ(streamed.rows(), c.fixture->disguised.rows());
    EXPECT_EQ(report.num_records, c.fixture->disguised.rows());
    EXPECT_EQ(report.num_components, diagnostics.num_components);
    EXPECT_TRUE(BitwiseEqual(report.eigenvalues, diagnostics.eigenvalues));
    EXPECT_TRUE(BitwiseEqual(streamed, in_memory.value()));
  }
}

TEST(StreamingAttackTest, SpectralFilteringMatchesInMemoryReconstructor) {
  const Fixture fixture = MakeFixture();
  StreamingAttackReport report;
  const Matrix streamed =
      RunStreaming(fixture, StreamingAttack::kSpectralFiltering, 64, &report);

  const auto in_memory = core::SpectralFilteringReconstructor().Reconstruct(
      fixture.disguised, fixture.noise);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  EXPECT_TRUE(BitwiseEqual(streamed, in_memory.value()));
  // The in-memory reconstructor's own spectrum and p: SF's Cov(Y)
  // eigenvalues and the Marchenko–Pastur count.
  const auto eig = linalg::SymmetricEigen(
      stats::SampleCovariance(fixture.disguised));
  ASSERT_TRUE(eig.ok());
  EXPECT_TRUE(BitwiseEqual(report.eigenvalues, eig.value().eigenvalues));
  EXPECT_EQ(report.num_components,
            core::SelectSfComponents(eig.value().eigenvalues, fixture.noise,
                                     fixture.disguised.rows()));
}

// PCA-DR decomposes Cov(Y) − Σr once and clips the eigenvalues it found:
// both attack paths report exactly max(λ_k, floor) of that one solve, not
// the spectrum of a recomposed, re-decomposed matrix.
TEST(StreamingAttackTest, PcaDrSpectrumIsTheClippedSpectrumOfOneSolve) {
  const Fixture fixture = MakeClipActiveFixture();
  const auto raw = linalg::SymmetricEigen(
      stats::SampleCovariance(fixture.disguised) - fixture.noise.covariance());
  ASSERT_TRUE(raw.ok());
  for (const double floor : {0.0, 0.1}) {
    SCOPED_TRACE(floor);
    linalg::Vector expected = raw.value().eigenvalues;
    ASSERT_LT(expected.back(), floor);  // The clip fires.
    for (double& lambda : expected) lambda = std::max(lambda, floor);

    core::PcaOptions options;
    options.moment_options.eigen_floor = floor;
    core::PcaDiagnostics diagnostics;
    ASSERT_TRUE(core::PcaReconstructor(options)
                    .ReconstructWithDiagnostics(fixture.disguised,
                                                fixture.noise, &diagnostics)
                    .ok());
    EXPECT_TRUE(BitwiseEqual(diagnostics.eigenvalues, expected));
    StreamingAttackReport report;
    RunStreaming(fixture, StreamingAttack::kPcaDr, 16, &report, nullptr,
                 options);
    EXPECT_TRUE(BitwiseEqual(report.eigenvalues, expected));
  }
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

// ---------------------------------------------------------------------------
// rmse_vs_disguised comes from the covariance, so it matches the projected
// rows, no sink or reference changes the report, and a metrics-only run
// never projects.
// ---------------------------------------------------------------------------

/// Runs the attack over `disguised` into `sink` and returns the report.
StreamingAttackReport RunInto(const Matrix& disguised,
                              const perturb::NoiseModel& noise,
                              const StreamingAttackOptions& options,
                              ChunkSink* sink,
                              RecordSource* reference = nullptr) {
  MatrixRecordSource source(&disguised);
  auto report =
      StreamingAttackPipeline(options).Run(&source, noise, sink, reference);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? report.value() : StreamingAttackReport{};
}

/// The closed form against Σ‖x̂ − y‖² summed over the collected rows;
/// returns the component count the run kept.
size_t ExpectClosedFormMatchesRows(const Matrix& disguised,
                                   const perturb::NoiseModel& noise,
                                   const StreamingAttackOptions& options,
                                   const std::string& label) {
  CollectChunkSink sink(disguised.cols());
  const StreamingAttackReport report =
      RunInto(disguised, noise, options, &sink);
  const double summed = stats::RootMeanSquareError(sink.ToMatrix(), disguised);
  EXPECT_FALSE(std::isnan(report.rmse_vs_disguised)) << label;
  EXPECT_NEAR(report.rmse_vs_disguised, summed,
              1e-12 * std::max(1.0, summed))
      << label << " (p = " << report.num_components << ")";
  return report.num_components;
}

TEST(StreamingAttackTest, ClosedFormRmseVsDisguisedMatchesTheProjectedRows) {
  const Fixture fixture = MakeFixture(2000, 12);
  StreamingAttackOptions options;
  options.chunk_rows = 300;
  EXPECT_LT(ExpectClosedFormMatchesRows(fixture.disguised, fixture.noise,
                                        options, "PCA-DR, independent noise"),
            12u);
  // At σ = 1 the minor eigenvalues sit under the Marchenko–Pastur edge,
  // so SF drops them too.
  const Fixture noisy = MakeFixture(2000, 12, /*sigma=*/1.0);
  options.attack = StreamingAttack::kSpectralFiltering;
  EXPECT_LT(ExpectClosedFormMatchesRows(noisy.disguised, noisy.noise, options,
                                        "SF"),
            12u);

  // Correlated noise: Q̂ are eigenvectors of Σ̂x = Cov(Y) − Σr, not of
  // Cov(Y), so the closed form must use the dropped directions, not the
  // dropped eigenvalues.
  Matrix noise_covariance(12, 12, 0.06);
  for (size_t j = 0; j < 12; ++j) noise_covariance(j, j) = 0.16;
  auto scheme = perturb::CorrelatedGaussianScheme::Create(noise_covariance);
  ASSERT_TRUE(scheme.ok()) << scheme.status().ToString();
  stats::Rng rng(31);
  const Matrix correlated =
      fixture.original + scheme.value().GenerateNoise(2000, &rng);
  options.attack = StreamingAttack::kPcaDr;
  EXPECT_LT(ExpectClosedFormMatchesRows(correlated,
                                        scheme.value().noise_model(), options,
                                        "PCA-DR, correlated noise"),
            12u);

  // p = m drops nothing: exactly 0, never NaN.
  options.pca.selection = core::PcSelection::kFixedCount;
  options.pca.fixed_count = 12;
  ExpectClosedFormMatchesRows(fixture.disguised, fixture.noise, options,
                              "PCA-DR, p = m");
  NullChunkSink sink;
  const StreamingAttackReport all_kept =
      RunInto(fixture.disguised, fixture.noise, options, &sink);
  EXPECT_EQ(all_kept.num_components, 12u);
  EXPECT_EQ(all_kept.rmse_vs_disguised, 0.0);
}

bool SameBits(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(StreamingAttackTest, SinksAndReferenceNeverChangeTheReport) {
  const Fixture fixture = MakeFixture(900, 8);
  for (const StreamingAttack attack :
       {StreamingAttack::kPcaDr, StreamingAttack::kSpectralFiltering}) {
    StreamingAttackOptions options;
    options.attack = attack;
    options.chunk_rows = 64;
    NullChunkSink null_sink;
    CollectChunkSink collect_sink(8);
    NullChunkSink reference_sink;
    MatrixRecordSource reference(&fixture.original);
    const StreamingAttackReport reports[3] = {
        RunInto(fixture.disguised, fixture.noise, options, &null_sink),
        RunInto(fixture.disguised, fixture.noise, options, &collect_sink),
        RunInto(fixture.disguised, fixture.noise, options, &reference_sink,
                &reference)};
    EXPECT_EQ(collect_sink.num_records(), 900u);
    EXPECT_FALSE(reports[0].has_reference);
    EXPECT_FALSE(reports[1].has_reference);
    EXPECT_TRUE(reports[2].has_reference);
    for (const StreamingAttackReport& report : {reports[1], reports[2]}) {
      EXPECT_EQ(report.num_records, reports[0].num_records);
      EXPECT_EQ(report.num_attributes, reports[0].num_attributes);
      EXPECT_EQ(report.num_components, reports[0].num_components);
      EXPECT_TRUE(SameBits(report.eigenvalues, reports[0].eigenvalues));
      EXPECT_TRUE(SameBits(report.mean, reports[0].mean));
      EXPECT_EQ(std::memcmp(&report.rmse_vs_disguised,
                            &reports[0].rmse_vs_disguised, sizeof(double)),
                0);
    }
  }
}

/// Forwards a column store and counts what it serves through each
/// interface.
class CountingStoreSource final : public RecordSource,
                                  public ColumnarBlockStream {
 public:
  explicit CountingStoreSource(ShardedRecordSource* inner)
      : inner_(inner) {}
  size_t num_attributes() const override { return inner_->num_attributes(); }
  Status Reset() override { return inner_->Reset(); }
  Result<size_t> NextChunk(Matrix* buffer) override {
    ++next_chunk_calls_;
    return inner_->NextChunk(buffer);
  }
  ColumnarBlockStream* columnar_blocks() override { return this; }
  Status ResetBlocks() override { return inner_->ResetBlocks(); }
  Result<size_t> NextBlockColumns(
      std::vector<const double*>* columns) override {
    Result<size_t> rows = inner_->NextBlockColumns(columns);
    if (rows.ok()) records_served_ += rows.value();
    return rows;
  }
  size_t next_chunk_calls() const { return next_chunk_calls_; }
  size_t records_served() const { return records_served_; }

 private:
  ShardedRecordSource* inner_;
  size_t next_chunk_calls_ = 0;
  size_t records_served_ = 0;
};

TEST(StreamingAttackTest, MetricsOnlyRunSkipsTheProjectionPass) {
  const Fixture fixture = MakeFixture(1000, 6);
  const std::string path = "streaming_attack_test_metrics_only.rrcs";
  data::ColumnStoreOptions store_options;
  store_options.block_rows = 128;
  ASSERT_TRUE(data::WriteColumnStore(data::Dataset(fixture.disguised), path,
                                     store_options)
                  .ok());
  auto opened = ShardedRecordSource::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ShardedRecordSource store = std::move(opened).value();
  CountingStoreSource counting(&store);

  metrics::ResetAllMetrics();
  trace::StartTracing();
  NullChunkSink sink;
  const auto report =
      StreamingAttackPipeline().Run(&counting, fixture.noise, &sink);
  const std::vector<trace::Span> spans = trace::StopTracing();
  std::remove(path.c_str());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Two pass-1 sweeps, each record served once per sweep, and no pass 2.
  EXPECT_EQ(counting.records_served(), 2 * fixture.disguised.rows());
  EXPECT_EQ(counting.next_chunk_calls(), 0u);
  EXPECT_EQ(AttackCounter("attack.records_pass1"), 1000u);
  EXPECT_EQ(AttackCounter("attack.records_pass2"), 0u);
  EXPECT_EQ(AttackCounter("attack.chunks_pass2"), 0u);
  bool saw_means = false;
  for (const trace::Span& span : spans) {
    EXPECT_NE(span.name, "attack.pass2");
    saw_means = saw_means || span.name == "attack.pass1_means";
  }
  EXPECT_TRUE(saw_means);
}

// A store's blocks are verified once per source, on its first read:
// over a manifest of 10 blocks (shards of 300 rows in blocks of 128, the
// last shard 100 rows), a metrics-only attack's two pass-1 sweeps verify
// each block once, and a pass 2 that gathers every row again verifies
// nothing more.
TEST(StreamingAttackTest, EachStoreBlockIsVerifiedOncePerAttack) {
  const Fixture fixture = MakeFixture(1000, 6);
  const std::string manifest = "streaming_attack_test_verified_once.rrcm";
  data::RollingStoreOptions store_options;
  store_options.block_rows = 128;
  store_options.shard_rows = 300;
  ASSERT_TRUE(data::WriteShardedStore(data::Dataset(fixture.disguised),
                                      manifest, store_options)
                  .ok());
  constexpr uint64_t kBlocks = 3 * 3 + 1;

  for (const bool pass2 : {false, true}) {
    SCOPED_TRACE(pass2 ? "with pass 2" : "metrics only");
    auto opened = ShardedRecordSource::Open(manifest);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ShardedRecordSource store = std::move(opened).value();
    metrics::ResetAllMetrics();
    NullChunkSink null_sink;
    CollectChunkSink collect_sink(fixture.disguised.cols());
    ChunkSink* sink = pass2 ? static_cast<ChunkSink*>(&collect_sink)
                            : static_cast<ChunkSink*>(&null_sink);
    const auto report = StreamingAttackPipeline().Run(&store, fixture.noise,
                                                      sink);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(AttackCounter("attack.records_pass2"), pass2 ? 1000u : 0u);
    EXPECT_EQ(AttackCounter("store.blocks_verified"), kBlocks);
  }
  data::RemoveShardedStoreFiles(manifest);
}

// Mapped stores keep their blocks valid, so the scatter sweep hands them
// to StreamingMoments a wave at a time. Over 17 Gram blocks plus a tail,
// store blocks of 1000 rows (Gram blocks span several store blocks) and
// shards of 9000 rows (shard ends fall inside Gram blocks), the report is
// bitwise the one a block-at-a-time sweep of the same store and an
// in-memory source give, for every thread count.
TEST(StreamingAttackTest, HeldStoreBlocksGiveTheBlockAtATimeBits) {
  const size_t n = 17 * 4096 + 321;
  const Fixture fixture = MakeFixture(n, 12);
  const std::string path = "streaming_attack_test_held.rrcs";
  const std::string manifest = "streaming_attack_test_held.rrcm";
  data::ColumnStoreOptions store_options;
  store_options.block_rows = 1000;
  ASSERT_TRUE(data::WriteColumnStore(data::Dataset(fixture.disguised), path,
                                     store_options)
                  .ok());
  data::RollingStoreOptions sharded_options;
  sharded_options.block_rows = 1000;
  sharded_options.shard_rows = 9000;
  ASSERT_TRUE(data::WriteShardedStore(data::Dataset(fixture.disguised),
                                      manifest, sharded_options)
                  .ok());

  for (const int threads : {1, 3, 4}) {
    StreamingAttackOptions options;
    options.parallel.num_threads = threads;
    const StreamingAttackPipeline attack(options);
    NullChunkSink sink;
    MatrixRecordSource in_memory(&fixture.disguised);
    const auto expected = attack.Run(&in_memory, fixture.noise, &sink);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    auto opened_store = ShardedRecordSource::Open(path);
    ASSERT_TRUE(opened_store.ok()) << opened_store.status().ToString();
    ShardedRecordSource store = std::move(opened_store).value();
    auto opened_sharded = ShardedRecordSource::Open(manifest);
    ASSERT_TRUE(opened_sharded.ok()) << opened_sharded.status().ToString();
    ShardedRecordSource sharded = std::move(opened_sharded).value();
    ASSERT_TRUE(store.blocks_stay_valid());
    ASSERT_TRUE(sharded.blocks_stay_valid());
    CountingStoreSource one_at_a_time(&store);
    ASSERT_FALSE(one_at_a_time.blocks_stay_valid());

    for (RecordSource* source : std::vector<RecordSource*>{
             &store, &sharded, &one_at_a_time}) {
      const auto report = attack.Run(source, fixture.noise, &sink);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report.value().num_components, expected.value().num_components);
      EXPECT_TRUE(SameBits(report.value().mean, expected.value().mean))
          << "threads=" << threads;
      EXPECT_TRUE(
          SameBits(report.value().eigenvalues, expected.value().eigenvalues))
          << "threads=" << threads;
      EXPECT_EQ(std::memcmp(&report.value().rmse_vs_disguised,
                            &expected.value().rmse_vs_disguised,
                            sizeof(double)),
                0)
          << "threads=" << threads;
    }
  }
  std::remove(path.c_str());
  ASSERT_TRUE(data::RemoveShardedStoreFiles(manifest).ok());
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
