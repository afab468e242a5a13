// ShardedRecordSource / ShardedChunkSink / job-per-shard tests,
// including the acceptance sweep: streaming SF and PCA-DR attacks over a
// manifest of N shards must produce BITWISE identical reconstruction and
// report to the single-file `.rrcs` path, for block sizes {7, 64, 4096},
// shard row counts {one block, misaligned, n}, chunk sizes {1, 7, 4096}
// and threads {1, 3, 4}; and attaching a reference stream must leave every
// other report field bitwise unchanged.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "data/column_store.h"
#include "data/csv.h"
#include "data/rolling_store.h"
#include "data/shard_store.h"
#include "data/synthetic.h"
#include "perturb/schemes.h"
#include "pipeline/chunk_sink.h"
#include "pipeline/record_source.h"
#include "pipeline/runner.h"
#include "pipeline/source_factory.h"
#include "pipeline/streaming_attack.h"
#include "stats/rng.h"

namespace randrecon {
namespace pipeline {
namespace {

using linalg::Matrix;

class ScratchShardedStore {
 public:
  explicit ScratchShardedStore(const std::string& name)
      : path_("sharded_source_test_" + name) {}
  ~ScratchShardedStore() { data::RemoveShardedStoreFiles(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name)
      : path_("sharded_source_test_" + name) {}
  ~ScratchFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

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

/// A disguised dataset round-tripped through CSV once, exported to a
/// single-file store AND to manifests with several shard geometries, so
/// every backend holds identical doubles. kBlockRows = 64 keeps multiple
/// blocks per shard at test sizes.
class ShardedSourceTest : public ::testing::Test {
 protected:
  static constexpr size_t kRecords = 600;
  static constexpr size_t kAttributes = 6;
  static constexpr size_t kBlockRows = 64;
  static constexpr double kSigma = 0.5;

  void SetUp() override {
    stats::Rng rng(99);
    data::SyntheticDatasetSpec spec;
    spec.eigenvalues = data::TwoLevelSpectrum(kAttributes, 2, 6.0, 0.2);
    auto generated = data::GenerateSpectrumDataset(spec, kRecords, &rng);
    ASSERT_TRUE(generated.ok());
    auto scheme =
        perturb::IndependentNoiseScheme::Gaussian(kAttributes, kSigma);
    auto disguised = scheme.Disguise(generated.value().dataset, &rng);
    ASSERT_TRUE(disguised.ok());
    ASSERT_TRUE(data::WriteCsv(disguised.value(), csv_.path()).ok());

    auto parsed = data::ReadCsv(csv_.path());
    ASSERT_TRUE(parsed.ok());
    round_tripped_ = parsed.value().records();

    data::ColumnStoreOptions store_options;
    store_options.block_rows = kBlockRows;
    ASSERT_TRUE(
        data::WriteColumnStore(parsed.value(), store_.path(), store_options)
            .ok());
    // Shard geometries of the acceptance sweep: exactly one block per
    // shard, shard rows misaligned with the block size, and one shard
    // holding everything.
    WriteManifest(parsed.value(), one_block_.path(), kBlockRows);
    WriteManifest(parsed.value(), misaligned_.path(), 97);
    WriteManifest(parsed.value(), single_.path(), kRecords);
  }

  static void WriteManifest(const data::Dataset& dataset,
                            const std::string& path, size_t shard_rows) {
    data::RollingStoreOptions options;
    options.shard_rows = shard_rows;
    options.block_rows = kBlockRows;
    ASSERT_TRUE(data::WriteShardedStore(dataset, path, options).ok());
  }

  ScratchFile csv_{"disguised.csv"};
  ScratchFile store_{"disguised.rrcs"};
  ScratchShardedStore one_block_{"one_block.rrcm"};
  ScratchShardedStore misaligned_{"misaligned.rrcm"};
  ScratchShardedStore single_{"single.rrcm"};
  Matrix round_tripped_;
};

TEST_F(ShardedSourceTest, StreamsTheLogicalStreamBitwise) {
  for (const std::string* path :
       {&one_block_.path(), &misaligned_.path(), &single_.path()}) {
    auto source = ShardedRecordSource::Open(*path);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    ShardedRecordSource sharded = std::move(source).value();
    EXPECT_EQ(sharded.num_records(), kRecords);
    for (const size_t chunk : {size_t{1}, size_t{7}, size_t{64}, kRecords}) {
      ASSERT_TRUE(sharded.Reset().ok());
      EXPECT_TRUE(Drain(&sharded, chunk) == round_tripped_)
          << *path << " chunk=" << chunk;
    }
  }
}

TEST_F(ShardedSourceTest, FactorySniffsManifests) {
  auto opened = OpenRecordSource(misaligned_.path());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().format, data::RecordFileFormat::kShardManifest);
  EXPECT_EQ(opened.value().num_records, kRecords);
  EXPECT_EQ(opened.value().attribute_names.size(), kAttributes);
  EXPECT_TRUE(Drain(opened.value().source.get(), 64) == round_tripped_);

  EXPECT_TRUE(
      VerifyStreamsBitwiseEqual(csv_.path(), misaligned_.path()).ok());
  EXPECT_TRUE(
      VerifyStreamsBitwiseEqual(store_.path(), one_block_.path()).ok());
}

/// Memcmp equality of two doubles / double vectors.
bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }
bool SameBits(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The acceptance sweep: streaming SF and PCA-DR over every manifest
// geometry must match the single-file store path BITWISE — reconstruction
// stream and report — for every block size, chunk size and thread count.
// Shard rows of 97 are a multiple of neither block size, so every shard
// ends in a ragged block.
TEST_F(ShardedSourceTest, AttacksOverManifestsMatchSingleFileBitwise) {
  const perturb::NoiseModel noise =
      perturb::NoiseModel::IndependentGaussian(kAttributes, kSigma);
  auto parsed = data::ReadCsv(csv_.path());
  ASSERT_TRUE(parsed.ok());
  ScratchShardedStore b7_misaligned{"b7_misaligned.rrcm"};
  ScratchShardedStore b7_single{"b7_single.rrcm"};
  ScratchShardedStore b4096_misaligned{"b4096_misaligned.rrcm"};
  for (const auto& [path, block_rows, shard_rows] :
       {std::tuple<const std::string*, size_t, size_t>{&b7_misaligned.path(),
                                                       7, 97},
        {&b7_single.path(), 7, kRecords},
        {&b4096_misaligned.path(), 4096, 97}}) {
    data::RollingStoreOptions options;
    options.shard_rows = shard_rows;
    options.block_rows = block_rows;
    ASSERT_TRUE(data::WriteShardedStore(parsed.value(), *path, options).ok());
  }
  const std::vector<const std::string*> manifests = {
      &one_block_.path(),     &misaligned_.path(), &single_.path(),
      &b7_misaligned.path(),  &b7_single.path(),   &b4096_misaligned.path()};

  for (const int threads : {1, 3, 4}) {
    for (const size_t chunk : {size_t{1}, size_t{7}, size_t{4096}}) {
      for (const StreamingAttack attack :
           {StreamingAttack::kSpectralFiltering, StreamingAttack::kPcaDr}) {
        StreamingAttackOptions options;
        options.attack = attack;
        options.chunk_rows = chunk;
        options.parallel.num_threads = threads;

        auto run = [&](const std::string& path, Matrix* reconstruction,
                       StreamingAttackReport* report) {
          auto opened = OpenRecordSource(path);
          ASSERT_TRUE(opened.ok()) << opened.status().ToString();
          CollectChunkSink sink(kAttributes);
          auto result = StreamingAttackPipeline(options).Run(
              opened.value().source.get(), noise, &sink);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          *reconstruction = sink.ToMatrix();
          *report = result.value();
        };

        Matrix base_reconstruction;
        StreamingAttackReport base_report;
        run(store_.path(), &base_reconstruction, &base_report);
        for (const std::string* manifest : manifests) {
          Matrix reconstruction;
          StreamingAttackReport report;
          run(*manifest, &reconstruction, &report);
          const std::string where = *manifest + " chunk=" +
                                    std::to_string(chunk) +
                                    " threads=" + std::to_string(threads);
          EXPECT_TRUE(reconstruction == base_reconstruction) << where;
          EXPECT_EQ(report.num_components, base_report.num_components);
          EXPECT_TRUE(SameBits(report.eigenvalues, base_report.eigenvalues))
              << where;
          EXPECT_TRUE(SameBits(report.mean, base_report.mean)) << where;
          EXPECT_TRUE(SameBits(report.rmse_vs_disguised,
                               base_report.rmse_vs_disguised))
              << where;
        }
      }
    }
  }
}

// An aligned reference stream feeds rmse_vs_reference and nothing else:
// every other report field, and the reconstruction, stay bitwise the
// reference-free run's — over an in-memory source (row-major, through the
// adapter) and over a sharded store (its own column blocks).
TEST_F(ShardedSourceTest, AttachingAReferenceLeavesTheOtherReportFieldsBitwise) {
  const perturb::NoiseModel noise =
      perturb::NoiseModel::IndependentGaussian(kAttributes, kSigma);
  const Matrix truth = round_tripped_ * 0.5;
  for (const StreamingAttack attack :
       {StreamingAttack::kSpectralFiltering, StreamingAttack::kPcaDr}) {
    for (const bool sharded : {false, true}) {
      StreamingAttackOptions options;
      options.attack = attack;
      options.chunk_rows = 64;
      Matrix reconstruction[2];
      StreamingAttackReport reports[2];
      for (int with_reference = 0; with_reference < 2; ++with_reference) {
        std::unique_ptr<RecordSource> source;
        if (sharded) {
          auto opened = ShardedRecordSource::Open(misaligned_.path());
          ASSERT_TRUE(opened.ok()) << opened.status().ToString();
          source = std::make_unique<ShardedRecordSource>(
              std::move(opened).value());
        } else {
          source = std::make_unique<MatrixRecordSource>(&round_tripped_);
        }
        MatrixRecordSource reference(&truth);
        CollectChunkSink sink(kAttributes);
        auto report = StreamingAttackPipeline(options).Run(
            source.get(), noise, &sink,
            with_reference == 1 ? &reference : nullptr);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        reconstruction[with_reference] = sink.ToMatrix();
        reports[with_reference] = report.value();
      }
      const std::string where = sharded ? "sharded" : "matrix";
      const Matrix& plain = reconstruction[0];
      const Matrix& referenced = reconstruction[1];
      ASSERT_EQ(plain.size(), referenced.size()) << where;
      EXPECT_EQ(std::memcmp(plain.data(), referenced.data(),
                            plain.size() * sizeof(double)),
                0)
          << where;
      EXPECT_FALSE(reports[0].has_reference);
      EXPECT_TRUE(reports[1].has_reference);
      EXPECT_GT(reports[1].rmse_vs_reference, 0.0);
      EXPECT_EQ(reports[1].num_records, reports[0].num_records) << where;
      EXPECT_EQ(reports[1].num_attributes, reports[0].num_attributes);
      EXPECT_EQ(reports[1].num_components, reports[0].num_components);
      EXPECT_TRUE(SameBits(reports[1].eigenvalues, reports[0].eigenvalues))
          << where;
      EXPECT_TRUE(SameBits(reports[1].mean, reports[0].mean)) << where;
      EXPECT_TRUE(SameBits(reports[1].rmse_vs_disguised,
                           reports[0].rmse_vs_disguised))
          << where;
    }
  }
}

TEST_F(ShardedSourceTest, ShardedChunkSinkRoundTripsTheAttackOutput) {
  ScratchShardedStore out{"recon.rrcm"};
  const perturb::NoiseModel noise =
      perturb::NoiseModel::IndependentGaussian(kAttributes, kSigma);
  StreamingAttackOptions options;
  options.attack = StreamingAttack::kSpectralFiltering;

  auto collect_opened = OpenRecordSource(store_.path());
  ASSERT_TRUE(collect_opened.ok());
  CollectChunkSink collect(kAttributes);
  ASSERT_TRUE(StreamingAttackPipeline(options)
                  .Run(collect_opened.value().source.get(), noise, &collect)
                  .ok());

  auto sharded_opened = OpenRecordSource(store_.path());
  ASSERT_TRUE(sharded_opened.ok());
  RecordSinkOptions sink_options;
  sink_options.shard_rows = 250;  // 3 shards, the last partial.
  auto sink = CreateRecordSink(out.path(),
                               sharded_opened.value().attribute_names,
                               sink_options);
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();
  ASSERT_TRUE(StreamingAttackPipeline(options)
                  .Run(sharded_opened.value().source.get(), noise,
                       sink.value().get())
                  .ok());
  ASSERT_TRUE(sink.value()->Close().ok());

  auto manifest = data::ReadShardManifest(out.path());
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest.value().shards.size(), 3u);
  auto read_back = data::ReadShardedStoreDataset(out.path());
  ASSERT_TRUE(read_back.ok()) << read_back.status().ToString();
  EXPECT_TRUE(read_back.value().records() == collect.ToMatrix());
}

TEST(ShardedChunkSinkTest, ManifestAppearsOnlyAtClose) {
  // A batch sink never publishes before Close: shards seal as they fill,
  // but no manifest claims the store is complete until the last one is
  // sealed — after any Consume, a crash leaves no manifest at all.
  ScratchShardedStore out{"manifest_last.rrcm"};
  stats::Rng rng(61);
  const Matrix records = rng.GaussianMatrix(350, 3);
  data::RollingStoreOptions options;
  options.shard_rows = 100;  // 4 shards, the last partial.
  options.block_rows = 16;
  auto created = ShardedChunkSink::Create(out.path(), {"a", "b", "c"}, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ShardedChunkSink sink = std::move(created).value();
  const size_t chunk = 70;
  for (size_t begin = 0; begin < records.rows(); begin += chunk) {
    const size_t rows = std::min(chunk, records.rows() - begin);
    ASSERT_TRUE(
        sink.Consume(begin, records.Block(begin, begin + rows, 0, 3), rows)
            .ok());
    std::ifstream manifest(out.path(), std::ios::binary);
    EXPECT_FALSE(manifest.is_open())
        << "a manifest appeared after the Consume of rows " << begin;
  }
  ASSERT_TRUE(sink.Close().ok());
  auto manifest = data::ReadShardManifest(out.path());
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest.value().shards.size(), 4u);
  auto read_back = data::ReadShardedStoreDataset(out.path());
  ASSERT_TRUE(read_back.ok()) << read_back.status().ToString();
  EXPECT_TRUE(read_back.value().records() == records);
}

TEST_F(ShardedSourceTest, PerShardJobsDecomposeTheManifest) {
  PipelineJob prototype;
  prototype.name = "sweep";
  prototype.noise =
      perturb::NoiseModel::IndependentGaussian(kAttributes, kSigma);
  prototype.attack.attack = StreamingAttack::kSpectralFiltering;

  auto manifest = data::ReadShardManifest(misaligned_.path());
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  const std::vector<PipelineJob> jobs =
      MakePerShardJobs(manifest.value(), misaligned_.path(), prototype);
  const size_t expected_shards = (kRecords + 97 - 1) / 97;
  ASSERT_EQ(jobs.size(), expected_shards);
  EXPECT_EQ(jobs[0].name, "sweep/shard-0");

  const auto results = RunPipelineJobs(jobs);
  ASSERT_EQ(results.size(), expected_shards);
  size_t total_records = 0;
  for (size_t s = 0; s < results.size(); ++s) {
    ASSERT_TRUE(results[s].status.ok())
        << results[s].name << ": " << results[s].status.ToString();
    total_records += results[s].report.num_records;
    EXPECT_EQ(results[s].report.num_attributes, kAttributes);
  }
  EXPECT_EQ(total_records, kRecords);

  // Shard jobs are ordinary single-file attacks: job k's report matches
  // an attack run directly over shard k's file (scheduling never changes
  // numbers).
  const std::string shard0 = data::ManifestDirectory(misaligned_.path()) +
                             manifest.value().shards[0].relative_path;
  auto opened = OpenRecordSource(shard0);
  ASSERT_TRUE(opened.ok());
  NullChunkSink null_sink;
  StreamingAttackOptions options;
  options.attack = StreamingAttack::kSpectralFiltering;
  auto direct = StreamingAttackPipeline(options).Run(
      opened.value().source.get(), prototype.noise, &null_sink);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct.value().eigenvalues, results[0].report.eigenvalues);
  EXPECT_EQ(direct.value().rmse_vs_disguised,
            results[0].report.rmse_vs_disguised);
}

// A per-shard job attacks exactly the bytes its manifest entry names: a
// shard file swapped for another valid store with the same schema and
// row count AFTER the degraded probe passed fails its job on the seal
// digest, and every other job still equals the direct attack over its
// shard file, bitwise.
TEST_F(ShardedSourceTest, PerShardJobsAreBoundToTheirManifest) {
  PipelineJob prototype;
  prototype.name = "bound";
  prototype.noise =
      perturb::NoiseModel::IndependentGaussian(kAttributes, kSigma);
  prototype.attack.attack = StreamingAttack::kPcaDr;
  auto manifest = data::ReadShardManifest(misaligned_.path());
  ASSERT_TRUE(manifest.ok());
  const PerShardJobSet job_set =
      MakePerShardJobsDegraded(manifest.value(), misaligned_.path(), prototype);
  ASSERT_FALSE(job_set.degraded());
  const size_t num_shards = job_set.jobs.size();
  ASSERT_EQ(num_shards, (kRecords + 97 - 1) / 97);

  // Shard 1's file, a sealed 97-row store of the same schema, replaces
  // shard 2's.
  const std::string directory = data::ManifestDirectory(misaligned_.path());
  auto shard_path = [&](size_t s) {
    return directory + manifest.value().shards[s].relative_path;
  };
  ASSERT_EQ(manifest.value().shards[1].row_count,
            manifest.value().shards[2].row_count);
  {
    std::ifstream from(shard_path(1), std::ios::binary);
    std::ofstream to(shard_path(2), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(from.is_open() && to.is_open());
    to << from.rdbuf();
  }

  const auto results = RunPipelineJobs(job_set.jobs);
  ASSERT_EQ(results.size(), num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    ASSERT_EQ(job_set.shard_of_job[s], s);
    if (s == 2) {
      EXPECT_FALSE(results[s].status.ok());
      EXPECT_NE(results[s].status.message().find("seal digest mismatch"),
                std::string::npos)
          << results[s].status.ToString();
      continue;
    }
    ASSERT_TRUE(results[s].status.ok()) << results[s].status.ToString();
    auto opened = OpenRecordSource(shard_path(s));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    NullChunkSink null_sink;
    auto direct = StreamingAttackPipeline(prototype.attack)
                      .Run(opened.value().source.get(), prototype.noise,
                           &null_sink);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    const StreamingAttackReport& job = results[s].report;
    auto same_bits = [](const linalg::Vector& a, const linalg::Vector& b) {
      return a.size() == b.size() &&
             std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
    };
    EXPECT_EQ(job.num_records, direct.value().num_records) << "shard " << s;
    EXPECT_EQ(job.num_components, direct.value().num_components);
    EXPECT_TRUE(same_bits(job.mean, direct.value().mean)) << "shard " << s;
    EXPECT_TRUE(same_bits(job.eigenvalues, direct.value().eigenvalues))
        << "shard " << s;
    EXPECT_EQ(std::memcmp(&job.rmse_vs_disguised,
                          &direct.value().rmse_vs_disguised, sizeof(double)),
              0)
        << "shard " << s;
  }
}

// Corrupt blocks in two shards, one of them with two: both read paths
// name the lowest failing (shard, block) and its byte offset, for every
// thread count. A shard's blocks are all verified on its first read, so
// a read starting past shard 1's first corrupt block names it too.
TEST_F(ShardedSourceTest, LowestCorruptShardAndBlockIsNamedByEveryReadPath) {
  ScratchShardedStore corrupt{"corrupt_blocks.rrcm"};
  WriteManifest(data::Dataset(round_tripped_), corrupt.path(), 200);
  auto manifest = data::ReadShardManifest(corrupt.path());
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest.value().shards.size(), 3u);  // 4 blocks each.
  const std::string directory = data::ManifestDirectory(corrupt.path());
  const size_t stride = kAttributes * kBlockRows * sizeof(double) + 8;
  // Flips one payload byte of `block` in shard `shard`; returns the
  // block's byte offset in the shard file.
  auto damage = [&](size_t shard, size_t block) -> size_t {
    const std::string path =
        directory + manifest.value().shards[shard].relative_path;
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    EXPECT_TRUE(file.is_open()) << path;
    file.seekg(0, std::ios::end);
    const size_t header_bytes = static_cast<size_t>(file.tellg()) - 4 * stride;
    const size_t offset = header_bytes + block * stride;
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(offset + 5));
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(static_cast<std::streamoff>(offset + 5));
    file.write(&byte, 1);
    return offset;
  };
  damage(1, 3);
  const size_t expected_offset = damage(1, 1);
  damage(2, 0);

  auto expect_named = [&](const Status& status, const std::string& what) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << what;
    const std::string& message = status.message();
    EXPECT_NE(message.find("shard 1 ('" +
                           manifest.value().shards[1].relative_path + "')"),
              std::string::npos)
        << what << ": " << message;
    EXPECT_NE(message.find("block 1 checksum mismatch at offset " +
                           std::to_string(expected_offset) + " "),
              std::string::npos)
        << what << ": " << message;
  };
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    data::ColumnStoreReadOptions options;
    options.parallel.num_threads = threads;
    for (const size_t first_row : {size_t{0}, size_t{250}}) {
      auto opened = data::ShardedStoreReader::Open(corrupt.path(), options);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      data::ShardedStoreReader reader = std::move(opened).value();
      Matrix buffer(kRecords - first_row, kAttributes);
      expect_named(reader.ReadRows(first_row, kRecords - first_row, &buffer),
                   "ReadRows from row " + std::to_string(first_row));
    }
    auto opened = ShardedRecordSource::Open(corrupt.path(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ShardedRecordSource source = std::move(opened).value();
    std::vector<const double*> columns;
    size_t served = 0;
    Result<size_t> rows = size_t{0};
    do {
      rows = source.NextBlockColumns(&columns);
      if (rows.ok()) served += rows.value();
    } while (rows.ok() && rows.value() > 0);
    EXPECT_EQ(served, 200u);  // Shard 0 streams whole before shard 1 fails.
    expect_named(rows.status(), "columnar sweep");
  }
}

TEST_F(ShardedSourceTest, CorruptShardFailsItsJobNotTheBatch) {
  // Delete the middle shard: the whole-manifest job fails with a Status
  // naming the shard, while an independent healthy job in the same batch
  // still succeeds (per-job isolation).
  auto manifest = data::ReadShardManifest(misaligned_.path());
  ASSERT_TRUE(manifest.ok());
  const std::string victim = data::ManifestDirectory(misaligned_.path()) +
                             manifest.value().shards[3].relative_path;
  ASSERT_EQ(std::remove(victim.c_str()), 0);

  auto make_source_factory = [](std::string path) {
    return [path]() -> Result<std::unique_ptr<RecordSource>> {
      RR_ASSIGN_OR_RETURN(OpenedRecordSource opened, OpenRecordSource(path));
      return std::move(opened.source);
    };
  };
  std::vector<PipelineJob> jobs(2);
  jobs[0].name = "broken";
  jobs[0].disguised = make_source_factory(misaligned_.path());
  jobs[0].noise = perturb::NoiseModel::IndependentGaussian(kAttributes, kSigma);
  jobs[1].name = "healthy";
  jobs[1].disguised = make_source_factory(store_.path());
  jobs[1].noise = perturb::NoiseModel::IndependentGaussian(kAttributes, kSigma);

  const auto results = RunPipelineJobs(jobs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].status.ok());
  EXPECT_NE(results[0].status.message().find("shard 3"), std::string::npos)
      << results[0].status.ToString();
  EXPECT_TRUE(results[1].status.ok()) << results[1].status.ToString();
}

}  // namespace
}  // namespace pipeline
}  // namespace randrecon
