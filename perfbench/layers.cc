// Per-layer probes of a traced run. Each probe times calls into one
// layer's public functions over the workload's own sealed store and
// shape; the pipeline's existing stage spans are captured with
// trace::StartTracing.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>

#include "bench.h"
#include "common/trace.h"
#include "data/rolling_store.h"
#include "linalg/eigen.h"
#include "linalg/kernels.h"
#include "net/metrics_recorder.h"
#include "pipeline/chunk_sink.h"
#include "stats/streaming_moments.h"

namespace perfbench {

namespace data = randrecon::data;
namespace kernels = randrecon::linalg::kernels;
namespace pipeline = randrecon::pipeline;
namespace trace = randrecon::trace;
using randrecon::ParallelOptions;
using randrecon::Result;
using randrecon::Status;

namespace {

constexpr size_t kChunkRows = 4096;
constexpr size_t kReplayBytes = 256u << 20;

double Seconds(uint64_t begin) {
  return static_cast<double>(NowNanos() - begin) * 1e-9;
}

/// Calls `body` until `min_s` passed and at least `min_reps` calls ran;
/// returns each call's milliseconds.
template <typename Body>
Samples TimeCalls(double min_s, int min_reps, Body body) {
  Samples ms;
  const uint64_t begin = NowNanos();
  while (static_cast<int>(ms.count()) < min_reps || Seconds(begin) < min_s) {
    const uint64_t call = NowNanos();
    body();
    ms.Add(Seconds(call) * 1e3);
  }
  return ms;
}

pipeline::ShardedRecordSource OpenSource(const std::string& manifest) {
  auto opened = pipeline::ShardedRecordSource::Open(manifest);
  if (!opened.ok()) Die("open " + manifest + ": " + opened.status().ToString());
  return std::move(opened).value();
}

/// Forwards a sharded source and counts every record it serves, through
/// either the row-major or the columnar interface.
class CountingSource final : public pipeline::RecordSource,
                             public pipeline::ColumnarBlockStream {
 public:
  explicit CountingSource(pipeline::ShardedRecordSource* inner)
      : inner_(inner) {}
  size_t num_attributes() const override { return inner_->num_attributes(); }
  Status Reset() override { return inner_->Reset(); }
  Result<size_t> NextChunk(Matrix* buffer) override {
    Result<size_t> rows = inner_->NextChunk(buffer);
    if (rows.ok()) served_ += rows.value();
    return rows;
  }
  pipeline::ColumnarBlockStream* columnar_blocks() override { return this; }
  Status ResetBlocks() override { return inner_->ResetBlocks(); }
  Result<size_t> NextBlockColumns(std::vector<const double*>* columns) override {
    Result<size_t> rows = inner_->NextBlockColumns(columns);
    if (rows.ok()) served_ += rows.value();
    return rows;
  }
  uint64_t served() const { return served_; }

 private:
  pipeline::ShardedRecordSource* inner_;
  uint64_t served_ = 0;
};

size_t SweepColumns(pipeline::ShardedRecordSource* source) {
  std::vector<const double*> columns;
  if (!source->ResetBlocks().ok()) Die("reset blocks");
  size_t total = 0;
  for (;;) {
    auto rows = source->NextBlockColumns(&columns);
    if (!rows.ok()) Die("column sweep: " + rows.status().ToString());
    if (rows.value() == 0) return total;
    total += rows.value();
  }
}

struct MomentsRun {
  double means_s = 0.0;
  double scatter_s = 0.0;
  Vector means;
  Matrix covariance;
};

MomentsRun TimeMoments(pipeline::ShardedRecordSource* source, size_t m,
                       int threads) {
  ParallelOptions parallel;
  parallel.num_threads = threads;
  randrecon::stats::StreamingMoments moments(m, parallel);
  std::vector<const double*> columns;
  MomentsRun run;
  uint64_t begin = NowNanos();
  if (!source->ResetBlocks().ok()) Die("reset blocks");
  for (;;) {
    auto rows = source->NextBlockColumns(&columns);
    if (!rows.ok()) Die("means sweep: " + rows.status().ToString());
    if (rows.value() == 0) break;
    moments.AccumulateMeansColumns(columns.data(), rows.value());
  }
  moments.FinalizeMeans();
  run.means_s = Seconds(begin);
  begin = NowNanos();
  if (!source->ResetBlocks().ok()) Die("reset blocks");
  for (;;) {
    auto rows = source->NextBlockColumns(&columns);
    if (!rows.ok()) Die("scatter sweep: " + rows.status().ToString());
    if (rows.value() == 0) break;
    moments.AccumulateScatterColumns(columns.data(), rows.value());
  }
  run.covariance = moments.FinalizeCovariance();
  run.scatter_s = Seconds(begin);
  run.means = moments.means();
  return run;
}

double RunAttackSeconds(const std::string& manifest,
                        const Population& population, int threads) {
  pipeline::ShardedRecordSource source = OpenSource(manifest);
  pipeline::NullChunkSink sink;
  const pipeline::StreamingAttackPipeline attack(AttackOptions(threads));
  const uint64_t begin = NowNanos();
  auto run = attack.Run(&source, population.noise(), &sink);
  const double seconds = Seconds(begin);
  if (!run.ok()) Die("attack: " + run.status().ToString());
  return seconds;
}

void ProbeGeneration(const Population& population, size_t n,
                     Results* results) {
  const size_t rows = std::min<size_t>(n, 1u << 20);
  Matrix buffer(kChunkRows, population.m);
  auto drain = [&](pipeline::RecordSource* source) {
    const uint64_t begin = NowNanos();
    size_t total = 0;
    while (total < rows) {
      auto got = source->NextChunk(&buffer);
      if (!got.ok() || got.value() == 0) Die("generation probe");
      total += got.value();
    }
    return static_cast<double>(NowNanos() - begin) / static_cast<double>(total);
  };
  auto original = OriginalSource(population, rows);
  auto disguised = DisguisedSource(population, rows);
  const double mvn_ns = drain(original.get());
  const double disguised_ns = drain(disguised.get());
  results->Metric("gen.mvn_ns_per_row", mvn_ns, "ns/row");
  results->Metric("gen.perturb_ns_per_row", disguised_ns - mvn_ns, "ns/row");
}

/// Replays the pool into a fresh writer with no queue: Append cost per
/// row, and each rotation (seal + fsync + manifest republish) on its own.
void ProbeRollingStore(const Population& population,
                       const std::vector<Matrix>& pool,
                       const std::string& dir, Results* results) {
  ResetDir(dir);
  data::RollingStoreOptions options;
  options.shard_rows = ~size_t{0};  // Rotations are explicit below.
  auto created = data::RollingShardedStoreWriter::Create(
      dir + "/replay.rrcm", ColumnNames(population.m), options);
  if (!created.ok()) Die("replay writer: " + created.status().ToString());
  data::RollingShardedStoreWriter writer = std::move(created).value();
  const size_t limit = kReplayBytes / (population.m * sizeof(double));
  const uint64_t bytes_before = CounterValue("store.bytes_written");
  uint64_t append_ns = 0;
  size_t rows = 0, in_shard = 0;
  Samples rotate_ms;
  for (size_t i = 0; rows < limit; ++i) {
    const Matrix& batch = pool[i % pool.size()];
    const uint64_t begin = NowNanos();
    const Status appended = writer.Append(batch, batch.rows());
    append_ns += NowNanos() - begin;
    if (!appended.ok()) Die("replay append: " + appended.ToString());
    rows += batch.rows();
    in_shard += batch.rows();
    if (in_shard >= kShardRows) {
      const uint64_t rotate_begin = NowNanos();
      const Status rotated = writer.Rotate();
      rotate_ms.Add(Seconds(rotate_begin) * 1e3);
      if (!rotated.ok()) Die("replay rotate: " + rotated.ToString());
      in_shard = 0;
    }
  }
  if (!writer.Close().ok()) Die("replay close");
  const uint64_t bytes = CounterValue("store.bytes_written") - bytes_before;
  results->Metric("rolling.append_ns_per_row",
                  static_cast<double>(append_ns) / static_cast<double>(rows),
                  "ns/row");
  results->Percentile("rolling.rotate_ms_p50", rotate_ms, 50, 1.0, "ms");
  results->Metric("rolling.bytes_written_per_row",
                  static_cast<double>(bytes) / static_cast<double>(rows),
                  "B/row");
  RemoveDir(dir);
}

void ProbeRecorder(const std::string& dir, Results* results) {
  ResetDir(dir);
  randrecon::net::MetricsRecorder::Options options;
  options.series_dir = dir;
  auto created = randrecon::net::MetricsRecorder::Create(options);
  if (!created.ok()) Die("recorder: " + created.status().ToString());
  auto recorder = std::move(created).value();
  constexpr int kFiles = 3;
  const size_t per_file = options.samples_per_file;
  Samples first_ms, last_ms;
  double bytes = 0.0;
  for (size_t k = 1; k <= kFiles * per_file; ++k) {
    const uint64_t begin = NowNanos();
    const Status sampled = recorder->SampleNow();
    const double ms = Seconds(begin) * 1e3;
    if (!sampled.ok()) Die("recorder sample: " + sampled.ToString());
    if (k % per_file == 1) first_ms.Add(ms);
    if (k % per_file == 0) last_ms.Add(ms);
    bytes += static_cast<double>(
        std::filesystem::file_size(recorder->PublishedFiles().back()));
  }
  results->Metric("recorder.sample_ms_first", first_ms.Median(), "ms",
                  "(median of " + std::to_string(first_ms.count()) + " files)");
  results->Metric("recorder.sample_ms_last", last_ms.Median(), "ms",
                  "(sample " + std::to_string(per_file) + " of a file)");
  results->Metric("recorder.bytes_per_sample",
                  bytes / static_cast<double>(kFiles * per_file), "B");
  recorder.reset();
  RemoveDir(dir);
}

}  // namespace

void ProbeLayers(const Population& population, const std::string& manifest,
                 size_t n, const std::vector<Matrix>& pool,
                 const std::string& scratch_dir, Results* results) {
  const size_t m = population.m;
  const double rows = static_cast<double>(n);
  ProbeGeneration(population, n, results);
  ProbeRollingStore(population, pool, scratch_dir + "/replay", results);

  // ---- data/shard_store + pipeline/record_source. --------------------
  const Samples open_ms =
      TimeCalls(0.0, 5, [&] { (void)OpenSource(manifest); });
  results->Metric("source.open_ms", open_ms.Median(), "ms",
                  "(median of " + std::to_string(open_ms.count()) + ")");
  pipeline::ShardedRecordSource source = OpenSource(manifest);
  uint64_t begin = NowNanos();
  if (SweepColumns(&source) != n) Die("column sweep row count");
  const double verify_s = Seconds(begin);
  begin = NowNanos();
  SweepColumns(&source);
  const double columns_s = Seconds(begin);
  results->Metric("source.columns_verify_ns_per_row", verify_s * 1e9 / rows,
                  "ns/row", "(first sweep, verifying)");
  results->Metric("source.columns_ns_per_row", columns_s * 1e9 / rows,
                  "ns/row", "(second sweep)");
  {
    Matrix buffer(kChunkRows, m);
    if (!source.Reset().ok()) Die("reset");
    begin = NowNanos();
    for (;;) {
      auto got = source.NextChunk(&buffer);
      if (!got.ok()) Die("chunk sweep: " + got.status().ToString());
      if (got.value() == 0) break;
    }
    results->Metric("source.chunk_ns_per_row", Seconds(begin) * 1e9 / rows,
                    "ns/row");
  }
  {
    pipeline::ShardedRecordSource fresh = OpenSource(manifest);
    CountingSource counting(&fresh);
    pipeline::NullChunkSink sink;
    auto run = pipeline::StreamingAttackPipeline(AttackOptions())
                   .Run(&counting, population.noise(), &sink);
    if (!run.ok()) Die("counting attack: " + run.status().ToString());
    results->Metric("source.rows_served_per_record",
                    static_cast<double>(counting.served()) / rows, "count");
  }

  // ---- stats/streaming_moments. ---------------------------------------
  const MomentsRun serial = TimeMoments(&source, m, 1);
  const MomentsRun parallel = TimeMoments(&source, m, 0);
  results->Metric("moments.means_ns_per_row", parallel.means_s * 1e9 / rows,
                  "ns/row");
  results->Metric("moments.scatter_ns_per_row",
                  parallel.scatter_s * 1e9 / rows, "ns/row");
  results->Metric("moments.scatter_speedup_4t",
                  serial.scatter_s / parallel.scatter_s, "ratio");

  // ---- linalg/kernels and linalg/eigen. -------------------------------
  Matrix block(kChunkRows, m);
  if (!source.Reset().ok() || !source.NextChunk(&block).ok()) Die("block");
  for (size_t i = 0; i < kChunkRows; ++i) {
    for (size_t j = 0; j < m; ++j) block(i, j) -= parallel.means[j];
  }
  std::vector<double> partial(m * m);
  const Samples gram_ms = TimeCalls(0.3, 5, [&] {
    kernels::GramAtAChunk(block.data(), kChunkRows, m, partial.data());
  });
  const double gram_flops =
      static_cast<double>(kChunkRows) * static_cast<double>(m) *
      static_cast<double>(m + 1);
  results->Metric("kernels.gram_gflops",
                  gram_flops / (gram_ms.Median() * 1e-3) * 1e-9, "GFLOP/s");
  const Samples eigen_ms = TimeCalls(0.3, 5, [&] {
    if (!randrecon::linalg::SymmetricEigen(parallel.covariance).ok()) {
      Die("eigen");
    }
  });
  results->Metric("eigen.ms", eigen_ms.Median(), "ms",
                  "(median of " + std::to_string(eigen_ms.count()) + ")");
  auto eig = randrecon::linalg::SymmetricEigen(parallel.covariance);
  if (!eig.ok()) Die("eigen");
  const size_t p = population.principal;
  const Matrix q_hat = eig.value().eigenvectors.LeftColumns(p);
  Matrix scores(kChunkRows, p), projected(kChunkRows, m);
  const Samples project_ms = TimeCalls(0.3, 5, [&] {
    kernels::MatMul(block.data(), q_hat.data(), scores.data(), kChunkRows, m,
                    p);
    kernels::MatMulABt(scores.data(), q_hat.data(), projected.data(),
                       kChunkRows, p, m);
  });
  results->Metric("kernels.project_ns_per_row",
                  project_ms.Median() * 1e6 / static_cast<double>(kChunkRows),
                  "ns/row");

  // ---- pipeline/streaming_attack: stage spans, CPU, thread scaling. ---
  {
    auto traced_source =
        std::make_unique<pipeline::ShardedRecordSource>(OpenSource(manifest));
    pipeline::NullChunkSink sink;
    const pipeline::StreamingAttackPipeline attack(AttackOptions());
    trace::StartTracing();
    const uint64_t cpu_begin = CpuNanos();
    begin = NowNanos();
    auto run = attack.Run(traced_source.get(), population.noise(), &sink);
    const double wall_s = Seconds(begin);
    const double cpu_s = static_cast<double>(CpuNanos() - cpu_begin) * 1e-9;
    const std::vector<trace::Span> spans = trace::StopTracing();
    // Dropping a fully swept source unmaps every shard; a scheduler job
    // pays this inside its pipeline.job span, outside the stage spans.
    begin = NowNanos();
    traced_source.reset();
    results->Metric("source.close_ms", Seconds(begin) * 1e3, "ms");
    if (!run.ok()) Die("traced attack: " + run.status().ToString());
    std::map<std::string, double> stage_ms;
    for (const trace::Span& span : spans) {
      stage_ms[span.name] += static_cast<double>(span.duration_nanos) * 1e-6;
    }
    double covered_ms = 0.0;
    for (const char* stage : {"attack.pass1_means", "attack.pass1_scatter",
                              "attack.eigen", "attack.pass2"}) {
      results->Metric(std::string(stage) + "_ms", stage_ms[stage], "ms");
      covered_ms += stage_ms[stage];
    }
    results->Metric("attack.coverage", covered_ms / (wall_s * 1e3), "ratio");
    results->Metric("attack.cpu_util", cpu_s / wall_s, "cores");
  }
  const double one_thread_s = RunAttackSeconds(manifest, population, 1);
  const double all_threads_s = RunAttackSeconds(manifest, population, 0);
  results->Metric("attack.speedup_4t", one_thread_s / all_threads_s, "ratio");

  ProbeRecorder(scratch_dir + "/recorder", results);
}

}  // namespace perfbench
