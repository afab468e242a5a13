// Streaming pipeline CLI: attack a file of disguised records out-of-core
// and write the reconstructed records to another file — bounded memory
// end to end (no n x m matrix is ever held).
//
//   ./example_streaming_pipeline                       # self-contained demo
//   ./example_streaming_pipeline --csv=reports.csv --sigma=0.5 \
//       --attack=sf --out=recon.csv --chunk_rows=4096
//   ./example_streaming_pipeline --csv=reports.rrcs --out=recon.rrcs
//
// The input may be a CSV export or a binary column store (docs/FORMAT.md)
// — the format is sniffed from the file's leading bytes; the mmap'd
// store skips parsing entirely (see bench/micro_io.cc). The output
// format follows the --out extension: ".rrcs" writes a column store.
//
// Without --csv the program first *streams out* a demo table
// (streaming_demo.csv): a §7.1 correlated population disguised with
// independent Gaussian noise, generated chunk-by-chunk through the same
// source/sink machinery, then attacks it.

#include <cstdio>
#include <memory>
#include <string>

#include "common/flags.h"
#include "common/stopwatch.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "linalg/eigen.h"
#include "perturb/schemes.h"
#include "stats/random_orthogonal.h"
#include "pipeline/chunk_sink.h"
#include "pipeline/record_source.h"
#include "pipeline/source_factory.h"
#include "pipeline/streaming_attack.h"
#include "stats/rng.h"

using namespace randrecon;

namespace {

/// Streams a synthetic disguised population into `path`, never holding it.
Status WriteDemoCsv(const std::string& path, size_t n, size_t m,
                    double sigma, size_t chunk_rows) {
  stats::Rng rng(17);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(m, 2, 6.0, 0.2);
  const linalg::Matrix q = stats::RandomOrthogonalMatrix(m, &rng);
  const linalg::Matrix covariance = linalg::ComposeFromEigen(spec.eigenvalues, q);

  Result<pipeline::MvnRecordSource> original = pipeline::MvnRecordSource::Create(
      linalg::Vector(m, 0.0), covariance, n, /*seed=*/rng.NextSeed());
  RR_RETURN_NOT_OK(original.status());
  const auto scheme = perturb::IndependentNoiseScheme::Gaussian(m, sigma);
  pipeline::PerturbingRecordSource disguised(
      std::make_unique<pipeline::MvnRecordSource>(std::move(original).value()),
      &scheme, /*seed=*/rng.NextSeed());

  std::vector<std::string> names;
  for (size_t j = 0; j < m; ++j) names.push_back("a" + std::to_string(j));
  RR_ASSIGN_OR_RETURN(pipeline::CsvChunkSink sink,
                      pipeline::CsvChunkSink::Create(path, names));
  linalg::Matrix buffer(chunk_rows, m);
  size_t row_offset = 0;
  for (;;) {
    RR_ASSIGN_OR_RETURN(const size_t rows, disguised.NextChunk(&buffer));
    if (rows == 0) break;
    RR_RETURN_NOT_OK(sink.Consume(row_offset, buffer, rows));
    row_offset += rows;
  }
  return sink.Close();
}

}  // namespace

int main(int argc, char** argv) {
  Result<Flags> parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Flags& flags = parsed.value();
  std::string csv_path = flags.GetString("csv", "");
  const std::string out_path = flags.GetString("out", "streaming_recon.csv");
  const std::string attack_name = flags.GetString("attack", "pca");
  const auto sigma = flags.GetDouble("sigma", 0.5);
  const auto chunk_rows = flags.GetInt("chunk_rows", 4096);
  if (!sigma.ok() || !chunk_rows.ok() || chunk_rows.value() < 1 ||
      (attack_name != "pca" && attack_name != "sf")) {
    std::fprintf(stderr, "bad flag value (--attack must be pca or sf)\n");
    return 2;
  }

  if (csv_path.empty()) {
    csv_path = "streaming_demo.csv";
    std::printf("no --csv given; generating demo stream -> %s\n",
                csv_path.c_str());
    const Status demo = WriteDemoCsv(csv_path, /*n=*/20000, /*m=*/8,
                                     sigma.value(),
                                     static_cast<size_t>(chunk_rows.value()));
    if (!demo.ok()) {
      std::fprintf(stderr, "%s\n", demo.ToString().c_str());
      return 1;
    }
  }

  Result<pipeline::OpenedRecordSource> source =
      pipeline::OpenRecordSource(csv_path);
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  pipeline::OpenedRecordSource opened = std::move(source).value();
  const size_t m = opened.attribute_names.size();
  std::printf("input %s detected as %s\n", csv_path.c_str(),
              opened.format == data::RecordFileFormat::kColumnStore
                  ? "column store (mmap)"
                  : opened.format == data::RecordFileFormat::kShardManifest
                        ? "sharded store (manifest + mmap'd shards)"
                        : "csv");

  pipeline::StreamingAttackOptions options;
  options.attack = attack_name == "sf"
                       ? pipeline::StreamingAttack::kSpectralFiltering
                       : pipeline::StreamingAttack::kPcaDr;
  options.chunk_rows = static_cast<size_t>(chunk_rows.value());
  const perturb::NoiseModel noise =
      perturb::NoiseModel::IndependentGaussian(m, sigma.value());

  Result<std::unique_ptr<pipeline::ChunkSink>> sink =
      pipeline::CreateRecordSink(out_path, opened.attribute_names);
  if (!sink.ok()) {
    std::fprintf(stderr, "%s\n", sink.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<pipeline::ChunkSink> out_sink = std::move(sink).value();

  Stopwatch stopwatch;
  Result<pipeline::StreamingAttackReport> report =
      pipeline::StreamingAttackPipeline(options).Run(opened.source.get(),
                                                     noise, out_sink.get());
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  const Status closed = out_sink->Close();
  if (!closed.ok()) {
    std::fprintf(stderr, "%s\n", closed.ToString().c_str());
    return 1;
  }

  const pipeline::StreamingAttackReport& r = report.value();
  std::printf("%s attack over %zu records x %zu attributes (chunks of %d)\n",
              attack_name == "sf" ? "SF" : "PCA-DR", r.num_records,
              r.num_attributes, chunk_rows.value());
  std::printf("  kept components  : %zu\n", r.num_components);
  std::printf("  rmse vs disguised: %.6f (≈ removed noise energy)\n",
              r.rmse_vs_disguised);
  std::printf("  reconstruction   -> %s\n", out_path.c_str());
  std::printf("  elapsed          : %.2fs\n", stopwatch.ElapsedSeconds());
  return 0;
}
