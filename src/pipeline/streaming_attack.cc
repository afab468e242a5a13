#include "pipeline/streaming_attack.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "stats/streaming_moments.h"

namespace randrecon {
namespace pipeline {
namespace {

// Attack-pipeline telemetry (common/metrics.h). Record/chunk counters
// are exact; the per-chunk latency histograms and the stage spans are
// timing-only — nothing below branches on them, so the numeric output
// is bitwise identical with telemetry compiled out.
metrics::Counter m_attack_runs("attack.runs");
metrics::Counter m_records_pass1("attack.records_pass1");
metrics::Counter m_records_pass2("attack.records_pass2");
metrics::Counter m_chunks_pass1("attack.chunks_pass1");
metrics::Counter m_chunks_pass2("attack.chunks_pass2");
metrics::Gauge m_last_rows_per_second("attack.last_rows_per_second");
metrics::Histogram m_pass1_chunk_nanos("attack.pass1_chunk_nanos");
metrics::Histogram m_pass2_chunk_nanos("attack.pass2_chunk_nanos");

/// rmse_vs_disguised without another pass. With Q̂ the leading p columns
/// of the orthonormal `eigenvectors`, X̂ − y = −V_d V_dᵀ (y − µ̂) for the
/// dropped columns V_d, so the mean squared difference over all n·m
/// entries is Σ_{k ≥ p} v_kᵀ S v_k / m with S the ddof-0 covariance. S is
/// PSD, so only rounding could push the sum below 0; it is clamped.
/// Costs O(m²(m − p)).
double ClosedFormRmseVsDisguised(const linalg::Matrix& eigenvectors, size_t p,
                                 const linalg::Matrix& cov_y) {
  const size_t m = cov_y.rows();
  std::vector<double> v(m);
  double energy = 0.0;
  for (size_t k = p; k < m; ++k) {
    for (size_t i = 0; i < m; ++i) v[i] = eigenvectors(i, k);
    for (size_t i = 0; i < m; ++i) {
      const double* s_row = cov_y.row_data(i);
      double s_v = 0.0;
      for (size_t j = 0; j < m; ++j) s_v += s_row[j] * v[j];
      energy += v[i] * s_v;
    }
  }
  return std::sqrt(std::max(energy, 0.0) / static_cast<double>(m));
}

/// Elapsed nanos since `start`, saturating at 0 (a test's FakeClockGuard
/// may move the clock backwards under a running measurement).
uint64_t NanosSince(uint64_t start) {
  const uint64_t now = trace::NowNanos();
  return now >= start ? now - start : 0;
}

/// Pass 2: re-streams `disguised`, reconstructs each chunk as
/// X̂ = Ȳ Q̂ Q̂ᵀ + µ̂, emits it to `sink`, and returns Σ‖x̂ − x‖² against
/// the aligned `reference` stream (0 without one).
Result<double> ProjectionPass(const StreamingAttackOptions& options,
                              RecordSource* disguised, RecordSource* reference,
                              ChunkSink* sink, const linalg::Vector& mean,
                              const linalg::Matrix& q_hat, size_t n) {
  const size_t m = q_hat.rows();
  const size_t p = q_hat.cols();
  RR_RETURN_NOT_OK(disguised->Reset());
  linalg::Matrix chunk(options.chunk_rows, m);
  if (reference != nullptr) RR_RETURN_NOT_OK(reference->Reset());
  linalg::Matrix reference_chunk(reference != nullptr ? options.chunk_rows : 0,
                                 reference != nullptr ? m : 0);
  linalg::Matrix scores(options.chunk_rows, p);
  linalg::Matrix reconstructed(options.chunk_rows, m);
  double squared_vs_reference = 0.0;
  size_t row_offset = 0;
  trace::TraceSpan pass2_span("attack.pass2");
  for (;;) {
    const uint64_t chunk_start = trace::NowNanos();
    RR_ASSIGN_OR_RETURN(const size_t rows, disguised->NextChunk(&chunk));
    if (rows == 0) break;
    // X̂ = Ȳ Q̂ Q̂ᵀ + µ̂ with no per-chunk allocation.
    core::ProjectRecords(chunk.data(), rows, mean, q_hat, scores.data(),
                         reconstructed.data(), options.parallel);
    if (reference != nullptr) {
      // Gather exactly `rows` reference records. A source may legally
      // under-fill its buffer (NextChunk only promises "how many were
      // written"), so drain it until this chunk is covered; only true
      // exhaustion is a misalignment. Asking for the full buffer directly
      // is safe only when the targets coincide — requesting more than
      // `rows` could consume records belonging to the next chunk.
      size_t gathered = 0;
      if (rows == reference_chunk.rows()) {
        RR_ASSIGN_OR_RETURN(gathered, reference->NextChunk(&reference_chunk));
      }
      while (gathered < rows) {  // Under-filled or ragged final chunk.
        linalg::Matrix window(rows - gathered, m);
        RR_ASSIGN_OR_RETURN(const size_t got, reference->NextChunk(&window));
        if (got == 0) {
          return Status::InvalidArgument(
              "StreamingAttackPipeline: reference stream ended at record " +
              std::to_string(row_offset + gathered) + ", input has more");
        }
        std::memcpy(reference_chunk.row_data(gathered), window.data(),
                    got * m * sizeof(double));
        gathered += got;
      }
      // The error folds element-by-element in record order, so it is
      // independent of the chunking too.
      for (size_t i = 0; i < rows; ++i) {
        const double* recon_row = reconstructed.row_data(i);
        const double* reference_row = reference_chunk.row_data(i);
        for (size_t j = 0; j < m; ++j) {
          const double d = recon_row[j] - reference_row[j];
          squared_vs_reference += d * d;
        }
      }
    }
    RR_RETURN_NOT_OK(sink->Consume(row_offset, reconstructed, rows));
    row_offset += rows;
    m_pass2_chunk_nanos.Record(NanosSince(chunk_start));
    m_chunks_pass2.Add(1);
    m_records_pass2.Add(rows);
  }
  pass2_span.Finish();
  if (row_offset != n) {
    return Status::InvalidArgument(
        "StreamingAttackPipeline: source served " + std::to_string(row_offset) +
        " records on pass 2 but " + std::to_string(n) + " on pass 1");
  }
  if (reference != nullptr) {
    RR_ASSIGN_OR_RETURN(const size_t extra,
                        reference->NextChunk(&reference_chunk));
    if (extra != 0) {
      return Status::InvalidArgument(
          "StreamingAttackPipeline: reference stream longer than the input");
    }
  }
  return squared_vs_reference;
}

}  // namespace

Result<StreamingAttackReport> StreamingAttackPipeline::Run(
    RecordSource* disguised, const perturb::NoiseModel& noise, ChunkSink* sink,
    RecordSource* reference) const {
  RR_CHECK(disguised != nullptr) << "StreamingAttackPipeline: null source";
  RR_CHECK(sink != nullptr) << "StreamingAttackPipeline: null sink";
  // chunk_rows is plain job configuration (possibly external), so a bad
  // value fails the job instead of RR_CHECK-aborting a whole batch.
  if (options_.chunk_rows == 0) {
    return Status::InvalidArgument(
        "StreamingAttackPipeline: chunk_rows must be positive");
  }
  const size_t m = disguised->num_attributes();
  if (m == 0 || m != noise.num_attributes()) {
    return Status::InvalidArgument(
        "StreamingAttackPipeline: noise model has " +
        std::to_string(noise.num_attributes()) + " attributes, stream has " +
        std::to_string(m));
  }
  if (reference != nullptr && reference->num_attributes() != m) {
    return Status::InvalidArgument(
        "StreamingAttackPipeline: reference stream width mismatch");
  }

  // ---- Pass 1: moments (two sweeps) + one eigendecomposition. ---------
  // Both sweeps read column blocks: store-backed sources serve their
  // mapped blocks zero-copy, and any other source is transposed chunk by
  // chunk. The accumulators fold each column in record order and stage
  // the Gram at fixed global record indices, so the block geometry never
  // changes the covariance.
  m_attack_runs.Add(1);
  const uint64_t run_start_nanos = trace::NowNanos();
  stats::StreamingMoments moments(m, options_.parallel);
  std::optional<TransposingBlockStream> transposed;
  ColumnarBlockStream* blocks = disguised->columnar_blocks();
  if (blocks == nullptr) {
    transposed.emplace(disguised, options_.chunk_rows);
    blocks = &*transposed;
  }
  std::vector<const double*> columns;
  // One sweep over every block; returns the records it saw.
  auto sweep = [&](auto accumulate) -> Result<size_t> {
    RR_RETURN_NOT_OK(blocks->ResetBlocks());
    size_t records = 0;
    for (;;) {
      const uint64_t chunk_start = trace::NowNanos();
      RR_ASSIGN_OR_RETURN(const size_t rows,
                          blocks->NextBlockColumns(&columns));
      if (rows == 0) return records;
      accumulate(rows);
      records += rows;
      m_pass1_chunk_nanos.Record(NanosSince(chunk_start));
      m_chunks_pass1.Add(1);
    }
  };
  {
    trace::TraceSpan means_span("attack.pass1_means");
    RR_ASSIGN_OR_RETURN(const size_t records, sweep([&](size_t rows) {
      moments.AccumulateMeansColumns(columns.data(), rows);
    }));
    m_records_pass1.Add(records);
  }
  const size_t n = moments.num_records();
  if (n < 2) {
    return Status::InvalidArgument(
        "StreamingAttackPipeline: need at least 2 records, saw " +
        std::to_string(n));
  }
  moments.FinalizeMeans();
  linalg::Matrix cov_y;
  {
    trace::TraceSpan scatter_span("attack.pass1_scatter");
    // Blocks that stay valid are handed over a wave at a time, so each
    // whole Gram block is centered and reduced by one task.
    const bool hold = blocks->blocks_stay_valid();
    std::vector<const double*> held_columns;  // m pointers per held block.
    std::vector<size_t> held_rows;
    size_t held_records = 0;
    std::vector<stats::ColumnBlock> group;
    auto hand_over = [&] {
      group.resize(held_rows.size());
      for (size_t b = 0; b < group.size(); ++b) {
        group[b] = {held_columns.data() + b * m, held_rows[b]};
      }
      moments.AccumulateScatterBlocks(group.data(), group.size());
      held_columns.clear();
      held_rows.clear();
      held_records = 0;
    };
    RR_ASSIGN_OR_RETURN(const size_t scatter_records, sweep([&](size_t rows) {
      if (!hold) {
        moments.AccumulateScatterColumns(columns.data(), rows);
        return;
      }
      held_columns.insert(held_columns.end(), columns.begin(), columns.end());
      held_rows.push_back(rows);
      held_records += rows;
      if (held_records >= moments.scatter_group_rows()) hand_over();
    }));
    if (!held_rows.empty()) hand_over();
    // A drifting source (records appended/lost between sweeps) is a data
    // error, not a programming error: fail the job before the
    // accumulator's own count RR_CHECK would abort the process.
    if (scatter_records != n) {
      return Status::InvalidArgument(
          "StreamingAttackPipeline: source served " +
          std::to_string(scatter_records) +
          " records on the scatter sweep but " + std::to_string(n) +
          " on the means sweep");
    }
    cov_y = moments.FinalizeCovariance();  // Flushes the last group.
  }
  transposed.reset();  // Pass 2, if it runs, allocates its own buffers.
  const linalg::Vector& mean = moments.means();

  core::ProjectionBasis basis;
  {
    trace::TraceSpan eigen_span("attack.eigen");
    // The in-memory reconstructors select through the same functions.
    RR_ASSIGN_OR_RETURN(
        basis, options_.attack == StreamingAttack::kPcaDr
                   ? core::SelectPcaBasis(cov_y, noise, options_.pca)
                   : core::SelectSfBasis(cov_y, noise, n));
  }
  const size_t p = basis.num_components;

  StreamingAttackReport report;
  report.num_records = n;
  report.num_attributes = m;
  report.num_components = p;
  report.mean = mean;
  report.rmse_vs_disguised =
      ClosedFormRmseVsDisguised(basis.eigenvectors, p, cov_y);
  // ---- Pass 2, only when something reads the projected rows. ----------
  // rmse_vs_disguised above comes from the covariance either way, so a
  // sink or a reference never changes the other report fields.
  report.has_reference = reference != nullptr;
  if (sink->wants_rows() || report.has_reference) {
    RR_ASSIGN_OR_RETURN(
        const double squared_vs_reference,
        ProjectionPass(options_, disguised, reference, sink, mean,
                       basis.eigenvectors.LeftColumns(p), n));
    if (report.has_reference) {
      report.rmse_vs_reference = std::sqrt(
          squared_vs_reference /
          (static_cast<double>(n) * static_cast<double>(m)));
    }
  }
  report.eigenvalues = std::move(basis.eigenvalues);
  const uint64_t run_nanos = NanosSince(run_start_nanos);
  if (run_nanos > 0) {
    m_last_rows_per_second.Set(static_cast<int64_t>(
        static_cast<double>(n) * 1e9 / static_cast<double>(run_nanos)));
  }
  return report;
}

}  // namespace pipeline
}  // namespace randrecon
