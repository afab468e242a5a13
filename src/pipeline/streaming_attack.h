// StreamingAttackPipeline: the paper's covariance-driven attacks (SF and
// PCA-DR) run out-of-core over a chunked record stream.
//
// Everything those attacks need from the n x m disguised matrix Y is its
// column means and its m x m sample covariance S — both streamable — plus,
// only when a caller reads the reconstruction, one more look at every
// record to project it. Peak resident data is
// O((chunk_rows + T·kGramChunkRows)·m + T·m²) for T worker threads — the
// moment accumulator stages T fixed 4096-row blocks and keeps up to 4·T
// Gram partials, which dominate if chunk_rows is shrunk below them:
//
//   Pass 1 — moments: stream Y as column blocks (ColumnarBlockStream,
//     record_source.h) through stats::StreamingMoments (two sweeps:
//     means, then centered scatter, block-parallel; blocks that stay
//     valid, as mapped stores' do, go over a wave of 4·T Gram blocks
//     per call),
//     then eigendecompose ONCE, through the basis selection the in-memory
//     reconstructors call:
//       SF      — core::SelectSfBasis: Cov(Y), p from the
//                 Marchenko–Pastur bound;
//       PCA-DR  — core::SelectPcaBasis: Σ̂x = Cov(Y) − Σr with its
//                 eigenvalues clipped (core::EstimateOriginalSpectrum), p
//                 from the eigengap rule.
//   Pass 2 — projection, ONLY when the sink wants rows
//     (ChunkSink::wants_rows) or a reference stream is attached: stream
//     Y again, reconstruct each chunk as X̂ = Ȳ Q̂ Q̂ᵀ + µ̂
//     (core::ProjectRecords), emit it to the ChunkSink, and fold the error
//     against the aligned ground truth.
//     A metrics-only run (NullChunkSink, no reference) reads Y twice.
//
// rmse_vs_disguised never needs pass 2. The eigenvectors form an
// orthonormal basis [Q̂ V_d], so X̂ − y = −V_d V_dᵀ (y − µ̂) and
//   rmse_vs_disguised = sqrt(Σ_{k ≥ p} v_kᵀ S v_k / m),
// with v_k the dropped eigenvectors of the matrix the basis came from
// (Cov(Y) for SF, Σ̂x for PCA-DR) and S the ddof-0 covariance. It is
// computed this way in every run, so attaching a sink or a reference
// never changes a report field other than rmse_vs_reference.
//
// Fidelity contract (tested in streaming_attack_test): the streamed
// covariance is BITWISE equal to the in-memory stats::SampleCovariance,
// so the spectrum, p and X̂ are bitwise those of core::PcaReconstructor /
// SpectralFilteringReconstructor for every chunk_rows; the closed-form
// rmse_vs_disguised agrees with the RMSE summed over the projected rows
// to 1e-12.

#ifndef RANDRECON_PIPELINE_STREAMING_ATTACK_H_
#define RANDRECON_PIPELINE_STREAMING_ATTACK_H_

#include "common/parallel.h"
#include "common/result.h"
#include "core/pca_dr.h"
#include "core/spectral_filtering.h"
#include "perturb/noise_model.h"
#include "pipeline/chunk_sink.h"
#include "pipeline/record_source.h"

namespace randrecon {
namespace pipeline {

/// Which covariance attack the pipeline runs.
enum class StreamingAttack {
  kPcaDr,
  kSpectralFiltering,
};

/// Configuration for StreamingAttackPipeline.
struct StreamingAttackOptions {
  StreamingAttack attack = StreamingAttack::kPcaDr;
  /// Records per streamed chunk. The default matches the Gram
  /// accumulation block, but ANY value yields bitwise-identical moments.
  size_t chunk_rows = 4096;
  /// PCA-DR knobs (component selection, PSD clipping, §5.3 oracle mode).
  core::PcaOptions pca;
  /// Kernel parallelism; results are bitwise identical for any setting.
  ParallelOptions parallel;
};

/// What the pipeline learned, next to the emitted reconstruction.
struct StreamingAttackReport {
  size_t num_records = 0;
  size_t num_attributes = 0;
  /// Selected component count p.
  size_t num_components = 0;
  /// The spectrum the selection ran on: Cov(Y)'s eigenvalues for SF, the
  /// estimated original eigenvalues for PCA-DR (descending).
  linalg::Vector eigenvalues;
  /// Estimated mean µ̂ (column means of the disguised stream).
  linalg::Vector mean;
  /// RMSE between the reconstruction and the disguised input — how much
  /// the attack moved the data (≈ removed noise energy). Closed form over
  /// the covariance (see the file comment); 0 when p = m.
  double rmse_vs_disguised = 0.0;
  /// RMSE against the aligned ground-truth stream, when one was given —
  /// the paper's privacy measure.
  double rmse_vs_reference = 0.0;
  bool has_reference = false;
};

/// Runs SF / PCA-DR over unbounded record streams in bounded memory.
class StreamingAttackPipeline {
 public:
  StreamingAttackPipeline() = default;
  explicit StreamingAttackPipeline(StreamingAttackOptions options)
      : options_(std::move(options)) {}

  /// Attacks the `disguised` stream, emitting reconstructed chunks to
  /// `sink` (pass NullChunkSink to keep metrics only: with no reference,
  /// the projection pass is skipped). `reference`, when
  /// non-null, must be an aligned stream of the original records (same
  /// n, same order) and feeds rmse_vs_reference. Fails with
  /// InvalidArgument on shape mismatches or misaligned streams and
  /// propagates source/sink errors.
  Result<StreamingAttackReport> Run(RecordSource* disguised,
                                    const perturb::NoiseModel& noise,
                                    ChunkSink* sink,
                                    RecordSource* reference = nullptr) const;

  const StreamingAttackOptions& options() const { return options_; }

 private:
  StreamingAttackOptions options_;
};

}  // namespace pipeline
}  // namespace randrecon

#endif  // RANDRECON_PIPELINE_STREAMING_ATTACK_H_
