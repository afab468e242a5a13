// RecordSource: the input side of the out-of-core attack pipeline.
//
// A source serves an ordered stream of n records (m attributes each) in
// caller-sized chunks, and can be rewound. Rewindability is the load-
// bearing contract: the covariance attacks sweep Y at least twice (means,
// centered scatter, and a projection when rows are wanted), and every
// pass must observe the byte-identical record sequence — RAPPOR-style
// report logs, CSV exports and seeded synthetic populations all satisfy
// it naturally.
//
// Adapters provided here:
//   * MatrixRecordSource      — an in-memory record matrix, chunked.
//   * CsvRecordSource         — a CSV file/string via data::CsvChunkReader,
//                               never holding the table in full.
//   * ShardedRecordSource     — the one store-backed source: a sharded
//                               store (manifest + shards) or a lone
//                               memory-mapped column store, which opens
//                               as a one-shard store (docs/FORMAT.md);
//                               the native backend, ~10-100x CSV ingest.
//                               Opened from a path, handed an
//                               already-pinned rolling-store snapshot, or
//                               handed a one-shard view of a manifest.
//   * MvnRecordSource         — a seeded synthetic N(µ, Σ) population of
//                               fixed size, regenerated per pass.
//   * PerturbingRecordSource  — decorator turning any source X into the
//                               attacker-visible stream Y = X + R.
//
// Column blocks (ColumnarBlockStream) are how the attack's pass 1 reads
// every source: the store-backed source serves its mapped blocks
// zero-copy, and every other source reaches the same interface through
// TransposingBlockStream, which transposes each row-major chunk once.
//
// source_factory.h opens a path as whichever file-backed source its
// leading bytes identify.
//
// Every adapter's stream is invariant to the chunk size it is read with
// (parses are strictly record-ordered; draws are keyed by record index),
// which the pipeline's determinism contract builds on.

#ifndef RANDRECON_PIPELINE_RECORD_SOURCE_H_
#define RANDRECON_PIPELINE_RECORD_SOURCE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/column_store.h"
#include "data/csv.h"
#include "data/shard_store.h"
#include "linalg/matrix.h"
#include "perturb/schemes.h"
#include "stats/mvn.h"
#include "stats/philox.h"

namespace randrecon {
namespace pipeline {

/// Columnar block access — the one interface the attack's moment sweeps
/// iterate. Blocks partition the stream in record order; NextBlockColumns
/// serves every attribute of one block as a contiguous slice. Store-backed
/// sources serve slices straight out of the mapping; any other source is
/// adapted by TransposingBlockStream. A source's block cursor is
/// independent of its row-major NextChunk cursor unless the source is the
/// adapter itself.
class ColumnarBlockStream {
 public:
  virtual ~ColumnarBlockStream() = default;

  /// Rewinds the block cursor to the first block.
  virtual Status ResetBlocks() = 0;

  /// Fills `columns` (resized to m) with one pointer per attribute into
  /// the next block and returns its record count; 0 means exhausted.
  /// Pointers stay valid until the next NextBlockColumns or ResetBlocks
  /// call. Fails like the backing reader (e.g. a block checksum mismatch
  /// naming the block).
  virtual Result<size_t> NextBlockColumns(
      std::vector<const double*>* columns) = 0;

  /// True when every slice NextBlockColumns serves stays valid until the
  /// stream is destroyed, not just until its next call (mapped stores).
  /// A consumer may then hold several blocks at once: the attack's
  /// scatter sweep hands StreamingMoments a wave of blocks per call.
  virtual bool blocks_stay_valid() const { return false; }
};

/// An ordered, rewindable stream of records.
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  /// Record width m.
  virtual size_t num_attributes() const = 0;

  /// Rewinds to the first record. The re-streamed sequence must be
  /// byte-identical to the previous pass.
  virtual Status Reset() = 0;

  /// Fills the leading rows of `buffer` (shape: chunk_rows x m) with the
  /// next records and returns how many were written; 0 means the stream
  /// is exhausted.
  virtual Result<size_t> NextChunk(linalg::Matrix* buffer) = 0;

  /// The source's own zero-copy column blocks, or null for sources that
  /// only serve row-major chunks (wrap those in TransposingBlockStream).
  /// The returned stream serves the SAME records in the same order as
  /// NextChunk.
  virtual ColumnarBlockStream* columnar_blocks() { return nullptr; }
};

/// Serves a row-major source as column blocks: each block is one
/// NextChunk of up to `chunk_rows` records, transposed into m contiguous
/// column slices (kernels::RowsToColumns). The values are copied, never
/// computed, so a consumer sees the same bits as the row-major chunk.
/// ResetBlocks rewinds the wrapped source itself. The source is borrowed
/// and must outlive the adapter.
class TransposingBlockStream final : public ColumnarBlockStream {
 public:
  TransposingBlockStream(RecordSource* source, size_t chunk_rows);

  Status ResetBlocks() override { return source_->Reset(); }
  Result<size_t> NextBlockColumns(
      std::vector<const double*>* columns) override;

 private:
  RecordSource* source_;
  linalg::Matrix chunk_;         ///< chunk_rows x m, row-major.
  std::vector<double> columns_;  ///< m x chunk_rows, one slice per column.
};

/// Streams an in-memory record matrix. Owns its copy when constructed by
/// value; the pointer constructor borrows (the matrix must outlive the
/// source) so multi-job runners don't duplicate big datasets.
class MatrixRecordSource final : public RecordSource {
 public:
  explicit MatrixRecordSource(linalg::Matrix records)
      : owned_(std::move(records)), records_(&owned_) {}
  explicit MatrixRecordSource(const linalg::Matrix* records)
      : records_(records) {}

  // records_ points into the object itself when owning, so moves must
  // rebind it; copies are disallowed (copy the matrix explicitly if you
  // really want a duplicate stream).
  MatrixRecordSource(MatrixRecordSource&& other) noexcept
      : owned_(std::move(other.owned_)),
        records_(other.records_ == &other.owned_ ? &owned_ : other.records_),
        next_row_(other.next_row_) {}
  MatrixRecordSource& operator=(MatrixRecordSource&& other) noexcept {
    const bool owning = other.records_ == &other.owned_;
    owned_ = std::move(other.owned_);
    records_ = owning ? &owned_ : other.records_;
    next_row_ = other.next_row_;
    return *this;
  }
  MatrixRecordSource(const MatrixRecordSource&) = delete;
  MatrixRecordSource& operator=(const MatrixRecordSource&) = delete;

  size_t num_attributes() const override { return records_->cols(); }
  Status Reset() override {
    next_row_ = 0;
    return Status::OK();
  }
  Result<size_t> NextChunk(linalg::Matrix* buffer) override;

 private:
  linalg::Matrix owned_;
  const linalg::Matrix* records_;
  size_t next_row_ = 0;
};

/// Streams a CSV file (or in-memory CSV text) chunk by chunk.
class CsvRecordSource final : public RecordSource {
 public:
  static Result<CsvRecordSource> Open(const std::string& path);
  static Result<CsvRecordSource> FromString(std::string text);

  const std::vector<std::string>& attribute_names() const {
    return reader_.attribute_names();
  }
  size_t num_attributes() const override { return reader_.num_attributes(); }
  Status Reset() override { return reader_.Reset(); }
  Result<size_t> NextChunk(linalg::Matrix* buffer) override {
    return reader_.ReadChunk(buffer);
  }

 private:
  explicit CsvRecordSource(data::CsvChunkReader reader)
      : reader_(std::move(reader)) {}

  data::CsvChunkReader reader_;
};

/// Streams a store (data::ShardedStoreReader: a manifest + N `.rrcs`
/// shards, or a lone `.rrcs` as one shard) as ONE logical record stream
/// — shard boundaries are invisible to consumers, so the attack over a
/// manifest is bitwise identical to the attack over the equivalent
/// single file. Record n's bytes are at a closed-form offset, so
/// NextChunk is a gather out of the page cache and Reset() is free.
/// Shards open lazily; every shard-level failure (missing/truncated/
/// swapped/resealed shard, schema mismatch, a block checksum mismatch)
/// surfaces as a Status naming the shard and, for a block, the lowest
/// failing one. Serves its column blocks zero-copy across shards (each
/// shard's blocks in order). Both read paths take each shard from
/// data::ShardedStoreReader::VerifiedShard, so a shard's blocks are
/// verified once per source, block-parallel, on the first read that
/// touches it, whichever path that is; rewinds and later passes verify
/// nothing again.
///
/// The attack scheduler constructs one over a pinned rolling-store
/// snapshot (data::RollingStoreSnapshotReader::ReleaseReader): every shard
/// is then open up front, so a concurrent writer's rotations and
/// retention can never fail a read mid-attack, and a scheduled cycle runs
/// the same class, hence the same record order and block geometry, as an
/// offline sweep over the same manifest.
class ShardedRecordSource final : public RecordSource,
                                  public ColumnarBlockStream {
 public:
  /// Fails like data::ShardedStoreReader::Open: a manifest's shard files
  /// are not touched until their rows are; a lone column store is mapped
  /// and its header validated here. `store_options` applies to every
  /// shard (block-parallel verification and gathers).
  static Result<ShardedRecordSource> Open(
      const std::string& path,
      data::ColumnStoreReadOptions store_options = {});

  /// Streams an already-opened reader (a pinned snapshot's, or a
  /// per-shard job's data::ShardedStoreReader::ShardView).
  explicit ShardedRecordSource(data::ShardedStoreReader reader)
      : reader_(std::move(reader)) {}

  const std::vector<std::string>& attribute_names() const {
    return reader_.attribute_names();
  }
  size_t num_records() const { return reader_.num_records(); }
  size_t num_shards() const { return reader_.num_shards(); }
  size_t num_attributes() const override { return reader_.num_attributes(); }
  Status Reset() override {
    next_row_ = 0;
    return Status::OK();
  }
  Result<size_t> NextChunk(linalg::Matrix* buffer) override;

  ColumnarBlockStream* columnar_blocks() override { return this; }
  Status ResetBlocks() override {
    block_shard_ = 0;
    block_in_shard_ = 0;
    return Status::OK();
  }
  Result<size_t> NextBlockColumns(
      std::vector<const double*>* columns) override;
  /// Slices point into the shards' mappings; the reader keeps every
  /// shard it opens until the source is destroyed.
  bool blocks_stay_valid() const override { return true; }

 private:
  data::ShardedStoreReader reader_;
  size_t next_row_ = 0;
  size_t block_shard_ = 0;
  size_t block_in_shard_ = 0;
};

/// Streams `num_records` i.i.d. draws from N(mean, covariance) — the
/// §7.1 population served as a stream instead of a matrix. Reset()
/// restarts the pseudo-random draw sequence from the seed, so every pass
/// regenerates identical records without storing any of them.
///
/// Records are generated on the stats::Philox counter substrate in fixed
/// stats::kBatchBlockRows blocks: full blocks inside a chunk go straight
/// into the caller's buffer in parallel, edge blocks are generated whole
/// into a one-block cache and sliced (consecutive small chunks reuse the
/// cache). Record i is a pure function of (seed, i), so the stream is
/// bitwise identical for every chunk size and thread count — and also
/// across Reset(), which costs nothing.
class MvnRecordSource final : public RecordSource {
 public:
  /// Fails like MultivariateNormalSampler::Create (asymmetric /
  /// indefinite covariance, mean length mismatch).
  static Result<MvnRecordSource> Create(
      const linalg::Vector& mean, const linalg::Matrix& covariance,
      size_t num_records, uint64_t seed);

  size_t num_attributes() const override { return sampler_.dimension(); }
  Status Reset() override {
    served_ = 0;
    return Status::OK();
  }
  Result<size_t> NextChunk(linalg::Matrix* buffer) override;

  /// Worker budget for the parallel block generation.
  void set_parallel_options(const ParallelOptions& options) {
    parallel_ = options;
  }

 private:
  MvnRecordSource(stats::MultivariateNormalSampler sampler, size_t num_records,
                  uint64_t seed)
      : sampler_(std::move(sampler)),
        num_records_(num_records),
        base_(seed, kMvnStreamTag) {}

  /// Stream-id tag separating this source's substrate streams from other
  /// consumers of the same seed (e.g. the perturbing decorator).
  static constexpr uint64_t kMvnStreamTag = 0x4D564E;  // "MVN"

  stats::MultivariateNormalSampler sampler_;
  size_t num_records_;
  stats::Philox base_;
  ParallelOptions parallel_;
  size_t served_ = 0;
  // One-block cache for chunk boundaries that straddle a block.
  linalg::Matrix block_cache_;
  uint64_t cached_block_ = ~uint64_t{0};
};

/// Decorator: serves the inner stream disguised as Y = X + R, drawing R
/// from `scheme` with its own seeded noise stream. Reset() rewinds both
/// the inner source and the noise stream, so repeated passes observe the
/// same disguised records — the attacker's view of a randomized report
/// stream. `scheme` is borrowed and must outlive the source.
///
/// The noise of record i is a pure function of (seed, i) via the
/// scheme's AddNoiseAt (parallel over fixed blocks), so the disguised
/// stream is bitwise identical for every chunk size and thread count,
/// and across Reset().
class PerturbingRecordSource final : public RecordSource {
 public:
  PerturbingRecordSource(std::unique_ptr<RecordSource> inner,
                         const perturb::RandomizationScheme* scheme,
                         uint64_t seed);

  size_t num_attributes() const override { return inner_->num_attributes(); }
  Status Reset() override {
    served_ = 0;
    return inner_->Reset();
  }
  Result<size_t> NextChunk(linalg::Matrix* buffer) override;

  /// Worker budget for the parallel noise generation.
  void set_parallel_options(const ParallelOptions& options) {
    parallel_ = options;
  }

 private:
  /// Stream-id tag separating the noise streams from the inner source's.
  static constexpr uint64_t kNoiseStreamTag = 0x4E4F495345;  // "NOISE"

  std::unique_ptr<RecordSource> inner_;
  const perturb::RandomizationScheme* scheme_;
  stats::Philox base_;
  ParallelOptions parallel_;
  size_t served_ = 0;
};

}  // namespace pipeline
}  // namespace randrecon

#endif  // RANDRECON_PIPELINE_RECORD_SOURCE_H_
