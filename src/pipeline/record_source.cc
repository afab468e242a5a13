#include "pipeline/record_source.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/failpoint.h"
#include "linalg/kernels.h"

namespace randrecon {
namespace pipeline {

namespace {

/// Fires on every store-backed read, row-major (NextChunk) or columnar
/// (each served block) — the seam retry tests and the CI fault-injection
/// matrix use to make a read-side stage fail or crash on its Nth read
/// without corrupting any file.
Failpoint fp_next_chunk("source.next_chunk");

}  // namespace

TransposingBlockStream::TransposingBlockStream(RecordSource* source,
                                               size_t chunk_rows)
    : source_(source),
      chunk_(chunk_rows, source->num_attributes()),
      columns_(chunk_rows * source->num_attributes()) {
  RR_CHECK_GT(chunk_rows, 0u) << "TransposingBlockStream: zero chunk_rows";
}

Result<size_t> TransposingBlockStream::NextBlockColumns(
    std::vector<const double*>* columns) {
  RR_ASSIGN_OR_RETURN(const size_t rows, source_->NextChunk(&chunk_));
  const size_t m = chunk_.cols();
  const size_t stride = chunk_.rows();
  linalg::kernels::RowsToColumns(chunk_.data(), m, rows, m, columns_.data(),
                                 stride);
  columns->resize(m);
  for (size_t j = 0; j < m; ++j) (*columns)[j] = columns_.data() + j * stride;
  return rows;
}

Result<size_t> MatrixRecordSource::NextChunk(linalg::Matrix* buffer) {
  RR_CHECK_EQ(buffer->cols(), records_->cols())
      << "MatrixRecordSource: chunk buffer width mismatch";
  const size_t rows =
      std::min(buffer->rows(), records_->rows() - next_row_);
  if (rows > 0) {
    std::memcpy(buffer->data(), records_->row_data(next_row_),
                rows * records_->cols() * sizeof(double));
    next_row_ += rows;
  }
  return rows;
}

Result<CsvRecordSource> CsvRecordSource::Open(const std::string& path) {
  RR_ASSIGN_OR_RETURN(data::CsvChunkReader reader,
                      data::CsvChunkReader::Open(path));
  return CsvRecordSource(std::move(reader));
}

Result<CsvRecordSource> CsvRecordSource::FromString(std::string text) {
  RR_ASSIGN_OR_RETURN(data::CsvChunkReader reader,
                      data::CsvChunkReader::FromString(std::move(text)));
  return CsvRecordSource(std::move(reader));
}

Result<ShardedRecordSource> ShardedRecordSource::Open(
    const std::string& path, data::ColumnStoreReadOptions store_options) {
  RR_ASSIGN_OR_RETURN(data::ShardedStoreReader reader,
                      data::ShardedStoreReader::Open(path, store_options));
  return ShardedRecordSource(std::move(reader));
}

Result<size_t> ShardedRecordSource::NextChunk(linalg::Matrix* buffer) {
  RR_CHECK_EQ(buffer->cols(), reader_.num_attributes())
      << "ShardedRecordSource: chunk buffer width mismatch";
  RR_FAILPOINT(fp_next_chunk);
  const size_t rows =
      std::min(buffer->rows(), reader_.num_records() - next_row_);
  if (rows > 0) {
    RR_RETURN_NOT_OK(reader_.ReadRows(next_row_, rows, buffer));
    next_row_ += rows;
  }
  return rows;
}

Result<size_t> ShardedRecordSource::NextBlockColumns(
    std::vector<const double*>* columns) {
  // Blocks are enumerated shard by shard, each shard's blocks in order —
  // the same record order NextChunk serves. Shards' final blocks may be
  // partial, so global blocks are ragged; consumers only see per-block
  // row counts, which is all the moment accumulator needs.
  for (;;) {
    if (block_shard_ == reader_.num_shards()) return size_t{0};
    // Entering a shard verifies all its blocks (block-parallel) on this
    // reader's first read of it; later blocks and sweeps find it done.
    RR_ASSIGN_OR_RETURN(const data::ColumnStoreReader* shard,
                        reader_.VerifiedShard(block_shard_));
    if (block_in_shard_ == shard->num_blocks()) {
      ++block_shard_;
      block_in_shard_ = 0;
      continue;
    }
    RR_FAILPOINT(fp_next_chunk);
    const size_t m = shard->num_attributes();
    columns->resize(m);
    for (size_t j = 0; j < m; ++j) {
      (*columns)[j] = shard->BlockColumn(block_in_shard_, j);
    }
    const size_t rows = shard->rows_in_block(block_in_shard_);
    ++block_in_shard_;
    return rows;
  }
}

Result<MvnRecordSource> MvnRecordSource::Create(
    const linalg::Vector& mean, const linalg::Matrix& covariance,
    size_t num_records, uint64_t seed) {
  RR_ASSIGN_OR_RETURN(
      stats::MultivariateNormalSampler sampler,
      stats::MultivariateNormalSampler::Create(mean, covariance));
  return MvnRecordSource(std::move(sampler), num_records, seed);
}

Result<size_t> MvnRecordSource::NextChunk(linalg::Matrix* buffer) {
  RR_CHECK_EQ(buffer->cols(), sampler_.dimension())
      << "MvnRecordSource: chunk buffer width mismatch";
  const size_t rows = std::min(buffer->rows(), num_records_ - served_);
  constexpr uint64_t kBlock = stats::kBatchBlockRows;
  const size_t m = sampler_.dimension();
  const uint64_t r0 = served_;
  const uint64_t r1 = served_ + rows;
  if (rows == 0) return size_t{0};
  const uint64_t b0 = r0 / kBlock;
  const uint64_t b1 = (r1 - 1) / kBlock;
  // Pass 1 (parallel): every block fully covered by this chunk is
  // generated straight into the caller's buffer.
  ParallelForEach(0, static_cast<size_t>(b1 - b0 + 1), [&](size_t i) {
    const uint64_t b = b0 + i;
    if (b * kBlock < r0 || (b + 1) * kBlock > r1) return;  // edge block
    sampler_.SampleBlockSlice(base_, b, 0, kBlock,
                              buffer->row_data(
                                  static_cast<size_t>(b * kBlock - r0)));
  }, parallel_);
  // Pass 2 (serial): edge blocks straddling the chunk go through the
  // one-block cache; consecutive small chunks reuse it.
  for (uint64_t b = b0; b <= b1; ++b) {
    const uint64_t lo = std::max(r0, b * kBlock);
    const uint64_t hi = std::min(r1, (b + 1) * kBlock);
    if (lo == b * kBlock && hi == (b + 1) * kBlock) continue;  // done above
    if (cached_block_ != b) {
      if (block_cache_.rows() != kBlock || block_cache_.cols() != m) {
        block_cache_ = linalg::Matrix(kBlock, m);
      }
      sampler_.SampleBlockSlice(base_, b, 0, kBlock, block_cache_.data());
      cached_block_ = b;
    }
    std::memcpy(buffer->row_data(static_cast<size_t>(lo - r0)),
                block_cache_.row_data(static_cast<size_t>(lo - b * kBlock)),
                static_cast<size_t>(hi - lo) * m * sizeof(double));
  }
  served_ += rows;
  return rows;
}

PerturbingRecordSource::PerturbingRecordSource(
    std::unique_ptr<RecordSource> inner,
    const perturb::RandomizationScheme* scheme, uint64_t seed)
    : inner_(std::move(inner)), scheme_(scheme), base_(seed, kNoiseStreamTag) {
  RR_CHECK(inner_ != nullptr) << "PerturbingRecordSource: null inner source";
  RR_CHECK(scheme_ != nullptr) << "PerturbingRecordSource: null scheme";
  RR_CHECK_EQ(inner_->num_attributes(), scheme_->num_attributes())
      << "PerturbingRecordSource: scheme/source width mismatch";
}

Result<size_t> PerturbingRecordSource::NextChunk(linalg::Matrix* buffer) {
  RR_ASSIGN_OR_RETURN(const size_t rows, inner_->NextChunk(buffer));
  if (rows == 0) return rows;
  scheme_->AddNoiseAt(base_, served_, rows, buffer, parallel_);
  served_ += rows;
  return rows;
}

}  // namespace pipeline
}  // namespace randrecon
