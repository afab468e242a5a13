#include "pipeline/source_factory.h"

#include <cstring>

namespace randrecon {
namespace pipeline {

const char kColumnStoreExtension[] = ".rrcs";

namespace {

bool HasExtension(const std::string& path, const std::string& extension) {
  return path.size() > extension.size() &&
         path.compare(path.size() - extension.size(), extension.size(),
                      extension) == 0;
}

}  // namespace

bool HasColumnStoreExtension(const std::string& path) {
  return HasExtension(path, kColumnStoreExtension);
}

bool HasShardManifestExtension(const std::string& path) {
  return HasExtension(path, data::kShardManifestExtension);
}

Result<OpenedRecordSource> OpenRecordSource(
    const std::string& path, const RecordSourceOptions& options) {
  RR_ASSIGN_OR_RETURN(const data::RecordFileFormat format,
                      data::DetectRecordFileFormat(path));
  OpenedRecordSource opened;
  opened.format = format;
  if (format == data::RecordFileFormat::kCsv) {
    RR_ASSIGN_OR_RETURN(CsvRecordSource source, CsvRecordSource::Open(path));
    opened.attribute_names = source.attribute_names();
    opened.source = std::make_unique<CsvRecordSource>(std::move(source));
    return opened;
  }
  // A manifest, or a lone column store read as a one-shard store.
  RR_ASSIGN_OR_RETURN(ShardedRecordSource source,
                      ShardedRecordSource::Open(path, options.store));
  opened.attribute_names = source.attribute_names();
  opened.num_records = source.num_records();
  opened.source = std::make_unique<ShardedRecordSource>(std::move(source));
  return opened;
}

Result<OpenedRecordSource> OpenRecordSource(const std::string& path) {
  return OpenRecordSource(path, RecordSourceOptions{});
}

Result<std::unique_ptr<ChunkSink>> CreateRecordSink(
    const std::string& path, const std::vector<std::string>& attribute_names,
    RecordSinkOptions options) {
  if (HasShardManifestExtension(path)) {
    data::RollingStoreOptions sharded_options;
    sharded_options.shard_rows =
        options.shard_rows > 0 ? options.shard_rows : size_t{1} << 20;
    sharded_options.block_rows = options.block_rows;
    RR_ASSIGN_OR_RETURN(
        ShardedChunkSink sink,
        ShardedChunkSink::Create(path, attribute_names, sharded_options));
    // The unique_ptr upcast is spelled out: Result's converting
    // constructor admits only one user-defined conversion.
    std::unique_ptr<ChunkSink> erased =
        std::make_unique<ShardedChunkSink>(std::move(sink));
    return erased;
  }
  if (HasColumnStoreExtension(path)) {
    data::ColumnStoreOptions store_options;
    store_options.block_rows = options.block_rows;
    RR_ASSIGN_OR_RETURN(
        ColumnStoreChunkSink sink,
        ColumnStoreChunkSink::Create(path, attribute_names, store_options));
    std::unique_ptr<ChunkSink> erased =
        std::make_unique<ColumnStoreChunkSink>(std::move(sink));
    return erased;
  }
  RR_ASSIGN_OR_RETURN(
      CsvChunkSink sink,
      CsvChunkSink::Create(path, attribute_names, options.csv_precision));
  std::unique_ptr<ChunkSink> erased =
      std::make_unique<CsvChunkSink>(std::move(sink));
  return erased;
}

Status VerifyStreamsBitwiseEqual(const std::string& a_path,
                                 const std::string& b_path,
                                 size_t chunk_rows) {
  if (chunk_rows == 0) {
    return Status::InvalidArgument(
        "VerifyStreamsBitwiseEqual: chunk_rows must be >= 1 — zero-row "
        "chunks would compare no records and vacuously report equality");
  }
  RR_ASSIGN_OR_RETURN(OpenedRecordSource a, OpenRecordSource(a_path));
  RR_ASSIGN_OR_RETURN(OpenedRecordSource b, OpenRecordSource(b_path));
  if (a.attribute_names != b.attribute_names) {
    return Status::InvalidArgument("attribute names differ between '" +
                                   a_path + "' and '" + b_path + "'");
  }
  const size_t m = a.attribute_names.size();
  linalg::Matrix a_buffer(chunk_rows, m);
  linalg::Matrix b_buffer(chunk_rows, m);
  size_t row = 0;
  for (;;) {
    RR_ASSIGN_OR_RETURN(const size_t a_rows, a.source->NextChunk(&a_buffer));
    RR_ASSIGN_OR_RETURN(const size_t b_rows, b.source->NextChunk(&b_buffer));
    if (a_rows != b_rows) {
      return Status::InvalidArgument(
          "'" + a_path + "' and '" + b_path +
          "' diverge in record count at record " + std::to_string(row));
    }
    if (a_rows == 0) return Status::OK();
    if (std::memcmp(a_buffer.data(), b_buffer.data(),
                    a_rows * m * sizeof(double)) != 0) {
      return Status::InvalidArgument(
          "'" + a_path + "' and '" + b_path + "' differ bitwise in rows [" +
          std::to_string(row) + ", " + std::to_string(row + a_rows) + ")");
    }
    row += a_rows;
  }
}

}  // namespace pipeline
}  // namespace randrecon
