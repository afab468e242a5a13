#include "pipeline/chunk_sink.h"

#include "common/check.h"
#include "common/string_util.h"

namespace randrecon {
namespace pipeline {

Status CollectChunkSink::Consume(size_t row_offset, const linalg::Matrix& chunk,
                                 size_t num_rows) {
  RR_CHECK_EQ(chunk.cols(), num_attributes_) << "CollectChunkSink: width";
  RR_CHECK_EQ(row_offset, num_records_)
      << "CollectChunkSink: chunks arrived out of order";
  RR_CHECK_LE(num_rows, chunk.rows()) << "CollectChunkSink: overrun";
  values_.insert(values_.end(), chunk.data(),
                 chunk.data() + num_rows * num_attributes_);
  num_records_ += num_rows;
  return Status::OK();
}

linalg::Matrix CollectChunkSink::ToMatrix() const {
  return linalg::Matrix::FromRowMajor(num_records_, num_attributes_, values_);
}

Result<CsvChunkSink> CsvChunkSink::Create(
    const std::string& path, const std::vector<std::string>& attribute_names,
    int precision) {
  std::ofstream file(path);
  if (!file.is_open()) {
    return Status::IoError("CsvChunkSink: cannot open '" + path +
                           "' for writing");
  }
  file << JoinStrings(attribute_names, ",") << "\n";
  if (file.fail()) {
    return Status::IoError("CsvChunkSink: header write to '" + path +
                           "' failed");
  }
  return CsvChunkSink(std::move(file), path, precision);
}

Status CsvChunkSink::Consume(size_t row_offset, const linalg::Matrix& chunk,
                             size_t num_rows) {
  RR_CHECK_LE(num_rows, chunk.rows()) << "CsvChunkSink: overrun";
  RR_CHECK_EQ(row_offset, rows_written_)
      << "CsvChunkSink: chunks arrived out of order";
  for (size_t i = 0; i < num_rows; ++i) {
    const double* row = chunk.row_data(i);
    for (size_t j = 0; j < chunk.cols(); ++j) {
      if (j > 0) file_ << ",";
      file_ << FormatDouble(row[j], precision_);
    }
    file_ << "\n";
  }
  if (file_.fail()) {
    return Status::IoError("CsvChunkSink: write to '" + path_ + "' failed");
  }
  rows_written_ += num_rows;
  return Status::OK();
}

Status CsvChunkSink::Close() {
  if (!file_.is_open()) return Status::OK();
  file_.close();
  if (file_.fail()) {
    return Status::IoError("CsvChunkSink: closing '" + path_ + "' failed");
  }
  return Status::OK();
}

Result<ColumnStoreChunkSink> ColumnStoreChunkSink::Create(
    const std::string& path, const std::vector<std::string>& attribute_names,
    data::ColumnStoreOptions options) {
  RR_ASSIGN_OR_RETURN(
      data::ColumnStoreWriter writer,
      data::ColumnStoreWriter::Create(path, attribute_names, options));
  return ColumnStoreChunkSink(std::move(writer));
}

Status ColumnStoreChunkSink::Consume(size_t row_offset,
                                     const linalg::Matrix& chunk,
                                     size_t num_rows) {
  // An out-of-order chunk would be appended at the wrong record index and
  // the store would still seal as valid — permuted records with no
  // diagnostic. Same contract as CollectChunkSink.
  RR_CHECK_EQ(row_offset, writer_.rows_written())
      << "ColumnStoreChunkSink: chunks arrived out of order";
  return writer_.Append(chunk, num_rows);
}

Result<ShardedChunkSink> ShardedChunkSink::Create(
    const std::string& manifest_path,
    const std::vector<std::string>& attribute_names,
    data::RollingStoreOptions options) {
  RR_ASSIGN_OR_RETURN(
      data::RollingShardedStoreWriter writer,
      data::RollingShardedStoreWriter::Create(manifest_path, attribute_names,
                                              options));
  RR_RETURN_NOT_OK(
      writer.Append(linalg::Matrix(0, attribute_names.size()), 0));
  return ShardedChunkSink(std::move(writer));
}

Status ShardedChunkSink::Consume(size_t row_offset,
                                 const linalg::Matrix& chunk,
                                 size_t num_rows) {
  RR_CHECK_EQ(row_offset, writer_.rows_written())
      << "ShardedChunkSink: chunks arrived out of order";
  return writer_.Append(chunk, num_rows);
}

}  // namespace pipeline
}  // namespace randrecon
