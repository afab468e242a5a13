// Auto-detecting factories for file-backed pipeline endpoints.
//
// The attack CLIs accept "a file of records" without caring whether it is
// a CSV export, a binary column store, or a sharded-store manifest:
// OpenRecordSource sniffs the leading magic bytes
// (data::DetectRecordFileFormat — content, not extension) and returns
// whichever RecordSource matches, plus the attribute names every format
// carries. CreateRecordSink picks the output format by extension (the
// one place intent can't be sniffed): ".rrcs" writes a column store,
// ".rrcm" a sharded store (manifest + shards), anything else CSV.

#ifndef RANDRECON_PIPELINE_SOURCE_FACTORY_H_
#define RANDRECON_PIPELINE_SOURCE_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/column_store.h"
#include "data/shard_store.h"
#include "pipeline/chunk_sink.h"
#include "pipeline/record_source.h"

namespace randrecon {
namespace pipeline {

/// The conventional column-store file extension ("<name>.rrcs"). The
/// manifest extension is data::kShardManifestExtension (".rrcm").
extern const char kColumnStoreExtension[];

/// A file opened as a record stream, with the metadata every backend
/// provides. `num_records` is known up front for the column-store and
/// sharded backends (CSV discovers its length by streaming); 0 means
/// unknown.
struct OpenedRecordSource {
  std::unique_ptr<RecordSource> source;
  std::vector<std::string> attribute_names;
  data::RecordFileFormat format = data::RecordFileFormat::kCsv;
  size_t num_records = 0;
};

/// Per-backend open knobs (each applies only where meaningful).
struct RecordSourceOptions {
  /// Column-store and sharded backends: block-parallel verification and
  /// reads (data::ColumnStoreReadOptions). Ignored for CSV.
  data::ColumnStoreReadOptions store;
};

/// Opens `path` as whichever source its leading bytes identify: a
/// ShardedRecordSource for both store formats (a manifest, or a lone
/// column store as a one-shard store) or a CsvRecordSource. `format`
/// still says which of the three the file is. Fails like the matching
/// Open (unreadable file, malformed header/manifest, ...).
Result<OpenedRecordSource> OpenRecordSource(const std::string& path,
                                            const RecordSourceOptions& options);
Result<OpenedRecordSource> OpenRecordSource(const std::string& path);

/// Per-format knobs for CreateRecordSink (each applies only when the
/// extension selects that backend).
struct RecordSinkOptions {
  size_t block_rows = data::kDefaultColumnStoreBlockRows;
  /// Sharded sink: records per shard before rolling; 0 means 2^20.
  size_t shard_rows = 0;
  /// 17 round-trips every finite double exactly; 10 is the compact
  /// WriteCsv default.
  int csv_precision = 10;
};

/// Creates a CsvChunkSink, ColumnStoreChunkSink or ShardedChunkSink for
/// `path` by extension (".rrcs" -> column store, ".rrcm" -> sharded
/// store). Call Close() on the returned sink after the last Consume to
/// seal/flush the file(s).
Result<std::unique_ptr<ChunkSink>> CreateRecordSink(
    const std::string& path, const std::vector<std::string>& attribute_names,
    RecordSinkOptions options = {});

/// True iff `path` carries kColumnStoreExtension — the rule
/// CreateRecordSink dispatches on (exposed so tools stay in sync).
bool HasColumnStoreExtension(const std::string& path);

/// True iff `path` carries data::kShardManifestExtension (".rrcm").
bool HasShardManifestExtension(const std::string& path);

/// Opens both paths (formats sniffed independently) and streams them in
/// lockstep: OK iff they carry identical attribute names and
/// bitwise-identical f64 records in the same order. InvalidArgument
/// naming the diverging rows otherwise; open/read errors propagate, and
/// chunk_rows == 0 is InvalidArgument (it would compare nothing).
/// convert_csv --verify and the micro_io fidelity gate both run this —
/// for every backend pair, including sharded manifests.
Status VerifyStreamsBitwiseEqual(const std::string& a_path,
                                 const std::string& b_path,
                                 size_t chunk_rows = 4096);

}  // namespace pipeline
}  // namespace randrecon

#endif  // RANDRECON_PIPELINE_SOURCE_FACTORY_H_
