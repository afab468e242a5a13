// Versioned machine-readable run reports: the telemetry artifact a tool
// (sweep_attack, convert_csv, the future attack-service daemon) writes
// at the end of a run — every counter, every latency histogram, the
// span tree, and tool-specific sections — as one JSON document whose
// schema is specified in docs/REPORT_SCHEMA.md and validated in CI by
// tools/check_report.py.
//
// The builder renders JSON with a deliberately tiny feature set (string
// / integer / double / bool scalars, pre-rendered raw sections for
// arrays) so the document layout is deterministic: top-level keys in a
// fixed order, config keys and sections in insertion order, metrics
// sorted by name. Two runs over the same inputs differ only in clock
// readings.

#ifndef RANDRECON_COMMON_RUN_REPORT_H_
#define RANDRECON_COMMON_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/trace.h"

namespace randrecon {
namespace report {

/// Bumped whenever the report layout changes incompatibly
/// (docs/REPORT_SCHEMA.md records the history; v2 added the
/// "build_info" provenance block).
constexpr int kRunReportSchemaVersion = 2;

/// JSON-escapes `text` (quotes, backslashes, control characters) —
/// shared by everything that renders user-controlled strings (paths,
/// Status messages) into a report.
std::string JsonEscape(const std::string& text);

/// `value` as a JSON number: %.17g, which round-trips every finite
/// double, or null for inf/nan (JSON has neither).
std::string JsonDouble(double value);

/// Assembles one report document. Typical use:
///   report::RunReportBuilder builder("sweep_attack");
///   builder.AddConfig("attack", attack_name);
///   builder.AddConfigInt("jobs_total", results.size());
///   builder.AddRawSection("jobs", jobs_json);  // a rendered array
///   builder.SetSpans(trace::StopTracing());
///   RR_RETURN_NOT_OK(builder.WriteFile(report_path));
/// The metrics sections are captured from the process-global registry
/// at ToJson() time — snapshot AFTER the instrumented work finishes.
class RunReportBuilder {
 public:
  explicit RunReportBuilder(std::string tool);

  /// Scalar config/result fields, rendered under "config" in insertion
  /// order.
  void AddConfig(const std::string& key, const std::string& value);
  void AddConfigInt(const std::string& key, int64_t value);
  void AddConfigDouble(const std::string& key, double value);
  void AddConfigBool(const std::string& key, bool value);

  /// A pre-rendered JSON value (array/object) emitted as a top-level
  /// section. `json` must be well-formed; the builder splices it
  /// verbatim.
  void AddRawSection(const std::string& key, std::string json);

  /// The capture to embed as "spans" (default: empty array).
  void SetSpans(std::vector<trace::Span> spans);

  /// The full document (see docs/REPORT_SCHEMA.md):
  ///   {"schema_version":2,"tool":"...","build_info":{...},
  ///    "config":{...},
  ///    "counters":{...},"gauges":{...},"histograms":{...},
  ///    "spans":[...], <sections...>}
  std::string ToJson() const;

  /// ToJson() to `path` via WriteFileAtomic (common/file_io.h): a crash
  /// or power loss never leaves a truncated report at `path`.
  Status WriteFile(const std::string& path) const;

 private:
  std::string tool_;
  std::vector<std::pair<std::string, std::string>> config_;  ///< key, rendered.
  std::vector<std::pair<std::string, std::string>> sections_;
  std::vector<trace::Span> spans_;
};

}  // namespace report
}  // namespace randrecon

#endif  // RANDRECON_COMMON_RUN_REPORT_H_
