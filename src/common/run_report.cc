#include "common/run_report.h"

#include <cstdio>

#include "common/build_info.h"
#include "common/failpoint.h"
#include "common/file_io.h"
#include "common/metrics.h"

namespace randrecon {
namespace report {
namespace {

// The report publication seams (common/failpoint.h): a report rides the
// same durable publish as every store file (common/file_io.h), and these
// two points let tests (and the CI fault matrix) prove a full disk or EIO
// at either step leaves neither a truncated report nor a stray temp.
Failpoint fp_report_write("report.write");    ///< Before the temp write.
Failpoint fp_report_rename("report.rename");  ///< Before the rename.

}  // namespace

std::string JsonEscape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        escaped.append("\\\"");
        break;
      case '\\':
        escaped.append("\\\\");
        break;
      case '\n':
        escaped.append("\\n");
        break;
      case '\r':
        escaped.append("\\r");
        break;
      case '\t':
        escaped.append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned char>(c));
          escaped.append(buffer);
        } else {
          escaped.push_back(c);
        }
    }
  }
  return escaped;
}

std::string JsonDouble(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  std::string rendered = buffer;
  if (rendered.find_first_of("nN") != std::string::npos) rendered = "null";
  return rendered;
}

RunReportBuilder::RunReportBuilder(std::string tool) : tool_(std::move(tool)) {}

void RunReportBuilder::AddConfig(const std::string& key,
                                 const std::string& value) {
  config_.emplace_back(key, "\"" + JsonEscape(value) + "\"");
}

void RunReportBuilder::AddConfigInt(const std::string& key, int64_t value) {
  config_.emplace_back(key, std::to_string(value));
}

void RunReportBuilder::AddConfigDouble(const std::string& key, double value) {
  config_.emplace_back(key, JsonDouble(value));
}

void RunReportBuilder::AddConfigBool(const std::string& key, bool value) {
  config_.emplace_back(key, value ? "true" : "false");
}

void RunReportBuilder::AddRawSection(const std::string& key,
                                     std::string json) {
  sections_.emplace_back(key, std::move(json));
}

void RunReportBuilder::SetSpans(std::vector<trace::Span> spans) {
  spans_ = std::move(spans);
}

std::string RunReportBuilder::ToJson() const {
  std::string json = "{\"schema_version\":" +
                     std::to_string(kRunReportSchemaVersion) + ",\"tool\":\"" +
                     JsonEscape(tool_) + "\",\"build_info\":" +
                     BuildInfoJson() + ",\"config\":{";
  bool first = true;
  for (const auto& entry : config_) {
    if (!first) json.append(",");
    first = false;
    json.append("\"" + JsonEscape(entry.first) + "\":" + entry.second);
  }
  json.append("},");
  // SnapshotJson() is {"counters":...,"gauges":...,"histograms":...} —
  // splice its members as our own.
  const std::string metrics_json = metrics::SnapshotJson();
  json.append(metrics_json.substr(1, metrics_json.size() - 2));
  json.append(",\"spans\":" + trace::SpanTreeJson(spans_));
  for (const auto& section : sections_) {
    json.append(",\"" + JsonEscape(section.first) + "\":" + section.second);
  }
  json.append("}");
  return json;
}

Status RunReportBuilder::WriteFile(const std::string& path) const {
  RR_FAILPOINT(fp_report_write);
  PublishSeams seams;
  seams.before_rename = &fp_report_rename;
  return WriteFileAtomic(path, ToJson() + "\n", seams);
}

}  // namespace report
}  // namespace randrecon
