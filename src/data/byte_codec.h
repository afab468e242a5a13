// The byte codec both store formats share: the column store
// (docs/FORMAT.md §1–§3) and the shard manifest (§7) serialize every
// integer little-endian, and every error, report and log line spells a
// checksum or digest the same way.

#ifndef RANDRECON_DATA_BYTE_CODEC_H_
#define RANDRECON_DATA_BYTE_CODEC_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

// The formats are little-endian on disk and these serialize with memcpy,
// so a little-endian host is required (every target this library builds
// for). A big-endian port would add byte swaps here.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "store I/O assumes a little-endian host");

namespace randrecon {
namespace data {

inline void AppendU32(std::string* out, uint32_t value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

inline void AppendU64(std::string* out, uint64_t value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

inline uint32_t LoadU32(const uint8_t* bytes) {
  uint32_t value;
  std::memcpy(&value, bytes, sizeof(value));
  return value;
}

inline uint64_t LoadU64(const uint8_t* bytes) {
  uint64_t value;
  std::memcpy(&value, bytes, sizeof(value));
  return value;
}

/// "0x" + 16 lowercase hex digits.
inline std::string HexU64(uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace data
}  // namespace randrecon

#endif  // RANDRECON_DATA_BYTE_CODEC_H_
