// Versioned magic/version/CRC framing for every on-disk binary artifact.
//
// One header layout, shared by checkpoints, spooled jobs, worker result
// blobs, cache entries, durable results, and worker traces:
//
//   bytes 0-3    magic (4 ASCII bytes naming the format, e.g. "CKPT")
//   bytes 4-7    format version, u32 little-endian
//   bytes 8-11   CRC-32 (IEEE, reflected) of the payload, u32 little-endian
//   bytes 12-19  payload length in bytes, u64 little-endian
//   bytes 20-    payload
//
// A reader can therefore always answer "is this file whole, and is it the
// format I expect?" before parsing a single payload byte — which is what
// lets the serve layer quarantine torn or foreign files instead of acting
// on them.  crusade-check rule C009 requires every on-disk writer in
// src/serve + src/ckpt to go through write_framed_file rather than calling
// atomic_write_file with hand-rolled bytes.
#pragma once

#include <cstdint>
#include <string>

namespace crusade::diskfmt {

/// Fixed header size: magic + version + CRC + payload length.
inline constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 8;

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte string.
std::uint32_t crc32(const std::string& bytes);

/// Wraps `payload` in the framed header.  `magic` must be exactly 4 bytes.
std::string frame(const char* magic, std::uint32_t version,
                  const std::string& payload);

struct Unframed {
  std::uint32_t version = 0;
  std::string payload;
};

/// Validates and strips the framed header: magic must match, version must
/// be in [1, max_version], the declared length must match the bytes
/// present, and the payload CRC must check out.  Throws Error with a typed
/// message ("bad magic", "unsupported version", "truncated", "payload CRC
/// mismatch") on any violation — a torn or foreign file never reaches the
/// payload parser.
Unframed unframe(const std::string& bytes, const char* magic,
                 std::uint32_t max_version);

/// Frames `payload` and writes it to `path` via atomic_write_file (temp +
/// fsync + rename + directory fsync).  Throws IoError / DiskFullError like
/// atomic_write_file.  This is the single sanctioned on-disk writer for
/// src/serve + src/ckpt (crusade-check C009).
void write_framed_file(const std::string& path, const char* magic,
                       std::uint32_t version, const std::string& payload);

/// read_file + unframe.  Throws Error (IoError on read failures, the
/// unframe diagnoses on corruption).
Unframed read_framed_file(const std::string& path, const char* magic,
                          std::uint32_t max_version);

/// Total on-disk size of a framed file with `payload_bytes` of payload.
inline long long framed_size(std::size_t payload_bytes) {
  return static_cast<long long>(kHeaderBytes + payload_bytes);
}

}  // namespace crusade::diskfmt
