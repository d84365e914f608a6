// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) — the checksum guarding the
// checkpoint format's integrity footer.
//
// Chosen over a cryptographic hash deliberately: the threat model is bit
// rot, truncation and torn writes, not adversaries, and CRC-32 detects all
// burst errors up to 32 bits plus any odd number of bit flips at a few
// cycles per byte with zero dependencies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace emdpa {

/// CRC of `size` bytes at `data`.  `seed` chains incremental computations:
/// crc32(b, crc32(a)) == crc32(a ++ b).
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

inline std::uint32_t crc32(const std::string& data, std::uint32_t seed = 0) {
  return crc32(data.data(), data.size(), seed);
}

/// A CRC as the 8 lowercase hex digits both on-disk framings use: the
/// "crc XXXXXXXX" file footer and the WAL's "#crc=XXXXXXXX" line frame.
std::string crc_hex(std::uint32_t crc);

/// Parse exactly 8 lowercase hex digits (the crc_hex form); false on any
/// other length or character.
bool parse_crc_hex(std::string_view digits, std::uint32_t* crc);

/// Append the standard integrity footer — a final "crc <8 hex digits>\n"
/// line whose value covers every preceding byte — to a serialised body.
/// Shared by the checkpoint format and the trajectory-store frame formats.
std::string with_crc_footer(std::string body);

/// Verify the trailing footer written by with_crc_footer and return the body
/// without it.  Throws RuntimeFailure (naming `what`) when the footer is
/// missing, malformed, or does not match — a flipped bit, a truncated tail
/// or a torn write all land here.
std::string strip_crc_footer(const std::string& content, const char* what);

}  // namespace emdpa
