#include "core/crc32.h"

#include <array>
#include <cstdio>

#include "core/error.h"

namespace emdpa {

namespace {

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string crc_hex(std::uint32_t crc) {
  char digits[16];
  std::snprintf(digits, sizeof(digits), "%08x", crc);
  return digits;
}

bool parse_crc_hex(std::string_view digits, std::uint32_t* crc) {
  constexpr std::string_view kDigits = "0123456789abcdef";
  if (digits.size() != 8) return false;
  std::uint32_t value = 0;
  for (const char c : digits) {
    const std::size_t digit = kDigits.find(c);
    if (digit == std::string_view::npos) return false;
    value = (value << 4) | static_cast<std::uint32_t>(digit);
  }
  *crc = value;
  return true;
}

std::string with_crc_footer(std::string body) {
  body += "crc " + crc_hex(crc32(body)) + "\n";
  return body;
}

std::string strip_crc_footer(const std::string& content, const char* what) {
  // The footer is the last line; searching from the end keeps any body that
  // could legally contain "crc " unambiguous.
  const std::size_t pos = content.rfind("\ncrc ");
  if (pos == std::string::npos) {
    throw RuntimeFailure(std::string(what) +
                         ": missing crc footer (truncated file?)");
  }
  const std::string body = content.substr(0, pos + 1);
  const std::string footer = content.substr(pos + 1);
  // Exactly "crc " + 8 hex digits + newline; anything else is corruption.
  if (footer.size() != 13 || footer.compare(0, 4, "crc ") != 0 ||
      footer.back() != '\n') {
    throw RuntimeFailure(std::string(what) + ": malformed crc footer");
  }
  std::uint32_t stored = 0;
  if (!parse_crc_hex(std::string_view(footer).substr(4, 8), &stored)) {
    throw RuntimeFailure(std::string(what) + ": malformed crc value");
  }
  const std::uint32_t computed = crc32(body);
  if (computed != stored) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "%s: crc mismatch (stored %08x, computed %08x)", what,
                  stored, computed);
    throw RuntimeFailure(msg);
  }
  return body;
}

}  // namespace emdpa
