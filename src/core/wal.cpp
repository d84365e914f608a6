#include "core/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string_view>

#include "core/crc32.h"
#include "core/durable_file.h"
#include "core/error.h"

namespace emdpa {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw RuntimeFailure(what + ": " + std::strerror(errno));
}

constexpr char kCrcMarker[] = " #crc=";
constexpr std::size_t kCrcMarkerLen = sizeof(kCrcMarker) - 1;

/// Parse one framed line back to its payload; false when the frame is
/// malformed or the CRC does not verify (a torn or corrupted record).
bool unframe(const std::string& line, std::string* payload) {
  const std::size_t marker = line.rfind(kCrcMarker);
  if (marker == std::string::npos) return false;
  std::uint32_t stored = 0;
  const bool framed = parse_crc_hex(
      std::string_view(line).substr(marker + kCrcMarkerLen), &stored);
  if (!framed || crc32(line.data(), marker) != stored) return false;
  *payload = line.substr(0, marker);
  return true;
}

std::string framed_line(const std::string& payload) {
  EMDPA_REQUIRE(payload.find('\n') == std::string::npos,
                "wal: record payloads are single-line");
  return wal_frame(payload) + "\n";
}

}  // namespace

std::string wal_frame(const std::string& payload) {
  return payload + kCrcMarker + crc_hex(crc32(payload));
}

WalReplay read_wal(const std::string& path) {
  WalReplay replay;
  std::error_code ec;
  if (!fs::exists(path, ec)) return replay;  // missing = empty log
  const std::string content = read_file(path, "wal");

  std::size_t pos = 0;
  while (pos < content.size()) {
    const std::size_t eol = content.find('\n', pos);
    // A record is only committed once its newline landed; anything after
    // the last newline — and anything that fails to verify — is the torn
    // tail a mid-append kill leaves behind.
    if (eol == std::string::npos) break;
    std::string payload;
    if (!unframe(content.substr(pos, eol - pos), &payload)) break;
    replay.records.push_back(std::move(payload));
    pos = eol + 1;
  }
  if (pos < content.size()) {
    replay.truncated = true;
    replay.dropped_bytes = content.size() - pos;
  }
  return replay;
}

WalWriter::WalWriter(std::string path) : path_(std::move(path)) {
  EMDPA_REQUIRE(!path_.empty(), "wal: path must not be empty");
  open_append();
}

WalWriter::~WalWriter() { close_fd(); }

void WalWriter::open_append() {
  close_fd();
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) fail_errno("wal: cannot open '" + path_ + "' for append");
}

void WalWriter::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void WalWriter::append(const std::string& payload) {
  write_fully(fd_, framed_line(payload), path_);
  if (::fsync(fd_) != 0) fail_errno("wal: fsync of '" + path_ + "' failed");
  ++appended_;
}

void WalWriter::rewrite(const std::vector<std::string>& records) {
  std::string segment;
  for (const std::string& payload : records) segment += framed_line(payload);
  // The append fd must follow the file at `path_` whether or not the commit
  // renamed a new one there: a directory-fsync failure comes after the
  // rename, and an fd left on the unlinked old segment would lose every
  // later append.
  try {
    commit_file(path_, segment);
  } catch (...) {
    open_append();
    throw;
  }
  open_append();
}

std::uint64_t WalWriter::size_bytes() const {
  std::error_code ec;
  const auto size = fs::file_size(path_, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

}  // namespace emdpa
