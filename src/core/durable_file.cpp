#include "core/durable_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>

#include "core/error.h"
#include "core/fault_injection.h"

namespace emdpa {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw RuntimeFailure(what + ": " + std::strerror(errno));
}

void fsync_parent_directory(const std::string& path) {
  fs::path parent = fs::path(path).parent_path();
  if (parent.empty()) parent = ".";
  const int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) fail_errno("fsync: cannot open directory '" + parent.string() + "'");
  const int synced = ::fsync(fd);
  const int error = errno;
  ::close(fd);
  errno = error;
  if (synced != 0) {
    fail_errno("fsync: fsync of directory '" + parent.string() + "' failed");
  }
}

}  // namespace

void write_fully(int fd, const std::string& bytes, const std::string& path) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("write to '" + path + "' failed");
    }
    done += static_cast<std::size_t>(n);
  }
}

void commit_file(const std::string& path, const std::string& bytes,
                 const std::string& previous) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  // A failed open created nothing (and `tmp` may be someone else's
  // directory), so there is nothing to remove.
  if (fd < 0) fail_errno("commit: cannot open '" + tmp + "' for writing");
  try {
    // The rename below publishes whatever the page cache holds, so the
    // data must be on stable storage first or a power loss can commit a
    // hole.
    write_fully(fd, bytes, tmp);
    if (::fsync(fd) != 0) fail_errno("commit: fsync of '" + tmp + "' failed");
  } catch (...) {
    ::close(fd);
    std::error_code ignored;
    fs::remove(tmp, ignored);
    throw;
  }
  ::close(fd);

  // A crash between the two renames leaves `previous` plus the complete
  // temp file, so at least one whole generation survives.
  std::error_code ec;
  if (!previous.empty() && fs::exists(path, ec)) fs::rename(path, previous, ec);
  if (!ec) fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    throw RuntimeFailure("commit: cannot rename '" + tmp + "' onto '" + path +
                         "': " + ec.message());
  }

  // The renames are atomic but not durable until the DIRECTORY is fsynced:
  // a power loss can roll the directory back while the data blocks survive.
  if (fault::injected("md.dir_fsync")) {
    throw RuntimeFailure("commit: injected EIO fsyncing directory of '" +
                         path + "'");
  }
  fsync_parent_directory(path);
}

std::string read_file(const std::string& path, const char* what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw RuntimeFailure(std::string(what) + ": cannot open '" + path + "'");
  }
  std::string bytes{std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>()};
  if (in.bad()) {
    throw RuntimeFailure(std::string(what) + ": read of '" + path +
                         "' failed");
  }
  return bytes;
}

}  // namespace emdpa
