// The one durable commit path for every file the engine replaces:
// checkpoints, journal segment rotations, trajectory-store frames,
// and batch completion markers.
//
// commit_file() replaces a file so that a kill or a power loss at any
// instant leaves either the old or the new bytes, complete, at `path`:
//
//   1. write `<path>.tmp` through one fd (short writes and EINTR retried),
//   2. fsync that fd, so the rename below cannot publish a hole,
//   3. if `previous` is given and `path` exists, rename `path` to `previous`,
//   4. rename `<path>.tmp` onto `path` (atomic within a filesystem),
//   5. fsync the containing directory, so the renames survive power loss.
//
// Any failure throws RuntimeFailure.  A failure in steps 1-4 removes the
// temp file; the last committed bytes stay at `path` (or at `previous`, if
// step 3 already moved them).  A failure in step 5 leaves the new bytes in
// place but unpromised across power loss, and the caller must treat the
// commit as failed.
//
// Fault-injection site (core/fault_injection.h): "md.dir_fsync" fails step
// 5 with an EIO, after the rename.  It fires on every durable commit, so its
// hit counter counts checkpoint, journal-rotation, store and marker commits
// alike.
#pragma once

#include <string>

namespace emdpa {

/// Durably replace `path` with `bytes` (steps 1-5 above).  With a non-empty
/// `previous`, the file `path` held is kept there as the prior generation.
void commit_file(const std::string& path, const std::string& bytes,
                 const std::string& previous = "");

/// Read a whole file.  Throws RuntimeFailure naming `what` when it cannot be
/// opened or read.
std::string read_file(const std::string& path, const char* what);

/// write() all of `bytes` to `fd`, retrying short writes and EINTR.  Throws
/// RuntimeFailure naming `path` on any other error.
void write_fully(int fd, const std::string& bytes, const std::string& path);

}  // namespace emdpa
