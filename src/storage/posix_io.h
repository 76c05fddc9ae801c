// POSIX file helpers shared by the storage layer. Every sequential write of
// the WAL and the checkpoint meta goes through WriteAll, and both files are
// read back whole through ReadAll; errors become kInternal statuses carrying
// the failing step and strerror(errno).

#ifndef FACTLOG_STORAGE_POSIX_IO_H_
#define FACTLOG_STORAGE_POSIX_IO_H_

#include <cstddef>
#include <string>

#include "common/status.h"

namespace factlog::storage {

/// kInternal "<what>: <strerror(errno)>". Call it right after the failing
/// system call, before anything else can overwrite errno.
Status Errno(const std::string& what);

/// Writes all `len` bytes of `data` at `fd`'s file position, retrying short
/// writes and EINTR. A failed write returns Errno(what); `fd` stays open.
Status WriteAll(int fd, const void* data, size_t len, const char* what);

/// Appends everything from `fd`'s file position to end of file to `out`,
/// retrying EINTR. A failed read returns Errno(what); `fd` stays open.
Status ReadAll(int fd, std::string* out, const char* what);

}  // namespace factlog::storage

#endif  // FACTLOG_STORAGE_POSIX_IO_H_
