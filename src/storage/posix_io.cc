#include "storage/posix_io.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace factlog::storage {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

Status WriteAll(int fd, const void* data, size_t len, const char* what) {
  const char* p = static_cast<const char*>(data);
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::write(fd, p + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno(what);
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadAll(int fd, std::string* out, const char* what) {
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno(what);
    }
    if (n == 0) return Status::OK();
    out->append(buf, static_cast<size_t>(n));
  }
}

}  // namespace factlog::storage
