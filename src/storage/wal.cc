#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "storage/crc32.h"
#include "storage/posix_io.h"
#include "storage/serde.h"

namespace factlog::storage {

namespace {

// A record larger than this is treated as corruption during recovery. The
// engine's facts are tiny; the bound only exists so a garbage length field
// can't drive a huge allocation.
constexpr uint32_t kMaxRecordLen = 64u << 20;

}  // namespace

WalWriter::~WalWriter() { Close(); }

Status WalWriter::Open(const std::string& path, uint64_t valid_bytes) {
  Close();
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) return Errno("open wal '" + path + "'");
  off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0) return Errno("lseek wal");
  if (static_cast<uint64_t>(size) > valid_bytes) {
    if (::ftruncate(fd_, static_cast<off_t>(valid_bytes)) != 0) {
      return Errno("ftruncate wal tail");
    }
    if (::lseek(fd_, static_cast<off_t>(valid_bytes), SEEK_SET) < 0) {
      return Errno("lseek wal");
    }
  }
  bytes_ = std::min<uint64_t>(static_cast<uint64_t>(size), valid_bytes);
  pending_ = 0;
  return Status::OK();
}

void WalWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  bytes_ = 0;
  pending_ = 0;
}

Status WalWriter::Append(WalRecordType type, const std::string& payload) {
  BinWriter frame;
  frame.U32(static_cast<uint32_t>(payload.size() + 1));
  frame.U8(static_cast<uint8_t>(type));
  frame.Bytes(payload.data(), payload.size());
  uint32_t crc = Crc32(frame.str().data() + 4, payload.size() + 1);
  frame.U32(crc);
  FACTLOG_RETURN_IF_ERROR(WriteAll(fd_, frame.str().data(), frame.size(), "write wal"));
  bytes_ += frame.size();
  ++pending_;
  return Status::OK();
}

Status WalWriter::Commit(uint64_t epoch) {
  FACTLOG_RETURN_IF_ERROR(
      Append(WalRecordType::kCommit, EncodeCommitRecord(epoch)));
  if (::fsync(fd_) != 0) return Errno("fsync wal");
  pending_ = 0;
  return Status::OK();
}

Status WalWriter::Reset() {
  if (::ftruncate(fd_, 0) != 0) return Errno("ftruncate wal");
  if (::lseek(fd_, 0, SEEK_SET) < 0) return Errno("lseek wal");
  if (::fsync(fd_) != 0) return Errno("fsync wal");
  bytes_ = 0;
  pending_ = 0;
  return Status::OK();
}

Status ReadWal(const std::string& path, std::vector<WalRecord>* records,
               uint64_t* valid_bytes) {
  records->clear();
  *valid_bytes = 0;
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::OK();  // no log yet: empty
    return Errno("open wal '" + path + "'");
  }
  std::string data;
  Status read = ReadAll(fd, &data, "read wal");
  ::close(fd);
  FACTLOG_RETURN_IF_ERROR(read);

  size_t pos = 0;
  while (pos + 4 <= data.size()) {
    uint32_t len;
    std::memcpy(&len, data.data() + pos, 4);
    if (len == 0 || len > kMaxRecordLen) break;
    if (pos + 4 + len + 4 > data.size()) break;  // truncated record
    const char* body = data.data() + pos + 4;
    uint32_t stored_crc;
    std::memcpy(&stored_crc, body + len, 4);
    if (Crc32(body, len) != stored_crc) break;  // torn or corrupted
    uint8_t type = static_cast<uint8_t>(body[0]);
    if (type < 1 || type > 3) break;
    records->push_back(WalRecord{static_cast<WalRecordType>(type),
                                 std::string(body + 1, len - 1)});
    pos += 4 + len + 4;
    *valid_bytes = pos;
  }
  return Status::OK();
}

}  // namespace factlog::storage
