#include "storage/pager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "storage/posix_io.h"

namespace factlog::storage {

PageFile::~PageFile() { Close(); }

Status PageFile::Open(const std::string& path) {
  Close();
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) return Errno("open '" + path + "'");
  off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0) return Errno("lseek '" + path + "'");
  // Existing pages beyond the checkpoint's num_pages are reclaimed when
  // RestoreAllocator runs; until then the allocator starts at the file size
  // so nothing live gets overwritten.
  num_pages_ = static_cast<PageId>(size / kPageSize);
  free_.clear();
  pending_free_.clear();
  return Status::OK();
}

void PageFile::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

PageId PageFile::Allocate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_.empty()) {
    PageId p = free_.back();
    free_.pop_back();
    return p;
  }
  return num_pages_++;
}

void PageFile::FreePending(PageId page) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_free_.push_back(page);
}

void PageFile::PublishPendingFrees() {
  std::lock_guard<std::mutex> lock(mu_);
  free_.insert(free_.end(), pending_free_.begin(), pending_free_.end());
  pending_free_.clear();
}

Status PageFile::ReadPage(PageId page, uint8_t* buf) const {
  off_t off = static_cast<off_t>(page) * kPageSize;
  size_t done = 0;
  while (done < kPageSize) {
    ssize_t n = ::pread(fd_, buf + done, kPageSize - done, off + done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pread page " + std::to_string(page));
    }
    if (n == 0) {
      // Reading past the current file end: an allocated-but-never-written
      // page. Treat as zeroes (an empty, PageInit-compatible page).
      std::memset(buf + done, 0, kPageSize - done);
      return Status::OK();
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status PageFile::WritePage(PageId page, const uint8_t* buf) {
  off_t off = static_cast<off_t>(page) * kPageSize;
  size_t done = 0;
  while (done < kPageSize) {
    ssize_t n = ::pwrite(fd_, buf + done, kPageSize - done, off + done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pwrite page " + std::to_string(page));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status PageFile::Sync() {
  if (::fsync(fd_) != 0) return Errno("fsync page file");
  return Status::OK();
}

PageId PageFile::num_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_pages_;
}

std::vector<PageId> PageFile::free_list() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_;
}

void PageFile::RestoreAllocator(PageId num_pages,
                                std::vector<PageId> free_list) {
  std::lock_guard<std::mutex> lock(mu_);
  // Pages the file holds beyond the checkpoint's page count were allocated
  // after it (and lost with the crash); hand them back as free.
  for (PageId p = num_pages; p < num_pages_; ++p) free_list.push_back(p);
  num_pages_ = std::max(num_pages_, num_pages);
  free_ = std::move(free_list);
  pending_free_.clear();
}

}  // namespace factlog::storage
