// Copyright 2026 The QPGC Authors.

#include "storage/mmap_file.h"

#include <cerrno>
#include <cstring>
#include <utility>

#if defined(_WIN32)
// The mmap tier is POSIX-only. Every artifact load opens through it
// (storage/mmap_snapshot.h), so on Windows they all return IoError.
#else
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace qpgc::storage {

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    this->~MmapFile();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

MmapFile::~MmapFile() {
#if !defined(_WIN32)
  if (data_ != nullptr) ::munmap(data_, size_);
#endif
  data_ = nullptr;
  size_ = 0;
}

Result<MmapFile> MmapFile::Open(const std::string& path) {
#if defined(_WIN32)
  return Status::IoError("mmap is unsupported on this platform: " + path);
#else
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("cannot stat " + path + ": " + err);
  }
  MmapFile file;
  file.size_ = static_cast<size_t>(st.st_size);
  if (file.size_ > 0) {
    void* data = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (data == MAP_FAILED) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::IoError("cannot mmap " + path + ": " + err);
    }
    file.data_ = data;
  }
  ::close(fd);  // the mapping keeps the file alive
  return file;
#endif
}

}  // namespace qpgc::storage
