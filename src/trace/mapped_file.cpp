#include "trace/mapped_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace g10::trace {

namespace {

std::string errno_message(const std::string& path, const char* action) {
  return std::string(action) + " " + path + ": " + std::strerror(errno);
}

}  // namespace

MappedFile::MappedFile(MappedFile&& other) noexcept {
  *this = std::move(other);
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this == &other) return *this;
  reset();
  buffer_ = std::move(other.buffer_);
  // In buffered mode the view must track our own buffer: for tiny files
  // std::string keeps the bytes in its inline (SSO) storage, so the
  // moved-from data_ pointer would dangle once `other` is destroyed.
  data_ = other.mapped_ ? other.data_
                        : (buffer_.empty() ? nullptr : buffer_.data());
  size_ = other.size_;
  opened_ = other.opened_;
  mapped_ = other.mapped_;
  other.data_ = nullptr;
  other.size_ = 0;
  other.opened_ = false;
  other.mapped_ = false;
  return *this;
}

void MappedFile::reset() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  opened_ = false;
  mapped_ = false;
  buffer_.clear();
}

std::optional<std::string> MappedFile::open(const std::string& path,
                                            MappedFile& out) {
  out.reset();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return errno_message(path, "cannot open");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const std::string error = errno_message(path, "cannot stat");
    ::close(fd);
    return error;
  }
  const bool mappable = S_ISREG(st.st_mode) && st.st_size > 0;
  if (mappable) {
    const auto size = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      ::close(fd);
      out.data_ = static_cast<const char*>(map);
      out.size_ = size;
      out.opened_ = true;
      out.mapped_ = true;
      return std::nullopt;
    }
  }

  // Read to EOF: the size a pipe, a FIFO or a procfs file reports says
  // nothing about how many bytes it delivers.
  constexpr std::size_t kReadChunk = 1 << 16;
  std::size_t total = 0;
  out.buffer_.resize(mappable ? static_cast<std::size_t>(st.st_size) + 1
                             : kReadChunk);
  for (;;) {
    if (total == out.buffer_.size()) out.buffer_.resize(2 * total);
    const ssize_t n = ::read(fd, out.buffer_.data() + total,
                             out.buffer_.size() - total);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string error = errno_message(path, "cannot read");
      ::close(fd);
      out.reset();
      return error;
    }
    if (n == 0) break;
    total += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.buffer_.resize(total);
  out.data_ = out.buffer_.data();
  out.size_ = total;
  out.opened_ = true;
  return std::nullopt;
}

}  // namespace g10::trace
