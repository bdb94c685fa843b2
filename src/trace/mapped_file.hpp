// Read-only file views: mmap-backed demand paging with a buffered-read
// fallback.
//
// The binary trace reader wants the whole file addressable without reading
// it: the OS pages in only the blocks actually decoded, so a cold filtered
// analysis of a huge `.g10t` touches kilobytes, not gigabytes. mmap gives
// exactly that. The fallback mode (Options::use_mmap = false) reads the
// file into an owned buffer instead — used on platforms or filesystems
// where mmap is unavailable, and by the identity tests that pin both paths
// to byte-equal views.
//
// A mapped view of a file that another process truncates underneath us
// would fault on access; trace files are written once and never rewritten
// in place (g10_convert writes to the final name via a complete stream), so
// this is acceptable for the tool set. The reader still validates the file
// size against the header before trusting any offset.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace g10::trace {

class MappedFile {
 public:
  struct Options {
    /// false = slurp into an owned buffer instead of mapping.
    bool use_mmap = true;
  };

  MappedFile() = default;
  ~MappedFile() { reset(); }

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Opens and maps (or reads) `path`. On failure returns an error message
  /// including the filename and the errno string.
  static std::optional<std::string> open(const std::string& path,
                                         const Options& options,
                                         MappedFile& out);

  bool is_open() const { return opened_; }
  bool is_mapped() const { return mapped_; }
  std::string_view bytes() const { return {data_, size_}; }
  std::size_t size() const { return size_; }

 private:
  void reset();

  const char* data_ = nullptr;
  std::size_t size_ = 0;
  bool opened_ = false;
  bool mapped_ = false;
  std::string buffer_;  ///< owns the bytes in buffered mode
};

}  // namespace g10::trace
