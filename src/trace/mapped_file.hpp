// Read-only file views: mmap for regular files, read-to-EOF for the rest.
//
// The binary trace reader wants the whole file addressable without reading
// it: the OS pages in only the blocks actually decoded, so a cold filtered
// analysis of a huge `.g10t` touches kilobytes, not gigabytes. mmap gives
// exactly that for a regular, non-empty file. Everything else — pipes,
// FIFOs, process substitution (`<(zcat run.log.gz)`), files that report
// size 0, and a regular file whose mmap fails — is read to EOF into an
// owned buffer, with no assumption about its size. There is no switch
// between the two: the kind of file decides.
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
  MappedFile() = default;
  ~MappedFile() { reset(); }

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` when it is a regular, non-empty file, else reads it to
  /// EOF. On failure returns an error message including the filename and
  /// the errno string.
  static std::optional<std::string> open(const std::string& path,
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
  std::string buffer_;  ///< owns the bytes of a file that was read
};

}  // namespace g10::trace
