// Sequential byte input over one trace file, shared by the three record
// readers (text lines, binary records, compact blocks).
//
// A regular file of 64 KiB or more is mmap'd read-only where the platform
// allows it: lines and length-prefixed entries come back as views into the
// mapping, with no copy and no per-byte stream call, and pages the reader
// has moved past are released, so memory stays bounded. Smaller files, and
// files that cannot be mapped (a pipe, a failed mmap), are read through an
// ifstream behind the same interface, keeping one line or entry resident.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>

namespace tir::trace {

class FileBytes {
 public:
  /// Throws tir::IoError when the file cannot be opened.
  explicit FileBytes(const std::filesystem::path& path);
  ~FileBytes();

  FileBytes(const FileBytes&) = delete;
  FileBytes& operator=(const FileBytes&) = delete;

  /// Next byte (0..255), or -1 at end of file.
  int get() {
    if (!mapped_) return get_slow();
    return pos_ < size_ ? static_cast<unsigned char>(data_[pos_++]) : -1;
  }

  /// The next `n` bytes, or nullopt when fewer remain. The view is valid
  /// until the next call.
  std::optional<std::string_view> take(std::uint64_t n);

  /// The next line without its '\n', or nullopt at end of file. The view is
  /// valid until the next call.
  std::optional<std::string_view> line();

  /// Current byte offset from the start of the file.
  std::uint64_t offset() const { return pos_; }

  /// Marks the current offset as the start of the item being read.
  void mark() {
    mark_ = pos_;
    // (After a backward seek the difference wraps and resets the window.)
    if (mapped_ && pos_ - released_ > kReleaseBytes) release_passed();
  }
  std::uint64_t marked() const { return mark_; }

  /// Throws tir::ParseError "<file>: byte <marked()>: <reason>".
  [[noreturn]] void fail(const std::string& reason) const;

  const std::filesystem::path& path() const { return path_; }

  /// Repositions to an absolute byte offset (clamped to the file size).
  void seek(std::uint64_t offset);

 private:
  // A mapped file's pages count towards the process's resident set once
  // touched. Pages behind the read position are released in windows of
  // this size (a multiple of every page size), so a reader streaming a
  // large file keeps at most two windows resident, not the whole file.
  static constexpr std::uint64_t kReleaseBytes = 4 << 20;

  int get_slow();
  void release_passed();

  std::filesystem::path path_;
  std::uint64_t size_ = 0;
  std::uint64_t pos_ = 0;
  std::uint64_t mark_ = 0;
  std::uint64_t released_ = 0;  // mapped pages below this are dropped
  const char* data_ = nullptr;  // the mapping, when mapped_
  bool mapped_ = false;
  std::ifstream in_;            // otherwise
  std::string buffer_;
};

/// "<file>: byte <offset>", the error location of the binary and compact
/// formats (text errors name the line instead).
std::string byte_location(const std::filesystem::path& path,
                          std::uint64_t offset);

/// The file's size in bytes, 0 when it cannot be read.
std::uint64_t file_size_or_zero(const std::filesystem::path& path);

/// True when the file starts with `magic` (format sniffing).
bool starts_with_magic(const std::filesystem::path& path,
                       std::string_view magic);

/// LEB128 varint, the integer encoding of the binary and compact formats.
/// Fails ("truncated varint", "varint overflow") through in.fail().
std::uint64_t read_varint(FileBytes& in);

/// Appends `value` to `out` as a LEB128 varint.
void append_varint(std::string& out, std::uint64_t value);

}  // namespace tir::trace
