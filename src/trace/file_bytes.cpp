#include "trace/file_bytes.hpp"

#include <algorithm>
#include <cstring>

#include "support/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define TIR_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace tir::trace {

namespace {

// Below this size a file is read through the stream: for a file of a few
// pages, mapping and unmapping it costs more than reading it (a decode of
// small compact traces ran twice as long mapped).
constexpr std::uint64_t kMapMinBytes = 64 << 10;

}  // namespace

FileBytes::FileBytes(const std::filesystem::path& path) : path_(path) {
#if TIR_HAVE_MMAP
  // stat first: opening a pipe only to find it cannot be mapped would
  // consume its writer.
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode) &&
      static_cast<std::uint64_t>(st.st_size) >= kMapMinBytes) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      void* p = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                       PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (p != MAP_FAILED) {
        data_ = static_cast<const char*>(p);
        size_ = static_cast<std::uint64_t>(st.st_size);
        mapped_ = true;
        return;
      }
    }
  }
#endif
  in_.open(path, std::ios::binary);
  if (!in_) throw IoError("cannot open trace file '" + path.string() + "'");
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  size_ = ec ? UINT64_MAX : static_cast<std::uint64_t>(size);
}

FileBytes::~FileBytes() {
#if TIR_HAVE_MMAP
  if (mapped_) ::munmap(const_cast<char*>(data_), static_cast<std::size_t>(size_));
#endif
}

void FileBytes::fail(const std::string& reason) const {
  throw ParseError(byte_location(path_, mark_) + ": " + reason);
}

void FileBytes::release_passed() {
  const std::uint64_t end = pos_ / kReleaseBytes * kReleaseBytes;
#if TIR_HAVE_MMAP
  // The mapping is private and never written: a released page that is read
  // again is faulted back in from the file.
  if (end > released_)
    ::madvise(const_cast<char*>(data_) + released_,
              static_cast<std::size_t>(end - released_), MADV_DONTNEED);
#endif
  released_ = end;
}

int FileBytes::get_slow() {
  const int byte = in_.get();
  if (byte == std::char_traits<char>::eof()) return -1;
  ++pos_;
  return byte;
}

std::optional<std::string_view> FileBytes::take(std::uint64_t n) {
  if (n > size_ - pos_) return std::nullopt;
  if (mapped_) {
    const std::string_view view(data_ + pos_, static_cast<std::size_t>(n));
    pos_ += n;
    return view;
  }
  buffer_.resize(static_cast<std::size_t>(n));
  in_.read(buffer_.data(), static_cast<std::streamsize>(n));
  if (static_cast<std::uint64_t>(in_.gcount()) != n) return std::nullopt;
  pos_ += n;
  return std::string_view(buffer_);
}

std::optional<std::string_view> FileBytes::line() {
  if (mapped_) {
    if (pos_ >= size_) return std::nullopt;
    const char* start = data_ + pos_;
    const auto left = static_cast<std::size_t>(size_ - pos_);
    const auto* nl = static_cast<const char*>(std::memchr(start, '\n', left));
    const std::size_t len = nl ? static_cast<std::size_t>(nl - start) : left;
    pos_ += len + (nl ? 1 : 0);
    return std::string_view(start, len);
  }
  if (!std::getline(in_, buffer_)) return std::nullopt;
  pos_ += buffer_.size() + (in_.eof() ? 0 : 1);  // the '\n' getline ate
  return std::string_view(buffer_);
}

void FileBytes::seek(std::uint64_t offset) {
  pos_ = std::min(offset, size_);
  if (!mapped_) {
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(pos_));
  }
}

std::uint64_t file_size_or_zero(const std::filesystem::path& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

bool starts_with_magic(const std::filesystem::path& path,
                       std::string_view magic) {
  std::ifstream in(path, std::ios::binary);
  std::string head(magic.size(), '\0');
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  return in && head == magic;
}

std::string byte_location(const std::filesystem::path& path,
                          std::uint64_t offset) {
  return path.string() + ": byte " + std::to_string(offset);
}

std::uint64_t read_varint(FileBytes& in) {
  std::uint64_t value = 0;
  for (int shift = 0;; shift += 7) {
    const int byte = in.get();
    if (byte < 0) in.fail("truncated varint");
    // The tenth byte holds bit 63 only; anything more does not fit 64 bits.
    if (shift == 63 && byte > 1) in.fail("varint overflow");
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
  }
}

void append_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

}  // namespace tir::trace
