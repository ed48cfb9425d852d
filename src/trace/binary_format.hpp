// Binary time-independent trace format.
//
// The paper lists "reduce the size of the traces, e.g., using a binary
// format" as future work; this is that extension. Layout:
//
//   magic "TIRB" | version u8 | default_pid varint+1 (0 = per-record pids)
//   records: tag u8 | [pid varint] | per-type fields
//
// The tag packs the ActionType (low 4 bits) and two flags marking whether
// each volume is stored as a LEB128 varint (integral values — the common
// case: byte counts and flop counts) or a raw 8-byte double. A compute
// record costs ~5 bytes against ~20 in text form.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "trace/action.hpp"
#include "trace/file_bytes.hpp"

namespace tir::trace {

constexpr char kBinaryMagic[4] = {'T', 'I', 'R', 'B'};
constexpr std::uint8_t kBinaryVersion = 1;

class BinaryTraceWriter {
 public:
  /// `pid` >= 0 factors the process id out of every record (per-process
  /// files); -1 stores it per record (merged files).
  explicit BinaryTraceWriter(const std::filesystem::path& path, int pid = -1);
  ~BinaryTraceWriter();

  BinaryTraceWriter(const BinaryTraceWriter&) = delete;
  BinaryTraceWriter& operator=(const BinaryTraceWriter&) = delete;

  void write(const Action& action);
  std::uint64_t close();

 private:
  void put_double(double value);
  void flush();  ///< writes out the buffer

  std::ofstream out_;
  std::string buffer_;
  int default_pid_;
  std::uint64_t bytes_ = 0;
  bool closed_ = false;
};

/// The binary format's record reader. Every binary decode (whole file,
/// index pass, streaming cursor) reads through it.
class BinaryTraceReader {
 public:
  /// Reads the header. Throws tir::IoError (unreadable) or tir::ParseError
  /// (bad magic, version or header pid).
  explicit BinaryTraceReader(const std::filesystem::path& path);

  /// Next action, or nullopt at end of file. Throws tir::ParseError
  /// "<file>: byte <offset>: <reason>" naming the record's first byte.
  std::optional<Action> next();

  /// Byte offset of the record next() last returned or rejected.
  std::uint64_t record_offset() const { return in_.marked(); }

  /// "<file>: byte <offset>" of that record.
  std::string where() const {
    return byte_location(in_.path(), in_.marked());
  }

  /// Repositions to a record_offset() taken in an earlier pass.
  void seek(std::uint64_t offset) { in_.seek(offset); }

 private:
  int get_int(const char* field);  ///< a varint that must fit an int
  double get_volume(bool as_double);

  FileBytes in_;
  int default_pid_ = -1;
};

/// True when the file starts with the binary-trace magic.
bool is_binary_trace(const std::filesystem::path& path);

/// Converts a whole trace between formats; returns output size in bytes.
std::uint64_t text_to_binary(const std::filesystem::path& text_in,
                             const std::filesystem::path& binary_out);
std::uint64_t binary_to_text(const std::filesystem::path& binary_in,
                             const std::filesystem::path& text_out);

}  // namespace tir::trace
