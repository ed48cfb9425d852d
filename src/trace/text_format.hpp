// Text trace I/O: buffered per-process writers and the record reader.
//
// The canonical layout is one file per process (SG_process<i>.trace), as
// the paper recommends for large traces; a merged single-file layout (the
// paper's Figure 1 right-hand side) is supported as well.
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

/// Streams actions into a text trace file with an internal buffer (the
/// acquisition path writes tens of millions of lines).
class TextTraceWriter {
 public:
  explicit TextTraceWriter(const std::filesystem::path& path);
  ~TextTraceWriter();

  TextTraceWriter(const TextTraceWriter&) = delete;
  TextTraceWriter& operator=(const TextTraceWriter&) = delete;

  void write(const Action& action);
  /// Flushes and closes; returns the number of bytes written.
  std::uint64_t close();

  std::uint64_t actions_written() const { return actions_; }

 private:
  void flush();  ///< writes out the buffer

  std::ofstream out_;
  std::string buffer_;
  std::uint64_t bytes_ = 0;
  std::uint64_t actions_ = 0;
  bool closed_ = false;
};

/// The text format's record reader: pulls actions out of one text trace
/// file, skipping blank lines and '#' comments. Every text decode (whole
/// file, index pass, streaming cursor) reads through it.
class TextTraceReader {
 public:
  /// Throws tir::IoError when the file cannot be opened.
  explicit TextTraceReader(const std::filesystem::path& path);

  /// Next action, or nullopt at end of file. Throws tir::ParseError
  /// "<file>:<line>: <reason>".
  std::optional<Action> next();

  /// Byte offset of the line next() last returned or rejected.
  std::uint64_t record_offset() const { return in_.marked(); }

  /// "<file>:<line>" of that line; "<file>: byte <offset>" after a seek,
  /// which loses count of the lines.
  std::string where() const;

  /// Repositions to a record_offset() taken in an earlier pass.
  void seek(std::uint64_t offset);

 private:
  FileBytes in_;
  std::uint64_t line_no_ = 0;
  bool lines_known_ = true;  ///< false after a seek past the first line
};

/// Writes one file per process under `dir` using the canonical
/// SG_process<i>.trace names. Returns the created paths.
std::vector<std::filesystem::path> write_split_traces(
    const std::filesystem::path& dir,
    const std::vector<std::vector<Action>>& per_process);

/// Writes everything into one merged file (process order preserved).
void write_merged_trace(const std::filesystem::path& file,
                        const std::vector<std::vector<Action>>& per_process);

}  // namespace tir::trace
