#include "trace/text_format.hpp"

#include "support/error.hpp"
#include "support/strings.hpp"

namespace tir::trace {

namespace {
constexpr std::size_t kFlushThreshold = 1 << 20;  // 1 MiB buffer
}

TextTraceWriter::TextTraceWriter(const std::filesystem::path& path)
    : out_(path, std::ios::binary) {
  if (!out_) throw IoError("cannot create trace file '" + path.string() + "'");
  buffer_.reserve(kFlushThreshold + 256);
}

TextTraceWriter::~TextTraceWriter() {
  if (!closed_) close();
}

void TextTraceWriter::write(const Action& action) {
  buffer_ += to_line(action);
  buffer_ += '\n';
  ++actions_;
  if (buffer_.size() >= kFlushThreshold) flush();
}

void TextTraceWriter::flush() {
  out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  bytes_ += buffer_.size();
  buffer_.clear();
}

std::uint64_t TextTraceWriter::close() {
  if (closed_) return bytes_;
  flush();
  out_.close();
  closed_ = true;
  return bytes_;
}

TextTraceReader::TextTraceReader(const std::filesystem::path& path)
    : in_(path) {}

std::optional<Action> TextTraceReader::next() {
  for (;;) {
    in_.mark();
    const auto line = in_.line();
    if (!line) return std::nullopt;
    ++line_no_;
    const auto trimmed = str::trim(*line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    try {
      return parse_line(trimmed);
    } catch (const ParseError& e) {
      throw ParseError(where() + ": " + e.what());
    }
  }
}

std::string TextTraceReader::where() const {
  if (!lines_known_) return byte_location(in_.path(), in_.marked());
  return in_.path().string() + ":" + std::to_string(line_no_);
}

void TextTraceReader::seek(std::uint64_t offset) {
  in_.seek(offset);
  line_no_ = 0;
  lines_known_ = offset == 0;
}

std::vector<std::filesystem::path> write_split_traces(
    const std::filesystem::path& dir,
    const std::vector<std::vector<Action>>& per_process) {
  std::filesystem::create_directories(dir);
  std::vector<std::filesystem::path> paths;
  for (std::size_t p = 0; p < per_process.size(); ++p) {
    const auto path = dir / ("SG_process" + std::to_string(p) + ".trace");
    TextTraceWriter writer(path);
    for (const Action& a : per_process[p]) writer.write(a);
    writer.close();
    paths.push_back(path);
  }
  return paths;
}

void write_merged_trace(const std::filesystem::path& file,
                        const std::vector<std::vector<Action>>& per_process) {
  TextTraceWriter writer(file);
  for (const auto& actions : per_process)
    for (const Action& a : actions) writer.write(a);
  writer.close();
}

}  // namespace tir::trace
