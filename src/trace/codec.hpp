// Unified codec interface over the three on-disk trace formats.
//
// Each format is one stateless singleton with sniff (magic detection) and
// encode (actions -> file); decoding goes through the format's record
// reader and the one scan behind read_all() and TraceSet
// (trace/stream.hpp), so a format has exactly one decoder.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string_view>
#include <vector>

#include "trace/action.hpp"

namespace tir::trace {

class TraceCodec {
 public:
  virtual ~TraceCodec() = default;

  /// Stable identifier: "text", "binary" or "compact".
  virtual std::string_view name() const = 0;

  /// True when the file's leading bytes identify this format. The text
  /// codec matches anything (it is probed last).
  virtual bool sniff(const std::filesystem::path& path) const = 0;

  /// Writes `actions` to `path`. `pid` >= 0 marks a per-process file where
  /// the format can factor the process id out; -1 keeps per-record pids
  /// (merged files). Returns bytes written.
  virtual std::uint64_t encode(const std::filesystem::path& path,
                               const std::vector<Action>& actions,
                               int pid) const = 0;
};

/// Every registered codec, in sniffing order (text last).
const std::vector<const TraceCodec*>& all_codecs();

/// Codec detected from the file's magic bytes (text when nothing matches).
const TraceCodec& codec_for_file(const std::filesystem::path& path);

/// Codec by identifier; throws tir::Error on an unknown name.
const TraceCodec& codec_by_name(std::string_view name);

}  // namespace tir::trace
