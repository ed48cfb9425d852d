#include "trace/codec.hpp"

#include "support/error.hpp"
#include "trace/binary_format.hpp"
#include "trace/compact.hpp"
#include "trace/text_format.hpp"

namespace tir::trace {

namespace {

class TextCodec final : public TraceCodec {
 public:
  std::string_view name() const override { return "text"; }
  bool sniff(const std::filesystem::path&) const override { return true; }
  std::uint64_t encode(const std::filesystem::path& path,
                       const std::vector<Action>& actions,
                       int /*pid*/) const override {
    TextTraceWriter writer(path);
    for (const Action& a : actions) writer.write(a);
    return writer.close();
  }
};

class BinaryCodec final : public TraceCodec {
 public:
  std::string_view name() const override { return "binary"; }
  bool sniff(const std::filesystem::path& path) const override {
    return is_binary_trace(path);
  }
  std::uint64_t encode(const std::filesystem::path& path,
                       const std::vector<Action>& actions,
                       int pid) const override {
    BinaryTraceWriter writer(path, pid);
    for (const Action& a : actions) writer.write(a);
    return writer.close();
  }
};

class CompactCodec final : public TraceCodec {
 public:
  std::string_view name() const override { return "compact"; }
  bool sniff(const std::filesystem::path& path) const override {
    return is_compact_trace(path);
  }
  std::uint64_t encode(const std::filesystem::path& path,
                       const std::vector<Action>& actions,
                       int pid) const override {
    return write_compact(path, compact_actions(actions), pid);
  }
};

const TextCodec g_text;
const BinaryCodec g_binary;
const CompactCodec g_compact;

}  // namespace

const std::vector<const TraceCodec*>& all_codecs() {
  // Magic-bearing formats first; text accepts anything and must come last.
  static const std::vector<const TraceCodec*> codecs = {&g_binary, &g_compact,
                                                        &g_text};
  return codecs;
}

const TraceCodec& codec_for_file(const std::filesystem::path& path) {
  for (const TraceCodec* codec : all_codecs())
    if (codec->sniff(path)) return *codec;
  return g_text;  // unreachable: the text codec sniffs true
}

const TraceCodec& codec_by_name(std::string_view name) {
  for (const TraceCodec* codec : all_codecs())
    if (codec->name() == name) return *codec;
  throw Error("unknown trace codec '" + std::string(name) + "'");
}

}  // namespace tir::trace
