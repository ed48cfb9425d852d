#include "trace/stream.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <string>

#include "support/error.hpp"
#include "trace/binary_format.hpp"
#include "trace/codec.hpp"
#include "trace/text_format.hpp"

namespace tir::trace {

namespace {

/// A scan's per-file state: the decode mode's error policy, the
/// merged layout's pid rule and the SalvageInfo they produce.
class Pass {
 public:
  Pass(const std::filesystem::path& path, DecodeMode mode, int merged_nprocs)
      : strict_(mode == DecodeMode::strict), nprocs_(merged_nprocs) {
    info_.bytes_total = file_size_or_zero(path);
  }

  bool strict() const { return strict_; }

  /// Whether `a` goes to the consumer. In the merged layout the first pid
  /// outside [0, nprocs) ends distribution; its error waits for the end of
  /// the file, so that a parse error anywhere outranks it (strict mode
  /// throws that instead, lenient mode reports it instead).
  template <typename Where>
  bool distribute(const Action& a, const Where& where) {
    if (!distributing_) return false;
    if (nprocs_ < 0 || (a.pid >= 0 && a.pid < nprocs_)) return true;
    distributing_ = false;
    wild_error_ = where() + ": action for process " + std::to_string(a.pid) +
                  " but nprocs is " + std::to_string(nprocs_);
    return false;
  }

  /// Lenient outcome of a decode error: the clean prefix is `consumed`
  /// bytes long.
  SalvageInfo fail(const Error& e, std::uint64_t consumed) {
    info_.complete = false;
    info_.error = e.what();
    info_.bytes_consumed = std::min(consumed, info_.bytes_total);
    return info_;
  }

  /// Outcome of a pass that read the whole file.
  SalvageInfo finish() {
    if (!wild_error_.empty()) {
      if (strict_) throw ParseError(wild_error_);
      info_.complete = false;
      info_.error = wild_error_;
    }
    info_.bytes_consumed = info_.bytes_total;
    return info_;
  }

 private:
  bool strict_;
  int nprocs_;
  bool distributing_ = true;
  std::string wild_error_;
  SalvageInfo info_;
};

/// Opens the reader and calls `step(reader)` until it returns false. A
/// decode error ends the pass: strict mode rethrows it, lenient mode keeps
/// what came before the record (or compact block) the reader rejected.
template <typename Reader, typename Step>
SalvageInfo run_pass(const std::filesystem::path& path, Pass& pass,
                     Step step) {
  std::optional<Reader> reader;
  try {
    reader.emplace(path);
    while (step(*reader)) {
    }
  } catch (const Error& e) {
    if (pass.strict()) throw;
    return pass.fail(e, reader ? reader->record_offset() : 0);
  }
  return pass.finish();
}

/// The scan: one pass over any format's reader into `sink`.
template <typename Sink>
SalvageInfo scan(const std::filesystem::path& path, DecodeMode mode,
                 int merged_nprocs, Sink& sink) {
  Pass pass(path, mode, merged_nprocs);
  const std::string_view format = codec_for_file(path).name();
  if (format == "compact") {
    // In the merged layout a wild pid is found in a body's first
    // repetition, where the expansion meets it first.
    std::vector<Action> body;
    return run_pass<CompactTraceReader>(
        path, pass, [&](CompactTraceReader& reader) {
          const auto block = reader.next_block();
          if (!block) return false;
          reader.read_body(*block, body);
          if (block->repeat == 0 || body.empty()) return true;
          const auto where = [&] { return reader.where(); };
          const auto wild = std::find_if_not(
              body.begin(), body.end(),
              [&](const Action& a) { return pass.distribute(a, where); });
          const auto kept = static_cast<std::uint64_t>(wild - body.begin());
          if (wild == body.end())
            sink.block(*block, body);
          else if (kept > 0)
            sink.block(CompactBlock{block->offset, 1, kept},
                       std::span<const Action>(body.data(), kept));
          return true;
        });
  }
  const auto records = [&](auto& reader) {
    const auto a = reader.next();
    if (!a) return false;
    if (pass.distribute(*a, [&] { return reader.where(); }))
      sink.record(*a, reader.record_offset());
    return true;
  };
  if (format == "binary")
    return run_pass<BinaryTraceReader>(path, pass, records);
  return run_pass<TextTraceReader>(path, pass, records);
}

/// Materialising consumer: appends each action to its process's vector.
/// Compact blocks are kept as a program and expanded once at the end, so a
/// split file's stream is reserved at its exact expanded size.
struct Materialise {
  std::vector<std::vector<Action>>& out;
  CompactProgram program;

  std::vector<Action>& stream(const Action& a) {
    return out.size() == 1 ? out[0] : out[static_cast<std::size_t>(a.pid)];
  }
  void record(const Action& a, std::uint64_t /*offset*/) {
    stream(a).push_back(a);
  }
  void block(const CompactBlock& b, std::span<const Action> body) {
    program.push_back(LoopBlock{b.repeat, {body.begin(), body.end()}});
  }
  void expand_program() {
    if (program.empty()) return;
    std::vector<Action> all = expand(program);
    if (out.size() == 1) {
      out[0] = std::move(all);
      return;
    }
    for (const Action& a : all) stream(a).push_back(a);
  }
};

/// Thrown by the indexing consumer when a file needs more segments than
/// the cap allows.
struct Unstreamable {};

void add_scaled(TraceStats& total, const TraceStats& body,
                std::uint32_t count) {
  total.actions += body.actions * count;
  total.computes += body.computes * count;
  total.p2p_messages += body.p2p_messages * count;
  total.collectives += body.collectives * count;
  total.total_flops += body.total_flops * count;
  total.total_bytes_sent += body.total_bytes_sent * count;
}

/// Indexing consumer: per-pid segments (split files collapse into one run,
/// pids kept verbatim) or compact blocks, plus counts and statistics.
struct Indexer {
  StreamIndex& idx;
  bool merged;

  void record(const Action& a, std::uint64_t offset) {
    const int key = merged ? a.pid : -1;
    if (idx.segments.empty() || idx.segments.back().pid != key) {
      if (idx.segments.size() >= kMaxStreamSegments) throw Unstreamable{};
      idx.segments.push_back({key, offset, 0});
    }
    ++idx.segments.back().count;
    ++idx.total_actions;
    idx.stats.account(a);
  }
  void block(const CompactBlock& b, std::span<const Action> body) {
    idx.blocks.push_back(b);
    TraceStats body_stats;
    for (const Action& a : body) body_stats.account(a);
    add_scaled(idx.stats, body_stats, b.repeat);
    idx.total_actions += static_cast<std::uint64_t>(b.repeat) * body.size();
  }
};

// ---------------------------------------------------------------------------
// Cursors

/// Text and binary cursor: the format's reader, seeked to each of the pid's
/// segments in turn.
template <typename Reader>
class SegmentSource final : public ActionSource {
 public:
  SegmentSource(std::shared_ptr<const StreamIndex> index, int pid_filter,
                std::shared_ptr<void> owner)
      : owner_(std::move(owner)),
        index_(std::move(index)),
        pid_filter_(pid_filter) {}

  std::optional<Action> next() override {
    while (remaining_ == 0) {
      const auto& segments = index_->segments;
      while (seg_ < segments.size() &&
             !(pid_filter_ < 0 || segments[seg_].pid == pid_filter_))
        ++seg_;
      if (seg_ >= segments.size()) return std::nullopt;
      if (!reader_) reader_.emplace(index_->path);
      reader_->seek(segments[seg_].offset);
      remaining_ = segments[seg_].count;
      ++seg_;
    }
    --remaining_;
    return reader_->next();
  }

 private:
  std::shared_ptr<void> owner_;
  std::shared_ptr<const StreamIndex> index_;
  int pid_filter_;
  std::optional<Reader> reader_;
  std::size_t seg_ = 0;
  std::uint64_t remaining_ = 0;
};

/// Compact cursor: loads one loop body at a time (re-parsed from its block
/// offset), then replays it from memory `repeat` times. Peak memory is the
/// largest body, not the expansion — a 10^8-action loop costs its body.
class CompactBlockSource final : public ActionSource {
 public:
  CompactBlockSource(std::shared_ptr<const StreamIndex> index,
                     std::shared_ptr<void> owner)
      : owner_(std::move(owner)), index_(std::move(index)) {}

  std::optional<Action> next() override {
    for (;;) {
      if (repeats_left_ > 0) {
        if (offset_ < body_.size()) return body_[offset_++];
        offset_ = 0;
        if (--repeats_left_ > 0) return body_[offset_++];
      }
      if (block_ >= index_->blocks.size()) return std::nullopt;
      const CompactBlock& blk = index_->blocks[block_++];
      if (!reader_) reader_.emplace(index_->path);
      reader_->reread(blk, body_);
      repeats_left_ = blk.repeat;
      offset_ = 0;
    }
  }

 private:
  std::shared_ptr<void> owner_;
  std::shared_ptr<const StreamIndex> index_;
  std::optional<CompactTraceReader> reader_;
  std::size_t block_ = 0;
  std::vector<Action> body_;
  std::uint32_t repeats_left_ = 0;
  std::size_t offset_ = 0;
};

}  // namespace

SalvageInfo materialise_file(const std::filesystem::path& path,
                             DecodeMode mode, int merged_nprocs,
                             std::vector<std::vector<Action>>& out) {
  out.assign(merged_nprocs < 0 ? 1 : static_cast<std::size_t>(merged_nprocs),
             {});
  Materialise sink{out, {}};
  const SalvageInfo info = scan(path, mode, merged_nprocs, sink);
  sink.expand_program();
  return info;
}

std::vector<Action> read_all(const std::filesystem::path& file,
                             int pid_filter) {
  std::vector<std::vector<Action>> out;
  materialise_file(file, DecodeMode::strict, -1, out);
  std::vector<Action>& actions = out[0];
  if (pid_filter >= 0)
    std::erase_if(actions,
                  [&](const Action& a) { return a.pid != pid_filter; });
  return std::move(actions);
}

std::uint64_t StreamIndex::action_count(int pid) const {
  if (kind == Kind::compact) return total_actions;
  std::uint64_t n = 0;
  for (const Segment& s : segments)
    if (s.pid < 0 || s.pid == pid) n += s.count;
  return n;
}

std::uint64_t StreamIndex::resident_bytes() const {
  return sizeof(StreamIndex) + segments.capacity() * sizeof(Segment) +
         blocks.capacity() * sizeof(CompactBlock) +
         path.native().capacity() + salvage.error.capacity();
}

StreamIndex build_stream_index(const std::filesystem::path& path,
                               DecodeMode mode, int merged_nprocs) {
  StreamIndex idx;
  idx.path = path;
  const std::string_view format = codec_for_file(path).name();
  // A merged compact file interleaves pids inside loop bodies; per-pid
  // segments don't apply, so the whole set falls back to materialising.
  if (format == "compact" && merged_nprocs >= 0) return idx;
  Indexer sink{idx, merged_nprocs >= 0};
  try {
    idx.salvage = scan(path, mode, merged_nprocs, sink);
  } catch (const Unstreamable&) {
    StreamIndex fallback;
    fallback.path = path;
    return fallback;
  }
  idx.kind = format == "compact"  ? StreamIndex::Kind::compact
             : format == "binary" ? StreamIndex::Kind::binary
                                  : StreamIndex::Kind::text;
  return idx;
}

std::unique_ptr<ActionSource> open_stream(
    std::shared_ptr<const StreamIndex> index, int pid_filter,
    std::shared_ptr<void> owner) {
  switch (index->kind) {
    case StreamIndex::Kind::text:
      return std::make_unique<SegmentSource<TextTraceReader>>(
          std::move(index), pid_filter, std::move(owner));
    case StreamIndex::Kind::binary:
      return std::make_unique<SegmentSource<BinaryTraceReader>>(
          std::move(index), pid_filter, std::move(owner));
    case StreamIndex::Kind::compact:
      return std::make_unique<CompactBlockSource>(std::move(index),
                                                  std::move(owner));
    case StreamIndex::Kind::fallback:
      break;
  }
  throw Error("open_stream: file is not streamable: " +
              index->path.string());
}

}  // namespace tir::trace
