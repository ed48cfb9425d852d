// Compact (loop-compressed) trace representation.
//
// Related work the paper cites ([12], PSINS) attacks trace size with
// "compact trace representations": iterative applications emit the same
// action block once per iteration, so a trace is well approximated by a
// small program of (repeat-count, block) pairs. For a deterministic LU
// trace the ~250 iteration bodies collapse into one loop each — orders of
// magnitude beyond what the byte-level binary format achieves.
//
// The encoder is a greedy single-level loop detector: at each position it
// probes candidate periods (distances to the next occurrences of the same
// action) and takes the repetition covering the most actions. Expansion is
// exact — compaction never loses information.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/action.hpp"
#include "trace/file_bytes.hpp"

namespace tir::trace {

/// One program step: `body` repeated `count` times (count == 1 -> literal).
struct LoopBlock {
  std::uint32_t count = 1;
  std::vector<Action> body;

  bool operator==(const LoopBlock&) const = default;
};

using CompactProgram = std::vector<LoopBlock>;

/// Greedy loop detection. `max_period` bounds the loop-body length probed.
CompactProgram compact_actions(const std::vector<Action>& actions,
                               std::size_t max_period = 4096);

/// Exact inverse of compact_actions.
std::vector<Action> expand(const CompactProgram& program);

/// Number of actions the program expands to.
std::uint64_t expanded_size(const CompactProgram& program);

/// Serialises a program ("TIRC" container embedding the textual action
/// encoding). Returns bytes written.
std::uint64_t write_compact(const std::filesystem::path& path,
                            const CompactProgram& program, int pid);

/// Framing of one loop block as stored in a compact file.
struct CompactBlock {
  std::uint64_t offset = 0;        ///< byte offset of the block header
  std::uint32_t repeat = 0;        ///< loop count
  std::uint64_t body_actions = 0;  ///< actions per repetition
};

/// The compact format's block reader. Every compact decode (whole file,
/// index pass, streaming cursor, expansion hint) reads through it. Errors
/// are tir::ParseError "<file>: byte <offset>: <reason>".
class CompactTraceReader {
 public:
  /// Reads the header. Throws tir::IoError (unreadable) or tir::ParseError.
  explicit CompactTraceReader(const std::filesystem::path& path);

  /// The header's process id (-1 for a merged file).
  int pid() const { return pid_; }

  /// Framing of the next block, or nullopt after the last one. Its body
  /// must be read or skipped before the next call.
  std::optional<CompactBlock> next_block();

  /// Parses the body of the block next_block() just returned (`body` is
  /// cleared first).
  void read_body(const CompactBlock& block, std::vector<Action>& body);

  /// Steps over that body without parsing it.
  void skip_body(const CompactBlock& block);

  /// Seeks to a block found in an earlier pass and parses its body.
  void reread(const CompactBlock& block, std::vector<Action>& body);

  /// Byte offset of the block next_block() last read or rejected.
  std::uint64_t record_offset() const { return block_offset_; }

  /// "<file>: byte <offset>" of that block.
  std::string where() const {
    return byte_location(in_.path(), block_offset_);
  }

 private:
  CompactBlock framing();    ///< a block's repeat count and body length
  std::string_view entry();  ///< one length-prefixed action line

  FileBytes in_;
  int pid_ = -1;
  std::uint64_t blocks_left_ = 0;
  std::uint64_t block_offset_ = 0;
};

/// True when the file starts with the compact-trace magic.
bool is_compact_trace(const std::filesystem::path& path);

/// Expanded action count read from the container framing alone — loop
/// counts and body lengths, skipping over the body bytes. Orders of
/// magnitude cheaper than decoding (no action parsing, no allocation);
/// the automatic decode-policy threshold uses it to spot a small file that
/// expands into a huge trace. Returns 0 on any error (not compact,
/// truncated, unreadable).
std::uint64_t compact_expanded_hint(const std::filesystem::path& path) noexcept;

}  // namespace tir::trace
