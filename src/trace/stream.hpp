// Trace decoding: one scan per file, two memory shapes.
//
// Each format has one record reader (TextTraceReader, BinaryTraceReader,
// CompactTraceReader). One scan walks any of them, owning the decode mode's
// error policy (strict throws, lenient keeps the clean prefix),
// bytes_consumed, the "<file>:<where>: <reason>" messages and the merged
// layout's pid rule. The scan feeds one of two consumers:
//   - materialise_file: the pass appends each action to its process's
//     vector (read_all and TraceSet's materialise policy);
//   - build_stream_index: the same pass records per-pid byte-offset
//     segments (text, binary) or loop-block offsets (compact) plus the
//     action counts and statistics every consumer needs up front; cursors
//     then seek the same reader in bounded memory, which is how a trace too
//     large for RAM (NPB class D/E) replays. Peak memory is the index plus
//     one cursor's working set (a line, a record, or one compact body).
//
// Fidelity: both shapes come from the same pass over the same reader, so
// they see the same errors (same exception types and messages, same
// lenient truncation points), and a cursor re-reads exactly the records the
// pass accepted: its sequence is element-identical to the materialised
// TraceSet::actions(pid). tests/stream_trace_test.cpp and
// tests/codec_fuzz_test.cpp check the two shapes against each other.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "trace/compact.hpp"
#include "trace/trace_set.hpp"

namespace tir::trace {

/// Decodes a whole file in one pass. `merged_nprocs < 0` decodes a
/// split-layout file into out[0], record pids kept verbatim;
/// `merged_nprocs >= 0` distributes into out[pid] (out is resized to
/// nprocs), and a pid outside [0, nprocs) is corruption — strict mode throws
/// (after any parse error later in the file, which outranks it), lenient
/// mode stops distributing there. Returns the file's salvage outcome.
SalvageInfo materialise_file(const std::filesystem::path& path,
                             DecodeMode mode, int merged_nprocs,
                             std::vector<std::vector<Action>>& out);

/// One file's skip index. Text and binary files index as pid *segments*
/// (maximal runs of one process's records, so a merged file streams per pid
/// without scanning other processes' bytes); compact files index as loop
/// blocks (the cursor re-parses one body at a time and replays its repeat
/// count from memory).
struct StreamIndex {
  enum class Kind {
    text,
    binary,
    compact,
    fallback,  ///< not streamable: the caller must materialise this file
  };

  struct Segment {
    int pid = -1;  ///< -1 in split layout (actions kept verbatim)
    std::uint64_t offset = 0;  ///< byte offset of the run's first record
    std::uint64_t count = 0;   ///< actions in the run
  };

  Kind kind = Kind::fallback;
  std::filesystem::path path;

  std::vector<Segment> segments;     ///< text / binary
  std::vector<CompactBlock> blocks;  ///< compact (non-empty blocks only)

  /// Actions the indexed (clean, distributed) part of the file holds; for
  /// compact files this is the *expanded* count.
  std::uint64_t total_actions = 0;

  /// Aggregate statistics over exactly those actions. Compact bodies are
  /// accounted once and scaled by their repeat count, so this is O(stored
  /// records) even for a 10^8-action trace.
  TraceStats stats;

  /// The scan's salvage outcome (what materialise_file would report).
  SalvageInfo salvage;

  /// Actions belonging to `pid` (merged layout: sum over its segments).
  std::uint64_t action_count(int pid) const;

  /// Heap footprint of the index itself — what a cache entry holding a
  /// streamed TraceSet keeps resident.
  std::uint64_t resident_bytes() const;
};

/// Maximum segments indexed per file. A merged trace written per-process
/// (the only layout the writers produce) needs nprocs segments; a
/// pathologically interleaved file would need one per action, so past this
/// cap the builder gives up (Kind::fallback) and the file decodes
/// materialised instead — the index must never grow with trace length.
constexpr std::size_t kMaxStreamSegments = 65536;

/// Builds the index in the same scan; `mode` and `merged_nprocs` mean
/// what they mean for materialise_file. Merged compact files are not
/// streamable (loop bodies interleave pids) and come back as
/// Kind::fallback.
StreamIndex build_stream_index(const std::filesystem::path& path,
                               DecodeMode mode, int merged_nprocs);

/// Opens a bounded-memory cursor over the indexed file. `pid_filter >= 0`
/// walks only that pid's segments (merged layout); -1 walks everything
/// (split layout). `owner` is pinned for the cursor's lifetime (the
/// TraceSet storage). Precondition: index->kind != Kind::fallback.
std::unique_ptr<ActionSource> open_stream(
    std::shared_ptr<const StreamIndex> index, int pid_filter,
    std::shared_ptr<void> owner);

}  // namespace tir::trace
