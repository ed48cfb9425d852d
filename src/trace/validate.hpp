// Pre-replay trace validation (the "fail before you simulate" gate).
//
// A time-independent trace that replays into a deadlock wastes a full
// simulation run before reporting anything; the validator finds the usual
// suspects statically, in one linear pass per check:
//   - per-action well-formedness (partner ranges, negative volumes,
//     comm_size consistency, pid/stream agreement),
//   - p2p matching: every send from a to b needs a receive from b of a,
//     in FIFO order, with matching declared volumes,
//   - collective participation: all ranks must run the same collective
//     sequence (MPI's matched-in-order rule),
//   - wait actions with no pending request.
//
// truncate_consistent() is the salvage companion: it cuts each rank's
// stream at its last *globally consistent* action — the longest per-rank
// prefixes that keep p2p and collective matching intact — so a damaged
// trace (lenient decode, killed acquisition run) still replays to a
// meaningful partial makespan.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace_set.hpp"

namespace tir::trace {

enum class Severity { warning, error };

std::string_view to_string(Severity severity);

struct ValidateIssue {
  Severity severity = Severity::error;
  int pid = -1;             ///< offending process; -1 = trace-wide
  std::int64_t index = -1;  ///< action index in the process stream; -1 = n/a
  std::string message;
};

/// An issue as one line without its severity: "process P action #I:
/// <message>", or the bare message for a trace-wide issue.
std::string describe(const ValidateIssue& issue);

// Per-action checks that only the trace set can fail. validate() reports
// them, and the replayer rejects the action with the same describe() line.

/// Whether a point-to-point action names a partner outside [0, nprocs).
inline bool partner_out_of_range(const Action& a, int nprocs) {
  switch (a.type) {
    case ActionType::send:
    case ActionType::isend:
    case ActionType::recv:
    case ActionType::irecv:
      return a.partner < 0 || a.partner >= nprocs;
    default:
      return false;
  }
}
std::string partner_out_of_range_message(const Action& a, int nprocs);
/// An action labelled for another process than the stream `pid` it sits in.
std::string foreign_action_message(const Action& a, int pid);

struct ValidateReport {
  bool ok = true;  ///< no error-severity issues (warnings allowed)
  int nprocs = 0;
  std::uint64_t actions = 0;
  std::vector<ValidateIssue> issues;

  std::size_t errors() const;
  std::size_t warnings() const;

  /// Human-readable, one "<severity>: describe()" line per issue plus a
  /// summary line.
  std::string render() const;
  /// Machine-readable JSON object (ok, nprocs, actions, issues[]).
  std::string to_json() const;
};

/// Validates every process stream of `traces`. Decodes on first use; decode
/// errors (strict mode) propagate as tir::ParseError.
ValidateReport validate(const TraceSet& traces);

/// Result of cutting a trace back to a globally consistent state.
struct ConsistentCut {
  std::vector<std::uint64_t> kept;  ///< actions kept per process
  std::uint64_t total = 0;          ///< actions in the input
  std::uint64_t dropped = 0;        ///< total - sum(kept)
  double coverage = 1.0;            ///< sum(kept) / total
  TraceSet traces;                  ///< in-memory truncated copy
};

/// Truncates each process's stream at its last globally consistent action:
/// collective rounds are aligned across ranks, every (src, dst) pair keeps
/// min(sends, recvs) messages, and waits never outnumber pending requests.
/// Iterates to a fixpoint (cutting a send can strand a recv and vice
/// versa), which terminates because cuts only shrink.
ConsistentCut truncate_consistent(const TraceSet& traces);

}  // namespace tir::trace
