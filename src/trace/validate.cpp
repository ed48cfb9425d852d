#include "trace/validate.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

namespace tir::trace {

std::string_view to_string(Severity severity) {
  return severity == Severity::error ? "error" : "warning";
}

std::size_t ValidateReport::errors() const {
  std::size_t n = 0;
  for (const auto& i : issues)
    if (i.severity == Severity::error) ++n;
  return n;
}

std::size_t ValidateReport::warnings() const {
  return issues.size() - errors();
}

std::string describe(const ValidateIssue& issue) {
  if (issue.pid < 0) return issue.message;
  std::string where = "process " + std::to_string(issue.pid);
  if (issue.index >= 0) where += " action #" + std::to_string(issue.index);
  return where + ": " + issue.message;
}

std::string partner_out_of_range_message(const Action& a, int nprocs) {
  return std::string(action_keyword(a.type)) + " with partner " +
         std::to_string(a.partner) + " outside [0, " + std::to_string(nprocs) +
         ")";
}

std::string foreign_action_message(const Action& a, int pid) {
  return "action labelled for process " + std::to_string(a.pid) +
         " in process " + std::to_string(pid) + "'s stream";
}

namespace {

bool is_collective(ActionType t) {
  switch (t) {
    case ActionType::bcast:
    case ActionType::reduce:
    case ActionType::allreduce:
    case ActionType::barrier:
    case ActionType::gather:
    case ActionType::allgather:
    case ActionType::alltoall:
      return true;
    default:
      return false;
  }
}

bool is_send(ActionType t) {
  return t == ActionType::send || t == ActionType::isend;
}

bool is_recv(ActionType t) {
  return t == ActionType::recv || t == ActionType::irecv;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct IssueSink {
  std::vector<ValidateIssue>& issues;
  void error(int pid, std::int64_t index, std::string message) {
    issues.push_back({Severity::error, pid, index, std::move(message)});
  }
  void warning(int pid, std::int64_t index, std::string message) {
    issues.push_back({Severity::warning, pid, index, std::move(message)});
  }
};

/// Linear per-rank checks over a cursor (no stream is ever materialised —
/// tir-validate on a 10^8-action trace runs in bounded memory). Returns the
/// stream's action count.
std::uint64_t check_stream(ActionSource& source, int pid, int nprocs,
                           IssueSink& sink) {
  std::int64_t pending = 0;
  std::uint64_t count = 0;
  while (const auto action = source.next()) {
    const Action& a = *action;
    const auto index = static_cast<std::int64_t>(count);
    ++count;
    if (a.pid != pid) sink.error(pid, index, foreign_action_message(a, pid));
    if (a.volume < 0)
      sink.error(pid, index, "negative volume " + std::to_string(a.volume));
    if (a.volume2 < 0)
      sink.error(pid, index,
                 "negative second volume " + std::to_string(a.volume2));
    if (partner_out_of_range(a, nprocs))
      sink.error(pid, index, partner_out_of_range_message(a, nprocs));
    switch (a.type) {
      case ActionType::comm_size:
        if (a.comm_size != nprocs)
          sink.warning(pid, index,
                       "comm_size declares " + std::to_string(a.comm_size) +
                           " processes but the trace set has " +
                           std::to_string(nprocs));
        break;
      case ActionType::isend:
      case ActionType::irecv:
        ++pending;
        break;
      case ActionType::wait:
        if (pending == 0)
          sink.error(pid, index, "wait with no pending request");
        else
          --pending;
        break;
      case ActionType::waitall:
        pending = 0;
        break;
      default:
        break;
    }
  }
  if (pending > 0)
    sink.warning(pid, static_cast<std::int64_t>(count) - 1,
                 "stream ends with " + std::to_string(pending) +
                     " pending request(s)");
  return count;
}

/// Per-(src,dst) traffic tally. Counts are always exact; the declared
/// volumes are only *stored* (for FIFO volume agreement checks) up to a
/// global budget so a huge trace cannot blow the validator's memory.
struct PairFlow {
  std::uint64_t count = 0;
  std::vector<double> volumes;
};

constexpr std::uint64_t kMaxStoredVolumes = 4'000'000;  // 32 MiB of doubles

/// Advances `source` to its next collective action's type.
std::optional<ActionType> next_collective(ActionSource& source) {
  while (const auto a = source.next())
    if (is_collective(a->type)) return a->type;
  return std::nullopt;
}

}  // namespace

ValidateReport validate(const TraceSet& traces) {
  ValidateReport report;
  report.nprocs = traces.nprocs();
  IssueSink sink{report.issues};

  // Per-rank linear checks, one cursor pass per rank.
  for (int p = 0; p < report.nprocs; ++p) {
    const auto source = traces.open(p);
    report.actions += check_stream(*source, p, report.nprocs, sink);
  }

  // P2P matching: per ordered (src, dst) pair, sends and receives must pair
  // up FIFO with agreeing volumes (a recv may omit its volume — 0). Counts
  // are tallied exactly; declared volumes are stored for the agreement
  // check only up to a global budget (see kMaxStoredVolumes).
  std::map<std::pair<int, int>, PairFlow> sends, recvs;
  std::uint64_t stored_volumes = 0;
  bool volumes_truncated = false;
  const auto tally = [&](std::map<std::pair<int, int>, PairFlow>& flows,
                         std::pair<int, int> key, double volume) {
    PairFlow& flow = flows[key];
    ++flow.count;
    if (stored_volumes < kMaxStoredVolumes) {
      flow.volumes.push_back(volume);
      ++stored_volumes;
    } else {
      volumes_truncated = true;
    }
  };
  for (int p = 0; p < report.nprocs; ++p) {
    const auto source = traces.open(p);
    while (const auto a = source->next()) {
      if (a->partner < 0 || a->partner >= report.nprocs) continue;
      if (is_send(a->type)) tally(sends, {p, a->partner}, a->volume);
      if (is_recv(a->type)) tally(recvs, {a->partner, p}, a->volume);
    }
  }
  for (const auto& [pair, sent] : sends) {
    const auto it = recvs.find(pair);
    const std::uint64_t nrecv = it == recvs.end() ? 0 : it->second.count;
    if (sent.count != nrecv)
      sink.error(pair.first, -1,
                 "p2p mismatch: " + std::to_string(sent.count) +
                     " send(s) to process " + std::to_string(pair.second) +
                     " but " + std::to_string(nrecv) + " matching recv(s)");
    if (it == recvs.end()) continue;
    const std::size_t n =
        std::min(sent.volumes.size(), it->second.volumes.size());
    for (std::size_t i = 0; i < n; ++i) {
      const double declared = it->second.volumes[i];
      if (declared != 0.0 && declared != sent.volumes[i])
        sink.warning(pair.second, -1,
                     "message #" + std::to_string(i) + " from process " +
                         std::to_string(pair.first) + ": recv declares " +
                         std::to_string(declared) + " bytes but the send " +
                         "carries " + std::to_string(sent.volumes[i]));
    }
  }
  for (const auto& [pair, received] : recvs) {
    if (sends.find(pair) != sends.end()) continue;
    sink.error(pair.second, -1,
               std::to_string(received.count) + " recv(s) from process " +
                   std::to_string(pair.first) + " but no matching send");
  }
  if (volumes_truncated)
    sink.warning(-1, -1,
                 "p2p volume agreement checked for the first " +
                     std::to_string(kMaxStoredVolumes) +
                     " messages only (trace too large); "
                     "send/recv counts remain exact");

  // Collective participation: every rank must run the same sequence of
  // collective types (MPI's matched-in-order rule). Compare against rank 0
  // by co-iterating two cursors — no round sequence is ever materialised
  // (rank 0's stream is re-read once per peer rank).
  if (report.nprocs > 1) {
    for (int p = 1; p < report.nprocs; ++p) {
      const auto ref_source = traces.open(0);
      const auto my_source = traces.open(p);
      std::uint64_t ref_n = 0;
      std::uint64_t my_n = 0;
      std::uint64_t round = 0;
      bool mismatched = false;
      for (;;) {
        const auto ref = next_collective(*ref_source);
        const auto mine = next_collective(*my_source);
        if (ref) ++ref_n;
        if (mine) ++my_n;
        if (!ref || !mine) break;
        if (!mismatched && *ref != *mine) {
          sink.error(p, -1,
                     "collective round #" + std::to_string(round) +
                         ": process 0 runs " +
                         std::string(action_keyword(*ref)) +
                         " but process " + std::to_string(p) + " runs " +
                         std::string(action_keyword(*mine)));
          mismatched = true;
        }
        ++round;
      }
      while (next_collective(*ref_source)) ++ref_n;
      while (next_collective(*my_source)) ++my_n;
      if (ref_n != my_n)
        sink.error(p, -1,
                   "process " + std::to_string(p) + " participates in " +
                       std::to_string(my_n) + " collective(s) but " +
                       "process 0 in " + std::to_string(ref_n));
    }
  }

  report.ok = report.errors() == 0;
  return report;
}

std::string ValidateReport::render() const {
  std::ostringstream os;
  for (const ValidateIssue& i : issues)
    os << to_string(i.severity) << ": " << describe(i) << "\n";
  os << (ok ? "OK" : "FAILED") << ": " << nprocs << " process(es), "
     << actions << " action(s), " << errors() << " error(s), " << warnings()
     << " warning(s)\n";
  return os.str();
}

std::string ValidateReport::to_json() const {
  std::ostringstream os;
  os << "{\"ok\": " << (ok ? "true" : "false") << ", \"nprocs\": " << nprocs
     << ", \"actions\": " << actions << ", \"errors\": " << errors()
     << ", \"warnings\": " << warnings() << ", \"issues\": [";
  for (std::size_t i = 0; i < issues.size(); ++i) {
    const ValidateIssue& issue = issues[i];
    if (i) os << ", ";
    os << "{\"severity\": \"" << to_string(issue.severity)
       << "\", \"pid\": " << issue.pid << ", \"index\": " << issue.index
       << ", \"message\": \"" << json_escape(issue.message) << "\"}";
  }
  os << "]}";
  return os.str();
}

namespace {

/// Indices of actions satisfying `pred` within the first `limit` entries.
template <typename Pred>
std::vector<std::size_t> indices_if(const std::vector<Action>& stream,
                                    std::size_t limit, Pred pred) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < limit && i < stream.size(); ++i)
    if (pred(stream[i])) out.push_back(i);
  return out;
}

}  // namespace

ConsistentCut truncate_consistent(const TraceSet& traces) {
  ConsistentCut cut;
  const int nprocs = traces.nprocs();
  if (nprocs == 0) {
    cut.traces = traces;
    return cut;
  }

  std::vector<std::size_t> limit(static_cast<std::size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p) {
    limit[static_cast<std::size_t>(p)] = traces.actions(p).size();
    cut.total += traces.actions(p).size();
  }

  // Each pass only ever shrinks limits, so the fixpoint loop terminates in
  // at most sum(limit) iterations (each one removes at least one action).
  bool changed = true;
  while (changed) {
    changed = false;

    // Waits must not outnumber pending requests in the kept prefix.
    for (int p = 0; p < nprocs; ++p) {
      const auto& stream = traces.actions(p);
      auto& lim = limit[static_cast<std::size_t>(p)];
      std::int64_t pending = 0;
      for (std::size_t i = 0; i < lim; ++i) {
        const ActionType t = stream[i].type;
        if (t == ActionType::isend || t == ActionType::irecv) {
          ++pending;
        } else if (t == ActionType::waitall) {
          pending = 0;
        } else if (t == ActionType::wait) {
          if (pending == 0) {
            lim = i;
            changed = true;
            break;
          }
          --pending;
        }
      }
    }

    // Collective rounds align across ranks: keep the largest common prefix
    // of agreeing rounds, cut every rank before its first round past it.
    std::vector<std::vector<std::size_t>> coll(
        static_cast<std::size_t>(nprocs));
    for (int p = 0; p < nprocs; ++p)
      coll[static_cast<std::size_t>(p)] =
          indices_if(traces.actions(p), limit[static_cast<std::size_t>(p)],
                     [](const Action& a) { return is_collective(a.type); });
    std::size_t rounds = coll[0].size();
    for (const auto& c : coll) rounds = std::min(rounds, c.size());
    for (std::size_t r = 0; r < rounds; ++r) {
      const ActionType ref = traces.actions(0)[coll[0][r]].type;
      for (int p = 1; p < nprocs; ++p) {
        const auto& stream = traces.actions(p);
        if (stream[coll[static_cast<std::size_t>(p)][r]].type != ref) {
          rounds = r;  // divergent round: cut before it everywhere
          break;
        }
      }
    }
    for (int p = 0; p < nprocs; ++p) {
      const auto& c = coll[static_cast<std::size_t>(p)];
      if (c.size() > rounds) {
        limit[static_cast<std::size_t>(p)] = c[rounds];
        changed = true;
      }
    }

    // P2P: each (src, dst) pair keeps min(sends, recvs) messages.
    for (int s = 0; s < nprocs; ++s) {
      for (int d = 0; d < nprocs; ++d) {
        const auto send_at =
            indices_if(traces.actions(s), limit[static_cast<std::size_t>(s)],
                       [d](const Action& a) {
                         return is_send(a.type) && a.partner == d;
                       });
        const auto recv_at =
            indices_if(traces.actions(d), limit[static_cast<std::size_t>(d)],
                       [s](const Action& a) {
                         return is_recv(a.type) && a.partner == s;
                       });
        const std::size_t k = std::min(send_at.size(), recv_at.size());
        if (send_at.size() > k) {
          limit[static_cast<std::size_t>(s)] = send_at[k];
          changed = true;
        }
        if (recv_at.size() > k) {
          limit[static_cast<std::size_t>(d)] = recv_at[k];
          changed = true;
        }
      }
    }
  }

  std::vector<std::vector<Action>> kept(static_cast<std::size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p) {
    const auto& stream = traces.actions(p);
    const std::size_t lim = limit[static_cast<std::size_t>(p)];
    kept[static_cast<std::size_t>(p)].assign(stream.begin(),
                                             stream.begin() + static_cast<std::ptrdiff_t>(lim));
    cut.kept.push_back(lim);
  }
  std::uint64_t kept_total = 0;
  for (const std::uint64_t k : cut.kept) kept_total += k;
  cut.dropped = cut.total - kept_total;
  cut.coverage = cut.total == 0 ? 1.0
                                : static_cast<double>(kept_total) /
                                      static_cast<double>(cut.total);
  cut.traces = TraceSet::in_memory(std::move(kept));
  return cut;
}

}  // namespace tir::trace
