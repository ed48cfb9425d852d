#include "trace/action.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <climits>

#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/units.hpp"

namespace tir::trace {

namespace {

struct KeywordEntry {
  ActionType type;
  std::string_view keyword;
};

// Keywords exactly as Table 1 of the paper spells them, plus the later
// SimGrid extensions (gather / allGather / allToAll / waitAll).
constexpr std::array<KeywordEntry, 15> kKeywords{{
    {ActionType::compute, "compute"},
    {ActionType::send, "send"},
    {ActionType::isend, "Isend"},
    {ActionType::recv, "recv"},
    {ActionType::irecv, "Irecv"},
    {ActionType::bcast, "bcast"},
    {ActionType::reduce, "reduce"},
    {ActionType::allreduce, "allReduce"},
    {ActionType::barrier, "barrier"},
    {ActionType::comm_size, "comm_size"},
    {ActionType::wait, "wait"},
    {ActionType::gather, "gather"},
    {ActionType::allgather, "allGather"},
    {ActionType::alltoall, "allToAll"},
    {ActionType::waitall, "waitAll"},
}};

// A non-negative integer field that must fit an int.
int parse_count(std::string_view token, const char* field) {
  const long long v = str::to_int(token);
  if (v < 0)
    throw ParseError(std::string("negative ") + field + " in trace line");
  if (v > INT_MAX)
    throw ParseError(std::string(field) + " '" + std::string(token) +
                     "' out of range");
  return static_cast<int>(v);
}

// A process id (the acting process or a partner): "p12" or "12".
int parse_pid(std::string_view token, const char* field) {
  if (!token.empty() && (token[0] == 'p' || token[0] == 'P'))
    token.remove_prefix(1);
  return parse_count(token, field);
}

// A volume: finite (the number parser's rule), non-negative, and -0 reads
// as 0 so every codec decodes the same value.
double parse_volume(std::string_view token, std::string_view line) {
  const double v = str::to_double(token);
  if (v < 0)
    throw ParseError("negative volume in '" + std::string(line) + "'");
  return v == 0 ? 0.0 : v;
}

}  // namespace

std::string_view action_keyword(ActionType type) {
  for (const auto& entry : kKeywords)
    if (entry.type == type) return entry.keyword;
  throw Error("unknown ActionType");
}

ActionType action_type_from_keyword(std::string_view keyword) {
  // Runs once per decoded action: compare in place, allocating nothing.
  const auto lower = [](char c) {
    return std::tolower(static_cast<unsigned char>(c));
  };
  for (const auto& entry : kKeywords)
    if (std::ranges::equal(entry.keyword, keyword, {}, lower, lower))
      return entry.type;
  throw ParseError("unknown trace action keyword '" + std::string(keyword) +
                   "'");
}

std::string to_line(const Action& a) {
  std::string line = "p" + std::to_string(a.pid) + " ";
  line += action_keyword(a.type);
  switch (a.type) {
    case ActionType::compute:
    case ActionType::bcast:
    case ActionType::gather:
    case ActionType::allgather:
    case ActionType::alltoall:
      line += " " + units::format_volume(a.volume);
      break;
    case ActionType::send:
    case ActionType::isend:
      line += " p" + std::to_string(a.partner) + " " +
              units::format_volume(a.volume);
      break;
    case ActionType::recv:
    case ActionType::irecv:
      line += " p" + std::to_string(a.partner);
      if (a.volume > 0) line += " " + units::format_volume(a.volume);
      break;
    case ActionType::reduce:
    case ActionType::allreduce:
      line += " " + units::format_volume(a.volume) + " " +
              units::format_volume(a.volume2);
      break;
    case ActionType::comm_size:
      line += " " + std::to_string(a.comm_size);
      break;
    case ActionType::barrier:
    case ActionType::wait:
    case ActionType::waitall:
      break;
  }
  return line;
}

Action parse_line(std::string_view line) {
  // At most 4 fields per action; the fixed-capacity split keeps this
  // allocation-free — it runs once per action on the streaming decode path.
  std::string_view tokens[5];
  const std::size_t ntokens = str::split_ws(line, tokens, 5);
  if (ntokens < 2)
    throw ParseError("trace line needs at least '<pid> <action>': '" +
                     std::string(line) + "'");
  Action a;
  a.pid = parse_pid(tokens[0], "process id");
  a.type = action_type_from_keyword(tokens[1]);

  const auto need = [&](std::size_t n) {
    if (ntokens != n)
      throw ParseError("wrong field count for '" + std::string(tokens[1]) +
                       "' in '" + std::string(line) + "'");
  };
  switch (a.type) {
    case ActionType::compute:
    case ActionType::bcast:
    case ActionType::gather:
    case ActionType::allgather:
    case ActionType::alltoall:
      need(3);
      a.volume = parse_volume(tokens[2], line);
      break;
    case ActionType::send:
    case ActionType::isend:
      need(4);
      a.partner = parse_pid(tokens[2], "partner");
      a.volume = parse_volume(tokens[3], line);
      break;
    case ActionType::recv:
    case ActionType::irecv:
      if (ntokens != 3 && ntokens != 4)
        throw ParseError("recv takes a source and an optional volume: '" +
                         std::string(line) + "'");
      a.partner = parse_pid(tokens[2], "partner");
      if (ntokens == 4) a.volume = parse_volume(tokens[3], line);
      break;
    case ActionType::reduce:
    case ActionType::allreduce:
      need(4);
      a.volume = parse_volume(tokens[2], line);
      a.volume2 = parse_volume(tokens[3], line);
      break;
    case ActionType::comm_size:
      need(3);
      a.comm_size = parse_count(tokens[2], "comm_size");
      break;
    case ActionType::barrier:
    case ActionType::wait:
    case ActionType::waitall:
      need(2);
      break;
  }
  return a;
}

}  // namespace tir::trace
