#include "trace/compact.hpp"

#include <climits>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "support/error.hpp"

namespace tir::trace {

namespace {

constexpr char kCompactMagic[4] = {'T', 'I', 'R', 'C'};
constexpr std::uint8_t kCompactVersion = 1;

// Content hash (pid excluded: programs are per-process anyway).
std::size_t hash_action(const Action& a) {
  std::size_t h = static_cast<std::size_t>(a.type) * 1000003u;
  h ^= std::hash<int>{}(a.partner) + 0x9e3779b9 + (h << 6) + (h >> 2);
  h ^= std::hash<double>{}(a.volume) + 0x9e3779b9 + (h << 6) + (h >> 2);
  h ^= std::hash<double>{}(a.volume2) + 0x9e3779b9 + (h << 6) + (h >> 2);
  h ^= std::hash<int>{}(a.comm_size) + 0x9e3779b9 + (h << 6) + (h >> 2);
  return h;
}

// How many times the block [i, i+w) repeats back to back starting at i.
std::size_t count_repeats(const std::vector<Action>& actions, std::size_t i,
                          std::size_t w) {
  std::size_t k = 1;
  while (i + (k + 1) * w <= actions.size()) {
    bool equal = true;
    for (std::size_t j = 0; j < w; ++j) {
      if (!(actions[i + j] == actions[i + k * w + j])) {
        equal = false;
        break;
      }
    }
    if (!equal) break;
    ++k;
  }
  return k;
}

}  // namespace

CompactProgram compact_actions(const std::vector<Action>& actions,
                               std::size_t max_period) {
  const std::size_t n = actions.size();
  // next_same[i]: smallest j > i with actions[j] == actions[i] (candidate
  // loop periods are distances along this chain).
  std::vector<std::size_t> next_same(n, n);
  {
    std::unordered_map<std::size_t, std::size_t> last_seen;
    for (std::size_t i = n; i-- > 0;) {
      const std::size_t h = hash_action(actions[i]);
      const auto it = last_seen.find(h);
      if (it != last_seen.end() && actions[it->second] == actions[i])
        next_same[i] = it->second;
      last_seen[h] = i;
    }
  }

  CompactProgram program;
  std::vector<Action> literal;
  const auto flush_literal = [&] {
    if (!literal.empty()) {
      program.push_back(LoopBlock{1, std::move(literal)});
      literal.clear();
    }
  };

  std::size_t i = 0;
  while (i < n) {
    // Probe up to four candidate periods from the next-occurrence chain.
    std::size_t best_w = 0, best_k = 0, best_cover = 0;
    std::size_t probe = next_same[i];
    for (int c = 0; c < 4 && probe < n; ++c, probe = next_same[probe]) {
      const std::size_t w = probe - i;
      if (w == 0 || w > max_period) break;
      const std::size_t k = count_repeats(actions, i, w);
      const std::size_t cover = (k - 1) * w;
      if (k >= 2 && cover > best_cover) {
        best_w = w;
        best_k = k;
        best_cover = cover;
      }
    }
    // A loop only pays when it hides a meaningful amount of actions.
    if (best_k >= 2 && best_cover >= 4) {
      flush_literal();
      LoopBlock block;
      block.count = static_cast<std::uint32_t>(best_k);
      block.body.assign(actions.begin() + static_cast<std::ptrdiff_t>(i),
                        actions.begin() + static_cast<std::ptrdiff_t>(i + best_w));
      program.push_back(std::move(block));
      i += best_k * best_w;
    } else {
      literal.push_back(actions[i]);
      ++i;
    }
  }
  flush_literal();
  return program;
}

std::vector<Action> expand(const CompactProgram& program) {
  std::vector<Action> out;
  out.reserve(static_cast<std::size_t>(expanded_size(program)));
  for (const LoopBlock& block : program)
    for (std::uint32_t r = 0; r < block.count; ++r)
      out.insert(out.end(), block.body.begin(), block.body.end());
  return out;
}

std::uint64_t expanded_size(const CompactProgram& program) {
  std::uint64_t total = 0;
  for (const LoopBlock& block : program)
    total += static_cast<std::uint64_t>(block.count) * block.body.size();
  return total;
}

std::uint64_t write_compact(const std::filesystem::path& path,
                            const CompactProgram& program, int pid) {
  std::ofstream out(path, std::ios::binary);
  if (!out)
    throw IoError("cannot create compact trace '" + path.string() + "'");
  std::string buffer;
  buffer.append(kCompactMagic, sizeof(kCompactMagic));
  buffer.push_back(static_cast<char>(kCompactVersion));
  append_varint(buffer, static_cast<std::uint64_t>(pid));
  append_varint(buffer, program.size());
  for (const LoopBlock& block : program) {
    append_varint(buffer, block.count);
    append_varint(buffer, block.body.size());
    // Reuse the textual action encoding per entry: simple and debuggable
    // (the count dominates the savings anyway).
    for (const Action& a : block.body) {
      const std::string line = to_line(a);
      append_varint(buffer, line.size());
      buffer += line;
    }
  }
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  return buffer.size();
}

CompactTraceReader::CompactTraceReader(const std::filesystem::path& path)
    : in_(path) {
  const auto magic = in_.take(sizeof(kCompactMagic));
  if (!magic || std::memcmp(magic->data(), kCompactMagic, 4) != 0)
    throw ParseError(path.string() + ": not a compact TIR trace");
  if (in_.get() != kCompactVersion)
    throw ParseError(path.string() + ": unsupported compact-trace version");
  in_.mark();
  // The writer stores pid -1 (merged) as its 64-bit two's complement.
  const std::uint64_t pid = read_varint(in_);
  if (pid > static_cast<std::uint64_t>(INT_MAX) && pid != UINT64_MAX)
    in_.fail("header process id " + std::to_string(pid) + " out of range");
  pid_ = static_cast<int>(static_cast<std::int64_t>(pid));
  blocks_left_ = read_varint(in_);
}

std::string_view CompactTraceReader::entry() {
  in_.mark();
  const auto line = in_.take(read_varint(in_));
  if (!line) in_.fail("truncated action");
  return *line;
}

std::optional<CompactBlock> CompactTraceReader::next_block() {
  if (blocks_left_ == 0) return std::nullopt;
  --blocks_left_;
  return framing();
}

CompactBlock CompactTraceReader::framing() {
  in_.mark();
  CompactBlock block;
  block.offset = block_offset_ = in_.offset();
  const std::uint64_t repeat = read_varint(in_);
  if (repeat > UINT32_MAX)
    in_.fail("repeat count " + std::to_string(repeat) + " out of range");
  block.repeat = static_cast<std::uint32_t>(repeat);
  block.body_actions = read_varint(in_);
  return block;
}

void CompactTraceReader::read_body(const CompactBlock& block,
                                   std::vector<Action>& body) {
  body.clear();
  for (std::uint64_t k = 0; k < block.body_actions; ++k) {
    const std::string_view line = entry();
    try {
      body.push_back(parse_line(line));
    } catch (const ParseError& e) {
      in_.fail(e.what());
    }
  }
}

void CompactTraceReader::skip_body(const CompactBlock& block) {
  for (std::uint64_t k = 0; k < block.body_actions; ++k) entry();
}

void CompactTraceReader::reread(const CompactBlock& block,
                                std::vector<Action>& body) {
  in_.seek(block.offset);
  read_body(framing(), body);
}

std::uint64_t compact_expanded_hint(
    const std::filesystem::path& path) noexcept {
  try {
    CompactTraceReader reader(path);
    std::uint64_t total = 0;
    while (const auto block = reader.next_block()) {
      reader.skip_body(*block);
      total += static_cast<std::uint64_t>(block->repeat) * block->body_actions;
    }
    return total;
  } catch (...) {
    return 0;
  }
}

bool is_compact_trace(const std::filesystem::path& path) {
  return starts_with_magic(path, {kCompactMagic, sizeof(kCompactMagic)});
}

}  // namespace tir::trace
