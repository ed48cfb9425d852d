#include "trace/synthetic.hpp"

#include <limits>

#include "support/error.hpp"
#include "trace/binary_format.hpp"
#include "trace/text_format.hpp"

namespace tir::trace {

namespace {

Action make(int pid, ActionType type, int partner = -1, double volume = 0.0,
            double volume2 = 0.0, int comm_size = 0) {
  Action a;
  a.pid = pid;
  a.type = type;
  a.partner = partner;
  a.volume = volume;
  a.volume2 = volume2;
  a.comm_size = comm_size;
  return a;
}

std::vector<Action> iteration_body(const SyntheticSpec& spec, int pid) {
  std::vector<Action> body;
  switch (spec.pattern) {
    case SyntheticPattern::ft:
      body.push_back(make(pid, ActionType::compute, -1, spec.compute_flops));
      body.push_back(make(pid, ActionType::alltoall, -1, spec.message_bytes));
      break;
    case SyntheticPattern::cg: {
      // Pairwise neighbour exchange (p <-> p^1): both sides post the
      // receive first, then send, then drain — symmetric and deadlock-free
      // under FIFO matching, and every rank runs the same collective
      // sequence, so the trace validates cleanly.
      const int peer = pid ^ 1;
      body.push_back(make(pid, ActionType::compute, -1, spec.compute_flops));
      body.push_back(make(pid, ActionType::irecv, peer, spec.message_bytes));
      body.push_back(make(pid, ActionType::isend, peer, spec.message_bytes));
      body.push_back(make(pid, ActionType::waitall));
      body.push_back(make(pid, ActionType::allreduce, -1, spec.message_bytes,
                          spec.compute_flops / 16));
      break;
    }
  }
  return body;
}

void check(const SyntheticSpec& spec) {
  if (spec.nprocs <= 0)
    throw Error("synthetic trace: nprocs must be positive");
  if (spec.iterations == 0)
    throw Error("synthetic trace: iterations must be positive");
  if (spec.iterations > std::numeric_limits<std::uint32_t>::max())
    throw Error("synthetic trace: iterations exceed a compact loop count");
  if (spec.pattern == SyntheticPattern::cg && spec.nprocs % 2 != 0)
    throw Error("synthetic trace: cg pattern requires an even rank count");
}

}  // namespace

SyntheticPattern parse_synthetic_pattern(std::string_view text) {
  if (text == "ft") return SyntheticPattern::ft;
  if (text == "cg") return SyntheticPattern::cg;
  throw ParseError("invalid synthetic pattern '" + std::string(text) +
                   "' (ft|cg)");
}

std::uint64_t synthetic_actions_per_iteration(SyntheticPattern pattern) {
  return pattern == SyntheticPattern::ft ? 2 : 5;
}

std::uint64_t synthetic_actions(const SyntheticSpec& spec) {
  check(spec);
  const std::uint64_t per_rank =
      1 + spec.iterations * synthetic_actions_per_iteration(spec.pattern);
  return per_rank * static_cast<std::uint64_t>(spec.nprocs);
}

CompactProgram synthetic_program(const SyntheticSpec& spec, int pid) {
  check(spec);
  if (pid < 0 || pid >= spec.nprocs)
    throw Error("synthetic trace: invalid pid " + std::to_string(pid));
  CompactProgram program;
  program.push_back(LoopBlock{
      1, {make(pid, ActionType::comm_size, -1, 0, 0, spec.nprocs)}});
  program.push_back(LoopBlock{static_cast<std::uint32_t>(spec.iterations),
                              iteration_body(spec, pid)});
  return program;
}

std::vector<std::filesystem::path> write_synthetic_traces(
    const std::filesystem::path& dir, const SyntheticSpec& spec,
    std::string_view codec) {
  check(spec);
  if (codec != "compact" && codec != "text" && codec != "binary")
    throw ParseError("invalid synthetic codec '" + std::string(codec) +
                     "' (compact|text|binary)");
  std::filesystem::create_directories(dir);
  std::vector<std::filesystem::path> paths;
  paths.reserve(static_cast<std::size_t>(spec.nprocs));
  for (int pid = 0; pid < spec.nprocs; ++pid) {
    const auto path =
        dir / ("SG_process" + std::to_string(pid) + ".trace");
    const CompactProgram program = synthetic_program(spec, pid);
    const auto expand_into = [&program](auto&& writer) {
      for (const LoopBlock& block : program)
        for (std::uint32_t r = 0; r < block.count; ++r)
          for (const Action& a : block.body) writer.write(a);
      writer.close();
    };
    if (codec == "compact")
      write_compact(path, program, pid);
    else if (codec == "text")
      expand_into(TextTraceWriter(path));
    else
      expand_into(BinaryTraceWriter(path, pid));
    paths.push_back(path);
  }
  return paths;
}

}  // namespace tir::trace
