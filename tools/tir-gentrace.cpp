// tir-gentrace — synthetic NPB-style trace generation for scale testing.
//
// Usage:
//   tir-gentrace --out DIR [--pattern ft|cg] [--ranks N]
//                [--iterations K] [--codec compact|text|binary]
//                [--flops F] [--bytes B]
//
// Writes one SG_process<i>.trace per rank under DIR (created if missing)
// and prints the per-rank file list plus the total logical action count.
// The default compact codec serialises the iteration loop as a TIRC repeat
// block, so a 10^8-action trace is a few hundred bytes on disk and replays
// through the streaming decoder without ever being materialised — the
// input generator for bench_large_trace and the stream test battery.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>

#include "serve/scenario_build.hpp"
#include "support/error.hpp"
#include "trace/synthetic.hpp"

using namespace tir;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --out DIR [--pattern ft|cg] [--ranks N]\n"
               "  [--iterations K] [--codec compact|text|binary]\n"
               "  [--flops F] [--bytes B]\n",
               argv0);
  std::exit(2);
}

std::uint64_t parse_u64_flag(const std::string& flag, const std::string& text) {
  const double value = serve::parse_double(flag, text);
  if (value < 1 || value >= 0x1p63 || value != std::floor(value))
    throw ParseError("invalid value '" + text + "' for " + flag +
                     " (positive integer)");
  return static_cast<std::uint64_t>(value);
}

int run(int argc, char** argv) {
  std::string out_dir;
  std::string codec = "compact";
  trace::SyntheticSpec spec;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--pattern") {
      spec.pattern = trace::parse_synthetic_pattern(next());
    } else if (arg == "--ranks") {
      spec.nprocs =
          static_cast<int>(parse_u64_flag("--ranks", next()));
    } else if (arg == "--iterations") {
      spec.iterations = parse_u64_flag("--iterations", next());
    } else if (arg == "--codec") {
      codec = next();
    } else if (arg == "--flops") {
      spec.compute_flops = serve::parse_double("--flops", next());
    } else if (arg == "--bytes") {
      spec.message_bytes = serve::parse_double("--bytes", next());
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (out_dir.empty()) usage(argv[0]);

  const auto paths = trace::write_synthetic_traces(out_dir, spec, codec);
  for (const auto& p : paths) std::printf("%s\n", p.string().c_str());
  std::printf("ranks:   %d\n", spec.nprocs);
  std::printf("actions: %" PRIu64 "\n", trace::synthetic_actions(spec));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const IoError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const ParseError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
