// tir-traceinfo — inspect / convert time-independent traces.
//
// Usage:
//   tir-traceinfo TRACE...|DIR              print aggregate statistics
//   tir-traceinfo --to-binary IN OUT        convert text -> binary
//   tir-traceinfo --to-text IN OUT          convert binary -> text
//   tir-traceinfo --to-compact IN OUT       loop-compress a text trace
#include <cstdio>
#include <cstring>
#include <vector>

#include "support/error.hpp"
#include "support/units.hpp"
#include "trace/binary_format.hpp"
#include "trace/compact.hpp"
#include "trace/trace_set.hpp"

using namespace tir;

namespace {

int run(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s TRACE... | --to-binary IN OUT | --to-text IN "
                 "OUT | --to-compact IN OUT\n",
                 argv[0]);
    return 2;
  }
  {
    if (std::strcmp(argv[1], "--to-binary") == 0 && argc == 4) {
      const auto bytes = trace::text_to_binary(argv[2], argv[3]);
      std::printf("wrote %s (%s)\n", argv[3],
                  units::format_bytes(static_cast<double>(bytes)).c_str());
      return 0;
    }
    if (std::strcmp(argv[1], "--to-text") == 0 && argc == 4) {
      const auto bytes = trace::binary_to_text(argv[2], argv[3]);
      std::printf("wrote %s (%s)\n", argv[3],
                  units::format_bytes(static_cast<double>(bytes)).c_str());
      return 0;
    }
    if (std::strcmp(argv[1], "--to-compact") == 0 && argc == 4) {
      const auto actions = trace::read_all(argv[2]);
      const int pid = actions.empty() ? 0 : actions.front().pid;
      const auto program = trace::compact_actions(actions);
      const auto bytes = trace::write_compact(argv[3], program, pid);
      std::printf("wrote %s (%s; %zu blocks for %llu actions)\n", argv[3],
                  units::format_bytes(static_cast<double>(bytes)).c_str(),
                  program.size(),
                  static_cast<unsigned long long>(
                      trace::expanded_size(program)));
      return 0;
    }
    std::vector<std::filesystem::path> files;
    for (int i = 1; i < argc; ++i) {
      if (argv[i][0] == '-') {
        std::fprintf(stderr, "error: unknown option '%s'\n", argv[i]);
        return 2;
      }
      files.emplace_back(argv[i]);
    }
    const auto set =
        trace::TraceSet::per_process_files(trace::expand_trace_paths(files));
    const auto stats = set.stats();
    std::printf("processes:      %d\n", set.nprocs());
    std::printf("on disk:        %s\n",
                units::format_bytes(static_cast<double>(set.disk_bytes()))
                    .c_str());
    std::printf("actions:        %llu\n",
                static_cast<unsigned long long>(stats.actions));
    std::printf("  computes:     %llu (%.3g flops total)\n",
                static_cast<unsigned long long>(stats.computes),
                stats.total_flops);
    std::printf("  p2p messages: %llu (%s total)\n",
                static_cast<unsigned long long>(stats.p2p_messages),
                units::format_bytes(stats.total_bytes_sent).c_str());
    std::printf("  collectives:  %llu\n",
                static_cast<unsigned long long>(stats.collectives));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Unreadable or malformed inputs exit 2 with one `error:` line; nothing
  // escapes as an uncaught tir::Error.
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
