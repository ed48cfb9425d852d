// Figure 9 extension: replay throughput of the default engine against the
// reference engine.
//
// The baseline bench (bench_fig9_replaytime) reproduces the paper's falling
// curve — actions/sec *drop* with rank count because every action costs a
// coroutine switch and every flow change a solver pass over the coupled
// component. This bench replays the same LU traces through both engine
// schedules side by side:
//   reference    full network re-solve on every change, every await a
//                coroutine switch (ReplayConfig::reference_engine)
//   default      incremental solver + coroutine fast path: deterministic
//                action chains run inline, no switches
// Both produce bit-identical simulated times (asserted here, and by
// tests/parallel_replay_test.cpp at full depth); only wall-clock differs.
//
// Rank counts: TIR_FIG9_PROCS=8,64,256 (comma list, powers of two) extends
// to 1024 when you have the minutes — see EXPERIMENTS.md.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "bench_util.hpp"
#include "platform/cluster.hpp"
#include "replay/replayer.hpp"
#include "support/strings.hpp"

using namespace tir;

namespace {

std::vector<int> proc_counts() {
  std::vector<int> procs;
  if (const char* env = std::getenv("TIR_FIG9_PROCS")) {
    for (const auto tok : str::split(env, ','))
      procs.push_back(std::atoi(std::string(tok).c_str()));
  }
  if (procs.empty()) procs = {8, 64, 256};
  return procs;
}

}  // namespace

int main() {
  const double scale = bench::scale();
  bench::banner(
      "Figure 9 (engine schedules) — replay throughput vs process count",
      "LU class B; iteration fraction " + std::to_string(scale) +
          "; reference engine vs default engine");

  std::printf("%5s %-10s | %11s %10s | %12s %11s %11s\n", "procs", "engine",
              "actions(M)", "replay(s)", "actions/sec", "resumes(M)",
              "inline(M)");

  bool all_identical = true;
  for (const int procs : proc_counts()) {
    apps::LuConfig cfg;
    cfg.cls = apps::NpbClass::B;
    cfg.nprocs = procs;
    cfg.iteration_scale = scale;

    const auto workdir =
        bench::fresh_workdir("fig9par_" + std::to_string(procs));
    bench::WorkdirGuard guard(workdir);

    acq::AcquisitionSpec spec;
    spec.app = apps::make_lu_app(cfg);
    spec.mode = acq::Mode::folding;
    spec.folding = std::max(1, procs / 8);
    spec.workdir = workdir;
    spec.run_uninstrumented_baseline = false;
    const auto r = acq::run_acquisition(spec);

    plat::Platform target;
    const auto hosts = plat::build_cluster(target, plat::bordereau_spec(procs));
    const auto traces = trace::TraceSet::per_process_files(r.ti_files);

    double reference_time = 0.0;
    for (const bool reference : {true, false}) {
      replay::ReplayConfig config;
      config.reference_engine = reference;
      replay::Replayer replayer(target, hosts, traces, config);

      const auto start = std::chrono::steady_clock::now();
      const auto result = replayer.run();
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();

      if (reference)
        reference_time = result.simulated_time;
      else if (result.simulated_time != reference_time)
        all_identical = false;

      std::printf("%5d %-10s | %11.2f %10.2f | %12.0f %11.2f %11.2f\n",
                  procs, reference ? "reference" : "default",
                  result.actions_replayed / 1e6, wall,
                  result.actions_replayed / wall,
                  result.engine_stats.resumes / 1e6,
                  result.engine_stats.fast_path_inline / 1e6);
      std::fflush(stdout);
    }
  }
  std::printf("\nsimulated times bit-identical across engines: %s\n",
              all_identical ? "yes" : "NO — BUG");
  return all_identical ? 0 : 1;
}
