// Microbenchmarks of the simulation kernel itself: max-min solver
// throughput, event-loop rate, and end-to-end simulated-messages rate —
// the quantities that bound Figure 9's replay speed.
#include <benchmark/benchmark.h>

#include "mpisim/mpi.hpp"
#include "platform/cluster.hpp"
#include "simkern/engine.hpp"
#include "simkern/maxmin.hpp"

using namespace tir;

namespace {

void BM_MaxMinSolve(benchmark::State& state) {
  const int n_vars = static_cast<int>(state.range(0));
  sim::MaxMin lmm;
  std::vector<sim::ResourceId> resources;
  for (int i = 0; i < 64; ++i) resources.push_back(lmm.add_resource(1e9));
  std::vector<sim::VarId> vars;
  for (int i = 0; i < n_vars; ++i) {
    vars.push_back(lmm.add_variable(
        1.0, {resources[static_cast<std::size_t>(i % 64)],
              resources[static_cast<std::size_t>((i * 7) % 64)]}));
  }
  std::size_t toggle = 0;
  for (auto _ : state) {
    // Remove and re-add one variable to dirty the system, then solve.
    const auto v = vars[toggle % vars.size()];
    lmm.remove_variable(v);
    vars[toggle % vars.size()] = lmm.add_variable(
        1.0, {resources[toggle % 64], resources[(toggle * 7) % 64]});
    lmm.solve();
    ++toggle;
    benchmark::DoNotOptimize(lmm.rate(vars[0]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MaxMinSolve)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_MaxMinCoupled(benchmark::State& state) {
  // The shared-backbone case BM_MaxMinSolve never builds: N unit-weight
  // flows, each over its own pair of private NICs (1.25e8) plus one
  // backbone (1.25e9) that every flow crosses and that binds for N > 10.
  // Each iteration retires one flow and starts its replacement, then
  // solves; the backbone share moves, so every flow's rate changes.
  const int n_vars = static_cast<int>(state.range(0));
  sim::MaxMin lmm;
  std::vector<sim::ResourceId> nics;
  for (int i = 0; i < 2 * n_vars; ++i) nics.push_back(lmm.add_resource(1.25e8));
  const sim::ResourceId backbone = lmm.add_resource(1.25e9);
  const auto route = [&](std::size_t i) {
    return std::vector<sim::ResourceId>{nics[2 * i], backbone, nics[2 * i + 1]};
  };
  std::vector<sim::VarId> vars;
  for (std::size_t i = 0; i < static_cast<std::size_t>(n_vars); ++i)
    vars.push_back(lmm.add_variable(1.0, route(i)));
  lmm.solve();
  std::size_t toggle = 0;
  for (auto _ : state) {
    const std::size_t i = toggle % vars.size();
    lmm.remove_variable(vars[i]);
    vars[i] = lmm.add_variable(1.0, route(i));
    lmm.solve();
    ++toggle;
    benchmark::DoNotOptimize(lmm.rate(vars[0]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MaxMinCoupled)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_EngineTimers(benchmark::State& state) {
  // Pure event-loop throughput: a process sleeping in a tight loop.
  for (auto _ : state) {
    state.PauseTiming();
    plat::Platform p;
    const auto hosts = plat::build_bordereau(p, 1);
    sim::Engine engine(p);
    engine.spawn("sleeper", hosts[0], [&engine](sim::Process&) -> sim::Task {
      for (int i = 0; i < 10000; ++i)
        co_await engine.wait(engine.timer_async(1e-6));
    });
    state.ResumeTiming();
    engine.run();
    benchmark::DoNotOptimize(engine.stats().heap_events);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EngineTimers)->Unit(benchmark::kMillisecond);

void BM_SimulatedMessages(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    plat::Platform p;
    const auto hosts = plat::build_bordereau(p, nprocs);
    sim::Engine engine(p);
    std::vector<int> rank_hosts(hosts.begin(), hosts.end());
    mpi::World world(engine, rank_hosts);
    world.launch([](mpi::Rank& r) -> sim::Co<void> {
      const int peer = r.rank() ^ 1;
      for (int i = 0; i < 500; ++i) {
        if (r.rank() < peer) {
          co_await r.send(peer, 1024, 0);
          co_await r.recv(peer, 1024, 0);
        } else {
          co_await r.recv(peer, 1024, 0);
          co_await r.send(peer, 1024, 0);
        }
      }
    });
    state.ResumeTiming();
    engine.run();
    benchmark::DoNotOptimize(engine.now());
  }
  state.SetItemsProcessed(state.iterations() * 500 * state.range(0));
  state.SetLabel("messages");
}
BENCHMARK(BM_SimulatedMessages)->Arg(2)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
