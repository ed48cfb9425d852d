// Engine differential battery: the coroutine fast path and the incremental
// network solver are pure optimisations — every observable replay output
// of the default engine must be BIT-IDENTICAL to the reference engine
// (ReplayConfig::reference_engine: full re-solve on every change, no fast
// path). This file locks that contract down across workload shapes
// (synthetic mixed traffic, acquired LU traces at two job sizes),
// topologies (hierarchical cluster, dragonfly, fat-tree, torus), fault
// timelines with recovery, perturbation replicas, and structured failure
// reports, plus the engine-stat regression that the default engine really
// takes the fast path.
//
// Carries the ctest label "parallel"; the CI ThreadSanitizer job runs
// exactly this label plus "sweep" (.github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "obs/recorder.hpp"
#include "platform/cluster.hpp"
#include "platform/deployment.hpp"
#include "platform/topology.hpp"
#include "replay/perturb.hpp"
#include "replay/scenario.hpp"
#include "trace/trace_set.hpp"

using namespace tir;
using namespace tir::replay;
namespace fs = std::filesystem;

namespace {

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Replays `spec` on the reference engine and on the default engine and
// asserts all outputs are bit-identical: simulated time, per-process finish
// times, action count, the recorded span streams, and (when requested) the
// timed trace. Engine stats are compared as invariants, not bitwise: the
// fast-path and resume counters and the solver's touched-variable count
// are exactly what may differ.
void expect_engine_equivalence(ScenarioSpec spec) {
  spec.config.record_spans = true;

  spec.config.reference_engine = true;
  const ReplayResult ref = run_scenario(spec);
  spec.config.reference_engine = false;
  const ReplayResult r = run_scenario(spec);

  EXPECT_TRUE(bit_equal(ref.simulated_time, r.simulated_time))
      << ref.simulated_time << " vs " << r.simulated_time;
  EXPECT_EQ(ref.actions_replayed, r.actions_replayed);
  ASSERT_EQ(ref.process_finish_times.size(), r.process_finish_times.size());
  for (std::size_t p = 0; p < ref.process_finish_times.size(); ++p)
    EXPECT_TRUE(
        bit_equal(ref.process_finish_times[p], r.process_finish_times[p]))
        << "process " << p;
  ASSERT_TRUE(ref.spans && r.spans);
  EXPECT_TRUE(ref.spans->same_streams(*r.spans));
  ASSERT_EQ(ref.timed_trace.size(), r.timed_trace.size());
  for (std::size_t i = 0; i < ref.timed_trace.size(); ++i) {
    EXPECT_TRUE(bit_equal(ref.timed_trace[i].start, r.timed_trace[i].start));
    EXPECT_TRUE(bit_equal(ref.timed_trace[i].end, r.timed_trace[i].end));
  }

  // Stat invariants. The simulated world is identical, so counters that
  // describe the world must agree; the reference engine never inlines.
  EXPECT_EQ(ref.engine_stats.activities, r.engine_stats.activities);
  EXPECT_EQ(ref.engine_stats.solver_calls, r.engine_stats.solver_calls);
  EXPECT_EQ(ref.engine_stats.flows_rerated, r.engine_stats.flows_rerated);
  EXPECT_LE(r.engine_stats.solver_vars_touched,
            ref.engine_stats.solver_vars_touched);
  EXPECT_EQ(0u, ref.engine_stats.fast_path_inline);
  EXPECT_EQ(0u, ref.engine_stats.fast_path_ready);
}

// Synthetic workload crossing every protocol boundary: eager and
// rendezvous rings, nonblocking pairs, computes and the collective family.
std::vector<std::vector<trace::Action>> mixed_actions(int nprocs,
                                                      int rounds) {
  using trace::Action;
  using trace::ActionType;
  std::vector<std::vector<Action>> per(static_cast<std::size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p)
    per[static_cast<std::size_t>(p)].push_back(
        {p, ActionType::comm_size, -1, 0, 0, nprocs});
  for (int r = 0; r < rounds; ++r) {
    const double bytes = r % 2 == 0 ? 16 * 1024.0 : 256 * 1024.0;
    for (int p = 0; p < nprocs; ++p) {
      auto& mine = per[static_cast<std::size_t>(p)];
      mine.push_back({p, ActionType::compute, -1, 2e5, 0, 0});
      if (p == 0) {
        mine.push_back({p, ActionType::send, 1, bytes, 0, 0});
        mine.push_back({p, ActionType::recv, nprocs - 1, 0, 0, 0});
      } else {
        mine.push_back({p, ActionType::recv, p - 1, 0, 0, 0});
        mine.push_back({p, ActionType::send, (p + 1) % nprocs, bytes, 0, 0});
      }
      mine.push_back({p, ActionType::isend, (p + 1) % nprocs, 1024, 0, 0});
      mine.push_back({p, ActionType::irecv, (p + nprocs - 1) % nprocs,
                      0, 0, 0});
      mine.push_back({p, ActionType::waitall, -1, 0, 0, 0});
      mine.push_back({p, ActionType::allreduce, -1, 4096, 1e4, 0});
      mine.push_back({p, ActionType::bcast, -1, 8192, 0, 0});
      mine.push_back({p, ActionType::barrier, -1, 0, 0, 0});
    }
  }
  return per;
}

// All-ranks-at-once eager burst: every rank isends a small message to its
// neighbour at t = 0 and drains with waitall. The simultaneous injections
// touch one loopback link per host plus the shared fabric, so the first
// solve spans many disconnected components.
std::vector<std::vector<trace::Action>> eager_burst_actions(int nprocs,
                                                            int rounds) {
  using trace::Action;
  using trace::ActionType;
  std::vector<std::vector<Action>> per(static_cast<std::size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p) {
    auto& mine = per[static_cast<std::size_t>(p)];
    mine.push_back({p, ActionType::comm_size, -1, 0, 0, nprocs});
    for (int r = 0; r < rounds; ++r) {
      mine.push_back({p, ActionType::isend, (p + 1) % nprocs,
                      16 * 1024.0, 0, 0});
      mine.push_back({p, ActionType::irecv, (p + nprocs - 1) % nprocs,
                      0, 0, 0});
      mine.push_back({p, ActionType::waitall, -1, 0, 0, 0});
      mine.push_back({p, ActionType::compute, -1, 1e5, 0, 0});
    }
  }
  return per;
}

ScenarioSpec cluster_spec(int nprocs,
                          std::vector<std::vector<trace::Action>> actions) {
  auto platform = std::make_shared<plat::Platform>();
  const auto hosts =
      plat::build_cluster(*platform, plat::bordereau_spec(nprocs));
  ScenarioSpec spec;
  spec.name = "parallel-battery";
  spec.platform = platform;
  spec.process_hosts = hosts;
  if (!actions.empty())
    spec.traces = trace::TraceSet::in_memory(std::move(actions));
  return spec;
}

// Acquired LU class-S traces (real TAU -> TI acquisition, the paper's
// pipeline) at a given rank count. Cached per size — acquisition writes
// real files and is the slow part of this suite.
trace::TraceSet lu_traces(int nprocs) {
  static std::map<int, trace::TraceSet>* cache =
      new std::map<int, trace::TraceSet>();
  auto it = cache->find(nprocs);
  if (it == cache->end()) {
    const fs::path workdir =
        fs::temp_directory_path() /
        ("tir_parallel_lu" + std::to_string(nprocs) + "_" +
         std::to_string(::getpid()));
    fs::create_directories(workdir);
    apps::LuConfig cfg;
    cfg.cls = apps::NpbClass::S;
    cfg.nprocs = nprocs;
    cfg.iteration_scale = 0.0;  // clamped to one iteration
    acq::AcquisitionSpec spec;
    spec.app = apps::make_lu_app(cfg);
    spec.workdir = workdir;
    spec.run_uninstrumented_baseline = false;
    const auto acquired = acq::run_acquisition(spec);
    std::vector<std::vector<trace::Action>> actions;
    for (const auto& file : acquired.ti_files)
      actions.push_back(trace::read_all(file));
    fs::remove_all(workdir);
    it = cache
             ->emplace(nprocs,
                       trace::TraceSet::in_memory(std::move(actions)))
             .first;
  }
  return it->second;
}

}  // namespace

// ---------------------------------------------------------------------------
// Differential battery: default and reference engines agree bitwise.
// ---------------------------------------------------------------------------

TEST(ParallelReplayTest, MixedTrafficDifferential) {
  ScenarioSpec spec = cluster_spec(8, mixed_actions(8, 3));
  spec.config.record_timed_trace = true;
  expect_engine_equivalence(std::move(spec));
}

TEST(ParallelReplayTest, EagerBurstDifferential) {
  expect_engine_equivalence(cluster_spec(16, eager_burst_actions(16, 4)));
}

TEST(ParallelReplayTest, LuSmallJobDifferential) {
  ScenarioSpec spec = cluster_spec(4, {});
  spec.traces = lu_traces(4);
  expect_engine_equivalence(std::move(spec));
}

TEST(ParallelReplayTest, LuWiderJobDifferential) {
  ScenarioSpec spec = cluster_spec(8, {});
  spec.traces = lu_traces(8);
  expect_engine_equivalence(std::move(spec));
}

// ---------------------------------------------------------------------------
// Topology sweep: one differential per fabric shape. Routing differs wildly
// (global links, up/down trees, wrap-around meshes), which is exactly what
// shakes component structure in the solver.
// ---------------------------------------------------------------------------

namespace {

void expect_topology_equivalence(const std::string& topo_spec, int nprocs) {
  SCOPED_TRACE(topo_spec);
  auto platform =
      std::make_shared<plat::Platform>(plat::make_platform(topo_spec));
  ScenarioSpec spec;
  spec.name = "topo-differential";
  spec.platform_label = topo_spec;
  spec.platform = platform;
  spec.process_hosts =
      plat::resolve_deployment_spec("block", *platform, nprocs);
  spec.traces = trace::TraceSet::in_memory(mixed_actions(nprocs, 2));
  expect_engine_equivalence(std::move(spec));
}

}  // namespace

TEST(ParallelReplayTest, DragonflyDifferential) {
  expect_topology_equivalence("dragonfly:groups=4,routers=2,hosts=2", 12);
}

TEST(ParallelReplayTest, FatTreeDifferential) {
  expect_topology_equivalence("fattree:k=4", 12);
}

TEST(ParallelReplayTest, TorusDifferential) {
  expect_topology_equivalence("torus:dims=2x2x2,hosts=2", 12);
}

// ---------------------------------------------------------------------------
// Fault timelines and perturbation replicas.
// ---------------------------------------------------------------------------

TEST(ParallelReplayTest, FaultTimelineDifferential) {
  ScenarioSpec spec = cluster_spec(8, mixed_actions(8, 4));

  FaultSpec host_fault;
  host_fault.kind = FaultSpec::Kind::host;
  host_fault.id = 2;
  host_fault.at_time = 0.001;
  host_fault.until_time = 0.004;  // recovers mid-run
  host_fault.compute_factor = 0.2;
  spec.faults.push_back(host_fault);

  FaultSpec link_flaps;
  link_flaps.kind = FaultSpec::Kind::link;
  link_flaps.id = 0;
  link_flaps.at_time = 0.0005;
  link_flaps.until_time = 0.0015;
  link_flaps.repeat = 3;  // a flap train
  link_flaps.period = 0.002;
  link_flaps.bandwidth_factor = 0.25;
  link_flaps.latency_factor = 4.0;
  spec.faults.push_back(link_flaps);

  expect_engine_equivalence(std::move(spec));
}

TEST(ParallelReplayTest, PerturbationReplicaDifferential) {
  ScenarioSpec spec = cluster_spec(8, mixed_actions(8, 3));

  PerturbSpec perturb;
  perturb.host_noise = 0.1;
  perturb.link_bw_noise = 0.1;
  perturb.fault_rate = 100.0;
  perturb.fault_horizon = 0.01;
  perturb.fault_duration = 0.002;

  for (int replica = 0; replica < 2; ++replica) {
    SCOPED_TRACE("replica " + std::to_string(replica));
    ScenarioSpec replica_spec = spec;
    replica_spec.faults = expand_perturbation(
        perturb, *spec.platform, /*seed=*/7, replica, nullptr);
    expect_engine_equivalence(std::move(replica_spec));
  }
}

// ---------------------------------------------------------------------------
// Structured reports: a failing replay must fail identically under every
// engine — same status, same stop time, same coverage, same per-rank
// diagnostics (the deadlock report is part of the determinism contract).
// ---------------------------------------------------------------------------

TEST(ParallelReplayTest, DeadlockReportDifferential) {
  using trace::Action;
  using trace::ActionType;
  // Ranks 0 and 1 both receive first: a classic head-to-head deadlock,
  // reached only after some real progress (computes + an eager exchange).
  std::vector<std::vector<Action>> actions(2);
  for (int p = 0; p < 2; ++p) {
    actions[static_cast<std::size_t>(p)] = {
        {p, ActionType::comm_size, -1, 0, 0, 2},
        {p, ActionType::compute, -1, 1e6, 0, 0},
        {p, ActionType::send, 1 - p, 1024, 0, 0},
        {p, ActionType::recv, 1 - p, 0, 0, 0},
        {p, ActionType::recv, 1 - p, 0, 0, 0},  // never sent: deadlock
    };
  }
  ScenarioSpec spec = cluster_spec(2, std::move(actions));

  spec.config.reference_engine = true;
  const ReplayReport ref = run_scenario_report(spec);
  spec.config.reference_engine = false;
  const ReplayReport r = run_scenario_report(spec);

  EXPECT_EQ(ReplayStatus::deadlock, ref.status);
  EXPECT_FALSE(ref.diagnostics.empty());
  EXPECT_EQ(ref.status, r.status);
  EXPECT_TRUE(bit_equal(ref.sim_time, r.sim_time));
  EXPECT_TRUE(bit_equal(ref.coverage, r.coverage));
  EXPECT_EQ(ref.error, r.error);
  EXPECT_EQ(ref.diagnostics, r.diagnostics);
  EXPECT_EQ(ref.result.actions_replayed, r.result.actions_replayed);
}

// ---------------------------------------------------------------------------
// Engine-stat regression: the default engine takes the fast path.
// ---------------------------------------------------------------------------

TEST(ParallelReplayTest, FastPathCountersFireOnEagerTraffic) {
  // Eager-send-heavy trace: rank 0 pipelines 16 KiB messages (well under
  // the 64 KiB eager threshold) with tiny computes in between while rank 1
  // sits in one long compute before draining. The sender's buffer-copy and
  // compute completions are the next global event every time — the
  // canonical inline-completable awaits.
  using trace::Action;
  using trace::ActionType;
  constexpr int kMsgs = 16;
  std::vector<std::vector<Action>> actions(2);
  actions[0].push_back({0, ActionType::comm_size, -1, 0, 0, 2});
  actions[1].push_back({1, ActionType::comm_size, -1, 0, 0, 2});
  actions[1].push_back({1, ActionType::compute, -1, 5e9, 0, 0});
  for (int m = 0; m < kMsgs; ++m) {
    actions[0].push_back({0, ActionType::send, 1, 16 * 1024.0, 0, 0});
    actions[0].push_back({0, ActionType::compute, -1, 1e4, 0, 0});
    actions[1].push_back({1, ActionType::recv, 0, 0, 0, 0});
  }
  ScenarioSpec spec = cluster_spec(2, std::move(actions));

  const ReplayResult on = run_scenario(spec);
  EXPECT_GT(on.engine_stats.fast_path_inline, 0u)
      << "default engine never inlined a completion on eager traffic";

  spec.config.reference_engine = true;
  const ReplayResult off = run_scenario(spec);
  EXPECT_EQ(0u, off.engine_stats.fast_path_inline);
  EXPECT_EQ(0u, off.engine_stats.fast_path_ready);

  // The avoided work is visible: every inlined completion is a coroutine
  // resume the reference engine had to pay for.
  EXPECT_LT(on.engine_stats.resumes, off.engine_stats.resumes);
  EXPECT_TRUE(bit_equal(on.simulated_time, off.simulated_time));
}
