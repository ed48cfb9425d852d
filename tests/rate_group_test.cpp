// Rate groups: flows behind one saturated resource share one rate, one
// incremental solver update and one finish-queue entry. These tests pin the
// single-bottleneck update against the fill (bit for bit) and against
// closed-form processor-sharing finish times, and cover the hand-overs the
// update must leave to the fill: the bottleneck moving between the backbone
// and the NICs, a backbone degradation while a group is live, members
// sharing a NIC, and the coroutine fast path's runner-up check.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "simkern/engine.hpp"
#include "simkern/maxmin.hpp"
#include "trace/compact.hpp"
#include "trace/synthetic.hpp"

using namespace tir;
using tir::sim::MaxMin;
using tir::sim::ResourceId;
using tir::sim::VarId;

namespace {

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_relative(double got, double want, double rel) {
  EXPECT_NEAR(got, want, rel * std::abs(want)) << "want " << want;
}

/// `hosts` hosts behind private links of `nic` B/s and one backbone of
/// `backbone` B/s, with zero latencies and an affine network model:
/// transfers start flowing at once and follow the fluid model exactly.
plat::Platform star(int hosts, double nic, double backbone) {
  plat::Platform p;
  plat::ClusterSpec spec;
  spec.count = hosts;
  spec.bandwidth = nic;
  spec.latency = 0.0;
  spec.backbone_bandwidth = backbone;
  spec.backbone_latency = 0.0;
  plat::build_cluster(p, spec);
  p.set_net_model(plat::PiecewiseNetModel::affine_model());
  return p;
}

struct Flow {
  int src, dst;
  double start;  // simulated start time
  double bytes;
};

struct FlowRun {
  std::vector<double> done;  // per-flow completion times
  sim::EngineStats stats;
};

/// Runs one process per flow: sleep until its start, transfer, record the
/// completion time. `degrade` (if >= 0) halves the backbone's bandwidth at
/// that simulated time.
FlowRun run_flows(const plat::Platform& platform, const std::vector<Flow>& flows,
                  bool reference, double degrade = -1.0) {
  sim::EngineConfig config;
  config.full_solve = reference;
  config.fast_path = !reference;
  sim::Engine engine(platform, config);
  FlowRun run;
  run.done.assign(flows.size(), -1.0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    engine.spawn("flow", flows[i].src, [&, i](sim::Process&) -> sim::Task {
      co_await engine.wait_for(flows[i].start);
      co_await engine.wait(
          engine.transfer_async(flows[i].src, flows[i].dst, flows[i].bytes));
      run.done[i] = engine.now();
    });
  }
  if (degrade >= 0) {
    const auto backbone = platform.find_link("node-backbone");
    engine.spawn("fault", 0, [&, backbone](sim::Process&) -> sim::Task {
      co_await engine.wait_for(degrade);
      engine.degrade_link(*backbone, 0.5, 1.0);
    });
  }
  engine.run();
  run.stats = engine.stats();
  return run;
}

/// The default engine and the reference engine (full solve, no fast path)
/// must agree bit for bit.
FlowRun run_both(const plat::Platform& platform, const std::vector<Flow>& flows,
                 double degrade = -1.0) {
  const FlowRun ref = run_flows(platform, flows, true, degrade);
  FlowRun run = run_flows(platform, flows, false, degrade);
  for (std::size_t i = 0; i < flows.size(); ++i)
    EXPECT_TRUE(bit_equal(ref.done[i], run.done[i]))
        << "flow " << i << ": " << ref.done[i] << " vs " << run.done[i];
  EXPECT_EQ(ref.stats.flows_rerated, run.stats.flows_rerated);
  EXPECT_EQ(0u, ref.stats.solver_group_updates);
  return run;
}

}  // namespace

// N equal flows start d apart behind one backbone (NICs never bind). With
// processor sharing the k-th arrival has received C·d·(H(N-1) - H(k)) bytes
// when the last one arrives, then they leave in arrival order: the closed
// form below.
TEST(RateGroup, StaggeredFlowsOnOneBackboneFinishAtClosedFormTimes) {
  constexpr int kFlows = 12;
  constexpr double kBackbone = 1e9, kGap = 1e-3, kBytes = 1e7;
  const auto platform = star(2 * kFlows, 1e12, kBackbone);
  std::vector<Flow> flows;
  for (int i = 0; i < kFlows; ++i)
    flows.push_back({i, kFlows + i, i * kGap, kBytes});
  const FlowRun run = run_both(platform, flows);

  const auto harmonic = [](int k) {
    double h = 0.0;
    for (int j = 1; j <= k; ++j) h += 1.0 / j;
    return h;
  };
  std::vector<double> remaining(kFlows);
  for (int i = 0; i < kFlows; ++i)
    remaining[static_cast<std::size_t>(i)] =
        kBytes - kBackbone * kGap * (harmonic(kFlows - 1) - harmonic(i));
  double t = (kFlows - 1) * kGap + remaining[0] * kFlows / kBackbone;
  expect_relative(run.done[0], t, 1e-12);
  for (int k = 1; k < kFlows; ++k) {
    const auto u = static_cast<std::size_t>(k);
    t += (remaining[u] - remaining[u - 1]) * (kFlows - k) / kBackbone;
    expect_relative(run.done[u], t, 1e-12);
  }
  // The eighth arrival (the smallest component the fill groups) forms the
  // group; every later arrival and every departure but the last is
  // absorbed without a fill.
  EXPECT_EQ(run.stats.solver_group_updates,
            static_cast<std::uint64_t>((kFlows - 8) + (kFlows - 1)));
}

// On bordereau the backbone is 10 NICs wide: with more than 10 disjoint
// flows the backbone sets every rate (one group), with fewer each flow is
// NIC-bound. Adding and removing flows across the boundary must hand the
// system between the incremental update and the fill without a rate ever
// differing from a full solve or a fresh rebuild.
TEST(RateGroup, BottleneckMovesBetweenBackboneAndNics) {
  constexpr double kNic = 1.25e8;
  constexpr int kMax = 16;
  MaxMin inc;
  MaxMin full;
  full.set_full_solve(true);
  std::vector<ResourceId> nics;
  for (int i = 0; i < 2 * kMax; ++i) {
    nics.push_back(inc.add_resource(kNic));
    full.add_resource(kNic);
  }
  const ResourceId backbone = inc.add_resource(10 * kNic);
  full.add_resource(10 * kNic);

  std::vector<VarId> vars;
  const auto check = [&](int n) {
    SCOPED_TRACE(n);
    inc.solve();
    full.solve();
    MaxMin fresh;
    for (int i = 0; i < 2 * kMax; ++i) fresh.add_resource(kNic);
    fresh.add_resource(10 * kNic);
    std::vector<VarId> fresh_vars;
    for (int i = 0; i < n; ++i)
      fresh_vars.push_back(fresh.add_variable(
          1.0, {nics[static_cast<std::size_t>(2 * i)], backbone,
                nics[static_cast<std::size_t>(2 * i + 1)]}));
    fresh.solve();
    const double want = n >= 10 ? 10 * kNic / n : kNic;
    for (int i = 0; i < n; ++i) {
      const VarId v = vars[static_cast<std::size_t>(i)];
      EXPECT_TRUE(bit_equal(inc.rate(v), want)) << inc.rate(v);
      EXPECT_TRUE(bit_equal(inc.rate(v), full.rate(v)));
      EXPECT_TRUE(bit_equal(
          inc.rate(v), fresh.rate(fresh_vars[static_cast<std::size_t>(i)])));
      // Backbone-bound: one group around the backbone. NIC-bound: each
      // flow in its own group, rated by the fill.
      if (n >= 10) {
        EXPECT_EQ(inc.group_of(v), inc.group_of(vars[0]));
        EXPECT_EQ(inc.group_bottleneck(inc.group_of(v)), backbone);
      } else if (n > 1) {
        EXPECT_EQ(inc.group_bottleneck(inc.group_of(v)), -1);
      }
    }
  };

  for (int n = 1; n <= kMax; ++n) {
    vars.push_back(inc.add_variable(
        1.0, {nics[static_cast<std::size_t>(2 * n - 2)], backbone,
              nics[static_cast<std::size_t>(2 * n - 1)]}));
    full.add_variable(1.0, {nics[static_cast<std::size_t>(2 * n - 2)],
                            backbone,
                            nics[static_cast<std::size_t>(2 * n - 1)]});
    check(n);
  }
  const auto updates_up = inc.solve_stats().group_updates;
  // Joins past the boundary (n = 11..16) are absorbed incrementally.
  EXPECT_GE(updates_up, 6u);
  for (int n = kMax; n > 1; --n) {
    inc.remove_variable(vars.back());
    full.remove_variable(vars.back());
    vars.pop_back();
    check(n - 1);
  }
  EXPECT_GE(inc.solve_stats().group_updates - updates_up, 5u);
  EXPECT_EQ(full.solve_stats().group_updates, 0u);

  // The engine agrees: 12 flows start 1 ms apart on bordereau, so the
  // bottleneck moves to the backbone at the 11th arrival and back to the
  // NICs as they drain.
  const auto platform = star(24, kNic, 10 * kNic);
  std::vector<Flow> flows;
  for (int i = 0; i < 12; ++i) flows.push_back({i, 12 + i, i * 1e-3, 2e6});
  const FlowRun run = run_both(platform, flows);
  EXPECT_GT(run.stats.solver_group_updates, 0u);
}

// 16 equal flows share the backbone at 10·c/16 each; halving the backbone
// at t_d re-rates the whole group at once (a capacity change goes through
// the fill) and every flow finishes at t_d + (A - r·t_d) / (r/2).
TEST(RateGroup, BackboneDegradationWhileAGroupIsLive) {
  constexpr double kNic = 1.25e8, kBytes = 1e7, kDegrade = 0.05;
  const auto platform = star(32, kNic, 10 * kNic);
  std::vector<Flow> flows;
  for (int i = 0; i < 16; ++i) flows.push_back({i, 16 + i, 0.0, kBytes});
  const FlowRun run = run_both(platform, flows, kDegrade);
  const double rate = 10 * kNic / 16;
  const double want = kDegrade + (kBytes - rate * kDegrade) / (rate / 2);
  for (const double t : run.done) expect_relative(t, want, 1e-12);
}

// 24 flows share a backbone 10 NICs wide (10c/24 ≈ 0.42c each), and two of
// them leave through one NIC, whose heap key is c/2: the backbone still
// binds. A third flow through that NIC drops its key to c/3 below the
// backbone's 10c/25 = 0.4c: the incremental update's check fails, the fill
// finds the NIC binding first and the group dissolves. Removing that flow
// again brings the group back through the fill.
TEST(RateGroup, TwoMembersSharingANic) {
  constexpr double kNic = 1.25e8;
  constexpr int kFlows = 24;
  MaxMin m;
  std::vector<ResourceId> nic;
  for (int i = 0; i < 2 * kFlows + 1; ++i) nic.push_back(m.add_resource(kNic));
  const ResourceId backbone = m.add_resource(10 * kNic);
  std::vector<VarId> vars;
  for (int i = 0; i < kFlows; ++i) {
    // Flows 0 and 1 both leave through nic[0].
    const auto src = static_cast<std::size_t>(i == 1 ? 0 : 2 * i);
    vars.push_back(m.add_variable(
        1.0, {nic[src], backbone, nic[static_cast<std::size_t>(2 * i + 1)]}));
  }
  m.solve();
  const auto group = m.group_of(vars[0]);
  EXPECT_EQ(m.group_bottleneck(group), backbone);
  for (const VarId v : vars) {
    EXPECT_EQ(m.group_of(v), group);
    EXPECT_EQ(m.rate(v), 10 * kNic / kFlows);
  }

  const auto before = m.solve_stats().group_updates;
  const VarId third = m.add_variable(
      1.0, {nic[0], backbone, nic[static_cast<std::size_t>(2 * kFlows)]});
  m.solve();
  EXPECT_EQ(m.solve_stats().group_updates, before);  // the fill answered
  EXPECT_EQ(m.group_bottleneck(m.group_of(vars[0])), -1);
  EXPECT_EQ(m.rate(vars[0]), kNic / 3);
  EXPECT_EQ(m.rate(third), kNic / 3);
  EXPECT_GT(m.rate(vars[2]), kNic / 3);

  m.remove_variable(third);
  m.solve();
  EXPECT_EQ(m.group_bottleneck(m.group_of(vars[0])), backbone);
  for (const VarId v : vars) EXPECT_EQ(m.rate(v), 10 * kNic / kFlows);

  // In the engine: 0→1 and 0→2 (8 MB each) at c/2 finish at 16e6/c, when
  // 3→4 (started at 0.01 s, 4 MB) is long done at 0.01 + 4e6/c.
  const auto platform = star(5, kNic, 10 * kNic);
  const FlowRun run = run_both(
      platform, {{0, 1, 0.0, 8e6}, {0, 2, 0.0, 8e6}, {3, 4, 0.01, 4e6}});
  expect_relative(run.done[0], 16e6 / kNic, 1e-12);
  expect_relative(run.done[1], 16e6 / kNic, 1e-12);
  expect_relative(run.done[2], 0.01 + 4e6 / kNic, 1e-12);
}

// One process starts eight equal flows through its NIC (a group around the
// NIC) and awaits the first. The finish queue holds a single entry, the
// group's, so the root has no children — but the group-mates finish at the
// same instant, so the await must not complete inline: the sequential loop
// completes them all in one batch.
TEST(RateGroup, FastPathSeesTheGroupMateAsRunnerUp) {
  constexpr int kFlows = 8;
  const auto platform = star(kFlows + 1, 1.25e8, 1.25e9);
  for (const bool reference : {true, false}) {
    sim::EngineConfig config;
    config.full_solve = reference;
    config.fast_path = !reference;
    sim::Engine engine(platform, config);
    std::vector<double> done;
    engine.spawn("sender", 0, [&](sim::Process&) -> sim::Task {
      std::vector<sim::ActivityPtr> flows;
      for (int i = 1; i <= kFlows; ++i)
        flows.push_back(engine.transfer_async(0, i, 1e6));
      for (const auto& flow : flows) {
        co_await engine.wait(flow);
        done.push_back(engine.now());
      }
    });
    engine.run();
    EXPECT_EQ(engine.stats().fast_path_inline, 0u) << reference;
    ASSERT_EQ(done.size(), static_cast<std::size_t>(kFlows));
    EXPECT_DOUBLE_EQ(done[0], kFlows * 1e6 / 1.25e8);
    for (const double t : done) EXPECT_TRUE(bit_equal(t, done[0]));
  }
}

// A 64-rank CG exchange on bordereau crosses the shared backbone with
// dozens of flows at a time: the incremental update answers solves, and the
// replay matches the reference engine bit for bit.
TEST(RateGroup, CgOnBordereauUsesGroupUpdatesAndMatchesReference) {
  trace::SyntheticSpec spec;
  spec.pattern = trace::SyntheticPattern::cg;
  spec.nprocs = 64;
  spec.iterations = 20;
  std::vector<std::vector<trace::Action>> actions;
  for (int p = 0; p < spec.nprocs; ++p)
    actions.push_back(trace::expand(trace::synthetic_program(spec, p)));
  auto platform = std::make_shared<plat::Platform>();
  replay::ScenarioSpec scenario;
  scenario.platform = platform;
  scenario.process_hosts =
      plat::build_cluster(*platform, plat::bordereau_spec(spec.nprocs));
  scenario.traces = trace::TraceSet::in_memory(std::move(actions));

  const auto run = replay::run_scenario(scenario);
  scenario.config.reference_engine = true;
  const auto ref = replay::run_scenario(scenario);
  EXPECT_GT(run.engine_stats.solver_group_updates, 0u);
  EXPECT_EQ(ref.engine_stats.solver_group_updates, 0u);
  EXPECT_LT(run.engine_stats.solver_vars_touched,
            ref.engine_stats.solver_vars_touched);
  EXPECT_TRUE(bit_equal(run.simulated_time, ref.simulated_time));
  ASSERT_EQ(run.process_finish_times.size(), ref.process_finish_times.size());
  for (std::size_t p = 0; p < run.process_finish_times.size(); ++p)
    EXPECT_TRUE(
        bit_equal(run.process_finish_times[p], ref.process_finish_times[p]))
        << "process " << p;
}
