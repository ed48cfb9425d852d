#include <gtest/gtest.h>

#include <cstring>

#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "replay/sweep.hpp"
#include "support/error.hpp"

using namespace tir;
using namespace tir::replay;
using trace::Action;
using trace::ActionType;

namespace {

ScenarioSpec base_spec(const std::shared_ptr<const plat::Platform>& platform,
                       const std::vector<int>& hosts,
                       std::vector<std::vector<Action>> streams) {
  ScenarioSpec spec;
  spec.platform = platform;
  spec.process_hosts = hosts;
  spec.traces = trace::TraceSet::in_memory(std::move(streams));
  return spec;
}

/// Two ranks computing, then exchanging a midsize message.
std::vector<std::vector<Action>> compute_heavy() {
  return {
      {{0, ActionType::compute, -1, 1e9, 0, 0},
       {0, ActionType::send, 1, 1024, 0, 0}},
      {{1, ActionType::compute, -1, 1e9, 0, 0},
       {1, ActionType::recv, 0, 1024, 0, 0}},
  };
}

/// Two ranks pushing a large message each way across the backbone.
std::vector<std::vector<Action>> comm_heavy() {
  return {
      {{0, ActionType::send, 1, 64 << 20, 0, 0},
       {0, ActionType::recv, 1, 64 << 20, 0, 0}},
      {{1, ActionType::recv, 0, 64 << 20, 0, 0},
       {1, ActionType::send, 0, 64 << 20, 0, 0}},
  };
}

FaultSpec host_fault(const std::string& target, double factor,
                     double at_time) {
  FaultSpec fault;
  fault.kind = FaultSpec::Kind::host;
  fault.target = target;
  fault.compute_factor = factor;
  fault.at_time = at_time;
  return fault;
}

FaultSpec link_fault(const std::string& target, double bw_factor,
                     double at_time) {
  FaultSpec fault;
  fault.kind = FaultSpec::Kind::link;
  fault.target = target;
  fault.bandwidth_factor = bw_factor;
  fault.at_time = at_time;
  return fault;
}

}  // namespace

TEST(FaultTest, HostFaultSlowsComputeBoundReplay) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(2));
  const auto baseline = base_spec(platform, hosts, compute_heavy());

  auto faulted = baseline;
  faulted.faults.push_back(host_fault("bordereau-0.bordeaux.grid5000.fr", 0.1, 0.0));

  const double healthy = run_scenario(baseline).simulated_time;
  const double degraded = run_scenario(faulted).simulated_time;
  EXPECT_GT(degraded, healthy);
  // A 10x slower host stretches a compute-bound run by roughly 10x.
  EXPECT_GT(degraded, 5.0 * healthy);
}

TEST(FaultTest, LinkFaultSlowsCommunicationBoundReplay) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(2));
  const auto baseline = base_spec(platform, hosts, comm_heavy());

  auto faulted = baseline;
  faulted.faults.push_back(link_fault("bordereau-backbone", 0.01, 0.0));

  const double healthy = run_scenario(baseline).simulated_time;
  const double degraded = run_scenario(faulted).simulated_time;
  // Healthy runs bottleneck on the 1.25e8 B/s NIC; the degraded backbone
  // (1.25e9 * 0.01 = 1.25e7 B/s) becomes the new bottleneck, ~10x slower.
  EXPECT_GT(degraded, 5.0 * healthy);
}

TEST(FaultTest, MidRunFaultDegradesLessThanImmediateFault) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(2));
  const auto baseline = base_spec(platform, hosts, compute_heavy());
  const double healthy = run_scenario(baseline).simulated_time;

  auto immediate = baseline;
  immediate.faults.push_back(host_fault("bordereau-0.bordeaux.grid5000.fr", 0.1, 0.0));
  auto midway = baseline;
  midway.faults.push_back(host_fault("bordereau-0.bordeaux.grid5000.fr", 0.1, healthy / 2));

  const double from_start = run_scenario(immediate).simulated_time;
  const double from_midway = run_scenario(midway).simulated_time;
  EXPECT_GT(from_midway, healthy);
  EXPECT_LT(from_midway, from_start);
}

TEST(FaultTest, FaultPastEndOfRunLeavesTheResultUnchanged) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(2));
  const auto baseline = base_spec(platform, hosts, compute_heavy());
  const double healthy = run_scenario(baseline).simulated_time;

  auto late = baseline;
  late.faults.push_back(host_fault("bordereau-0.bordeaux.grid5000.fr", 0.1, 10.0 * healthy));
  // All ranks finish before the fault activates; the makespan is the max
  // of the process finish times, not the fault timer.
  const auto result = run_scenario(late);
  EXPECT_DOUBLE_EQ(result.simulated_time, healthy);
}

TEST(FaultTest, FaultTargetByIdMatchesTargetByName) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(2));
  const auto baseline = base_spec(platform, hosts, compute_heavy());

  auto by_name = baseline;
  by_name.faults.push_back(host_fault("bordereau-0.bordeaux.grid5000.fr", 0.25, 0.0));
  auto by_id = baseline;
  FaultSpec fault;
  fault.kind = FaultSpec::Kind::host;
  fault.id = hosts[0];
  fault.compute_factor = 0.25;
  by_id.faults.push_back(fault);

  EXPECT_DOUBLE_EQ(run_scenario(by_name).simulated_time,
                   run_scenario(by_id).simulated_time);
}

TEST(FaultTest, UnknownFaultTargetFails) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(2));
  auto spec = base_spec(platform, hosts, compute_heavy());
  spec.faults.push_back(host_fault("no-such-host", 0.5, 0.0));
  EXPECT_THROW(run_scenario(spec), SimError);

  const auto report = run_scenario_report(spec);
  EXPECT_EQ(report.status, ReplayStatus::failed);
  EXPECT_NE(report.error.find("no-such-host"), std::string::npos);
}

TEST(FaultTest, InvalidFaultParametersFail) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(2));
  auto spec = base_spec(platform, hosts, compute_heavy());
  spec.faults.push_back(host_fault("bordereau-0.bordeaux.grid5000.fr", -0.5, 0.0));
  EXPECT_THROW(run_scenario(spec), SimError);
  spec.faults.back() = host_fault("bordereau-0.bordeaux.grid5000.fr", 0.5, -1.0);
  EXPECT_THROW(run_scenario(spec), SimError);
}

// The acceptance pairing: a fault-injected scenario predicts a strictly
// larger simulated time than its baseline, and both rows come out of one
// sweep deterministically (1 worker vs 2 workers bit-identical).
TEST(FaultTest, FaultedSweepIsDeterministicWithBothRows) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(2));
  const auto traces = trace::TraceSet::in_memory(compute_heavy());

  ScenarioSpec baseline;
  baseline.name = "baseline";
  baseline.platform = platform;
  baseline.process_hosts = hosts;
  baseline.traces = traces;

  ScenarioSpec faulted = baseline;
  faulted.name = "host-degraded";
  faulted.faults.push_back(host_fault("bordereau-0.bordeaux.grid5000.fr", 0.1, 0.0));

  const std::vector<ScenarioSpec> scenarios = {baseline, faulted};
  const auto serial = run_sweep(scenarios, {.workers = 1});
  const auto parallel = run_sweep(scenarios, {.workers = 2});

  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(parallel.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    EXPECT_EQ(serial[i].status, ReplayStatus::ok);
    EXPECT_EQ(serial[i].name, scenarios[i].name);
    const double a = serial[i].replay.simulated_time;
    const double b = parallel[i].replay.simulated_time;
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
        << "row " << i << ": serial " << a << " vs parallel " << b;
  }
  EXPECT_GT(serial[1].replay.simulated_time,
            serial[0].replay.simulated_time);
}

// A link's latency degrades while a message on its route is still in its
// latency phase. The in-flight message keeps the latency it started with,
// the next message on the route gets the new one (the cached route is
// updated in place, not dropped, so the in-flight transfer's shared route
// list stays valid), and the default engine matches the reference engine
// bit for bit.
TEST(FaultTest, LatencyFaultSparesTheMessageInItsLatencyPhase) {
  constexpr double kLatency = 1e-3, kBandwidth = 1e8, kBytes = 1e3;
  const auto platform = std::make_shared<plat::Platform>();
  plat::ClusterSpec cluster;
  cluster.count = 2;
  cluster.bandwidth = kBandwidth;
  cluster.latency = kLatency;
  cluster.backbone_bandwidth = 10 * kBandwidth;
  cluster.backbone_latency = kLatency;
  const auto hosts = plat::build_cluster(*platform, cluster);
  platform->set_net_model(plat::PiecewiseNetModel::affine_model());

  auto spec = base_spec(platform, hosts,
                        {{{0, ActionType::send, 1, kBytes, 0, 0},
                          {0, ActionType::compute, -1, 1e7, 0, 0},
                          {0, ActionType::send, 1, kBytes, 0, 0}},
                         {{1, ActionType::recv, 0, kBytes, 0, 0},
                          {1, ActionType::recv, 0, kBytes, 0, 0}}});
  spec.config.record_timed_trace = true;
  FaultSpec fault = link_fault("node-0_nic", 1.0, 1.5 * kLatency);
  fault.latency_factor = 10.0;
  spec.faults.push_back(fault);

  const ReplayResult run = run_scenario(spec);
  spec.config.reference_engine = true;
  const ReplayResult ref = run_scenario(spec);
  ASSERT_EQ(run.timed_trace.size(), ref.timed_trace.size());
  for (std::size_t i = 0; i < run.timed_trace.size(); ++i) {
    const TimedAction& a = run.timed_trace[i];
    const TimedAction& b = ref.timed_trace[i];
    EXPECT_EQ(a.pid, b.pid);
    EXPECT_EQ(std::memcmp(&a.start, &b.start, sizeof a.start), 0) << i;
    EXPECT_EQ(std::memcmp(&a.end, &b.end, sizeof a.end), 0) << i;
  }

  std::vector<TimedAction> sends, recvs;
  for (const TimedAction& t : run.timed_trace)
    (t.pid == 0 ? sends : recvs).push_back(t);
  ASSERT_EQ(sends.size(), 3u);
  ASSERT_EQ(recvs.size(), 2u);
  // Three links of kLatency each, then one of them at ten times that.
  EXPECT_NEAR(recvs[0].end, 3 * kLatency + kBytes / kBandwidth, 1e-12);
  EXPECT_NEAR(recvs[1].end,
              sends[2].start + 12 * kLatency + kBytes / kBandwidth, 1e-12);
}
