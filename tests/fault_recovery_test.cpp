// Fault timelines with recovery: transient outages must bound the damage
// between the healthy run and the permanently-degraded run, recovery must
// restore the factor captured at activation (not blindly reset to nominal),
// and repeated same-resource faults must overwrite — never compound.
#include <gtest/gtest.h>

#include <cstring>

#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "support/error.hpp"

using namespace tir;
using namespace tir::replay;
using trace::Action;
using trace::ActionType;

namespace {

constexpr const char* kHost0 = "bordereau-0.bordeaux.grid5000.fr";
constexpr const char* kBackbone = "bordereau-backbone";

ScenarioSpec base_spec(const std::shared_ptr<const plat::Platform>& platform,
                       const std::vector<int>& hosts,
                       std::vector<std::vector<Action>> streams) {
  ScenarioSpec spec;
  spec.platform = platform;
  spec.process_hosts = hosts;
  spec.traces = trace::TraceSet::in_memory(std::move(streams));
  return spec;
}

/// Two ranks streaming several large messages each way: long enough on the
/// wire that a mid-run outage window lands inside the transfer.
std::vector<std::vector<Action>> comm_heavy() {
  std::vector<std::vector<Action>> streams(2);
  for (int round = 0; round < 4; ++round) {
    streams[0].push_back({0, ActionType::send, 1, 64 << 20, 0, 0});
    streams[0].push_back({0, ActionType::recv, 1, 64 << 20, 0, 0});
    streams[1].push_back({1, ActionType::recv, 0, 64 << 20, 0, 0});
    streams[1].push_back({1, ActionType::send, 0, 64 << 20, 0, 0});
  }
  return streams;
}

/// Two ranks computing, then exchanging a midsize message.
std::vector<std::vector<Action>> compute_heavy() {
  return {
      {{0, ActionType::compute, -1, 4e9, 0, 0},
       {0, ActionType::send, 1, 1024, 0, 0}},
      {{1, ActionType::compute, -1, 4e9, 0, 0},
       {1, ActionType::recv, 0, 1024, 0, 0}},
  };
}

FaultSpec host_fault(const std::string& target, double factor, double at,
                     double until = 0.0) {
  FaultSpec fault;
  fault.kind = FaultSpec::Kind::host;
  fault.target = target;
  fault.compute_factor = factor;
  fault.at_time = at;
  fault.until_time = until;
  return fault;
}

FaultSpec link_fault(const std::string& target, double bw_factor, double at,
                     double until = 0.0) {
  FaultSpec fault;
  fault.kind = FaultSpec::Kind::link;
  fault.target = target;
  fault.bandwidth_factor = bw_factor;
  fault.at_time = at;
  fault.until_time = until;
  return fault;
}

struct Cluster {
  std::shared_ptr<const plat::Platform> platform;
  std::vector<int> hosts;
};

Cluster make_cluster(int n) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(n));
  return {platform, hosts};
}

}  // namespace

// The acceptance differential: degrade the backbone at t1, restore it at
// t2. The result must be strictly between the healthy run and the
// permanently-degraded run, and identical whether the incremental solver or
// the reference engine's full solve computes it.
TEST(FaultRecoveryTest, LinkRecoveryLandsBetweenHealthyAndPermanent) {
  const auto [platform, hosts] = make_cluster(2);
  const auto baseline = base_spec(platform, hosts, comm_heavy());
  const double healthy = run_scenario(baseline).simulated_time;

  const double t1 = healthy * 0.25, t2 = healthy * 0.5;
  auto transient = baseline;
  transient.faults.push_back(link_fault(kBackbone, 0.01, t1, t2));
  auto permanent = baseline;
  permanent.faults.push_back(link_fault(kBackbone, 0.01, t1));

  const double recovered = run_scenario(transient).simulated_time;
  const double degraded = run_scenario(permanent).simulated_time;
  EXPECT_GT(recovered, healthy);
  EXPECT_LT(recovered, degraded);

  // In-flight transfers are re-rated on both transitions; the incremental
  // solver and the reference engine's full solve must agree bit-for-bit.
  auto full = transient;
  full.config.reference_engine = true;
  const double reference = run_scenario(full).simulated_time;
  EXPECT_EQ(std::memcmp(&recovered, &reference, sizeof recovered), 0)
      << "incremental " << recovered << " vs full-solve " << reference;
}

TEST(FaultRecoveryTest, HostRecoveryLandsBetweenHealthyAndPermanent) {
  const auto [platform, hosts] = make_cluster(2);
  const auto baseline = base_spec(platform, hosts, compute_heavy());
  const double healthy = run_scenario(baseline).simulated_time;

  const double t1 = healthy * 0.25, t2 = healthy * 0.5;
  auto transient = baseline;
  transient.faults.push_back(host_fault(kHost0, 0.1, t1, t2));
  auto permanent = baseline;
  permanent.faults.push_back(host_fault(kHost0, 0.1, t1));

  const double recovered = run_scenario(transient).simulated_time;
  const double degraded = run_scenario(permanent).simulated_time;
  EXPECT_GT(recovered, healthy);
  EXPECT_LT(recovered, degraded);
}

// Recovery restores the factor captured at activation: a transient outage
// on a host already degraded to 0.5 must return it to 0.5, not to nominal.
// The run with the extra outage is strictly slower than the 0.5-only run
// but strictly faster than staying at outage severity forever.
TEST(FaultRecoveryTest, RecoveryRestoresTheCapturedFactor) {
  const auto [platform, hosts] = make_cluster(2);
  auto degraded_only = base_spec(platform, hosts, compute_heavy());
  degraded_only.faults.push_back(host_fault(kHost0, 0.5, 0.0));
  const double base = run_scenario(degraded_only).simulated_time;

  const double t1 = base * 0.25, t2 = base * 0.5;
  auto with_outage = degraded_only;
  with_outage.faults.push_back(host_fault(kHost0, 0.05, t1, t2));
  auto outage_forever = degraded_only;
  outage_forever.faults.push_back(host_fault(kHost0, 0.05, t1));

  const double transient = run_scenario(with_outage).simulated_time;
  const double permanent = run_scenario(outage_forever).simulated_time;
  EXPECT_GT(transient, base);
  EXPECT_LT(transient, permanent);
}

// Factors are absolute relative to nominal: applying the identical fault a
// second time mid-run is a no-op, not a squaring. A compounding engine
// would make the two-fault run ~2x slower than the one-fault run.
TEST(FaultRecoveryTest, SameResourceFaultsOverwriteNotCompound) {
  const auto [platform, hosts] = make_cluster(2);
  auto once = base_spec(platform, hosts, compute_heavy());
  once.faults.push_back(host_fault(kHost0, 0.5, 0.0));
  const double one_fault = run_scenario(once).simulated_time;

  auto twice = once;
  twice.faults.push_back(host_fault(kHost0, 0.5, one_fault * 0.5));
  EXPECT_DOUBLE_EQ(run_scenario(twice).simulated_time, one_fault);
}

// A flap train (repeat > 1) injects every cycle: three outages slow the run
// more than one, and the whole timeline stays strictly below permanent
// degradation.
TEST(FaultRecoveryTest, FlapTrainDegradesMoreThanASingleFlap) {
  const auto [platform, hosts] = make_cluster(2);
  const auto baseline = base_spec(platform, hosts, comm_heavy());
  const double healthy = run_scenario(baseline).simulated_time;

  const double outage = healthy * 0.05, period = healthy * 0.2;
  auto single = baseline;
  single.faults.push_back(link_fault(kBackbone, 0.01, 0.0, outage));
  auto train = baseline;
  train.faults.push_back(link_fault(kBackbone, 0.01, 0.0, outage));
  train.faults.back().repeat = 3;
  train.faults.back().period = period;
  auto permanent = baseline;
  permanent.faults.push_back(link_fault(kBackbone, 0.01, 0.0));

  const double one_flap = run_scenario(single).simulated_time;
  const double three_flaps = run_scenario(train).simulated_time;
  const double forever = run_scenario(permanent).simulated_time;
  EXPECT_GT(one_flap, healthy);
  EXPECT_GT(three_flaps, one_flap);
  EXPECT_LT(three_flaps, forever);
}

// Flap-train parameter validation: a repeat train needs a recovery window
// and a period long enough to contain it.
TEST(FaultRecoveryTest, InvalidFlapTrainsAreRejected) {
  const auto [platform, hosts] = make_cluster(2);
  auto spec = base_spec(platform, hosts, compute_heavy());

  auto no_recovery = host_fault(kHost0, 0.5, 0.0);
  no_recovery.repeat = 3;
  no_recovery.period = 1.0;
  spec.faults.push_back(no_recovery);
  EXPECT_THROW(validate_faults(spec), SimError);

  auto short_period = host_fault(kHost0, 0.5, 0.0, 0.5);
  short_period.repeat = 3;
  short_period.period = 0.25;  // outage lasts 0.5 — cycles would overlap
  spec.faults.back() = short_period;
  EXPECT_THROW(validate_faults(spec), SimError);
}

// validate_faults() catches bad targets without replaying, and prefixes the
// scenario name so a mid-list failure is attributable.
TEST(FaultRecoveryTest, ValidateFaultsNamesTheScenario) {
  const auto [platform, hosts] = make_cluster(2);
  auto spec = base_spec(platform, hosts, compute_heavy());
  spec.name = "broken";
  spec.faults.push_back(host_fault("no-such-host", 0.5, 0.0));
  try {
    validate_faults(spec);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("scenario 'broken'"), std::string::npos) << message;
    EXPECT_NE(message.find("no-such-host"), std::string::npos) << message;
  }
}
