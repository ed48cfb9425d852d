// Differential tests of the incremental max-min solver: randomized
// add/remove/set_capacity sequences must produce the same rates as (a) a
// twin solver running in full-solve mode over the same op stream and (b) a
// solver rebuilt from scratch from the current system, and the changed-set
// reporting must be exact (sound and complete). Engine-level scenarios —
// including the degrade-link / degrade-host fault paths — must simulate to
// the same result with `full_solve` on and off.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "simkern/engine.hpp"
#include "simkern/maxmin.hpp"
#include "support/rng.hpp"

using namespace tir;
using tir::sim::MaxMin;
using tir::sim::ResourceId;
using tir::sim::VarId;

namespace {

constexpr double kTol = 1e-9;

void expect_close(double a, double b, const char* what) {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  EXPECT_NEAR(a, b, kTol * scale) << what;
}

/// Mirror of one solver system, used to (a) drive a full-solve twin with the
/// identical op stream (ids match because both recycle the same way) and
/// (b) rebuild a fresh reference solver from the current state.
struct SystemState {
  std::vector<double> capacities;
  struct LiveVar {
    VarId id;
    double weight;
    double bound;
    std::vector<ResourceId> resources;
  };
  std::map<VarId, LiveVar> live;  // ordered: deterministic rebuild order
};

/// Rebuilds a fresh solver from `state` and checks every live rate of `m`
/// against it.
void check_against_rebuild(MaxMin& m, const SystemState& state) {
  MaxMin fresh;
  for (const double c : state.capacities) fresh.add_resource(c);
  std::map<VarId, VarId> to_fresh;
  for (const auto& [id, v] : state.live)
    to_fresh[id] = fresh.add_variable(v.weight, v.resources, v.bound);
  fresh.solve();
  for (const auto& [id, v] : state.live)
    expect_close(m.rate(id), fresh.rate(to_fresh[id]), "vs fresh rebuild");
}

}  // namespace

TEST(MaxMinIncremental, RandomOpStreamMatchesFullSolveAndRebuild) {
  for (const std::uint64_t seed : {7ull, 42ull, 1234ull, 90210ull}) {
    Rng rng(seed);
    MaxMin inc;
    MaxMin full;
    full.set_full_solve(true);
    ASSERT_TRUE(full.full_solve());
    SystemState state;

    const int n_res = 12;
    for (int i = 0; i < n_res; ++i) {
      const double cap = rng.uniform(10.0, 1000.0);
      inc.add_resource(cap);
      full.add_resource(cap);
      state.capacities.push_back(cap);
    }

    // Rates already solved before a mutation must be preserved for
    // untouched vars; track them to verify changed-set soundness.
    std::map<VarId, double> last_rates;

    for (int step = 0; step < 400; ++step) {
      const double dice = rng.next_double();
      if (state.live.empty() || dice < 0.45) {
        // Add a variable (sometimes bound-only).
        std::vector<ResourceId> use;
        const int n_use = static_cast<int>(rng.next_below(4));  // 0..3
        for (int k = 0; k < n_use; ++k)
          use.push_back(static_cast<ResourceId>(rng.next_below(n_res)));
        const double bound = (use.empty() || rng.next_double() < 0.3)
                                 ? rng.uniform(1.0, 300.0)
                                 : MaxMin::kInf;
        const double weight = rng.uniform(0.5, 3.0);
        const VarId a = inc.add_variable(weight, use, bound);
        const VarId b = full.add_variable(weight, use, bound);
        ASSERT_EQ(a, b) << "id recycling diverged";
        state.live[a] = {a, weight, bound, use};
      } else if (dice < 0.75) {
        // Remove a random live variable.
        auto it = state.live.begin();
        std::advance(it, static_cast<long>(rng.next_below(state.live.size())));
        inc.remove_variable(it->first);
        full.remove_variable(it->first);
        last_rates.erase(it->first);
        state.live.erase(it);
      } else {
        const auto r = static_cast<ResourceId>(rng.next_below(n_res));
        const double cap = rng.uniform(10.0, 1000.0);
        inc.set_capacity(r, cap);
        full.set_capacity(r, cap);
        state.capacities[static_cast<std::size_t>(r)] = cap;
      }

      const auto changed = inc.solve_changed();
      full.solve();

      // Incremental rates match the full-solve twin.
      for (const auto& [id, v] : state.live)
        expect_close(inc.rate(id), full.rate(id), "vs full-solve twin");

      // Changed-set exactness: a var is reported iff its rate moved.
      std::vector<bool> reported(64, false);
      for (const VarId v : changed) {
        if (static_cast<std::size_t>(v) >= reported.size())
          reported.resize(static_cast<std::size_t>(v) + 1, false);
        reported[static_cast<std::size_t>(v)] = true;
      }
      for (const auto& [id, v] : state.live) {
        const auto it = last_rates.find(id);
        const bool in_changed = static_cast<std::size_t>(id) <
                                    reported.size() &&
                                reported[static_cast<std::size_t>(id)];
        if (it != last_rates.end() && !in_changed)
          EXPECT_EQ(inc.rate(id), it->second)
              << "var " << id << " moved without being reported";
        if (it != last_rates.end() && in_changed)
          EXPECT_NE(inc.rate(id), it->second)
              << "var " << id << " reported changed but did not move";
        last_rates[id] = inc.rate(id);
      }

      if (step % 50 == 49) check_against_rebuild(inc, state);
    }
    check_against_rebuild(inc, state);
    EXPECT_EQ(inc.active_variable_count(), state.live.size());
  }

  // Coupled-backbone stream: integer weights over private NICs plus one
  // shared backbone, so components are single-bottleneck groups that the
  // incremental update answers, until the backbone or a NIC changes
  // capacity or a heavy NIC takes over and the fill runs. Rates must match
  // the full-solve twin bit for bit, and a fresh rebuild bit for bit
  // whenever the rebuilt system is single-bottleneck too (otherwise its
  // fill visits the components in another order and may round differently).
  for (const std::uint64_t seed : {3ull, 77ull, 2024ull}) {
    Rng rng(seed);
    MaxMin inc;
    MaxMin full;
    full.set_full_solve(true);
    SystemState state;
    const int n_nics = 40;
    for (int i = 0; i <= n_nics; ++i) {
      const double cap = i == n_nics ? 1e8 : (i % 3 == 0 ? 5e7 : 1e8);
      inc.add_resource(cap);
      full.add_resource(cap);
      state.capacities.push_back(cap);
    }
    const auto backbone = static_cast<ResourceId>(n_nics);
    std::map<VarId, double> last_rates;
    for (int step = 0; step < 600; ++step) {
      const double dice = rng.next_double();
      if (state.live.size() < 4 || dice < 0.5) {
        const auto a = static_cast<ResourceId>(rng.next_below(n_nics));
        const auto b = static_cast<ResourceId>(rng.next_below(n_nics));
        const double weight = 1.0 + static_cast<double>(rng.next_below(3));
        const std::vector<ResourceId> use{a, backbone, b};
        const VarId x = inc.add_variable(weight, use);
        ASSERT_EQ(x, full.add_variable(weight, use));
        state.live[x] = {x, weight, MaxMin::kInf, use};
      } else if (dice < 0.95) {
        auto it = state.live.begin();
        std::advance(it, static_cast<long>(rng.next_below(state.live.size())));
        inc.remove_variable(it->first);
        full.remove_variable(it->first);
        last_rates.erase(it->first);
        state.live.erase(it);
      } else {
        const auto r = static_cast<ResourceId>(rng.next_below(n_nics + 1));
        const double cap = r == backbone ? rng.uniform(5e7, 5e8)
                                         : (rng.next_double() < 0.5 ? 1e8 : 2e7);
        inc.set_capacity(r, cap);
        full.set_capacity(r, cap);
        state.capacities[static_cast<std::size_t>(r)] = cap;
      }

      const auto changed = inc.solve_changed();
      full.solve();
      std::map<VarId, bool> reported;
      for (const VarId v : changed) reported[v] = true;
      for (const auto& [id, v] : state.live) {
        EXPECT_EQ(inc.rate(id), full.rate(id)) << "step " << step;
        const auto it = last_rates.find(id);
        if (it != last_rates.end())
          EXPECT_EQ(reported.count(id) > 0, inc.rate(id) != it->second)
              << "var " << id << " step " << step;
        last_rates[id] = inc.rate(id);
      }
      if (step % 25 == 24) {
        MaxMin fresh;
        for (const double c : state.capacities) fresh.add_resource(c);
        std::map<VarId, VarId> to_fresh;
        for (const auto& [id, v] : state.live)
          to_fresh[id] = fresh.add_variable(v.weight, v.resources, v.bound);
        fresh.solve();
        for (const auto& [id, v] : state.live) {
          const VarId f = to_fresh[id];
          if (fresh.group_bottleneck(fresh.group_of(f)) >= 0)
            EXPECT_EQ(inc.rate(id), fresh.rate(f)) << "step " << step;
          else
            expect_close(inc.rate(id), fresh.rate(f), "vs fresh rebuild");
        }
      }
    }
    // Both paths ran: incremental group updates and fills.
    EXPECT_GT(inc.solve_stats().group_updates, 100u);
    EXPECT_LT(inc.solve_stats().group_updates, inc.solve_stats().solves);
    EXPECT_EQ(full.solve_stats().group_updates, 0u);
  }
}

TEST(MaxMinIncremental, DisjointComponentsAreNotTouched) {
  MaxMin m;
  const auto ra = m.add_resource(100.0);
  const auto rb = m.add_resource(100.0);
  const auto a1 = m.add_variable(1.0, {ra});
  const auto a2 = m.add_variable(1.0, {ra});
  const auto b1 = m.add_variable(1.0, {rb});
  m.solve();
  EXPECT_DOUBLE_EQ(m.rate(b1), 100.0);

  const auto before = m.solve_stats().vars_touched;
  m.remove_variable(a1);
  const auto changed = m.solve_changed();
  // Only component A was re-solved; b1 is neither touched nor reported.
  EXPECT_EQ(m.solve_stats().vars_touched - before, 1u);
  EXPECT_EQ(m.solve_stats().last_component_vars, 1u);
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0], a2);
  EXPECT_DOUBLE_EQ(m.rate(a2), 100.0);
  EXPECT_DOUBLE_EQ(m.rate(b1), 100.0);
}

TEST(MaxMinIncremental, SetCapacityResolvesOnlyThatComponent) {
  MaxMin m;
  const auto ra = m.add_resource(100.0);
  const auto rb = m.add_resource(100.0);
  const auto a = m.add_variable(1.0, {ra});
  const auto b = m.add_variable(1.0, {rb});
  m.solve();

  m.set_capacity(rb, 50.0);
  const auto changed = m.solve_changed();
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0], b);
  EXPECT_DOUBLE_EQ(m.rate(b), 50.0);
  EXPECT_DOUBLE_EQ(m.rate(a), 100.0);

  // A no-op capacity write does not dirty the system.
  m.set_capacity(rb, 50.0);
  EXPECT_FALSE(m.dirty());
}

TEST(MaxMinIncremental, SharedResourceMergesComponents) {
  // a uses {r1}, b uses {r1, r2}, c uses {r2}: removing a must propagate
  // through r1 -> b -> r2 -> c (the classic tandem ripple).
  MaxMin m;
  const auto r1 = m.add_resource(100.0);
  const auto r2 = m.add_resource(120.0);
  (void)m.add_variable(1.0, {r1});
  const auto b = m.add_variable(1.0, {r1, r2});
  const auto c = m.add_variable(1.0, {r2});
  m.solve();
  EXPECT_DOUBLE_EQ(m.rate(b), 50.0);
  EXPECT_DOUBLE_EQ(m.rate(c), 70.0);

  const auto a2 = m.add_variable(3.0, {r1});
  const auto changed = m.solve_changed();
  // r1 now splits 5 ways by weight (share 20): a, b and the new a2 all
  // move, and b's shrink frees r2 capacity for c — every var is reported.
  EXPECT_EQ(changed.size(), 4u);
  EXPECT_DOUBLE_EQ(m.rate(b), 20.0);
  EXPECT_DOUBLE_EQ(m.rate(a2), 60.0);
  EXPECT_DOUBLE_EQ(m.rate(c), 100.0);
}

TEST(MaxMinIncremental, IntrusiveRemovalSurvivesHeavyChurn) {
  // Many interleaved adds/removes with id recycling: the bidirectional
  // membership lists must stay consistent (exercised hard under ASan).
  Rng rng(99);
  MaxMin m;
  SystemState state;
  for (int i = 0; i < 6; ++i) {
    const double cap = rng.uniform(50.0, 500.0);
    m.add_resource(cap);
    state.capacities.push_back(cap);
  }
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 20; ++i) {
      std::vector<ResourceId> use;
      const int n_use = 1 + static_cast<int>(rng.next_below(3));
      for (int k = 0; k < n_use; ++k)
        use.push_back(static_cast<ResourceId>(rng.next_below(6)));
      const double w = rng.uniform(0.5, 2.0);
      const VarId id = m.add_variable(w, use);
      state.live[id] = {id, w, MaxMin::kInf, use};
    }
    while (state.live.size() > 10) {
      auto it = state.live.begin();
      std::advance(it, static_cast<long>(rng.next_below(state.live.size())));
      m.remove_variable(it->first);
      state.live.erase(it);
    }
    m.solve();
  }
  check_against_rebuild(m, state);
}

// ---------------------------------------------------------------------------
// Engine-level differential: full replays (including the fault-injection
// degrade paths) must produce the same simulated time with the incremental
// solver and on the reference engine (full solve, no fast path).
// ---------------------------------------------------------------------------

namespace {

using replay::FaultSpec;
using replay::ReplayConfig;
using replay::ScenarioSpec;
using replay::run_scenario;
using trace::Action;
using trace::ActionType;

/// A ring exchange with interleaved compute: every rank sends a large
/// message around the ring, keeping several flows concurrently live.
std::vector<std::vector<Action>> ring_workload(int nprocs) {
  std::vector<std::vector<Action>> streams(
      static_cast<std::size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p) {
    auto& s = streams[static_cast<std::size_t>(p)];
    const int next = (p + 1) % nprocs;
    const int prev = (p + nprocs - 1) % nprocs;
    for (int it = 0; it < 3; ++it) {
      s.push_back({p, ActionType::compute, -1, 2e8, 0, 0});
      if (p % 2 == 0) {
        s.push_back({p, ActionType::send, next, 4 << 20, 0, 0});
        s.push_back({p, ActionType::recv, prev, 4 << 20, 0, 0});
      } else {
        s.push_back({p, ActionType::recv, prev, 4 << 20, 0, 0});
        s.push_back({p, ActionType::send, next, 4 << 20, 0, 0});
      }
    }
  }
  return streams;
}

double simulate(const ScenarioSpec& spec, bool reference_engine) {
  ScenarioSpec run = spec;
  run.config.reference_engine = reference_engine;
  return run_scenario(run).simulated_time;
}

}  // namespace

TEST(MaxMinIncremental, EngineDifferentialRingExchange) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(8));
  ScenarioSpec spec;
  spec.platform = platform;
  spec.process_hosts = hosts;
  spec.traces = trace::TraceSet::in_memory(ring_workload(8));

  const double incremental = simulate(spec, false);
  const double full = simulate(spec, true);
  expect_close(incremental, full, "ring exchange makespan");
  EXPECT_GT(incremental, 0.0);
}

TEST(MaxMinIncremental, EngineDifferentialWithFaults) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(8));
  ScenarioSpec spec;
  spec.platform = platform;
  spec.process_hosts = hosts;
  spec.traces = trace::TraceSet::in_memory(ring_workload(8));

  // Degrade a host mid-run and a link (bandwidth and latency) early on:
  // exercises reschedule_host, set_capacity and the cached routes' latency
  // update under both solver modes.
  FaultSpec host_fault;
  host_fault.kind = FaultSpec::Kind::host;
  host_fault.target = "bordereau-2.bordeaux.grid5000.fr";
  host_fault.compute_factor = 0.25;
  host_fault.at_time = 0.1;
  spec.faults.push_back(host_fault);

  FaultSpec link_fault;
  link_fault.kind = FaultSpec::Kind::link;
  link_fault.target = "bordereau-backbone";
  link_fault.bandwidth_factor = 0.2;
  link_fault.latency_factor = 3.0;
  link_fault.at_time = 0.05;
  spec.faults.push_back(link_fault);

  const double incremental = simulate(spec, false);
  const double full = simulate(spec, true);
  expect_close(incremental, full, "faulted ring makespan");

  // The faults must actually bite (otherwise this differential is vacuous).
  ScenarioSpec healthy = spec;
  healthy.faults.clear();
  EXPECT_GT(incremental, simulate(healthy, false));
}

TEST(MaxMinIncremental, DegradeLinkInvalidatesOnlyAffectedRoutes) {
  plat::Platform platform;
  const auto hosts = plat::build_cluster(platform, plat::bordereau_spec(4));
  sim::Engine engine(platform);

  // Populate the route cache, then degrade host 0's NIC latency.
  const double l01 = engine.route_latency(hosts[0], hosts[1]);
  const double l23 = engine.route_latency(hosts[2], hosts[3]);
  const auto nic =
      platform.find_link("bordereau-0.bordeaux.grid5000.fr_nic");
  ASSERT_TRUE(nic.has_value());
  engine.degrade_link(*nic, 1.0, 2.0);

  // Routes crossing the degraded NIC pick up the doubled latency; routes
  // that avoid it keep their (still-cached) value.
  const double nic_latency = platform.link(*nic).latency;
  EXPECT_NEAR(engine.route_latency(hosts[0], hosts[1]), l01 + nic_latency,
              1e-15);
  EXPECT_DOUBLE_EQ(engine.route_latency(hosts[2], hosts[3]), l23);
}

TEST(MaxMinIncremental, EngineStatsExposeSolverWork) {
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(4));
  ScenarioSpec spec;
  spec.platform = platform;
  spec.process_hosts = hosts;
  spec.traces = trace::TraceSet::in_memory(ring_workload(4));

  const auto result = run_scenario(spec);
  const auto& st = result.engine_stats;
  EXPECT_GT(st.solver_calls, 0u);
  EXPECT_GT(st.solver_vars_touched, 0u);
  EXPECT_GT(st.solver_component_size_max, 0u);
  EXPECT_GT(st.flows_rerated, 0u);
  // Incremental work is bounded by what full solving would have done.
  ScenarioSpec full = spec;
  full.config.reference_engine = true;
  const auto& full_st = run_scenario(full).engine_stats;
  EXPECT_LE(st.solver_vars_touched, full_st.solver_vars_touched);
}

