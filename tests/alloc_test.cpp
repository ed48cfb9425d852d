// Allocation regression: a replayed message costs no global-heap
// allocation in the steady state. The test binary replaces the global
// operator new with a counting one and replays an eager ping-pong of N and
// of 4N messages; the two counts may differ only by a few allocations of
// warm-up, not by a per-message cost. Coroutine frames, activities and
// request states come from the kernel's block pool (simkern/pool.hpp),
// which passes straight through under AddressSanitizer and ThreadSanitizer:
// there the test is skipped (and operator new is left alone).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "simkern/pool.hpp"

#ifndef TIR_POOL_PASSTHROUGH
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The library's array and nothrow forms forward to these two.
void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

using namespace tir;

namespace {

/// Two hosts behind one switch; 1 KB messages stay far below the eager
/// threshold.
plat::Platform two_hosts() {
  plat::Platform p;
  plat::ClusterSpec spec;
  spec.count = 2;
  build_cluster(p, spec);
  return p;
}

/// p0 sends and then receives `messages` times; p1 mirrors it.
trace::TraceSet ping_pong(int messages) {
  using trace::Action;
  using trace::ActionType;
  std::vector<std::vector<Action>> per(2);
  for (int i = 0; i < messages; ++i) {
    per[0].push_back({0, ActionType::send, 1, 1e3, 0, 0});
    per[0].push_back({0, ActionType::recv, 1, 1e3, 0, 0});
    per[1].push_back({1, ActionType::recv, 0, 1e3, 0, 0});
    per[1].push_back({1, ActionType::send, 0, 1e3, 0, 0});
  }
  return trace::TraceSet::in_memory(std::move(per));
}

#ifndef TIR_POOL_PASSTHROUGH
/// Global-heap allocations made by one replay of a ping-pong of
/// `messages` round trips.
std::uint64_t allocations_of_replay(replay::ScenarioSpec& spec,
                                    int messages) {
  spec.traces = ping_pong(messages);
  const std::uint64_t before = g_allocations.load();
  const replay::ReplayResult result = replay::run_scenario(spec);
  const std::uint64_t made = g_allocations.load() - before;
  EXPECT_EQ(result.actions_replayed, 4u * static_cast<unsigned>(messages));
  return made;
}
#endif

}  // namespace

TEST(Allocation, ReplayedMessagesCostNoHeapAllocation) {
#ifdef TIR_POOL_PASSTHROUGH
  GTEST_SKIP() << "the block pool passes through under sanitizers";
#else
  constexpr int kMessages = 2000;
  const plat::Platform platform = two_hosts();
  replay::ScenarioSpec spec;
  spec.platform = replay::share_platform(platform);
  spec.process_hosts = {0, 1};

  // Warm this thread's pool once, then measure N and 4N.
  (void)allocations_of_replay(spec, kMessages);
  const std::uint64_t small = allocations_of_replay(spec, kMessages);
  const std::uint64_t large = allocations_of_replay(spec, 4 * kMessages);

  // At 10 allocations per message the difference would be ~120k.
  const std::uint64_t growth = large > small ? large - small : 0;
  EXPECT_LT(growth, 16u) << small << " allocations for " << kMessages
                         << " round trips, " << large << " for "
                         << 4 * kMessages;
#endif
}
