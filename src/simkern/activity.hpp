// Simulated activities: the things a process can wait for.
//
//   Exec     — a computation of N flops on a host CPU (fluid, contended).
//   Transfer — a message of N bytes across a route: a latency phase
//              followed by a fluid flow phase over the route's links.
//   Timer    — pure simulated delay.
//   Gate     — completes when some other process (or the kernel) opens it;
//              the building block for message matching in mpisim.
//
// Activities are shared-ownership objects: the engine keeps them alive
// while they run, and any process may hold a reference to await them later.
// The engine allocates them from the kernel's block pool (simkern/pool.hpp).
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "simkern/maxmin.hpp"

namespace tir::sim {

using SimTime = double;

class Engine;

class Activity : public std::enable_shared_from_this<Activity> {
 public:
  enum class Kind { exec, transfer, timer, gate };

  virtual ~Activity() = default;

  Kind kind() const { return kind_; }
  bool done() const { return done_; }
  /// Simulated time at which the activity was created.
  SimTime start_time() const { return start_time_; }
  /// Simulated time at which the activity completed (-1 while running).
  SimTime finish_time() const { return finish_time_; }

 protected:
  explicit Activity(Kind kind) : kind_(kind) {}

 private:
  friend class Engine;
  /// Queues `h` to be resumed at completion, after the earlier waiters.
  void add_waiter(std::coroutine_handle<> h) {
    if (!first_waiter_)
      first_waiter_ = h;
    else
      more_waiters_.push_back(h);
  }
  bool has_waiters() const { return static_cast<bool>(first_waiter_); }

  Kind kind_;
  bool done_ = false;
  SimTime start_time_ = 0.0;
  SimTime finish_time_ = -1.0;
  // Waiters in arrival order: almost every activity has exactly one, kept
  // inline so awaiting allocates nothing.
  std::coroutine_handle<> first_waiter_;
  std::vector<std::coroutine_handle<>> more_waiters_;
};

using ActivityPtr = std::shared_ptr<Activity>;

/// Progress of a fluid accounted on its own: a running Exec, or a flow in
/// no rate group. Tracked lazily: `remaining` is exact as of
/// `last_update`, and the engine keeps the predicted finish in its indexed
/// finish queue — one entry per such fluid, re-keyed in place when the
/// rate changes, located through `heap_pos`.
struct FluidState {
  double remaining = 0.0;    ///< work left as of last_update
  double rate = 0.0;         ///< current rate
  SimTime last_update = 0.0;
  std::int32_t heap_pos = -1;  ///< slot in the finish queue (-1: not queued)
};

/// An activity whose completion is a fluid finish (Exec, Transfer).
class FluidActivity : public Activity {
 public:
  FluidState fluid;

 protected:
  using Activity::Activity;
};

/// A Transfer's flow phase. A flow in a single-bottleneck component is a
/// member of one engine rate group (mirroring the network solver's), whose
/// virtual clock holds its progress; any other flow is accounted in its
/// FluidState, like an Exec.
struct FlowState {
  VarId var = -1;               ///< network-solver variable
  std::int32_t group = -1;      ///< engine rate group (-1: none)
  std::int32_t member_pos = -1; ///< slot in the group's member heap
  std::uint64_t order = 0;      ///< start order: breaks finish-key ties
  std::uint64_t seq = 0;        ///< ungrouped: when its rate last changed
};

class Exec final : public FluidActivity {
 public:
  Exec() : FluidActivity(Kind::exec) {}
  int host = -1;
  double flops = 0.0;  ///< requested volume (before efficiency scaling)
  std::size_t host_slot = 0;  ///< slot in the engine's per-host Exec list
};

class Transfer final : public FluidActivity {
 public:
  Transfer() : FluidActivity(Kind::transfer) {}
  int src_host = -1;
  int dst_host = -1;
  double bytes = 0.0;      ///< payload size
  double amount = 0.0;     ///< model amount (bytes / bandwidth_factor)
  double latency = 0.0;    ///< effective route latency
  bool flowing = false;    ///< latency phase finished, flow phase running
  /// The route's network resources: the engine's cached list, shared by
  /// every transfer on the route (never null once started).
  const std::vector<ResourceId>* resources = nullptr;
  FlowState flow;
};

class Timer final : public Activity {
 public:
  Timer() : Activity(Kind::timer) {}
  SimTime fire_at = 0.0;
};

class Gate final : public Activity {
 public:
  Gate() : Activity(Kind::gate) {}
  /// Completes the gate at the current simulated time; resumes waiters.
  /// Safe to call only while the owning engine runs. Idempotent.
  void open();

 private:
  friend class Engine;
  Engine* engine_ = nullptr;
};

using GatePtr = std::shared_ptr<Gate>;

}  // namespace tir::sim
