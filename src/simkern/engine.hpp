// The discrete-event simulation engine (SimGrid-kernel equivalent).
//
// The engine advances a fluid model: at any instant every running Exec /
// Transfer progresses at a rate; the next event is the earliest fluid
// completion or the earliest timed event (timer firing, transfer latency
// expiring). Simulated processes are coroutines resumed by the engine;
// they create activities and `co_await engine.wait(activity)`.
//
// Scalability design (this is what keeps 1,024-rank replays tractable):
//   - CPUs are scheduled separately from the network: concurrent Execs on
//     a host share its power equally, so only that host's Execs are
//     touched when one starts or finishes (O(execs-on-host), not
//     O(all-activities)).
//   - Network flows go through the incremental max-min solver: a change
//     re-solves only the connected component(s) of the constraint graph it
//     touched, and a flow joining or leaving a single-bottleneck component
//     is absorbed without a fill at all.
//   - Flows live in rate groups mirroring the solver's: the members of one
//     group all run at the group's share. A group tracks progress with one
//     virtual clock V(t) = ∫ share dt (the virtual-time technique of
//     GPS/WFQ); a member finishes when V reaches its key, mark + amount,
//     where mark is V when it joined. The key does not change when the
//     share does, so a share change re-keys one finish-queue entry per
//     group (its head member), not one per flow: O(changed groups), not
//     O(live flows). Groups of one keep the plain per-flow arithmetic.
//   - Fluid progress is tracked lazily: an Exec stores its remaining work
//     as of `last_update`, a group its clock; the predicted finishes sit in
//     an indexed priority queue. Advancing simulated time is O(1) instead
//     of O(active fluids).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "platform/platform.hpp"
#include "simkern/activity.hpp"
#include "simkern/co.hpp"
#include "simkern/maxmin.hpp"

namespace tir::obs {
class Recorder;
}

namespace tir::sim {

class Process {
 public:
  int id() const { return id_; }
  int host() const { return host_; }
  const std::string& name() const { return name_; }
  bool finished() const { return finished_; }

  /// Installs a callback describing what this process is blocked on; the
  /// engine calls it when it detects a deadlock to build per-actor
  /// diagnostics (the MPI world wires this to Rank state).
  void set_diagnostics(std::function<std::string()> fn) {
    diagnostics_ = std::move(fn);
  }

 private:
  friend class Engine;
  friend struct Task::promise_type::FinalAwaiter;
  int id_ = -1;
  int host_ = -1;
  std::string name_;
  bool finished_ = false;
  Engine* engine_ = nullptr;
  std::function<std::string()> diagnostics_;
  Task::Handle coro_;
  // The body callable must outlive its coroutine frame: a coroutine lambda
  // references its own closure object, so the Process owns it.
  std::function<Task(Process&)> body_;
};

struct EngineConfig {
  /// When true (default), run() throws SimError if processes remain blocked
  /// with no pending event (deadlock). When false, run() returns normally.
  bool deadlock_is_error = true;
  /// Test oracle: when true, the network max-min solver refills the whole
  /// system on every change instead of only the modified connected
  /// components, and never takes the incremental single-bottleneck update
  /// — the reference for differential testing of the incremental solver.
  /// Flow accounting (rate groups) is the same either way.
  bool full_solve = false;
  /// Coroutine fast path (the production schedule): when the awaited
  /// fluid's completion is provably the sole event in the next epsilon
  /// window (no other runnable process, no earlier or batched event), the
  /// engine completes it inline at the await point instead of suspending
  /// and round-tripping through the scheduler. Deterministic action chains
  /// — compute bursts, eager sends, already-satisfied waits — then run
  /// without a coroutine switch. Bit-identical to the scheduler round trip
  /// by construction; only the EngineStats fast-path/resume counters
  /// differ. false is the test oracle's reference schedule.
  bool fast_path = true;
  /// Observability sink, or null (the default: recording fully disabled,
  /// costing one pointer test per emission site). The engine records fault
  /// activations always, and per-activity spans on host tracks when the
  /// recorder's activity_detail flag is set. The recorder must outlive the
  /// engine and is only touched from the simulation thread.
  obs::Recorder* recorder = nullptr;
};

struct EngineStats {
  std::uint64_t resumes = 0;        ///< coroutine context switches
  std::uint64_t activities = 0;     ///< activities created
  std::uint64_t solver_calls = 0;   ///< network max-min re-solves
  std::uint64_t heap_events = 0;    ///< timed events dispatched
  // Solver work: how much of the network system each re-solve touched.
  /// Variables the solver visited (sum): every variable of a filled
  /// component, plus one per flow join or leave absorbed by an incremental
  /// single-bottleneck update.
  std::uint64_t solver_vars_touched = 0;
  std::uint64_t solver_component_size_max = 0;  ///< most vars in one solve
  /// Solves of a single-bottleneck group answered by the incremental
  /// update instead of a fill.
  std::uint64_t solver_group_updates = 0;
  /// Finish-queue re-keys caused by solves: one per rate group whose entry
  /// a solve moved, queued or dropped (a group of any size counts once).
  std::uint64_t flows_rerated = 0;
  // Coroutine switches avoided by the fast path; exactly zero when
  // EngineConfig::fast_path is off.
  std::uint64_t fast_path_inline = 0;  ///< fluid completions run at the await
  std::uint64_t fast_path_ready = 0;   ///< already-done awaits, no suspension
};

class Engine {
 public:
  explicit Engine(const plat::Platform& platform, EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const plat::Platform& platform() const { return platform_; }
  SimTime now() const { return now_; }
  const EngineStats& stats() const { return stats_; }

  using ProcessBody = std::function<Task(Process&)>;

  /// Creates a process on `host`, scheduled to start at the current time.
  Process& spawn(std::string name, int host, ProcessBody body);

  /// Runs until no event remains. Throws the first exception escaping a
  /// process body, or SimError on deadlock (see EngineConfig).
  void run();

  /// Destroys all remaining coroutine frames (reverse creation order) —
  /// frames suspended at any await point are safe to destroy. Call this
  /// before objects referenced by frame locals (MPI ranks, replay contexts)
  /// go out of scope: after run() throws, suspended frames still hold RAII
  /// guards into them, and leaving teardown to ~Engine would run those
  /// destructors after the referents are gone. Idempotent; ~Engine calls it.
  void drop_frames();

  // -- activity factories (started immediately) ---------------------------

  /// Computation of `flops` on `host` at `efficiency` * nominal speed.
  /// The CPU is shared equally among concurrent Execs on the host.
  std::shared_ptr<Exec> exec_async(int host, double flops,
                                   double efficiency = 1.0);

  /// Message of `bytes` from src to dst, subject to the platform's
  /// piece-wise-linear MPI model and link contention.
  std::shared_ptr<Transfer> transfer_async(int src_host, int dst_host,
                                           double bytes);

  /// Local buffer copy of `bytes` on `host` (an eager send handing its
  /// payload to the MPI runtime): a zero-latency fluid over the host's
  /// loopback (memory) capacity. Completes instantly when the host has no
  /// loopback link configured.
  std::shared_ptr<Transfer> injection_async(int host, double bytes);

  std::shared_ptr<Timer> timer_async(SimTime duration);

  /// Nominal one-way route latency between two hosts (cached).
  double route_latency(int src_host, int dst_host);

  // -- fault injection / perturbation ---------------------------------------
  // Factor changes take effect immediately: running Execs/flows are re-rated,
  // and activities started afterwards see the changed platform. They model a
  // host or link failing *partially* mid-simulation (the "Variability
  // Matters" workload) and healing again.
  //
  // Semantics (pinned; the variability tests regression-test this): every
  // factor is ABSOLUTE RELATIVE TO THE PLATFORM'S NOMINAL value, tracked by
  // the engine against the pristine platform. Setting a factor twice does
  // not compound — the second call overwrites the first — so repeated
  // degrade events on one resource are idempotent, and restore_host /
  // restore_link (factor 1.0) always return the resource exactly to its
  // nominal rate whatever sequence of events preceded them.

  /// Sets `host`'s compute power to `factor` (> 0) times nominal from the
  /// current simulated time onwards. Running Execs are re-rated.
  void set_host_factor(int host, double factor);

  /// Sets a link's bandwidth to `bandwidth_factor` (> 0) and its latency to
  /// `latency_factor` (>= 0) times their nominal values from the current
  /// simulated time onwards. Flowing transfers are re-solved; latency
  /// applies to transfers started after the call.
  void set_link_factors(int link, double bandwidth_factor,
                        double latency_factor);

  /// Returns `host` to its nominal compute power.
  void restore_host(int host) { set_host_factor(host, 1.0); }

  /// Returns a link to its nominal bandwidth and latency.
  void restore_link(int link) { set_link_factors(link, 1.0, 1.0); }

  /// Synonyms kept for the fault-injection callers that read better as
  /// "degrade" — identical set-relative-to-nominal semantics.
  void degrade_host(int host, double factor) { set_host_factor(host, factor); }
  void degrade_link(int link, double bandwidth_factor, double latency_factor) {
    set_link_factors(link, bandwidth_factor, latency_factor);
  }

  /// Current factors relative to nominal (1.0 = healthy). Used by recovery
  /// injectors to capture the factor in force before an outage.
  double host_factor(int host) const;
  double link_bandwidth_factor(int link) const;
  double link_latency_factor(int link) const;

  GatePtr make_gate();

  // -- awaiting ------------------------------------------------------------

  struct Awaiter {
    Engine* engine;
    Activity* activity;
    // The fast path lives here: an await either observes a completed
    // activity (no suspension ever happened for these) or asks the engine
    // to prove the activity's completion is the next event and run it
    // inline — in both cases await_suspend is skipped and the coroutine
    // continues without a context switch.
    bool await_ready() const noexcept {
      if (activity->done()) {
        engine->note_fast_ready();
        return true;
      }
      return engine->try_fast_complete(*activity);
    }
    void await_suspend(std::coroutine_handle<> h) {
      activity->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  /// Awaiter that keeps its activity alive for the await's duration — used
  /// for anonymous activities nobody else holds (wait_for's timers). Living
  /// in the coroutine frame, it releases its reference exactly when the
  /// co_await resumes, so long replays accumulate no dead ActivityPtrs.
  struct OwningAwaiter {
    ActivityPtr activity;
    bool await_ready() const noexcept { return activity->done(); }
    void await_suspend(std::coroutine_handle<> h) {
      activity->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  /// co_await engine.wait(act) — suspends until the activity completes.
  Awaiter wait(const ActivityPtr& activity) {
    return Awaiter{this, activity.get()};
  }
  Awaiter wait(Activity& activity) { return Awaiter{this, &activity}; }

  /// Convenience: one-shot sleep.
  OwningAwaiter wait_for(SimTime duration) {
    return OwningAwaiter{timer_async(duration)};
  }

 private:
  friend class Gate;
  friend struct Task::promise_type::FinalAwaiter;

  struct CachedRoute {
    std::vector<ResourceId> resources;
    double latency = 0.0;
  };

  struct HeapItem {
    SimTime time;
    std::uint64_t seq;
    enum class What { timer_fire, latency_done } what;
    ActivityPtr activity;
    bool operator>(const HeapItem& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  // Finish-time queue entry: a running Exec (rate > 0) or a rate group
  // with members and a positive share — exactly one entry each, re-keyed in
  // place through FluidState::heap_pos / FlowGroup::heap_pos. Execs are
  // kept alive by host_execs_, group members by var_flows_. Ties on time
  // break on `seq`, the order in which the entry's activity last changed
  // rate, then on the flow's start order.
  struct FinishItem {
    SimTime time;
    std::uint64_t seq;
    std::uint64_t order;  // head flow's start order (0 for Execs)
    Exec* exec;           // the Exec, or null for a group entry
    std::int32_t group;   // the group (exec == null)
  };

  // A member of a rate group: it completes when the group clock reaches
  // `key`. Its rate last changed when it joined (`seq`, handed out at share
  // generation `gen`) or at the group's latest share change, whichever
  // came later (FlowGroup::rate_seq).
  struct FlowMember {
    double key;
    std::uint64_t seq;
    std::uint64_t gen;
    std::uint64_t order;  // start order
    Transfer* flow;
  };
  // A rate group (same id as the solver's). Every member runs at `share`;
  // `clock` is the group's cumulative service V as of `last_update`, and a
  // member's remaining amount is key - V. With one member the clock is
  // folded into the key on every advance, which is exactly the per-flow
  // `remaining -= rate · dt` update. Members order on (key, rate_seq,
  // order): equal finishes complete in the order their rates last changed,
  // as they would with one queue entry per flow.
  struct FlowGroup {
    double share = 0.0;
    double clock = 0.0;
    SimTime last_update = 0.0;
    std::vector<FlowMember> members;  // binary min-heap, see above
    std::int32_t heap_pos = -1;       // finish-queue slot of the head member
    bool reshare = false;             // share changed since the last re-key
    /// A member joined out of start order or with an older seq, so the next
    /// share change (which ties every member's seq) must reorder the heap.
    bool reorder = false;
    const Transfer* entry = nullptr;  // the member the queued entry times
    std::uint64_t share_seq = 0;  // seq of the last share change
    std::uint64_t share_gen = 0;  // share changes so far
    std::uint64_t max_order = 0;  // newest member's start order
    // State before the current resolve touched the group.
    std::uint64_t epoch = 0;
    double prev_share = 0.0;
    std::uint64_t prev_share_seq = 0;
    std::uint64_t prev_share_gen = 0;

    std::uint64_t rate_seq(const FlowMember& m) const {
      return m.gen == share_gen ? m.seq : share_seq;
    }
  };
  const CachedRoute& cached_route(int src_host, int dst_host);
  void complete(Activity& activity);
  void start_flow(Transfer& transfer);

  // Indexed 4-ary min-heap over the running Execs and rate groups (see the
  // comment block in engine.cpp). Pop order is the strict (time, seq,
  // order) total order.
  static bool finish_before(const FinishItem& a, const FinishItem& b);
  std::int32_t& finish_slot(const FinishItem& item);
  void finish_place(FinishItem item, std::size_t i);
  std::size_t finish_sift_up(std::size_t i);
  std::size_t finish_sift_down(std::size_t i);
  /// Inserts the owner's entry or re-keys it in place to (time, fresh seq).
  void finish_update(FinishItem item);
  /// Drops the entry at `slot` if queued (starvation, completion).
  void finish_remove(std::int32_t& slot);
  /// Removes the earliest entry.
  void finish_pop();

  // Rate groups.
  /// Brings a group's clock up to now at its current share.
  void advance(FlowGroup& group);
  /// The group clock at time `t` >= last_update, without advancing it.
  static double clock_at(const FlowGroup& group, SimTime t);
  /// Restores the member heap around slot i (sift up unless `up` is off,
  /// then down).
  void member_move(FlowGroup& group, std::size_t i, bool up = true);
  void member_push(FlowGroup& group, FlowMember member);
  void member_erase(FlowGroup& group, std::size_t i);
  /// Snapshots a group's pre-resolve state and queues it for re-keying.
  FlowGroup& begin_change(std::int32_t g);
  /// Applies the solver's share for group `g` if it moved meaningfully.
  void apply_share(std::int32_t g, double share);
  /// Moves a flow into group `g`, carrying its remaining amount over.
  void move_flow(Transfer& transfer, std::int32_t g);
  /// Queues, moves or drops a group's finish entry after its share or
  /// members changed (the group already advanced to now); a head member
  /// that neither changed nor changed rate keeps its entry untouched.
  /// Returns true when the entry changed.
  bool rekey_group(std::int32_t g);

  /// The coroutine fast path (EngineConfig::fast_path): proves `activity`'s
  /// completion is the sole event inside the next epsilon window — no other
  /// runnable coroutine, no earlier/equal fluid or timed event, no exec
  /// sibling pulled into the window by the completion — and if so advances
  /// time and completes it inline, returning true so the await never
  /// suspends. Mirrors exactly one iteration of run()'s event loop.
  bool try_fast_complete(Activity& activity);
  void note_fast_ready() {
    if (config_.fast_path) ++stats_.fast_path_ready;
  }

  /// Brings `fluid.remaining` up to date at the current time.
  void catch_up(FluidState& fluid);
  /// Sets an Exec's rate (catching it up first) and requeues its finish.
  void set_rate(Exec& exec, double rate);

  /// Equal-share rescheduling of one host's Execs.
  void reschedule_host(int host);
  /// Incremental network max-min resolve: applies the solver's group
  /// report (joins carry a flow's remaining amount into its new group; a
  /// share change advances the group clock) and re-keys each changed group
  /// once.
  void resolve_network();

  void drain_ready();
  void on_process_exit(Process& process);

  const plat::Platform& platform_;
  EngineConfig config_;

  // Network model state. The engine keeps flowing transfers alive through
  // var_flows_, a VarId-indexed side table (dense: the solver recycles ids)
  // that maps the solver's reported joins back to their flows. groups_ is
  // indexed by the solver's group ids (also recycled), so the steady state
  // allocates nothing.
  MaxMin net_lmm_;
  std::vector<ResourceId> link_res_;   // link id -> network resource
  std::vector<std::shared_ptr<Transfer>> var_flows_;  // VarId -> flow
  std::vector<FlowGroup> groups_;
  std::vector<std::int32_t> touched_groups_;  // groups changed this resolve
  std::uint64_t resolve_epoch_ = 0;
  std::uint64_t flow_order_ = 0;

  // CPU scheduling state; active execs per host, kept alive by the engine.
  std::vector<std::vector<std::shared_ptr<Exec>>> host_execs_;

  // Fault-injection state: current factors over the platform's nominal host
  // powers and link bandwidths/latencies (1.0 = healthy). Absolute, not
  // compounding: set_* overwrites, so nominal is always recoverable.
  std::vector<double> host_power_factor_;
  std::vector<double> link_bandwidth_factor_;
  std::vector<double> link_latency_factor_;

  std::unordered_map<std::uint64_t, CachedRoute> route_cache_;

  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap_;
  std::vector<FinishItem> finish_heap_;  // one per running Exec and group
  std::deque<std::coroutine_handle<>> ready_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::size_t live_processes_ = 0;
  std::exception_ptr first_error_;
  EngineStats stats_;
  bool running_ = false;
};

/// Awaits every activity in order (completion order does not matter for the
/// resulting simulated time).
Co<void> wait_all(Engine& engine, std::vector<ActivityPtr> activities);

}  // namespace tir::sim
