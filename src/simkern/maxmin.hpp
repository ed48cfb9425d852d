// Max-min fairness solver (SimGrid's "LMM" — linear max-min model).
//
// Resources (CPUs, network links) have a capacity; variables (executions,
// data flows) consume one or more resources with a weight and may carry an
// upper rate bound. solve() assigns every active variable the max-min fair
// rate: rates are raised uniformly (proportionally to weights) until either
// a resource saturates or a variable hits its bound; saturated participants
// are frozen and the process repeats (progressive filling).
//
// Incremental solving (SimGrid's "lazy updates with partial invalidation",
// Casanova et al.): mutations (add/remove variable, set_capacity) record
// the touched resources in a modified set instead of invalidating the whole
// system. solve() expands the modified set to the connected component(s) of
// the resource↔variable constraint graph reachable from it and re-runs
// progressive filling on those components only — rates outside them cannot
// change because max-min allocations decompose over connected components.
// solve_changed() additionally reports exactly which variables' rates moved,
// so the caller can re-rate O(changed) activities instead of rescanning
// every flow. set_full_solve(true) disables the component restriction (every
// solve re-rates the whole system) for differential testing.
//
// Components are kept separate all the way through progressive filling:
// expand_components() records one [res, var) slice per connected component
// and fill stops at component boundaries, so each component's fill is a
// pure function of that component's state alone. The changed list is
// appended component by component, in component order.
//
// Membership lists are intrusively bidirectional: each variable stores, for
// every resource it uses, its index in that resource's member list, so
// remove_variable is O(degree · log degree) swap-removes instead of
// deferring compaction into the solver hot loop.
//
// Optimality conditions (checked by the property tests):
//   1. No resource exceeds its capacity.
//   2. Every variable either sits at its bound or uses at least one
//      saturated resource.
//   3. On a saturated resource, no variable's rate/weight ratio can grow
//      without another's shrinking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace tir::sim {

using ResourceId = int;
using VarId = int;

class MaxMin {
 public:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// Cumulative solver-work counters (observable via EngineStats).
  struct SolveStats {
    std::uint64_t solves = 0;         ///< solve() calls that did work
    std::uint64_t vars_touched = 0;   ///< component variables re-solved
    std::uint64_t rate_changes = 0;   ///< variables whose rate moved
    std::size_t last_component_vars = 0;  ///< size of the last re-solve
    std::size_t max_component_vars = 0;   ///< largest re-solve so far
  };

  /// Adds a resource with the given capacity (units: flop/s or bytes/s).
  ResourceId add_resource(double capacity);

  double capacity(ResourceId r) const;
  void set_capacity(ResourceId r, double capacity);

  /// Adds an active variable. `resources` may repeat ids (a flow crossing
  /// the same switch twice); repeated ids count once. An empty resource
  /// list requires a finite bound.
  VarId add_variable(double weight, const std::vector<ResourceId>& resources,
                     double bound = kInf);

  /// Deactivates a variable (O(degree) swap-removes). Its id is recycled.
  void remove_variable(VarId v);

  /// True when the system changed since the last solve().
  bool dirty() const {
    return !modified_resources_.empty() || !modified_vars_.empty();
  }

  /// Re-solves the components reachable from the modified set (no-op when
  /// not dirty).
  void solve();

  /// solve(), then the variables whose rate changed in that solve. The span
  /// is valid until the next mutation or solve. Empty when nothing changed.
  std::span<const VarId> solve_changed();

  /// Rate assigned by the last solve(). Requires an active variable.
  double rate(VarId v) const;

  std::size_t active_variable_count() const { return active_count_; }
  std::size_t resource_count() const { return resources_.size(); }

  /// Total rate currently allocated on a resource (diagnostics/tests).
  double resource_load(ResourceId r) const;

  /// When on, every solve() re-solves the whole system (differential
  /// testing of the incremental path). Changed-variable reporting still
  /// works.
  void set_full_solve(bool on) { full_solve_ = on; }
  bool full_solve() const { return full_solve_; }

  const SolveStats& solve_stats() const { return stats_; }

 private:
  struct Res {
    double capacity = 0.0;
    std::vector<VarId> vars;  // active members (positions mirrored in Var)
    bool modified = false;    // queued in modified_resources_
    // solve() scratch:
    bool in_component = false;
    std::int32_t slot = -1;  // component-local index during a fill
  };
  struct Var {
    double weight = 1.0;
    double bound = kInf;
    double rate = 0.0;
    bool active = false;
    bool modified = false;  // queued in modified_vars_ (resource-less vars)
    // solve() scratch:
    bool in_component = false;
    std::int32_t slot = -1;  // component-local index during a fill
    std::vector<ResourceId> resources;       // deduplicated, sorted
    std::vector<std::uint32_t> positions;    // index in each resource's vars
  };
  /// One connected component: slices of component_res_ / component_vars_.
  struct Component {
    std::size_t res_begin = 0, res_end = 0;
    std::size_t var_begin = 0, var_end = 0;
  };

  void mark_resource_modified(ResourceId r);
  /// Collects the connected components reachable from the modified sets
  /// (then, when full_solve_ is on, every other active variable's) into
  /// component_res_ / component_vars_, one Component slice per BFS, and
  /// clears the modified marks.
  /// The BFS doubles as the fill setup pass: every member joining a
  /// component is loaded into the fill_* scratch arrays at its slot
  /// (= global component position) and resource weight sums accumulate
  /// edge by edge in discovery order.
  void expand_components();
  /// Progressive filling of one component, operating on that component's
  /// [res_begin, res_end) / [var_begin, var_end) slices of the fill_*
  /// arrays. Changed vars are appended to changed_.
  void fill_component(std::size_t c);

  std::vector<Res> resources_;
  std::vector<Var> vars_;
  std::vector<VarId> free_ids_;
  std::size_t active_count_ = 0;
  bool full_solve_ = false;

  // Modified sets (deduplicated through the per-entry `modified` flags).
  std::vector<ResourceId> modified_resources_;
  std::vector<VarId> modified_vars_;

  // solve() scratch, reused across calls so the steady state allocates
  // nothing.
  std::vector<ResourceId> component_res_;
  std::vector<VarId> component_vars_;
  std::vector<Component> components_;
  std::vector<VarId> changed_;

  // Progressive-filling state, slot-indexed (slot = position in
  // component_res_ / component_vars_): one compact record per member keeps
  // the fill's round scans on sequential memory. Loaded by
  // expand_components() during the BFS; each fill_component(c) touches only
  // its component's slices.
  struct FillRes {
    double rem;   // remaining capacity
    double wsum;  // unsaturated weight sum
  };
  struct FillVar {
    double rate;   // rate being assigned
    double bound;
    double weight;
    double prev;   // rate before this solve
    bool done;     // saturated flag
  };
  std::vector<FillRes> fill_res_;
  std::vector<FillVar> fill_var_;

  SolveStats stats_;
};

}  // namespace tir::sim
