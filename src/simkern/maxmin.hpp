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
// each seed of the modified set grows one [res, var) slice and fills it
// before the next seed, so each component's fill is a pure function of
// that component's state alone. Reports are appended component by
// component, in seed order.
//
// Rate groups: after a fill, every active variable belongs to exactly one
// group. A *single-bottleneck* group is a whole component in which one
// saturated resource R sets every member's rate: share = cap_R / W, where W
// is the component's total weight, and each member runs at share · weight.
// The fill recognises that shape (one round, one binding resource R that
// every component variable crosses, no finite bounds, integer-valued
// weights) in components of eight or more variables — below that, forming
// and dissolving groups costs more than the fills it saves — and keeps R,
// W and a min-heap of cap_r / wsum_r over the component's other
// resources. That key does not depend on the share, so an add_variable /
// remove_variable that touches only R and resources already in the group
// (or in no component) is solved in O(degree · log n): W and the member's
// other keys are updated, and the solve only checks cap_R / W <= the heap
// minimum. With integer-valued weights the sums are
// exact, so the share is bit-identical to what the fill computes. Anything
// else falls back to the fill: merges with other components, capacity
// changes, bounded variables, non-integer weights, or a check that fails
// (another resource becomes the bottleneck). Every other variable is a
// group of one whose rate the fill sets directly. solve_groups() reports
// changes per group — a share change once, plus each variable that joined a
// group — so a caller tracking progress per group (the engine's virtual
// clocks) does O(changed groups) work instead of O(members). Full-solve
// mode never takes the incremental update: it refills every component and
// arrives at the same groups, shares and report.
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
using GroupId = int;

class MaxMin {
 public:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// Cumulative solver-work counters (observable via EngineStats).
  struct SolveStats {
    std::uint64_t solves = 0;         ///< solve() calls that did work
    /// Variables the solver visited: every variable of a filled component,
    /// plus one per join or leave an incremental group update absorbed.
    std::uint64_t vars_touched = 0;
    /// Single-bottleneck groups re-rated by the incremental update instead
    /// of a fill.
    std::uint64_t group_updates = 0;
    std::size_t last_component_vars = 0;  ///< vars visited by the last solve
    std::size_t max_component_vars = 0;   ///< most vars visited by one solve
  };

  /// One entry of solve_groups()'s report.
  struct GroupChange {
    GroupId group;
    /// >= 0: this variable joined `group` (new, or moved from another
    /// group). -1: `group`'s share changed.
    VarId var;
    /// The group's share: the rate per unit of weight of a
    /// single-bottleneck group's members, or a group of one's member rate.
    double share;
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

  /// solve(), then the groups whose share changed and the variables that
  /// joined a group, in component order. The span is valid until the next
  /// mutation or solve. Empty when nothing changed.
  std::span<const GroupChange> solve_groups();

  /// solve(), then the variables whose rate changed in that solve (a
  /// changed group lists every member). The span is valid until the next
  /// mutation or solve. Empty when nothing changed.
  std::span<const VarId> solve_changed();

  /// Rate assigned by the last solve(). Requires an active variable.
  double rate(VarId v) const;

  /// The group an active variable belongs to since the last solve().
  GroupId group_of(VarId v) const;
  /// The resource every member's rate is set by, or -1 for a group of one.
  ResourceId group_bottleneck(GroupId g) const {
    return groups_[static_cast<std::size_t>(g)].bottleneck;
  }
  /// One past the largest group id handed out so far.
  std::size_t group_count() const { return groups_.size(); }

  std::size_t active_variable_count() const { return active_count_; }
  std::size_t resource_count() const { return resources_.size(); }

  /// Total rate currently allocated on a resource (diagnostics/tests).
  double resource_load(ResourceId r) const;

  /// When on, every solve() re-solves the whole system through the fill
  /// (differential testing of the incremental path). Changed-variable and
  /// group reporting still work.
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
    // Single-bottleneck group state, meaningful while `group` >= 0:
    GroupId group = -1;          // group whose component holds this resource
    std::int32_t heap_pos = -1;  // slot in the group's heap (-1: bottleneck)
    double wsum = 0.0;           // the members' weight on this resource
    double key = 0.0;            // capacity / wsum
  };
  struct Var {
    double weight = 1.0;
    double bound = kInf;
    double rate = 0.0;  // groups of one; bottleneck-group members use share
    bool active = false;
    bool modified = false;  // queued in modified_vars_ (resource-less vars)
    bool joining = false;   // joined `group` incrementally, not reported yet
    GroupId group = -1;
    // solve() scratch:
    bool in_component = false;
    std::int32_t slot = -1;  // component-local index during a fill
    std::vector<ResourceId> resources;       // deduplicated, sorted
    std::vector<std::uint32_t> positions;    // index in each resource's vars
  };
  struct Group {
    ResourceId bottleneck = -1;  // -1: a group of one, rated by the fill
    /// Single-bottleneck state is current: incremental updates allowed.
    /// Cleared by any mutation the update cannot absorb.
    bool valid = false;
    double weight = 0.0;  // W: total member weight (bottleneck groups)
    double share = 0.0;   // as in GroupChange::share
    std::size_t members = 0;    // variables whose `group` is this one
    std::uint64_t touched = 0;  // joins/leaves absorbed since the last solve
    std::uint64_t epoch = 0;    // solve that already updated this group
    std::uint64_t claimed = 0;  // fill that already assigned this group
    std::vector<ResourceId> heap;  // other resources, min-heap on key
    std::vector<VarId> joined;     // joins not reported yet (may be stale)
  };

  void mark_resource_modified(ResourceId r);
  double rate_of(const Var& v) const {
    if (v.group >= 0 && !v.joining) {
      const Group& group = groups_[static_cast<std::size_t>(v.group)];
      if (group.bottleneck >= 0) return group.share * v.weight;
    }
    return v.rate;
  }
  /// Loads a variable joining the component being grown into the fill
  /// scratch arrays.
  void load_var(VarId id, Var& v);

  // Group bookkeeping.
  GroupId new_group();
  /// Frees a group once nothing refers to it (at the end of the solve).
  void retire(GroupId g);
  /// Joins a new variable to a valid single-bottleneck group when every
  /// resource it uses is the bottleneck, already in the group, or unused.
  bool try_join(VarId v);
  /// Removes a leaving member's weight from its valid group.
  void leave(Var& v);
  /// The incremental solve of a valid group: true when cap_R / W is still
  /// the smallest share in its component (then reported), false when the
  /// component needs a fill.
  bool update_group(GroupId g);
  void heap_fix(Group& group, ResourceId r);
  void heap_erase(Group& group, ResourceId r);
  /// Restores the resource heap around slot i (sift up unless `up` is
  /// off, then down).
  void heap_move(Group& group, std::size_t i, bool up = true);

  /// Grows the connected component around one seed into the component_*
  /// and fill_* arrays (skipped when the seed already joined one this
  /// solve), then fills it. The BFS doubles as the fill setup pass: every
  /// member joining the component is loaded into the fill_* scratch arrays
  /// at its slot (= position in component_res_ / component_vars_) and
  /// resource weight sums accumulate edge by edge in discovery order.
  void fill_from_res(ResourceId r);
  void fill_from_var(VarId v);
  void grow_and_fill(std::size_t res_begin, std::size_t var_begin);
  /// Progressive filling of one component ([rb, re) / [vb, ve) slices of
  /// the fill_* arrays), then the group assignment of its variables.
  void fill_component(std::size_t rb, std::size_t re, std::size_t vb,
                      std::size_t ve);
  /// Puts a filled component's variables into groups: one single-bottleneck
  /// group around resource slot `bottleneck` (>= 0) sharing `share`, or
  /// groups of one. Appends the report entries.
  void assign_groups(std::size_t rb, std::size_t re, std::size_t vb,
                     std::size_t ve, std::int64_t bottleneck, double share);

  std::vector<Res> resources_;
  std::vector<Var> vars_;
  std::vector<VarId> free_ids_;
  std::vector<Group> groups_;
  std::vector<GroupId> free_groups_;
  std::vector<GroupId> retired_groups_;
  std::size_t active_count_ = 0;
  bool full_solve_ = false;
  bool want_changed_ = false;  // solve_changed() in progress
  std::uint64_t solve_epoch_ = 0;
  std::uint64_t fill_epoch_ = 0;
  std::size_t visited_ = 0;  // vars visited by the current solve

  // Modified sets (deduplicated through the per-entry `modified` flags).
  std::vector<ResourceId> modified_resources_;
  std::vector<VarId> modified_vars_;

  // solve() scratch, reused across calls so the steady state allocates
  // nothing.
  std::vector<ResourceId> component_res_;
  std::vector<VarId> component_vars_;
  std::vector<GroupChange> changes_;
  std::vector<VarId> changed_;

  // Progressive-filling state, slot-indexed (slot = position in
  // component_res_ / component_vars_): one compact record per member keeps
  // the fill's round scans on sequential memory.
  struct FillRes {
    double rem;   // remaining capacity
    double wsum;  // unsaturated weight sum
  };
  struct FillVar {
    double rate;   // rate being assigned
    double bound;
    double weight;
    double prev;   // rate before this solve (solve_changed() only)
    bool done;     // saturated flag
  };
  std::vector<FillRes> fill_res_;
  std::vector<FillVar> fill_var_;
  /// The component being grown has only unbounded, integer-weight
  /// variables: it may become a single-bottleneck group.
  bool fill_groupable_ = true;
  /// A resource of the component being grown belongs to a group.
  bool fill_grouped_ = false;

  SolveStats stats_;
};

}  // namespace tir::sim
