#include "simkern/maxmin.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace tir::sim {

namespace {

constexpr double kEps = 1e-12;

/// Smallest component the fill turns into a single-bottleneck group.
/// Forming a group moves every member into it, and the next fill that
/// finds the component multi-round moves them out again; on a component of
/// a few flows that churn costs more than the fills the incremental update
/// saves (LU B/64 on bordereau, where ~3 flows share the backbone at a
/// time, replays ~20% slower with groups of two and up).
constexpr std::uint32_t kMinGroupVars = 8;

/// Integer-valued weights keep every weight sum exact, so an incremental
/// update reproduces the fill's share bit for bit.
bool integral(double w) {
  return w == std::floor(w) && w < 0x1p52;
}

}  // namespace

ResourceId MaxMin::add_resource(double capacity) {
  if (capacity < 0) throw Error("MaxMin: capacity must be non-negative");
  resources_.push_back(Res{});
  resources_.back().capacity = capacity;
  return static_cast<ResourceId>(resources_.size() - 1);
}

double MaxMin::capacity(ResourceId r) const {
  return resources_.at(static_cast<std::size_t>(r)).capacity;
}

void MaxMin::mark_resource_modified(ResourceId r) {
  Res& res = resources_[static_cast<std::size_t>(r)];
  if (res.modified) return;
  res.modified = true;
  modified_resources_.push_back(r);
}

void MaxMin::set_capacity(ResourceId r, double capacity) {
  if (capacity < 0) throw Error("MaxMin: capacity must be non-negative");
  Res& res = resources_.at(static_cast<std::size_t>(r));
  if (res.capacity == capacity) return;
  res.capacity = capacity;
  if (res.group >= 0) groups_[static_cast<std::size_t>(res.group)].valid = false;
  mark_resource_modified(r);
}

// ---------------------------------------------------------------------------
// Rate groups.
// ---------------------------------------------------------------------------

GroupId MaxMin::new_group() {
  GroupId g;
  if (!free_groups_.empty()) {
    g = free_groups_.back();
    free_groups_.pop_back();
  } else {
    groups_.emplace_back();
    g = static_cast<GroupId>(groups_.size() - 1);
  }
  Group& group = groups_[static_cast<std::size_t>(g)];
  group.bottleneck = -1;
  group.valid = false;
  group.weight = 0.0;
  group.share = 0.0;
  group.members = 0;
  group.touched = 0;
  return g;  // heap and joined were emptied when it retired
}

void MaxMin::retire(GroupId g) {
  Group& group = groups_[static_cast<std::size_t>(g)];
  group.valid = false;
  retired_groups_.push_back(g);
}

// The resource heap of a group: a binary min-heap of resource ids on
// Res::key, positions mirrored in Res::heap_pos.
void MaxMin::heap_move(Group& group, std::size_t i, bool up) {
  const ResourceId r = group.heap[i];
  const double key = resources_[static_cast<std::size_t>(r)].key;
  const auto place = [&](std::size_t at, ResourceId id) {
    group.heap[at] = id;
    resources_[static_cast<std::size_t>(id)].heap_pos =
        static_cast<std::int32_t>(at);
  };
  while (up && i > 0) {
    const std::size_t parent = (i - 1) / 2;
    const ResourceId p = group.heap[parent];
    if (!(key < resources_[static_cast<std::size_t>(p)].key)) break;
    place(i, p);
    i = parent;
  }
  const std::size_t n = group.heap.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        resources_[static_cast<std::size_t>(group.heap[child + 1])].key <
            resources_[static_cast<std::size_t>(group.heap[child])].key)
      ++child;
    const ResourceId c = group.heap[child];
    if (!(resources_[static_cast<std::size_t>(c)].key < key)) break;
    place(i, c);
    i = child;
  }
  place(i, r);
}

void MaxMin::heap_fix(Group& group, ResourceId r) {
  Res& res = resources_[static_cast<std::size_t>(r)];
  if (res.heap_pos < 0) {
    res.heap_pos = static_cast<std::int32_t>(group.heap.size());
    group.heap.push_back(r);
  }
  heap_move(group, static_cast<std::size_t>(res.heap_pos));
}

void MaxMin::heap_erase(Group& group, ResourceId r) {
  Res& res = resources_[static_cast<std::size_t>(r)];
  const auto i = static_cast<std::size_t>(res.heap_pos);
  res.heap_pos = -1;
  const ResourceId last = group.heap.back();
  group.heap.pop_back();
  if (last == r) return;
  group.heap[i] = last;
  resources_[static_cast<std::size_t>(last)].heap_pos =
      static_cast<std::int32_t>(i);
  heap_move(group, i);
}

bool MaxMin::try_join(VarId id) {
  Var& v = vars_[static_cast<std::size_t>(id)];
  if (full_solve_ || v.bound != kInf || !integral(v.weight)) return false;
  GroupId g = -1;
  for (const ResourceId r : v.resources) {
    const GroupId rg = resources_[static_cast<std::size_t>(r)].group;
    if (rg >= 0 && groups_[static_cast<std::size_t>(rg)].bottleneck == r) {
      g = rg;
      break;
    }
  }
  if (g < 0 || !groups_[static_cast<std::size_t>(g)].valid) return false;
  // Every other resource must already be in the group or carry no other
  // variable (v is already its member): anything else merges components.
  for (const ResourceId r : v.resources) {
    const Res& res = resources_[static_cast<std::size_t>(r)];
    if (res.group != g && !(res.group < 0 && res.vars.size() == 1))
      return false;
  }
  Group& group = groups_[static_cast<std::size_t>(g)];
  group.weight += v.weight;
  for (const ResourceId r : v.resources) {
    if (r == group.bottleneck) continue;
    Res& res = resources_[static_cast<std::size_t>(r)];
    if (res.group < 0) {
      res.group = g;
      res.wsum = 0.0;
    }
    res.wsum += v.weight;
    res.key = res.capacity / res.wsum;
    heap_fix(group, r);
  }
  v.group = g;
  v.joining = true;
  ++group.members;
  ++group.touched;
  group.joined.push_back(id);
  return true;
}

void MaxMin::leave(Var& v) {
  Group& group = groups_[static_cast<std::size_t>(v.group)];
  group.weight -= v.weight;
  for (const ResourceId r : v.resources) {
    if (r == group.bottleneck) continue;
    Res& res = resources_[static_cast<std::size_t>(r)];
    res.wsum -= v.weight;  // exact: integer-valued weights
    if (res.wsum == 0.0) {
      heap_erase(group, r);
      res.group = -1;
    } else {
      res.key = res.capacity / res.wsum;
      heap_fix(group, r);
    }
  }
  ++group.touched;
  if (group.members == 1)
    resources_[static_cast<std::size_t>(group.bottleneck)].group = -1;
}

bool MaxMin::update_group(GroupId g) {
  Group& group = groups_[static_cast<std::size_t>(g)];
  const double share =
      resources_[static_cast<std::size_t>(group.bottleneck)].capacity /
      group.weight;
  if (!group.heap.empty() &&
      share > resources_[static_cast<std::size_t>(group.heap.front())].key)
    return false;
  ++stats_.group_updates;
  visited_ += group.touched;
  group.touched = 0;
  const double old = group.share;
  if (share != old) {
    group.share = share;
    changes_.push_back(GroupChange{g, -1, share});
    if (want_changed_) {
      // Members already reported before this solve moved with the share.
      for (const VarId id :
           resources_[static_cast<std::size_t>(group.bottleneck)].vars) {
        const Var& v = vars_[static_cast<std::size_t>(id)];
        if (!v.joining && share * v.weight != old * v.weight)
          changed_.push_back(id);
      }
    }
  }
  for (const VarId id : group.joined) {
    Var& v = vars_[static_cast<std::size_t>(id)];
    if (!v.active || !v.joining || v.group != g) continue;  // left again
    v.joining = false;
    changes_.push_back(GroupChange{g, id, share});
    if (want_changed_ && share * v.weight != 0.0) changed_.push_back(id);
  }
  group.joined.clear();
  return true;
}

// ---------------------------------------------------------------------------
// Variables.
// ---------------------------------------------------------------------------

VarId MaxMin::add_variable(double weight,
                           const std::vector<ResourceId>& resources,
                           double bound) {
  if (weight <= 0) throw Error("MaxMin: variable weight must be positive");
  if (bound <= 0) throw Error("MaxMin: variable bound must be positive");
  if (resources.empty() && bound == kInf)
    throw Error("MaxMin: a variable needs a resource or a finite bound");
  for (const ResourceId r : resources) {
    if (r < 0 || static_cast<std::size_t>(r) >= resources_.size())
      throw Error("MaxMin: unknown resource id");
  }

  VarId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    vars_.emplace_back();
    id = static_cast<VarId>(vars_.size() - 1);
  }
  Var& v = vars_[static_cast<std::size_t>(id)];
  v.weight = weight;
  v.bound = bound;
  v.rate = 0.0;
  v.active = true;
  v.joining = false;
  v.group = -1;
  v.resources = resources;
  // Routes from the platform's route cache arrive pre-sorted; skip the sort
  // for them (flows are added once per message — this is a hot path).
  if (!std::is_sorted(v.resources.begin(), v.resources.end()))
    std::sort(v.resources.begin(), v.resources.end());
  v.resources.erase(std::unique(v.resources.begin(), v.resources.end()),
                    v.resources.end());
  v.positions.clear();
  v.positions.reserve(v.resources.size());
  for (const ResourceId r : v.resources) {
    Res& res = resources_[static_cast<std::size_t>(r)];
    v.positions.push_back(static_cast<std::uint32_t>(res.vars.size()));
    res.vars.push_back(id);
    mark_resource_modified(r);
  }
  if (v.resources.empty() && !v.modified) {
    v.modified = true;
    modified_vars_.push_back(id);
  }
  // A variable touching no group goes to the fill; one touching groups
  // joins one or invalidates them all (the fill decides).
  for (const ResourceId r : v.resources) {
    if (resources_[static_cast<std::size_t>(r)].group < 0) continue;
    if (!try_join(id)) {
      for (const ResourceId t : v.resources) {
        const GroupId g = resources_[static_cast<std::size_t>(t)].group;
        if (g >= 0) groups_[static_cast<std::size_t>(g)].valid = false;
      }
    }
    break;
  }
  ++active_count_;
  return id;
}

void MaxMin::remove_variable(VarId id) {
  Var& v = vars_.at(static_cast<std::size_t>(id));
  if (!v.active) throw Error("MaxMin: removing an inactive variable");
  if (v.group >= 0) {
    Group& group = groups_[static_cast<std::size_t>(v.group)];
    if (group.valid) leave(v);
    if (--group.members == 0) retire(v.group);
    v.group = -1;
    v.joining = false;
  }
  // Intrusive bidirectional membership: swap-remove this variable from each
  // of its resources' member lists, repairing the moved member's stored
  // position. Routes are a handful of links, so a linear scan of the moved
  // member's (sorted) resource list beats std::lower_bound's branching.
  for (std::size_t i = 0; i < v.resources.size(); ++i) {
    const ResourceId r = v.resources[i];
    Res& res = resources_[static_cast<std::size_t>(r)];
    const std::uint32_t pos = v.positions[i];
    const VarId moved = res.vars.back();
    res.vars[pos] = moved;
    res.vars.pop_back();
    if (moved != id) {
      Var& m = vars_[static_cast<std::size_t>(moved)];
      std::size_t k = 0;
      while (m.resources[k] != r) ++k;
      m.positions[k] = pos;
    }
    mark_resource_modified(r);
  }
  v.active = false;
  v.rate = 0.0;
  v.resources.clear();
  v.positions.clear();
  --active_count_;
  free_ids_.push_back(id);
}

double MaxMin::rate(VarId id) const {
  const Var& v = vars_.at(static_cast<std::size_t>(id));
  if (!v.active) throw Error("MaxMin: rate() on an inactive variable");
  return rate_of(v);
}

GroupId MaxMin::group_of(VarId id) const {
  const Var& v = vars_.at(static_cast<std::size_t>(id));
  if (!v.active) throw Error("MaxMin: group_of() on an inactive variable");
  return v.group;
}

double MaxMin::resource_load(ResourceId r) const {
  double load = 0.0;
  for (const VarId id : resources_.at(static_cast<std::size_t>(r)).vars)
    load += rate_of(vars_[static_cast<std::size_t>(id)]);
  return load;
}

// ---------------------------------------------------------------------------
// Solving.
// ---------------------------------------------------------------------------

void MaxMin::load_var(VarId id, Var& v) {
  v.in_component = true;
  v.slot = static_cast<std::int32_t>(component_vars_.size());
  component_vars_.push_back(id);
  // The previous rate only matters to solve_changed()'s report.
  fill_var_.push_back(FillVar{0.0, v.bound, v.weight,
                              want_changed_ ? rate_of(v) : 0.0, false});
  fill_groupable_ = fill_groupable_ && v.bound == kInf && integral(v.weight);
}

void MaxMin::fill_from_res(ResourceId r) {
  Res& res = resources_[static_cast<std::size_t>(r)];
  if (res.in_component) return;
  const std::size_t rb = component_res_.size();
  const std::size_t vb = component_vars_.size();
  res.in_component = true;
  res.slot = static_cast<std::int32_t>(rb);
  component_res_.push_back(r);
  fill_res_.push_back(FillRes{res.capacity, 0.0});
  fill_groupable_ = true;
  fill_grouped_ = res.group >= 0;
  grow_and_fill(rb, vb);
}

void MaxMin::fill_from_var(VarId v) {
  Var& var = vars_[static_cast<std::size_t>(v)];
  if (var.in_component) return;
  const std::size_t rb = component_res_.size();
  const std::size_t vb = component_vars_.size();
  fill_groupable_ = true;
  fill_grouped_ = false;
  load_var(v, var);
  grow_and_fill(rb, vb);
}

void MaxMin::grow_and_fill(std::size_t res_begin, std::size_t var_begin) {
  // Both lists double as BFS worklists: every member of a component
  // resource joins, and every resource of a component variable joins.
  // Weight sums accumulate per (variable, resource) edge in discovery order.
  std::size_t ri = res_begin, vi = var_begin;
  while (ri < component_res_.size() || vi < component_vars_.size()) {
    while (ri < component_res_.size()) {
      const Res& res =
          resources_[static_cast<std::size_t>(component_res_[ri++])];
      for (const VarId v : res.vars) {
        Var& var = vars_[static_cast<std::size_t>(v)];
        if (!var.in_component) load_var(v, var);
      }
    }
    while (vi < component_vars_.size()) {
      const Var& var = vars_[static_cast<std::size_t>(component_vars_[vi++])];
      for (const ResourceId r : var.resources) {
        Res& res = resources_[static_cast<std::size_t>(r)];
        if (!res.in_component) {
          res.in_component = true;
          res.slot = static_cast<std::int32_t>(component_res_.size());
          component_res_.push_back(r);
          fill_res_.push_back(FillRes{res.capacity, 0.0});
          fill_grouped_ = fill_grouped_ || res.group >= 0;
        }
        fill_res_[static_cast<std::size_t>(res.slot)].wsum += var.weight;
      }
    }
  }
  fill_component(res_begin, component_res_.size(), var_begin,
                 component_vars_.size());
}

void MaxMin::fill_component(std::size_t rb, std::size_t re, std::size_t vb,
                            std::size_t ve) {
  visited_ += ve - vb;

  const auto saturate = [this](std::size_t j, VarId id, double rate) {
    FillVar& fv = fill_var_[j];
    fv.rate = rate;
    fv.done = true;
    const Var& v = vars_[static_cast<std::size_t>(id)];
    for (const ResourceId r : v.resources) {
      FillRes& fr = fill_res_[static_cast<std::size_t>(
          resources_[static_cast<std::size_t>(r)].slot)];
      fr.rem = std::max(0.0, fr.rem - rate);
      fr.wsum -= fv.weight;
    }
  };

  // A component is single-bottleneck when its first round saturates every
  // variable through one binding resource they all cross, at that
  // resource's exact share (the smallest offered). It becomes a group when
  // it has kMinGroupVars or more variables, or when its first reported
  // member's group is one already (it carries on at any size, as it does
  // through the incremental update).
  const auto nvars = static_cast<std::uint32_t>(ve - vb);
  // (A group's bottleneck carries its id, so an ungrouped component holds
  // no group to carry on.)
  bool first_round = fill_groupable_ && nvars >= kMinGroupVars;
  for (std::size_t j = vb; fill_groupable_ && fill_grouped_ && !first_round &&
                           j < ve;
       ++j) {
    const Var& v = vars_[static_cast<std::size_t>(component_vars_[j])];
    if (v.group < 0 || v.joining) continue;
    first_round = groups_[static_cast<std::size_t>(v.group)].bottleneck >= 0;
    break;
  }
  std::int64_t bottleneck = -1;
  double first_share = 0.0;

  // The unsaturated set is tracked through the `done` flags: each round
  // scans every component variable and skips finished ones. Components are
  // small (a handful of variables for most incremental solves) and rounds
  // are few, so the rescans beat maintaining a shrinking worklist.
  std::size_t unsat_count = ve - vb;
  while (unsat_count > 0) {
    // Smallest per-weight share offered by any component resource.
    double best_share = kInf;
    for (std::size_t i = rb; i < re; ++i) {
      if (fill_res_[i].wsum > kEps)
        best_share = std::min(best_share, fill_res_[i].rem / fill_res_[i].wsum);
    }

    // Variables whose bound binds before (or at) the resource share.
    bool any_bounded = false;
    for (std::size_t j = vb; j < ve; ++j) {
      const FillVar& fv = fill_var_[j];
      if (fv.done) continue;
      if (fv.bound < best_share * fv.weight * (1.0 - 1e-9) ||
          best_share == kInf) {
        if (fv.bound == kInf)
          throw Error("MaxMin: unconstrained variable (no live resource)");
        saturate(j, component_vars_[j], fv.bound);
        --unsat_count;
        any_bounded = true;
      }
    }
    if (!any_bounded) {
      for (std::size_t i = rb; first_round && i < re; ++i) {
        if (fill_res_[i].wsum > kEps &&
            fill_res_[i].rem / fill_res_[i].wsum == best_share &&
            resources_[static_cast<std::size_t>(component_res_[i])]
                    .vars.size() == nvars) {
          bottleneck = static_cast<std::int64_t>(i);
          first_share = best_share;
          break;
        }
      }
      // Saturate every variable touching a binding resource.
      for (std::size_t i = rb; i < re; ++i) {
        if (fill_res_[i].wsum <= kEps) continue;
        if (fill_res_[i].rem / fill_res_[i].wsum <= best_share * (1.0 + 1e-9)) {
          for (const VarId id :
               resources_[static_cast<std::size_t>(component_res_[i])].vars) {
            const auto j = static_cast<std::size_t>(
                vars_[static_cast<std::size_t>(id)].slot);
            if (fill_var_[j].done) continue;
            saturate(j, id,
                     std::min(fill_var_[j].bound,
                              best_share * fill_var_[j].weight));
            --unsat_count;
          }
        }
      }
    }
    first_round = false;
  }

  if (want_changed_) {
    for (std::size_t j = vb; j < ve; ++j) {
      if (fill_var_[j].rate != fill_var_[j].prev)
        changed_.push_back(component_vars_[j]);
    }
  }
  assign_groups(rb, re, vb, ve, bottleneck, first_share);
}

void MaxMin::assign_groups(std::size_t rb, std::size_t re, std::size_t vb,
                           std::size_t ve, std::int64_t bottleneck,
                           double share) {
  ++fill_epoch_;
  for (std::size_t i = rb; fill_grouped_ && i < re; ++i) {
    Res& res = resources_[static_cast<std::size_t>(component_res_[i])];
    res.group = -1;
    res.heap_pos = -1;
  }
  // Moves `id` into group `g` (counted there) and reports the join.
  const auto join = [this](VarId id, GroupId g) {
    Var& v = vars_[static_cast<std::size_t>(id)];
    if (v.group != g) {
      if (v.group >= 0 &&
          --groups_[static_cast<std::size_t>(v.group)].members == 0)
        retire(v.group);
      ++groups_[static_cast<std::size_t>(g)].members;
      v.group = g;
    }
    v.joining = false;
    changes_.push_back(
        GroupChange{g, id, groups_[static_cast<std::size_t>(g)].share});
  };

  if (bottleneck >= 0) {
    // The group of the first already-reported member survives, so a
    // component that only gained or lost members keeps its group (and the
    // caller's progress clock) exactly as the incremental update would.
    GroupId g = -1;
    for (std::size_t j = vb; j < ve && g < 0; ++j) {
      const Var& v = vars_[static_cast<std::size_t>(component_vars_[j])];
      if (v.group >= 0 && !v.joining) g = v.group;
    }
    if (g < 0) g = new_group();
    Group& group = groups_[static_cast<std::size_t>(g)];
    const ResourceId r_bottleneck =
        component_res_[static_cast<std::size_t>(bottleneck)];
    group.claimed = fill_epoch_;
    group.bottleneck = r_bottleneck;
    group.valid = !full_solve_;  // the full solve always refills
    group.touched = 0;
    group.joined.clear();
    group.heap.clear();
    // Weight sums of integer weights are exact in any order.
    const auto weight_sum = [this](const Res& res) {
      double sum = 0.0;
      for (const VarId id : res.vars)
        sum += vars_[static_cast<std::size_t>(id)].weight;
      return sum;
    };
    for (std::size_t i = rb; i < re; ++i) {
      const ResourceId r = component_res_[i];
      Res& res = resources_[static_cast<std::size_t>(r)];
      if (r == r_bottleneck) {
        res.group = g;
        group.weight = weight_sum(res);
      } else if (!res.vars.empty()) {
        res.group = g;
        res.wsum = weight_sum(res);
        res.key = res.capacity / res.wsum;
        res.heap_pos = static_cast<std::int32_t>(group.heap.size());
        group.heap.push_back(r);
      }
    }
    for (std::size_t i = group.heap.size() / 2; i-- > 0;)
      heap_move(group, i, /*up=*/false);
    if (share != group.share) {
      group.share = share;
      changes_.push_back(GroupChange{g, -1, share});
    }
    for (std::size_t j = vb; j < ve; ++j) {
      const VarId id = component_vars_[j];
      const Var& v = vars_[static_cast<std::size_t>(id)];
      if (v.group != g || v.joining) join(id, g);
    }
    return;
  }

  // Groups of one: a member's existing group is kept by the first of its
  // members in component order; everyone else gets a fresh group. A group
  // of one's share is its member's rate, so in a component that held no
  // single-bottleneck group the member's old rate is the group's share.
  for (std::size_t j = vb; j < ve; ++j) {
    const VarId id = component_vars_[j];
    Var& v = vars_[static_cast<std::size_t>(id)];
    const double rate = fill_var_[j].rate;
    if (!fill_grouped_ && v.group >= 0) {
      if (rate != v.rate) {
        v.rate = rate;
        groups_[static_cast<std::size_t>(v.group)].share = rate;
        changes_.push_back(GroupChange{v.group, -1, rate});
      }
      continue;
    }
    v.rate = rate;
    if (v.group >= 0 && !v.joining &&
        groups_[static_cast<std::size_t>(v.group)].claimed != fill_epoch_) {
      Group& group = groups_[static_cast<std::size_t>(v.group)];
      if (group.bottleneck >= 0) {
        // The first member keeps a dissolving single-bottleneck group.
        group.claimed = fill_epoch_;
        group.bottleneck = -1;
        group.valid = false;
        group.touched = 0;
        group.joined.clear();
        group.heap.clear();
        group.share = -1.0;  // report the member's rate below
      }
      if (rate != group.share) {
        group.share = rate;
        changes_.push_back(GroupChange{v.group, -1, rate});
      }
      continue;
    }
    const GroupId g = new_group();
    Group& group = groups_[static_cast<std::size_t>(g)];
    group.share = rate;
    join(id, g);
  }
}

void MaxMin::solve() {
  changed_.clear();
  changes_.clear();
  if (!dirty()) return;
  ++solve_epoch_;
  visited_ = 0;
  component_res_.clear();
  component_vars_.clear();
  fill_res_.clear();
  fill_var_.clear();

  // Seeds in modification order: a valid single-bottleneck group is
  // answered by its incremental update at its first seed; everything else
  // (and a group whose update fails its check) is grown and filled. The
  // full solve refills the same components in the same order, then sweeps
  // the untouched ones, so both modes report changes in the same order.
  for (const ResourceId r : modified_resources_) {
    const Res& res = resources_[static_cast<std::size_t>(r)];
    if (res.in_component) continue;
    if (!full_solve_ && res.group >= 0) {
      Group& group = groups_[static_cast<std::size_t>(res.group)];
      if (group.valid) {
        if (group.epoch == solve_epoch_) continue;  // updated at a prior seed
        group.epoch = solve_epoch_;
        if (update_group(res.group)) continue;
      }
    }
    fill_from_res(r);
  }
  for (const VarId v : modified_vars_) {
    if (vars_[static_cast<std::size_t>(v)].active) fill_from_var(v);
  }
  if (full_solve_) {
    for (std::size_t i = 0; i < vars_.size(); ++i) {
      if (vars_[i].active) fill_from_var(static_cast<VarId>(i));
    }
  }
  for (const ResourceId r : modified_resources_)
    resources_[static_cast<std::size_t>(r)].modified = false;
  for (const VarId v : modified_vars_)
    vars_[static_cast<std::size_t>(v)].modified = false;
  modified_resources_.clear();
  modified_vars_.clear();

  ++stats_.solves;
  stats_.vars_touched += visited_;
  stats_.last_component_vars = visited_;
  stats_.max_component_vars = std::max(stats_.max_component_vars, visited_);

  for (const ResourceId r : component_res_)
    resources_[static_cast<std::size_t>(r)].in_component = false;
  for (const VarId v : component_vars_)
    vars_[static_cast<std::size_t>(v)].in_component = false;
  for (const GroupId g : retired_groups_) {
    groups_[static_cast<std::size_t>(g)].heap.clear();
    groups_[static_cast<std::size_t>(g)].joined.clear();
    free_groups_.push_back(g);
  }
  retired_groups_.clear();
}

std::span<const MaxMin::GroupChange> MaxMin::solve_groups() {
  solve();
  return {changes_.data(), changes_.size()};
}

std::span<const VarId> MaxMin::solve_changed() {
  want_changed_ = true;
  solve();
  want_changed_ = false;
  return {changed_.data(), changed_.size()};
}

}  // namespace tir::sim
