#include "simkern/maxmin.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace tir::sim {

namespace {
constexpr double kEps = 1e-12;
}

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
  mark_resource_modified(r);
}

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
  ++active_count_;
  return id;
}

void MaxMin::remove_variable(VarId id) {
  Var& v = vars_.at(static_cast<std::size_t>(id));
  if (!v.active) throw Error("MaxMin: removing an inactive variable");
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
  return v.rate;
}

double MaxMin::resource_load(ResourceId r) const {
  double load = 0.0;
  for (const VarId id : resources_.at(static_cast<std::size_t>(r)).vars)
    load += vars_[static_cast<std::size_t>(id)].rate;
  return load;
}

void MaxMin::expand_components() {
  component_res_.clear();
  component_vars_.clear();
  components_.clear();
  fill_res_.clear();
  fill_var_.clear();

  // Joining a component also loads the member into the fill scratch arrays
  // and records its slot — the BFS touches every Res/Var anyway, so the
  // fill needs no setup pass of its own.
  const auto push_res = [this](ResourceId r) {
    Res& res = resources_[static_cast<std::size_t>(r)];
    if (res.in_component) return;
    res.in_component = true;
    res.slot = static_cast<std::int32_t>(component_res_.size());
    component_res_.push_back(r);
    fill_res_.push_back(FillRes{res.capacity, 0.0});
  };
  const auto push_var = [this](VarId v) {
    Var& var = vars_[static_cast<std::size_t>(v)];
    if (var.in_component) return;
    var.in_component = true;
    var.slot = static_cast<std::int32_t>(component_vars_.size());
    component_vars_.push_back(v);
    fill_var_.push_back(FillVar{0.0, var.bound, var.weight, var.rate, false});
  };

  // Grows the full connected component around one seed. Seeds already swept
  // into an earlier component are skipped by the callers (in_component),
  // so each call emits one genuinely disjoint Component slice. Both lists
  // double as BFS worklists: every member of a component resource joins,
  // and every resource of a component variable joins. Weight sums
  // accumulate per (variable, resource) edge in discovery order — the same
  // variable-major order the old fill setup used, so the sums are
  // bit-identical.
  const auto grow = [&](std::size_t res_begin, std::size_t var_begin) {
    std::size_t ri = res_begin, vi = var_begin;
    while (ri < component_res_.size() || vi < component_vars_.size()) {
      while (ri < component_res_.size()) {
        const Res& res = resources_[static_cast<std::size_t>(
            component_res_[ri++])];
        for (const VarId v : res.vars) push_var(v);
      }
      while (vi < component_vars_.size()) {
        const Var& var = vars_[static_cast<std::size_t>(
            component_vars_[vi++])];
        for (const ResourceId r : var.resources) {
          push_res(r);
          fill_res_[static_cast<std::size_t>(
              resources_[static_cast<std::size_t>(r)].slot)].wsum +=
              var.weight;
        }
      }
    }
    components_.push_back(Component{res_begin, component_res_.size(),
                                    var_begin, component_vars_.size()});
  };
  const auto grow_from_res = [&](ResourceId r) {
    if (resources_[static_cast<std::size_t>(r)].in_component) return;
    const std::size_t rb = component_res_.size();
    const std::size_t vb = component_vars_.size();
    push_res(r);
    grow(rb, vb);
  };
  const auto grow_from_var = [&](VarId v) {
    if (vars_[static_cast<std::size_t>(v)].in_component) return;
    const std::size_t rb = component_res_.size();
    const std::size_t vb = component_vars_.size();
    push_var(v);
    grow(rb, vb);
  };

  // The full solve seeds from the modified set first, exactly like the
  // incremental solve, so the components both re-solve are discovered in
  // the same order and report changed variables in the same order; the
  // engine's finish-heap ties then break identically in both modes.
  for (const ResourceId r : modified_resources_) grow_from_res(r);
  for (const VarId v : modified_vars_) {
    if (vars_[static_cast<std::size_t>(v)].active) grow_from_var(v);
  }
  if (full_solve_) {
    for (std::size_t i = 0; i < vars_.size(); ++i) {
      if (vars_[i].active) grow_from_var(static_cast<VarId>(i));
    }
  }
  for (const ResourceId r : modified_resources_)
    resources_[static_cast<std::size_t>(r)].modified = false;
  for (const VarId v : modified_vars_)
    vars_[static_cast<std::size_t>(v)].modified = false;
  modified_resources_.clear();
  modified_vars_.clear();
}

void MaxMin::fill_component(std::size_t c) {
  const Component& comp = components_[c];
  const std::size_t rb = comp.res_begin, re = comp.res_end;
  const std::size_t vb = comp.var_begin, ve = comp.var_end;

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
  }

  for (std::size_t j = vb; j < ve; ++j) {
    Var& v = vars_[static_cast<std::size_t>(component_vars_[j])];
    v.rate = fill_var_[j].rate;
    if (fill_var_[j].rate != fill_var_[j].prev)
      changed_.push_back(component_vars_[j]);
  }
}

void MaxMin::solve() {
  changed_.clear();
  if (!dirty()) return;

  expand_components();

  for (std::size_t c = 0; c < components_.size(); ++c) fill_component(c);

  ++stats_.solves;
  stats_.vars_touched += component_vars_.size();
  stats_.rate_changes += changed_.size();
  stats_.last_component_vars = component_vars_.size();
  stats_.max_component_vars =
      std::max(stats_.max_component_vars, component_vars_.size());

  for (const ResourceId r : component_res_)
    resources_[static_cast<std::size_t>(r)].in_component = false;
  for (const VarId v : component_vars_)
    vars_[static_cast<std::size_t>(v)].in_component = false;
}

std::span<const VarId> MaxMin::solve_changed() {
  solve();
  return {changed_.data(), changed_.size()};
}

}  // namespace tir::sim
