#include "simkern/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "obs/recorder.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace tir::sim {

namespace {
constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
}

void Task::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<Task::promise_type> h) noexcept {
  Process* process = h.promise().process;
  if (process && process->engine_) process->engine_->on_process_exit(*process);
}

void Gate::open() {
  if (done()) return;
  if (engine_ == nullptr) return;  // detached gate: nothing to notify
  engine_->complete(*this);
}

Engine::Engine(const plat::Platform& platform, EngineConfig config)
    : platform_(platform), config_(config) {
  net_lmm_.set_full_solve(config.full_solve);
  // The solver numbers resources in creation order: link l is resource l.
  for (std::size_t l = 0; l < platform.link_count(); ++l)
    net_lmm_.add_resource(platform.link(static_cast<int>(l)).bandwidth);
  loopback_routes_.resize(platform.host_count());
  for (std::size_t h = 0; h < platform.host_count(); ++h) {
    const plat::LinkId loopback = platform.host(static_cast<int>(h)).loopback;
    if (loopback != plat::kNone) loopback_routes_[h].push_back(loopback);
  }
  host_execs_.resize(platform.host_count());
  host_power_factor_.assign(platform.host_count(), 1.0);
  link_bandwidth_factor_.assign(platform.link_count(), 1.0);
  link_latency_factor_.assign(platform.link_count(), 1.0);
}

Engine::~Engine() { drop_frames(); }

void Engine::drop_frames() {
  for (auto it = processes_.rbegin(); it != processes_.rend(); ++it) {
    if ((*it)->coro_) {
      (*it)->coro_.destroy();
      (*it)->coro_ = {};
    }
  }
}

Process& Engine::spawn(std::string name, int host, ProcessBody body) {
  if (host < 0 || static_cast<std::size_t>(host) >= platform_.host_count())
    throw SimError("spawn: unknown host id " + std::to_string(host));
  auto process = std::make_unique<Process>();
  process->id_ = static_cast<int>(processes_.size());
  process->host_ = host;
  process->name_ = std::move(name);
  process->engine_ = this;
  process->body_ = std::move(body);
  Process& ref = *process;
  processes_.push_back(std::move(process));

  Task task = ref.body_(ref);
  ref.coro_ = task.release();
  ref.coro_.promise().process = &ref;
  ready_.push_back(ref.coro_);
  ++live_processes_;
  return ref;
}

void Engine::on_process_exit(Process& process) {
  process.finished_ = true;
  --live_processes_;
  if (process.coro_.promise().error && !first_error_)
    first_error_ = process.coro_.promise().error;
}

// ---------------------------------------------------------------------------
// Fluid bookkeeping.
// ---------------------------------------------------------------------------

void Engine::catch_up(FluidState& fluid) {
  if (fluid.rate > 0 && now_ > fluid.last_update)
    fluid.remaining =
        std::max(0.0, fluid.remaining - fluid.rate * (now_ - fluid.last_update));
  fluid.last_update = now_;
}

// Finish queue: indexed 4-ary min-heap over the fluids (running Execs and
// ungrouped flows) and the rate groups.
//
// Every fluid with a positive rate and every group with members and a
// positive share has exactly one entry, re-keyed in place when its rate or
// head member changes (FluidState::heap_pos / FlowGroup::heap_pos track the
// slot). A group's entry is its head member's finish; the rest of its
// members wait in the group's own heap, ordered by their rate-invariant
// keys, so a share change on a shared backbone moves one entry instead of
// one per flow. Pop order is the strict (time, seq, order) total order.
bool Engine::finish_before(const FinishItem& a, const FinishItem& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.seq != b.seq) return a.seq < b.seq;
  return a.order < b.order;
}

std::int32_t& Engine::finish_slot(const FinishItem& item) {
  return item.fluid ? item.fluid->fluid.heap_pos
                    : groups_[static_cast<std::size_t>(item.group)].heap_pos;
}

void Engine::finish_place(FinishItem item, std::size_t i) {
  finish_slot(item) = static_cast<std::int32_t>(i);
  finish_heap_[i] = item;
}

std::size_t Engine::finish_sift_up(std::size_t i) {
  const FinishItem item = finish_heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!finish_before(item, finish_heap_[parent])) break;
    finish_place(finish_heap_[parent], i);
    i = parent;
  }
  finish_place(item, i);
  return i;
}

std::size_t Engine::finish_sift_down(std::size_t i) {
  const FinishItem item = finish_heap_[i];
  const std::size_t n = finish_heap_.size();
  for (;;) {
    std::size_t best = 4 * i + 1;
    if (best >= n) break;
    const std::size_t last = std::min(best + 4, n);
    for (std::size_t c = best + 1; c < last; ++c) {
      if (finish_before(finish_heap_[c], finish_heap_[best])) best = c;
    }
    if (!finish_before(finish_heap_[best], item)) break;
    finish_place(finish_heap_[best], i);
    i = best;
  }
  finish_place(item, i);
  return i;
}

void Engine::finish_update(FinishItem item) {
  const std::int32_t slot = finish_slot(item);
  if (slot < 0) {
    const std::size_t i = finish_heap_.size();
    finish_heap_.push_back(item);
    finish_sift_up(i);
  } else {
    const auto i = static_cast<std::size_t>(slot);
    finish_heap_[i] = item;
    finish_sift_down(finish_sift_up(i));
  }
}

void Engine::finish_remove(std::int32_t& slot) {
  if (slot < 0) return;
  const auto i = static_cast<std::size_t>(slot);
  slot = -1;
  if (i + 1 != finish_heap_.size()) {
    finish_place(finish_heap_.back(), i);
    finish_heap_.pop_back();
    finish_sift_down(finish_sift_up(i));
  } else {
    finish_heap_.pop_back();
  }
}

void Engine::finish_pop() {
  finish_slot(finish_heap_.front()) = -1;
  if (finish_heap_.size() > 1) {
    finish_place(finish_heap_.back(), 0);
    finish_heap_.pop_back();
    finish_sift_down(0);
  } else {
    finish_heap_.pop_back();
  }
}

void Engine::set_rate(Exec& exec, double rate) {
  catch_up(exec.fluid);
  exec.fluid.rate = rate;
  queue_fluid(exec, seq_++, 0);
}

void Engine::reschedule_host(int host) {
  auto& execs = host_execs_[static_cast<std::size_t>(host)];
  if (execs.empty()) return;
  const double rate = platform_.host(host).power *
                      host_power_factor_[static_cast<std::size_t>(host)] /
                      static_cast<double>(execs.size());
  for (const auto& exec : execs) {
    if (exec->fluid.rate != rate) set_rate(*exec, rate);
  }
}

// ---------------------------------------------------------------------------
// Rate groups.
// ---------------------------------------------------------------------------

namespace {
/// Whether a rate change is worth re-queueing a finish for.
bool meaningful(double rate, double old) {
  return rate != old &&
         (old <= 0 || std::abs(rate - old) > 1e-12 * std::max(rate, old));
}
}  // namespace

double Engine::clock_at(const FlowGroup& group, SimTime t) {
  if (group.share > 0 && t > group.last_update)
    return group.clock + group.share * (t - group.last_update);
  return group.clock;
}

void Engine::advance(FlowGroup& group) {
  group.clock = clock_at(group, now_);
  group.last_update = now_;
  if (group.members.size() == 1) {
    // Fold the clock into the lone key: remaining = max(0, remaining -
    // share · dt), the per-flow update, so a group down to one member
    // rounds like a flow in no group.
    FlowMember& only = group.members.front();
    only.key = std::max(0.0, only.key - group.clock);
    group.clock = 0.0;
  }
}

// A group's members: a binary min-heap on (key, rate_seq, order),
// positions mirrored in FlowState::member_pos.
void Engine::member_move(FlowGroup& group, std::size_t i, bool up) {
  const FlowMember item = group.members[i];
  const auto before = [&group](const FlowMember& a, const FlowMember& b) {
    if (a.key != b.key) return a.key < b.key;
    const std::uint64_t sa = group.rate_seq(a), sb = group.rate_seq(b);
    if (sa != sb) return sa < sb;
    return a.order < b.order;
  };
  const auto place = [&group](std::size_t at, const FlowMember& m) {
    group.members[at] = m;
    m.flow->flow.member_pos = static_cast<std::int32_t>(at);
  };
  while (up && i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(item, group.members[parent])) break;
    place(i, group.members[parent]);
    i = parent;
  }
  const std::size_t n = group.members.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(group.members[child + 1], group.members[child]))
      ++child;
    if (!before(group.members[child], item)) break;
    place(i, group.members[child]);
    i = child;
  }
  place(i, item);
}

void Engine::member_push(FlowGroup& group, FlowMember member) {
  group.members.push_back(member);
  member_move(group, group.members.size() - 1);
}

void Engine::member_erase(FlowGroup& group, std::size_t i) {
  group.members[i].flow->flow.member_pos = -1;
  const FlowMember last = group.members.back();
  group.members.pop_back();
  if (i == group.members.size()) return;
  group.members[i] = last;
  member_move(group, i);
}

Engine::FlowGroup& Engine::begin_change(std::int32_t g) {
  FlowGroup& group = groups_[static_cast<std::size_t>(g)];
  if (group.epoch != resolve_epoch_) {
    group.epoch = resolve_epoch_;
    group.prev_share = group.share;
    group.prev_share_seq = group.share_seq;
    group.prev_share_gen = group.share_gen;
    touched_groups_.push_back(g);
  }
  return group;
}

void Engine::apply_share(std::int32_t g, double share) {
  if (!meaningful(share, groups_[static_cast<std::size_t>(g)].share)) return;
  FlowGroup& group = begin_change(g);
  advance(group);
  group.share = share;
  group.reshare = true;
  if (group.members.empty()) return;
  // Every member present now changes rate (later joins carry their own
  // seq): their seqs tie, leaving start order to break equal keys.
  group.share_seq = seq_++;
  ++group.share_gen;
  if (group.reorder) {
    group.reorder = false;
    for (std::size_t i = group.members.size() / 2; i-- > 0;)
      member_move(group, i, /*up=*/false);
  }
}

Engine::FlowProgress Engine::take_flow(Transfer& transfer) {
  if (const std::int32_t g = transfer.flow.group; g >= 0) {
    FlowGroup& old = begin_change(g);
    advance(old);
    const auto pos = static_cast<std::size_t>(transfer.flow.member_pos);
    const FlowMember& member = old.members[pos];
    const FlowProgress progress{
        std::max(0.0, member.key - old.clock), old.prev_share,
        member.gen == old.prev_share_gen ? member.seq : old.prev_share_seq};
    member_erase(old, pos);
    transfer.flow.group = -1;
    return progress;
  }
  // In no group: its own progress, caught up (a new flow has its whole
  // amount left and no rate yet).
  catch_up(transfer.fluid);
  return {transfer.fluid.remaining, transfer.fluid.rate, transfer.flow.seq};
}

void Engine::move_flow(Transfer& transfer, std::int32_t g) {
  const FlowProgress from = take_flow(transfer);
  if (transfer.fluid.heap_pos >= 0) {
    finish_remove(transfer.fluid.heap_pos);  // its group's entry times it
    ++stats_.flows_rerated;
  }
  FlowGroup& group = begin_change(g);
  advance(group);
  // A flow whose rate does not move keeps its seq, like a flow a per-flow
  // re-rating would have left alone.
  const bool rerated = meaningful(group.share, from.rate);
  const std::uint64_t order = transfer.flow.order;
  if (!rerated || order < group.max_order) group.reorder = true;
  group.max_order = std::max(group.max_order, order);
  member_push(group, FlowMember{group.clock + from.remaining,
                                rerated ? seq_++ : from.seq, group.share_gen,
                                order, &transfer});
  transfer.flow.group = g;
}

bool Engine::rate_flow(Transfer& transfer, double rate) {
  // An ungrouped flow follows the per-Exec rule: an insignificant change
  // leaves its rate and entry alone.
  if (transfer.flow.group < 0 && !meaningful(rate, transfer.fluid.rate))
    return false;
  const FlowProgress from = take_flow(transfer);
  FluidState& fluid = transfer.fluid;
  fluid.remaining = from.remaining;
  fluid.rate = rate;
  fluid.last_update = now_;
  transfer.flow.seq = meaningful(rate, from.rate) ? seq_++ : from.seq;
  return queue_fluid(transfer, transfer.flow.seq, transfer.flow.order);
}

bool Engine::queue_fluid(FluidActivity& activity, std::uint64_t seq,
                         std::uint64_t order) {
  FluidState& fluid = activity.fluid;
  if (fluid.rate > 0) {
    finish_update(FinishItem{now_ + fluid.remaining / fluid.rate, seq, order,
                             &activity, -1});
    return true;
  }
  const bool queued = fluid.heap_pos >= 0;
  finish_remove(fluid.heap_pos);  // starved until a rate change
  return queued;
}

bool Engine::rekey_group(std::int32_t g) {
  FlowGroup& group = groups_[static_cast<std::size_t>(g)];
  const bool reshare = group.reshare;
  group.reshare = false;
  if (group.members.empty()) {
    const bool queued = group.heap_pos >= 0;
    finish_remove(group.heap_pos);
    group.entry = nullptr;
    group.share = 0.0;  // a recycled id starts from scratch
    group.clock = 0.0;
    group.share_seq = 0;
    group.max_order = 0;
    group.reorder = false;
    return queued;
  }
  if (group.share <= 0) {
    const bool queued = group.heap_pos >= 0;
    finish_remove(group.heap_pos);  // starved until a share change
    group.entry = nullptr;
    return queued;
  }
  const FlowMember& head = group.members.front();
  // An unchanged head at an unchanged share finishes when its entry says:
  // recomputing would only add rounding.
  if (group.heap_pos >= 0 && group.entry == head.flow && !reshare)
    return false;
  group.entry = head.flow;
  finish_update(FinishItem{now_ + (head.key - group.clock) / group.share,
                           group.rate_seq(head), head.order, nullptr, g});
  return true;
}

void Engine::resolve_network() {
  if (!net_lmm_.dirty()) return;
  const auto changes = net_lmm_.solve_groups();
  ++stats_.solver_calls;
  const auto& solver = net_lmm_.solve_stats();
  stats_.solver_vars_touched = solver.vars_touched;
  stats_.solver_group_updates = solver.group_updates;
  stats_.solver_component_size_max =
      std::max<std::uint64_t>(stats_.solver_component_size_max,
                              solver.max_component_vars);
  if (changes.empty()) return;
  if (groups_.size() < net_lmm_.group_count())
    groups_.resize(net_lmm_.group_count());
  ++resolve_epoch_;
  // Report order is component order, so rate-change seqs are handed out in
  // the order a per-flow re-rating would have used.
  for (const auto& change : changes) {
    if (change.group < 0) {
      Transfer* transfer = flow_of(change.var);
      if (transfer && rate_flow(*transfer, change.share))
        ++stats_.flows_rerated;
      continue;
    }
    apply_share(change.group, change.share);
    if (change.var >= 0) {
      if (Transfer* transfer = flow_of(change.var))
        move_flow(*transfer, change.group);
    }
  }
  for (const std::int32_t g : touched_groups_) {
    if (rekey_group(g)) ++stats_.flows_rerated;
  }
  touched_groups_.clear();
}

std::shared_ptr<Exec> Engine::exec_async(int host, double flops,
                                         double efficiency) {
  if (host < 0 || static_cast<std::size_t>(host) >= platform_.host_count())
    throw SimError("exec_async: unknown host id " + std::to_string(host));
  if (efficiency <= 0) throw SimError("exec_async: efficiency must be > 0");
  auto exec = pool::make_shared<Exec>();
  exec->host = host;
  exec->flops = flops;
  exec->start_time_ = now_;
  ++stats_.activities;
  if (flops <= 0) {
    complete(*exec);
    return exec;
  }
  exec->fluid.remaining = flops / efficiency;
  exec->fluid.last_update = now_;
  auto& execs = host_execs_[static_cast<std::size_t>(host)];
  exec->host_slot = execs.size();
  execs.push_back(exec);
  reschedule_host(host);
  return exec;
}

const Engine::CachedRoute& Engine::cached_route(int src_host, int dst_host) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_host))
       << 32) |
      static_cast<std::uint32_t>(dst_host);
  auto it = route_cache_.find(key);
  if (it == route_cache_.end()) {
    CachedRoute cached;
    const plat::Route route = platform_.route(src_host, dst_host);
    cached.resources.assign(route.links.begin(), route.links.end());
    cached.latency = latency_of(cached.resources);
    it = route_cache_.emplace(key, std::move(cached)).first;
  }
  return it->second;
}

double Engine::latency_of(const std::vector<ResourceId>& links) const {
  // Sum per-link latencies ourselves so link degradation factors apply
  // (equals the platform's route latency when every factor is 1.0).
  double latency = 0.0;
  for (const ResourceId link : links)
    latency += platform_.link(link).latency *
               link_latency_factor_[static_cast<std::size_t>(link)];
  return latency;
}

void Engine::set_host_factor(int host, double factor) {
  if (host < 0 || static_cast<std::size_t>(host) >= platform_.host_count())
    throw SimError("set_host_factor: unknown host id " + std::to_string(host));
  if (factor <= 0) throw SimError("set_host_factor: factor must be > 0");
  if (host_power_factor_[static_cast<std::size_t>(host)] == factor) return;
  host_power_factor_[static_cast<std::size_t>(host)] = factor;
  if (config_.recorder)
    config_.recorder->fault(now_, obs::FaultEvent::Kind::host, host, factor);
  // reschedule_host re-rates every running Exec whose equal share changed
  // (set_rate catches each fluid up at its old rate first).
  reschedule_host(host);
}

double Engine::host_factor(int host) const {
  if (host < 0 || static_cast<std::size_t>(host) >= platform_.host_count())
    throw SimError("host_factor: unknown host id " + std::to_string(host));
  return host_power_factor_[static_cast<std::size_t>(host)];
}

double Engine::link_bandwidth_factor(int link) const {
  if (link < 0 || static_cast<std::size_t>(link) >= platform_.link_count())
    throw SimError("link_bandwidth_factor: unknown link id " +
                   std::to_string(link));
  return link_bandwidth_factor_[static_cast<std::size_t>(link)];
}

double Engine::link_latency_factor(int link) const {
  if (link < 0 || static_cast<std::size_t>(link) >= platform_.link_count())
    throw SimError("link_latency_factor: unknown link id " +
                   std::to_string(link));
  return link_latency_factor_[static_cast<std::size_t>(link)];
}

void Engine::set_link_factors(int link, double bandwidth_factor,
                              double latency_factor) {
  if (link < 0 || static_cast<std::size_t>(link) >= platform_.link_count())
    throw SimError("set_link_factors: unknown link id " + std::to_string(link));
  if (bandwidth_factor <= 0)
    throw SimError("set_link_factors: bandwidth factor must be > 0");
  if (latency_factor < 0)
    throw SimError("set_link_factors: latency factor must be >= 0");
  const auto l = static_cast<std::size_t>(link);
  if (link_bandwidth_factor_[l] == bandwidth_factor &&
      link_latency_factor_[l] == latency_factor)
    return;
  net_lmm_.set_capacity(link,
                        platform_.link(link).bandwidth * bandwidth_factor);
  link_bandwidth_factor_[l] = bandwidth_factor;
  const bool latency_changed = link_latency_factor_[l] != latency_factor;
  link_latency_factor_[l] = latency_factor;
  if (config_.recorder)
    config_.recorder->fault(now_, obs::FaultEvent::Kind::link, link,
                            bandwidth_factor, latency_factor);
  // Cached latencies of the routes crossing the link embed the old factor:
  // recompute them in place (transfers point at the routes' resource lists,
  // so entries are never erased). Transfers already in their latency phase
  // keep the latency they started with.
  if (!latency_changed) return;
  for (auto& [key, route] : route_cache_) {
    const auto& links = route.resources;
    if (std::find(links.begin(), links.end(), link) != links.end())
      route.latency = latency_of(links);
  }
}

double Engine::route_latency(int src_host, int dst_host) {
  return cached_route(src_host, dst_host).latency;
}

std::shared_ptr<Transfer> Engine::transfer_async(int src_host, int dst_host,
                                                 double bytes) {
  auto transfer = pool::make_shared<Transfer>();
  transfer->src_host = src_host;
  transfer->dst_host = dst_host;
  transfer->bytes = bytes;
  transfer->start_time_ = now_;
  ++stats_.activities;

  const CachedRoute& route = cached_route(src_host, dst_host);
  const auto& segment = platform_.net_model().classify(
      static_cast<std::uint64_t>(std::max(0.0, bytes)));
  transfer->latency = segment.latency_factor * route.latency;
  transfer->amount = bytes > 0 ? bytes / segment.bandwidth_factor : 0.0;
  transfer->resources = &route.resources;

  if (transfer->latency <= 0) {
    start_flow(*transfer);
  } else {
    heap_.push(HeapItem{now_ + transfer->latency, seq_++,
                        HeapItem::What::latency_done, transfer});
  }
  return transfer;
}

std::shared_ptr<Transfer> Engine::injection_async(int host, double bytes) {
  auto transfer = pool::make_shared<Transfer>();
  transfer->src_host = host;
  transfer->dst_host = host;
  transfer->bytes = bytes;
  transfer->amount = bytes;
  transfer->start_time_ = now_;
  ++stats_.activities;
  transfer->resources = &loopback_routes_.at(static_cast<std::size_t>(host));
  start_flow(*transfer);
  return transfer;
}

std::shared_ptr<Timer> Engine::timer_async(SimTime duration) {
  if (duration < 0) throw SimError("timer_async: negative duration");
  auto timer = pool::make_shared<Timer>();
  timer->fire_at = now_ + duration;
  timer->start_time_ = now_;
  ++stats_.activities;
  if (duration == 0) {
    complete(*timer);
  } else {
    heap_.push(
        HeapItem{timer->fire_at, seq_++, HeapItem::What::timer_fire, timer});
  }
  return timer;
}

GatePtr Engine::make_gate() {
  auto gate = pool::make_shared<Gate>();
  gate->engine_ = this;
  gate->start_time_ = now_;
  ++stats_.activities;
  return gate;
}

void Engine::start_flow(Transfer& transfer) {
  if (transfer.done()) return;
  transfer.flowing = true;
  if (transfer.amount <= 0 || transfer.resources->empty()) {
    // Nothing to stream (zero payload) or an unconstrained local copy.
    complete(transfer);
    return;
  }
  transfer.flow.order = flow_order_++;
  transfer.fluid.remaining = transfer.amount;
  transfer.fluid.last_update = now_;
  transfer.flow.var = net_lmm_.add_variable(1.0, *transfer.resources);
  const auto slot = static_cast<std::size_t>(transfer.flow.var);
  if (slot >= var_flows_.size()) var_flows_.resize(slot + 1);
  var_flows_[slot] =
      std::static_pointer_cast<Transfer>(transfer.shared_from_this());
}

void Engine::complete(Activity& activity) {
  if (activity.done_) return;
  activity.done_ = true;
  activity.finish_time_ = now_;
  if (config_.recorder && config_.recorder->activity_detail()) {
    if (activity.kind() == Activity::Kind::exec) {
      const auto& exec = static_cast<const Exec&>(activity);
      config_.recorder->activity_span(exec.host, -1, obs::SpanKind::exec,
                                      exec.start_time_, now_, exec.flops);
    } else if (activity.kind() == Activity::Kind::transfer) {
      const auto& transfer = static_cast<const Transfer&>(activity);
      config_.recorder->activity_span(transfer.src_host, transfer.dst_host,
                                      obs::SpanKind::transfer,
                                      transfer.start_time_, now_,
                                      transfer.bytes);
    }
  }
  switch (activity.kind()) {
    case Activity::Kind::exec: {
      auto& exec = static_cast<Exec&>(activity);
      finish_remove(exec.fluid.heap_pos);
      auto& execs = host_execs_[static_cast<std::size_t>(exec.host)];
      const std::size_t slot = exec.host_slot;
      if (slot < execs.size() && execs[slot].get() == &exec) {
        execs[slot] = std::move(execs.back());
        execs[slot]->host_slot = slot;
        execs.pop_back();
        reschedule_host(exec.host);
      }
      break;
    }
    case Activity::Kind::transfer: {
      auto& transfer = static_cast<Transfer&>(activity);
      if (const std::int32_t g = transfer.flow.group; g >= 0) {
        FlowGroup& group = groups_[static_cast<std::size_t>(g)];
        advance(group);
        member_erase(group, static_cast<std::size_t>(transfer.flow.member_pos));
        transfer.flow.group = -1;
        rekey_group(g);
      } else {
        finish_remove(transfer.fluid.heap_pos);
      }
      if (transfer.flow.var >= 0) {
        net_lmm_.remove_variable(transfer.flow.var);
        var_flows_[static_cast<std::size_t>(transfer.flow.var)].reset();
        transfer.flow.var = -1;
      }
      break;
    }
    default:
      break;
  }
  if (activity.first_waiter_) {
    ready_.push_back(std::exchange(activity.first_waiter_, {}));
    for (const auto waiter : activity.more_waiters_) ready_.push_back(waiter);
    activity.more_waiters_.clear();
  }
}

bool Engine::try_fast_complete(Activity& activity) {
  // Eligibility: the engine is mid-run with no error, the awaiting
  // coroutine is the only runnable one (ready_ empty — it is running right
  // now and has not registered itself as a waiter yet), nobody else awaits
  // this activity (an inline completion would otherwise reorder their
  // wakeups), and the activity is fluid-backed so it has a finish estimate
  // to check against the event horizon.
  if (!config_.fast_path || !running_ || first_error_ || !ready_.empty())
    return false;
  if (activity.has_waiters()) return false;
  const auto kind = activity.kind();
  if (kind != Activity::Kind::exec && kind != Activity::Kind::transfer)
    return false;
  if (kind == Activity::Kind::transfer &&
      !static_cast<Transfer&>(activity).flowing)
    return false;  // still in its latency phase

  // Mirror one iteration of run()'s loop: catch the solver up on this
  // coroutine's mutations, then require this activity's completion to be
  // the next event — and the only one inside its epsilon window.
  resolve_network();
  if (finish_heap_.empty()) return false;
  const FinishItem& front = finish_heap_.front();
  const FlowGroup* group = nullptr;
  if (front.fluid) {
    if (front.fluid != &activity) return false;
  } else {
    group = &groups_[static_cast<std::size_t>(front.group)];
    if (group->members.front().flow != &activity) return false;
  }
  const SimTime t = front.time;
  const double time_eps = 1e-9 * (1.0 + std::abs(t));
  if (!heap_.empty() && heap_.top().time <= t + time_eps) return false;
  // The runner-up finish is the earliest of the root's (up to four)
  // children — every deeper entry sorts at or after one of them — or, for
  // a group, its second member, whose entry the completion queues next. If
  // either lands inside the epsilon window the sequential loop would
  // batch-complete both; bail without touching the heap.
  const std::size_t second = std::min<std::size_t>(5, finish_heap_.size());
  for (std::size_t c = 1; c < second; ++c) {
    if (finish_heap_[c].time <= t + time_eps) return false;
  }
  if (group && group->members.size() > 1) {
    // The same arithmetic complete() and rekey_group() apply at time t.
    const auto& m = group->members;
    const double key =
        m.size() > 2 ? std::min(m[1].key, m[2].key) : m[1].key;
    if (t + (key - clock_at(*group, t)) / group->share <= t + time_eps)
      return false;
  }
  if (activity.kind() == Activity::Kind::exec) {
    // Completing an Exec speeds up its host siblings; if one would then
    // finish inside this epsilon window, the sequential loop batch-completes
    // it before resuming anyone — too entangled to inline.
    const auto& exec = static_cast<const Exec&>(activity);
    const auto& execs = host_execs_[static_cast<std::size_t>(exec.host)];
    if (execs.size() > 1) {
      const double share =
          platform_.host(exec.host).power *
          host_power_factor_[static_cast<std::size_t>(exec.host)] /
          static_cast<double>(execs.size() - 1);
      for (const auto& sibling : execs) {
        if (sibling.get() == &exec) continue;
        const FluidState& f = sibling->fluid;
        double remaining = f.remaining;
        if (f.rate > 0 && t > f.last_update)
          remaining = std::max(0.0, remaining - f.rate * (t - f.last_update));
        if (remaining <= share * time_eps) return false;  // finish <= t + eps
      }
    }
  }

  finish_pop();
  now_ = t;
  ++stats_.fast_path_inline;
  complete(activity);
  return true;
}

void Engine::drain_ready() {
  while (!ready_.empty()) {
    const auto handle = ready_.pop_front();
    ++stats_.resumes;
    handle.resume();
  }
}

void Engine::run() {
  running_ = true;
  drain_ready();

  while (!first_error_) {
    resolve_network();

    const SimTime t_fluid =
        finish_heap_.empty() ? kInf : finish_heap_.front().time;
    const SimTime t_heap = heap_.empty() ? kInf : heap_.top().time;
    const SimTime t_next = std::min(t_fluid, t_heap);
    if (t_next == kInf) break;
    now_ = t_next;

    // Complete every fluid due at this instant. Completions can reschedule
    // siblings to earlier finishes (a host freeing up), so keep examining
    // the heap top rather than iterating a snapshot.
    const double time_eps = 1e-9 * (1.0 + std::abs(now_));
    for (;;) {
      if (finish_heap_.empty()) break;
      const FinishItem& front = finish_heap_.front();
      if (front.time > now_ + time_eps) break;
      // Hold the activity: completing it drops the engine's own reference.
      const ActivityPtr activity =
          front.fluid ? front.fluid->shared_from_this()
                      : ActivityPtr(var_flows_[static_cast<std::size_t>(
                            groups_[static_cast<std::size_t>(front.group)]
                                .members.front()
                                .flow->flow.var)]);
      finish_pop();
      complete(*activity);
    }

    while (!heap_.empty() && heap_.top().time <= now_ + time_eps) {
      HeapItem item = heap_.top();
      heap_.pop();
      ++stats_.heap_events;
      if (item.activity->done()) continue;
      if (item.what == HeapItem::What::timer_fire) {
        complete(*item.activity);
      } else {
        start_flow(static_cast<Transfer&>(*item.activity));
      }
    }

    drain_ready();
  }

  running_ = false;
  if (first_error_) {
    const auto error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
  if (live_processes_ > 0 && config_.deadlock_is_error) {
    // Build one diagnostic line per blocked process. The quiescent state is
    // deterministic (same trace + platform => same blocked set), so these
    // diagnostics are stable across runs and worker counts.
    std::vector<std::string> blocked;
    for (const auto& p : processes_) {
      if (p->finished()) continue;
      std::string line =
          p->name() + " on host " + std::to_string(p->host()) + ": " +
          (p->diagnostics_ ? p->diagnostics_() : std::string("blocked"));
      blocked.push_back(std::move(line));
    }
    std::ostringstream os;
    os << "deadlock at t=" << now_ << ": " << live_processes_
       << " process(es) blocked with no pending event:";
    std::size_t listed = 0;
    for (const auto& line : blocked) {
      if (listed++ == 10) {
        os << " [+" << (blocked.size() - 10) << " more]";
        break;
      }
      os << "\n  " << line;
    }
    throw DeadlockError(os.str(), now_, std::move(blocked));
  }
}

Co<void> wait_all(Engine& engine, std::vector<ActivityPtr> activities) {
  for (const auto& activity : activities) co_await engine.wait(activity);
}

}  // namespace tir::sim
