#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "replay/sweep.hpp"
#include "serve/json.hpp"
#include "support/error.hpp"

namespace tir::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Response::Status from_replay(replay::ReplayStatus status) {
  switch (status) {
    case replay::ReplayStatus::ok: return Response::Status::ok;
    case replay::ReplayStatus::deadlock: return Response::Status::deadlock;
    case replay::ReplayStatus::failed: break;
  }
  return Response::Status::failed;
}

void fill_from_report(Response& response, const replay::ReplayReport& report) {
  response.status = from_replay(report.status);
  response.sim_time = report.sim_time;
  response.coverage = report.coverage;
  response.error = report.error;
  response.diagnostics = report.diagnostics;
  response.actions_replayed = report.result.actions_replayed;
  response.processes =
      static_cast<int>(report.result.process_finish_times.size());
}

}  // namespace

std::string_view to_string(Response::Status status) {
  switch (status) {
    case Response::Status::ok: return "ok";
    case Response::Status::deadlock: return "deadlock";
    case Response::Status::failed: return "failed";
    case Response::Status::badrequest: return "badrequest";
    case Response::Status::overloaded: return "overloaded";
  }
  return "failed";
}

ReplayService::ReplayService(ServiceOptions options)
    : options_(options),
      trace_cache_(options.trace_cache),
      memo_(options.memo),
      resolver_(options.base_dir, trace_cache_) {
  if (options_.queue_limit == 0) options_.queue_limit = 1;
  if (options_.max_batch == 0) options_.max_batch = 1;
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

ReplayService::~ReplayService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  dispatcher_.join();
}

bool ReplayService::submit(Request request, Callback done) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.received;
  if (stopping_ || queue_.size() >= options_.queue_limit) {
    ++stats_.shed;
    return false;
  }
  queue_.push_back(
      PendingRequest{std::move(request), std::move(done), Clock::now()});
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
  work_cv_.notify_one();
  return true;
}

Response ReplayService::run(Request request) {
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  Response out;
  const Request copy = request;
  const bool accepted =
      submit(std::move(request), [&](Response response) {
        std::lock_guard<std::mutex> lock(done_mu);
        out = std::move(response);
        done = true;
        done_cv.notify_one();
      });
  if (!accepted) return make_overloaded(copy);
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done; });
  return out;
}

void ReplayService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] { return queue_.empty() && in_batch_ == 0; });
}

Response ReplayService::make_overloaded(const Request& request) const {
  Response response;
  response.id = request.id;
  response.status = Response::Status::overloaded;
  response.error = "queue full (limit " +
                   std::to_string(options_.queue_limit) + "): request shed";
  return response;
}

Response ReplayService::reject(std::string error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.received;
    ++stats_.completed;
    ++stats_.badrequests;
  }
  Response response;
  response.status = Response::Status::badrequest;
  response.error = std::move(error);
  return response;
}

ServiceStats ReplayService::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
  }
  out.trace_cache = trace_cache_.stats();
  out.memo = memo_.stats();
  return out;
}

void ReplayService::dispatcher_loop() {
  for (;;) {
    std::vector<PendingRequest> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      while (!queue_.empty() && batch.size() < options_.max_batch) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      in_batch_ = batch.size();
    }
    process_batch(batch);
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_batch_ = 0;
      ++stats_.batches;
    }
    drain_cv_.notify_all();
  }
}

void ReplayService::process_batch(std::vector<PendingRequest>& batch) {
  struct Slot {
    PendingRequest* pending = nullptr;
    Response response;
    std::string memo_key;
    bool needs_run = false;
    bool memoisable = false;
    replay::ScenarioSpec spec;
  };

  const auto dispatch_time = Clock::now();
  std::vector<Slot> slots(batch.size());

  // Phase 1: build scenarios, probe the memo, answer hits immediately.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Slot& slot = slots[i];
    slot.pending = &batch[i];
    slot.response.id = batch[i].request.id;
    slot.response.queue_seconds =
        seconds_between(batch[i].enqueued, dispatch_time);
    try {
      KeyValues kv;
      kv.kv = batch[i].request.params;
      int replica = 0;
      if (const auto it = kv.kv.find("replica"); it != kv.kv.end()) {
        replica = parse_int("replica", it->second);
        if (replica < 0) throw Error("replica must be >= 0");
        kv.kv.erase(it);
      }
      if (kv.kv.count("mc") != 0)
        throw Error(
            "mc= aggregation is not servable per request; "
            "use replica=R for one replica or tir-mc for the summary");
      const SweepEntry entry =
          build_scenario(kv, resolver_, seq_++);
      slot.spec = bake_replica(entry, replica);
      slot.response.name = slot.spec.name;
      slot.response.trace_hit = entry.trace_cache_hit;
      slot.response.decode_seconds = entry.trace_decode_seconds;
      // A zero digest means the resolver fell back to an uncached lazy
      // TraceSet (unreadable input): never memoise under an ambiguous key —
      // run it and let the replay report the error.
      slot.memoisable = !(entry.trace_digest == trace::Digest{});
      if (slot.memoisable) {
        slot.response.trace_digest = entry.trace_digest.hex();
        slot.memo_key = scenario_memo_key(slot.spec, entry.platform_key,
                                          entry.trace_digest);
        if (auto report = memo_.lookup(slot.memo_key)) {
          fill_from_report(slot.response, *report);
          slot.response.memo_hit = true;
          continue;
        }
      }
      slot.needs_run = true;
    } catch (const std::exception& e) {
      slot.response.status = Response::Status::badrequest;
      slot.response.error = e.what();
    }
  }

  // Phase 2: one SweepRunner fan-out over the distinct misses.
  std::map<std::string, std::size_t> key_to_scenario;
  std::vector<std::size_t> scenario_slot;       // scenario -> defining slot
  std::vector<replay::ScenarioSpec> scenarios;
  std::vector<std::size_t> slot_scenario(slots.size(), SIZE_MAX);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Slot& slot = slots[i];
    if (!slot.needs_run) continue;
    if (slot.memoisable) {
      if (const auto it = key_to_scenario.find(slot.memo_key);
          it != key_to_scenario.end()) {
        slot_scenario[i] = it->second;  // duplicate inside this batch
        continue;
      }
      key_to_scenario.emplace(slot.memo_key, scenarios.size());
    }
    slot_scenario[i] = scenarios.size();
    scenario_slot.push_back(i);
    scenarios.push_back(slot.spec);
  }

  std::vector<replay::SweepResult> results;
  if (!scenarios.empty()) {
    replay::SweepOptions sweep_options;
    sweep_options.workers = options_.workers;
    results = replay::SweepRunner(sweep_options).run(scenarios);
  }

  // Phase 3: memoise deterministic outcomes, answer everything.
  for (std::size_t s = 0; s < results.size(); ++s) {
    const replay::SweepResult& r = results[s];
    replay::ReplayReport report;
    report.status = r.status;
    report.sim_time = r.sim_time;
    report.coverage = r.coverage;
    report.error = r.error;
    report.diagnostics = r.diagnostics;
    report.result = r.replay;
    Slot& owner = slots[scenario_slot[s]];
    // ok and deadlock are deterministic functions of the scenario; a
    // `failed` outcome may be environmental (OOM, racing file edits), so it
    // is answered but never cached.
    if (owner.memoisable && r.status != replay::ReplayStatus::failed)
      memo_.store(owner.memo_key, report);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slot_scenario[i] != s) continue;
      fill_from_report(slots[i].response, report);
      slots[i].response.solve_seconds = r.wall_seconds;
    }
  }

  const auto finish_time = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.replays += results.size();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const Slot& slot = slots[i];
      ++stats_.completed;
      if (slot.response.status == Response::Status::badrequest)
        ++stats_.badrequests;
      if (slot.response.memo_hit) ++stats_.memo_hits;
      if (slot.needs_run && slot.memoisable &&
          slot_scenario[i] != SIZE_MAX &&
          scenario_slot[slot_scenario[i]] != i)
        ++stats_.batch_dedups;
      stats_.queue_wait.record(slot.response.queue_seconds);
      if (slot.response.decode_seconds > 0.0)
        stats_.decode.record(slot.response.decode_seconds);
      if (slot.response.solve_seconds > 0.0)
        stats_.solve.record(slot.response.solve_seconds);
      stats_.total.record(
          seconds_between(slot.pending->enqueued, finish_time));
    }
  }

  // Callbacks run outside the lock: a callback is allowed to call stats()
  // or submit() without deadlocking.
  for (Slot& slot : slots)
    if (slot.pending->done) slot.pending->done(std::move(slot.response));
}

// -- line protocol -----------------------------------------------------------

Request parse_request_line(const std::string& line) {
  const JsonValue v = parse_json(line);
  if (v.type != JsonValue::Type::object)
    throw ParseError("request must be a JSON object");
  Request request;
  for (const auto& [key, value] : v.object) {
    std::string text;
    switch (value.type) {
      case JsonValue::Type::string:
        text = value.string;
        break;
      case JsonValue::Type::number: {
        // Integral values print as integers so eager=65536 survives the
        // double round trip; everything else keeps full precision.
        if (std::floor(value.number) == value.number &&
            std::abs(value.number) < 9.0e15) {
          text = std::to_string(static_cast<long long>(value.number));
        } else {
          char buf[40];
          std::snprintf(buf, sizeof buf, "%.17g", value.number);
          text = buf;
        }
        break;
      }
      default:
        throw ParseError("request field '" + key +
                         "': expected a string or number");
    }
    if (key == "id")
      request.id = std::move(text);
    else
      request.params[key] = std::move(text);
  }
  return request;
}

std::string render_response(const Response& response) {
  std::string out = "{\"id\":\"" + json_escape(response.id) + "\"";
  out += ",\"status\":\"";
  out += to_string(response.status);
  out += "\"";
  if (!response.name.empty())
    out += ",\"name\":\"" + json_escape(response.name) + "\"";
  char buf[64];
  if (response.status == Response::Status::ok ||
      response.status == Response::Status::deadlock) {
    std::snprintf(buf, sizeof buf, "%.17g", response.sim_time);
    out += ",\"sim_time\":";
    out += buf;
    std::snprintf(buf, sizeof buf, "%.6f", response.coverage);
    out += ",\"coverage\":";
    out += buf;
    out += ",\"actions_replayed\":" +
           std::to_string(response.actions_replayed);
    out += ",\"processes\":" + std::to_string(response.processes);
  }
  if (!response.trace_digest.empty())
    out += ",\"trace\":\"" + response.trace_digest + "\"";
  out += ",\"cache\":{\"trace\":\"";
  out += response.trace_hit ? "hit" : "miss";
  out += "\",\"memo\":\"";
  out += response.memo_hit ? "hit" : "miss";
  out += "\"}";
  const auto timing = [&](const char* key, double v) {
    std::snprintf(buf, sizeof buf, "%.6f", v);
    out += ",\"";
    out += key;
    out += "\":";
    out += buf;
  };
  timing("queue_s", response.queue_seconds);
  timing("decode_s", response.decode_seconds);
  timing("solve_s", response.solve_seconds);
  if (!response.error.empty())
    out += ",\"error\":\"" + json_escape(response.error) + "\"";
  if (!response.diagnostics.empty()) {
    out += ",\"diagnostics\":[";
    for (std::size_t i = 0; i < response.diagnostics.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + json_escape(response.diagnostics[i]) + "\"";
    }
    out += "]";
  }
  out += "}";
  return out;
}

std::string render_stats(const ServiceStats& stats) {
  std::string out = "{\"stats\":{";
  const auto count = [&](const char* key, std::uint64_t v, bool first = false) {
    if (!first) out += ",";
    out += "\"";
    out += key;
    out += "\":" + std::to_string(v);
  };
  count("received", stats.received, true);
  count("completed", stats.completed);
  count("shed", stats.shed);
  count("badrequests", stats.badrequests);
  count("memo_hits", stats.memo_hits);
  count("replays", stats.replays);
  count("batch_dedups", stats.batch_dedups);
  count("batches", stats.batches);
  count("max_queue_depth", stats.max_queue_depth);
  count("trace_hits", stats.trace_cache.hits);
  count("trace_misses", stats.trace_cache.misses);
  count("trace_dedups", stats.trace_cache.dedups);
  count("trace_evictions", stats.trace_cache.evictions);
  count("trace_resident_bytes", stats.trace_cache.resident_bytes);
  count("trace_entries", stats.trace_cache.entries);
  count("memo_entries", stats.memo.entries);
  count("memo_evictions", stats.memo.evictions);
  out += ",\"queue_wait\":\"" + json_escape(stats.queue_wait.summary()) +
         "\"";
  out += ",\"decode\":\"" + json_escape(stats.decode.summary()) + "\"";
  out += ",\"solve\":\"" + json_escape(stats.solve.summary()) + "\"";
  out += ",\"total\":\"" + json_escape(stats.total.summary()) + "\"";
  out += "}}";
  return out;
}

}  // namespace tir::serve
