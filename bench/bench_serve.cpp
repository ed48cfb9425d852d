// Replay-as-a-service soak: cold vs warm throughput, bounded memory, and
// bit-identical memoisation under a mixed request stream.
//
// The serving thesis: the sweep/Monte-Carlo workload asks the same handful
// of questions thousands of times, so a persistent daemon with a
// content-addressed trace cache and a result memo should answer repeats at
// memory speed. This bench drives the in-process ReplayService (the same
// object tir-serve wraps) through three phases:
//
//   1. cold  — N distinct scenarios (efficiency ladder + fault rows), every
//              one a memo miss that actually replays;
//   2. warm  — K requests cycling over those same scenarios, every one a
//              memo hit answered without simulation;
//   3. churn — trace-directory rotation under a deliberately tiny cache
//              byte budget, proving eviction keeps residency bounded.
//
// Acceptance (exit 1 on violation):
//   - warm throughput >= 10x cold throughput, each phase timed over at
//     least 0.2 s of repeated passes;
//   - every warm response, and every repeated cold pass, bit-identical
//     (memcmp on the sim_time double) to the first cold pass;
//   - RSS growth across the warm soak < 64 MiB (the memo and caches are
//     bounded; a leak per request would show at 10^4..10^5 requests);
//   - churn phase keeps resident_bytes <= the configured budget.
//
// TIR_SCALE scales the warm request count (default 0.1 -> 10^4 requests;
// TIR_FULL=1 -> 10^5). The CI smoke runs TIR_SCALE=0.01 (10^3).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "serve/service.hpp"
#include "trace/codec.hpp"
#include "trace/text_format.hpp"

using namespace tir;

namespace {

std::vector<std::vector<trace::Action>> ring_actions(int nprocs, int rounds) {
  using trace::Action;
  using trace::ActionType;
  std::vector<std::vector<Action>> per(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < rounds; ++r) {
    for (int p = 0; p < nprocs; ++p) {
      auto& mine = per[static_cast<std::size_t>(p)];
      const int left = (p + nprocs - 1) % nprocs;
      const int right = (p + 1) % nprocs;
      mine.push_back({p, ActionType::irecv, left, 0, 0, 0});
      mine.push_back({p, ActionType::isend, right, 32 * 1024, 0, 0});
      mine.push_back({p, ActionType::compute, -1, 2e6, 0, 0});
      mine.push_back({p, ActionType::wait, -1, 0, 0, 0});
      mine.push_back({p, ActionType::wait, -1, 0, 0, 0});
    }
  }
  return per;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Resident set size from /proc/self/status, in bytes; 0 when unavailable
/// (non-Linux), which disables the RSS assertion.
std::uint64_t rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) != 0) continue;
    std::uint64_t kb = 0;
    std::sscanf(line.c_str(), "VmRSS: %llu",
                reinterpret_cast<unsigned long long*>(&kb));
    return kb * 1024;
  }
  return 0;
}

struct Outcome {
  double sim_time = 0.0;
  bool memo_hit = false;
  serve::Response::Status status = serve::Response::Status::failed;
};

/// Submits every request, drains, returns per-request outcomes in order.
std::vector<Outcome> drive(serve::ReplayService& service,
                           const std::vector<serve::Request>& requests) {
  std::vector<Outcome> outcomes(requests.size());
  std::mutex mu;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    serve::Request request = requests[i];
    const bool accepted =
        service.submit(std::move(request), [&outcomes, &mu, i](
                                               serve::Response response) {
          std::lock_guard<std::mutex> lock(mu);
          outcomes[i] = {response.sim_time, response.memo_hit,
                         response.status};
        });
    if (!accepted) {
      std::fprintf(stderr, "unexpected shed at request %zu\n", i);
      std::exit(1);
    }
  }
  service.drain();
  return outcomes;
}

}  // namespace

int main() {
  const double scale = bench::scale();
  const int kDistinct = 32;
  const std::size_t kWarm = std::max<std::size_t>(
      1000, static_cast<std::size_t>(100000 * scale));

  const auto dir = bench::fresh_workdir("serve");
  const bench::WorkdirGuard guard(dir);
  trace::write_split_traces(dir / "ti", ring_actions(8, 96));

  bench::banner("Replay-as-a-service soak (bench_serve)",
                "cold misses vs memoised repeats over " +
                    std::to_string(kDistinct) + " scenarios, " +
                    std::to_string(kWarm) + " warm requests");

  serve::ServiceOptions options;
  options.base_dir = dir.string();
  options.queue_limit = kWarm + kDistinct + 16;  // soak measures caches,
  options.max_batch = 256;                       // not admission control
  serve::ReplayService service(options);

  // Mixed distinct scenarios: an efficiency ladder, every fourth row with a
  // fault timeline, every eighth a perturbation replica.
  std::vector<serve::Request> distinct(kDistinct);
  for (int i = 0; i < kDistinct; ++i) {
    serve::Request& request = distinct[static_cast<std::size_t>(i)];
    request.id = "cold-" + std::to_string(i);
    request.params = {{"platform", "cluster:hosts=8"},
                      {"traces", "ti"},
                      {"deployment", "block"},
                      {"efficiency", std::to_string(0.5 + 0.01 * i)}};
    if (i % 4 == 1)
      request.params["fault"] = "host:node-1:0.5@0.001";
    if (i % 8 == 2) {
      request.params["perturb"] = "hostnoise:0.05";
      request.params["replica"] = std::to_string(i % 3);
    }
  }

  // One pass of either phase takes a few tens of milliseconds, too short
  // for a stable wall-clock ratio: each phase repeats until it has run for
  // kMinPhaseSeconds, and the speedup compares per-request costs. Repeated
  // cold passes run on fresh services (empty trace cache and memo), so every
  // request still replays; service start-up is not timed.
  constexpr double kMinPhaseSeconds = 0.2;

  std::vector<Outcome> cold;
  std::size_t cold_requests = 0;
  std::size_t cold_mismatches = 0;
  double cold_seconds = 0.0;
  for (int pass = 0; cold_seconds < kMinPhaseSeconds; ++pass) {
    std::optional<serve::ReplayService> fresh;
    if (pass > 0) fresh.emplace(options);
    serve::ReplayService& target = pass == 0 ? service : *fresh;
    const auto t_cold = std::chrono::steady_clock::now();
    const auto outcomes = drive(target, distinct);
    cold_seconds += seconds_since(t_cold);
    cold_requests += outcomes.size();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].status != serve::Response::Status::ok) {
        std::fprintf(stderr, "cold request %zu not ok\n", i);
        return 1;
      }
      if (outcomes[i].memo_hit) {
        std::fprintf(stderr, "cold request %zu unexpectedly memo-hit\n", i);
        return 1;
      }
      if (pass > 0 && std::memcmp(&outcomes[i].sim_time, &cold[i].sim_time,
                                  sizeof(double)) != 0)
        ++cold_mismatches;
    }
    if (pass == 0) cold = outcomes;
  }

  // Warm soak: cycle the same scenarios through the first service; every
  // request must memo-hit and reproduce the cold double bit for bit.
  std::vector<serve::Request> warm_requests(kWarm);
  for (std::size_t i = 0; i < kWarm; ++i) {
    warm_requests[i] = distinct[i % static_cast<std::size_t>(kDistinct)];
    warm_requests[i].id = "warm-" + std::to_string(i);
  }
  std::size_t warm_total = 0;
  std::size_t mismatches = cold_mismatches, misses = 0;
  double warm_seconds = 0.0;
  const std::uint64_t rss_before = rss_bytes();
  while (warm_seconds < kMinPhaseSeconds) {
    const auto t_warm = std::chrono::steady_clock::now();
    const auto warm = drive(service, warm_requests);
    warm_seconds += seconds_since(t_warm);
    warm_total += warm.size();
    for (std::size_t i = 0; i < warm.size(); ++i) {
      const double expect =
          cold[i % static_cast<std::size_t>(kDistinct)].sim_time;
      if (std::memcmp(&warm[i].sim_time, &expect, sizeof expect) != 0)
        ++mismatches;
      if (!warm[i].memo_hit) ++misses;
    }
  }
  const std::uint64_t rss_after = rss_bytes();

  const double cold_rps = static_cast<double>(cold_requests) / cold_seconds;
  const double warm_rps = static_cast<double>(warm_total) / warm_seconds;
  const double speedup = warm_rps / cold_rps;
  const double rss_growth_mib =
      rss_after >= rss_before
          ? static_cast<double>(rss_after - rss_before) / (1024.0 * 1024.0)
          : 0.0;

  std::printf("\n%-28s %12s %12s %10s\n", "phase", "requests", "seconds",
              "req/s");
  std::printf("%-28s %12zu %12.4f %10.0f\n", "cold (replayed)",
              cold_requests, cold_seconds, cold_rps);
  std::printf("%-28s %12zu %12.4f %10.0f\n", "warm (memoised)", warm_total,
              warm_seconds, warm_rps);
  std::printf("\nwarm/cold speedup: %.1fx   warm misses: %zu   "
              "bit mismatches: %zu\n", speedup, misses, mismatches);
  std::printf("rss before/after warm soak: %.1f / %.1f MiB (growth %.1f)\n",
              static_cast<double>(rss_before) / (1024.0 * 1024.0),
              static_cast<double>(rss_after) / (1024.0 * 1024.0),
              rss_growth_mib);

  const auto stats = service.stats();
  std::printf("service: received=%llu replays=%llu memo_hits=%llu "
              "batch_dedups=%llu trace_decodes=%llu trace_hits=%llu\n",
              static_cast<unsigned long long>(stats.received),
              static_cast<unsigned long long>(stats.replays),
              static_cast<unsigned long long>(stats.memo_hits),
              static_cast<unsigned long long>(stats.batch_dedups),
              static_cast<unsigned long long>(stats.trace_cache.misses),
              static_cast<unsigned long long>(stats.trace_cache.hits));
  std::printf("latency: queue %s\n         solve %s\n",
              stats.queue_wait.summary().c_str(),
              stats.solve.summary().c_str());

  // Sweep decode-reuse (the tir-sweep satellite): three spellings of one
  // trace directory used to decode three times keyed by raw spec string;
  // canonical path keys collapse them to one decode.
  {
    serve::TraceCache cache;
    serve::InputResolver resolver(dir, cache);
    resolver.traces("ti", false);
    resolver.traces("./ti", false);
    resolver.traces((dir / "ti").string(), false);
    const auto cstats = cache.stats();
    std::printf("\nsweep decode reuse: 3 spellings of one directory -> "
                "%llu decode(s), %llu hit(s) "
                "(before canonical keys: 3 decodes)\n",
                static_cast<unsigned long long>(cstats.misses),
                static_cast<unsigned long long>(cstats.hits));
    if (cstats.misses != 1) {
      std::fprintf(stderr, "FAIL: expected one decode across spellings\n");
      return 1;
    }
  }

  // Churn phase: rotate differently-shaped traces through a tiny budget;
  // eviction must keep residency bounded the whole way.
  {
    const auto probe = trace::TraceSet::in_memory(ring_actions(8, 48));
    serve::TraceCacheOptions copts;
    copts.byte_budget = 3 * trace::decoded_bytes(probe) / 2;
    serve::TraceCache cache(copts);
    std::uint64_t max_resident = 0;
    const int kChurn = 24;
    for (int i = 0; i < kChurn; ++i) {
      cache.get("churn-" + std::to_string(i % 8), [&] {
        auto program = ring_actions(8, 48);
        program[0][0].volume += i % 8;  // 8 distinct contents
        return trace::TraceSet::in_memory(program);
      });
      max_resident = std::max(max_resident, cache.stats().resident_bytes);
    }
    const auto cstats = cache.stats();
    std::printf("trace churn: budget=%llu max_resident=%llu evictions=%llu\n",
                static_cast<unsigned long long>(copts.byte_budget),
                static_cast<unsigned long long>(max_resident),
                static_cast<unsigned long long>(cstats.evictions));
    if (max_resident > copts.byte_budget) {
      std::fprintf(stderr, "FAIL: residency exceeded the byte budget\n");
      return 1;
    }
    if (cstats.evictions == 0) {
      std::fprintf(stderr, "FAIL: churn produced no evictions\n");
      return 1;
    }
  }

  bool failed = false;
  if (speedup < 10.0) {
    std::fprintf(stderr, "FAIL: warm/cold speedup %.1fx < 10x\n", speedup);
    failed = true;
  }
  if (misses != 0 || mismatches != 0) {
    std::fprintf(stderr, "FAIL: %zu warm misses, %zu bit mismatches\n",
                 misses, mismatches);
    failed = true;
  }
  if (rss_before != 0 && rss_growth_mib > 64.0) {
    std::fprintf(stderr, "FAIL: RSS grew %.1f MiB over the warm soak\n",
                 rss_growth_mib);
    failed = true;
  }
  std::printf("\n%s\n", failed ? "FAILED" : "OK: warm path >= 10x cold, "
              "bit-identical, memory bounded");
  return failed ? 1 : 0;
}
