// ReplayService: the persistent replay-as-a-service core behind tir-serve.
//
// One service owns the two caches (content-addressed TraceCache, keyed
// ResultMemo) and a dispatcher thread that drains an admission-controlled
// queue in batches through the existing SweepRunner worker pool:
//
//   submit() -> bounded queue -> dispatcher batch -> { memo hit -> respond
//                                                    { miss -> SweepRunner
//                                                      -> memoise -> respond
//
// Admission control is load-shedding, not blocking: submit() refuses when
// the queue is full and the caller answers `overloaded` — a saturated
// daemon stays responsive instead of growing an unbounded backlog.
// Duplicate requests inside one batch simulate once; repeats across the
// daemon's lifetime hit the memo and return the stored report bit-for-bit
// (the differential tests memcmp the doubles against cold runs).
//
// Request parameters are exactly the sweep-list vocabulary (see
// serve/scenario_build.hpp) plus `replica=R` to pick one Monte-Carlo
// replica of a perturbed row. Per-request wall-clock telemetry (queue wait,
// decode, solve) aggregates into obs::Histogram metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/memo.hpp"
#include "serve/scenario_build.hpp"
#include "serve/trace_cache.hpp"

namespace tir::serve {

struct ServiceOptions {
  int workers = 0;                ///< SweepRunner workers; 0 = hardware
  std::size_t queue_limit = 256;  ///< admission bound; beyond it, shed
  std::size_t max_batch = 64;     ///< requests per SweepRunner fan-out
  TraceCacheOptions trace_cache;
  MemoOptions memo;
  std::string base_dir = ".";     ///< relative request paths resolve here
};

/// One protocol request: an id echoed in the response plus sweep-list
/// key=value parameters (and optionally replica=).
struct Request {
  std::string id;
  std::map<std::string, std::string> params;
};

struct Response {
  enum class Status {
    ok,          ///< replay finished; sim_time is the makespan
    deadlock,    ///< replay quiesced with blocked ranks
    failed,      ///< replay error (corrupt trace, ...)
    badrequest,  ///< parameters did not build a scenario
    overloaded,  ///< shed at admission; nothing ran
  };

  std::string id;
  Status status = Status::failed;
  std::string name;               ///< scenario name (baked replica names)
  std::string error;
  double sim_time = 0.0;
  double coverage = 0.0;
  std::uint64_t actions_replayed = 0;
  int processes = 0;
  std::vector<std::string> diagnostics;

  std::string trace_digest;       ///< hex; empty when never resolved
  bool trace_hit = false;
  bool memo_hit = false;
  double queue_seconds = 0.0;
  double decode_seconds = 0.0;
  double solve_seconds = 0.0;     ///< replay wall time (0 on memo hit)
};

std::string_view to_string(Response::Status status);

/// Aggregate counters + latency distributions, snapshot under the lock.
struct ServiceStats {
  std::uint64_t received = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;          ///< refused at admission
  std::uint64_t badrequests = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t replays = 0;       ///< scenarios actually simulated
  std::uint64_t batch_dedups = 0;  ///< duplicate requests inside one batch
  std::uint64_t batches = 0;
  std::size_t max_queue_depth = 0;
  obs::Histogram queue_wait;
  obs::Histogram decode;
  obs::Histogram solve;
  obs::Histogram total;            ///< submit -> response
  TraceCacheStats trace_cache;
  MemoStats memo;
};

class ReplayService {
 public:
  using Callback = std::function<void(Response)>;

  explicit ReplayService(ServiceOptions options = {});
  ~ReplayService();  ///< drains the queue, then stops the dispatcher

  ReplayService(const ReplayService&) = delete;
  ReplayService& operator=(const ReplayService&) = delete;

  /// Enqueues one request; `done` runs on the dispatcher thread when the
  /// response is ready. Returns false — without enqueueing or calling
  /// `done` — when the queue is at queue_limit: the caller answers
  /// `overloaded` (make_overloaded helps).
  bool submit(Request request, Callback done);

  /// Synchronous convenience: submit + wait. A shed request comes back as
  /// an overloaded response.
  Response run(Request request);

  /// Blocks until every accepted request has been answered.
  void drain();

  Response make_overloaded(const Request& request) const;

  /// Answers a protocol line that never became a request (malformed JSON,
  /// unknown cmd) as badrequest, counted in stats as received, completed
  /// and a bad request — the same counters a request failing to build a
  /// scenario moves.
  Response reject(std::string error);

  ServiceStats stats() const;

 private:
  struct PendingRequest {
    Request request;
    Callback done;
    std::chrono::steady_clock::time_point enqueued;
  };

  void dispatcher_loop();
  void process_batch(std::vector<PendingRequest>& batch);

  ServiceOptions options_;
  TraceCache trace_cache_;
  ResultMemo memo_;
  InputResolver resolver_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< queue became non-empty / stopping
  std::condition_variable drain_cv_;  ///< queue + in-flight batch emptied
  std::deque<PendingRequest> queue_;
  std::size_t in_batch_ = 0;
  bool stopping_ = false;
  ServiceStats stats_;
  std::atomic<std::size_t> seq_{0};  ///< names anonymous requests

  std::thread dispatcher_;
};

// -- line protocol -----------------------------------------------------------

/// Parses one request line: a JSON object whose "id" is echoed back and
/// whose remaining string/number fields become parameters
/// ({"id":"r1","platform":"cluster:hosts=4","traces":"ti/","deployment":
/// "block","eager":4096}). Throws tir::ParseError.
Request parse_request_line(const std::string& line);

/// Renders one response as a single JSON line (no trailing newline).
/// sim_time is printed with %.17g so bit-identity survives the text round
/// trip.
std::string render_response(const Response& response);

/// Renders a stats snapshot as a single JSON line.
std::string render_stats(const ServiceStats& stats);

}  // namespace tir::serve
