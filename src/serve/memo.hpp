// Scenario result memoisation: never simulate the same question twice.
//
// A replay is a pure function of its scenario — the engine is deterministic
// and every input (trace content, platform, deployment, MPI knobs, fault
// timeline) is named by the spec. The memo exploits that: results are
// keyed by a canonical fingerprint built over the *content digest* of the
// trace plus every semantically relevant knob (scenario_memo_key), so a
// repeat request returns the stored ReplayReport bit-for-bit — the
// differential tests compare the doubles with memcmp.
//
// Entry-count LRU (reports are small: a few vectors of doubles/strings),
// single-flight on concurrent identical misses: one caller computes, the
// rest block and share.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "replay/scenario.hpp"
#include "trace/digest.hpp"

namespace tir::serve {

struct MemoOptions {
  /// Retained reports; 0 = unlimited.
  std::size_t capacity = 4096;
};

struct MemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;          ///< compute invocations
  std::uint64_t inflight_joins = 0;  ///< waited on another caller's compute
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
};

/// Canonical memo fingerprint of one scenario. Everything that can change
/// the report goes in: trace content digest, platform identity (canonical
/// file path or topology spec — `platform_key`), the resolved process ->
/// host mapping, MPI knobs, recording flags, and the full fault timeline.
/// Scenario *names* stay out: renaming a row must still hit. So does the
/// test-only ReplayConfig::reference_engine, which is bit-identical to the
/// default engine by contract.
/// The trace decode policy stays out too — streamed and materialised decode
/// of the same bytes are bit-identical by construction, so a report computed
/// under decode=stream serves a later decode=materialise request and vice
/// versa.
/// Specs carrying a customize_registry hook are not fingerprintable —
/// callers must bypass the memo for those (the service does).
std::string scenario_memo_key(const replay::ScenarioSpec& spec,
                              const std::string& platform_key,
                              const trace::Digest& digest);

class ResultMemo {
 public:
  struct Outcome {
    replay::ReplayReport report;
    bool hit = false;
    double compute_seconds = 0.0;  ///< 0 on hit
  };
  using Compute = std::function<replay::ReplayReport()>;

  explicit ResultMemo(MemoOptions options = {});

  /// Single-flight lookup: runs `compute` (outside the lock) only when the
  /// key is neither stored nor being computed. Compute exceptions propagate
  /// to every waiter and leave the key uncached. Thread-safe.
  Outcome get_or_compute(const std::string& key, const Compute& compute);

  /// Lock-free-of-compute probe and insert — the service's batch path
  /// probes the whole batch first, runs the misses through one SweepRunner
  /// fan-out, then stores. Thread-safe.
  std::optional<replay::ReplayReport> lookup(const std::string& key);
  void store(const std::string& key, replay::ReplayReport report);

  MemoStats stats() const;

 private:
  struct Entry {
    replay::ReplayReport report;
    std::list<std::string>::iterator lru;
  };
  struct Pending {
    bool done = false;
    std::exception_ptr error;
    replay::ReplayReport report;
  };

  void store_locked(const std::string& key, replay::ReplayReport report);

  MemoOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> lru_;  ///< front = most recent
  std::map<std::string, std::shared_ptr<Pending>> inflight_;
  MemoStats stats_;
};

}  // namespace tir::serve
