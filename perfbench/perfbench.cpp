// perfbench: the replayer's end-to-end and per-layer benchmark program.
//
// Two subcommands, both driven by perfbench/run.py:
//
//   perfbench setup --workload W --seed N --dir D [--trace 0|1]
//       Generates the workload's inputs under D (LU acquisition, or
//       synthetic CG programs written through the compact-program API) and
//       prints one JSON line with the generation time and the acquisition
//       layer's numbers. Runs in its own process so that the timed phase's
//       peak RSS never includes acquisition.
//
//   perfbench run --workload W --seed N --dir D --seconds S --trace 0|1
//                 --reps K [--reference F] [--write-reference F] [--spans F]
//       K set-up repetitions (platform build + one untimed warm-up op),
//       then the timed phase for S seconds, then (traced runs only) the
//       per-layer passes. Prints one JSON line: attempted/failed ops,
//       end-to-end and per-layer metrics, set-up times, host context.
//
//   perfbench stream --seed N --requests R
//       Draws R requests from serve-mixed's request stream without serving
//       them; prints how many named a new scenario (a self-test).
//
// Every layer is timed from outside, around calls into its public API; the
// traced run records those calls as spans (name, start, end, parent, op id)
// and writes them as JSON at exit. Replays use the default ReplayConfig.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "acquisition/acquisition.hpp"
#include "apps/lu.hpp"
#include "obs/report.hpp"
#include "platform/topology.hpp"
#include "replay/scenario.hpp"
#include "serve/service.hpp"
#include "simkern/maxmin.hpp"
#include "trace/compact.hpp"
#include "trace/digest.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_set.hpp"

namespace fs = std::filesystem;
using namespace tir;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic uniform in [0, 1) for (seed, stream, index).
double unit_draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  const std::uint64_t h = splitmix(splitmix(seed ^ splitmix(stream)) + i);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// -- metrics -----------------------------------------------------------------

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i) out += ", ";
      out += jstr(entries_[i].name) + ": {\"value\": " +
             num(entries_[i].value) + ", \"unit\": " +
             jstr(entries_[i].unit) + "}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// -- host speed --------------------------------------------------------------

/// Node allocator over one fixed buffer, reset before every slice, so that
/// the host-speed probe repeats the same memory operations at the same
/// addresses and never depends on the state of the process's heap.
class SlicePool {
 public:
  static constexpr std::size_t kNodeBytes = 64;
  static constexpr std::size_t kNodes = 1 << 17;

  void reset() {
    used_ = 0;
    free_ = nullptr;
  }
  void* take() {
    if (free_ != nullptr) {
      void* p = free_;
      free_ = *static_cast<void**>(free_);
      return p;
    }
    if (used_ == kNodes) throw std::runtime_error("probe pool exhausted");
    return buffer_.get() + kNodeBytes * used_++;
  }
  void give(void* p) {
    *static_cast<void**>(p) = free_;
    free_ = p;
  }

 private:
  // Left uninitialised: only the pages a slice uses become resident.
  std::unique_ptr<std::byte[]> buffer_{new std::byte[kNodeBytes * kNodes]};
  std::size_t used_ = 0;
  void* free_ = nullptr;
};

template <typename T>
struct SliceAllocator {
  using value_type = T;
  SlicePool* pool;
  explicit SliceAllocator(SlicePool* p) : pool(p) {}
  template <typename U>
  SliceAllocator(const SliceAllocator<U>& o) : pool(o.pool) {}
  T* allocate(std::size_t n) {
    static_assert(sizeof(T) <= SlicePool::kNodeBytes);
    if (n != 1) throw std::runtime_error("probe pool allocates single nodes");
    return static_cast<T*>(pool->take());
  }
  void deallocate(T* p, std::size_t) { pool->give(p); }
  bool operator==(const SliceAllocator& o) const { return pool == o.pool; }
};

/// Keys of the host-speed probe's map: 2,048, so its nodes (128 KiB) stay
/// in the private caches. With 100,000 keys (about 6 MiB) the probe swung
/// far more than the ops next to it and over-corrected them.
constexpr std::uint32_t kProbeKeys = 2048;

/// One slice of the host-speed probe: a fixed std::map insert/find/erase
/// churn that runs no code of this repository, its nodes taken from a pool.
double calibration_slice_s() {
  thread_local SlicePool pool;
  pool.reset();
  const auto t0 = Clock::now();
  using Alloc = SliceAllocator<std::pair<const std::uint32_t, std::uint32_t>>;
  std::map<std::uint32_t, std::uint32_t, std::less<>, Alloc> map{Alloc(&pool)};
  std::mt19937 rng(7);
  for (std::uint32_t i = 0; i < 200000; ++i) {
    map[rng() % kProbeKeys] += i;
    if (const auto it = map.find(rng() % kProbeKeys); it != map.end())
      map.erase(it);
  }
  if (map.empty()) throw std::runtime_error("calibration slice lost its work");
  return since(t0);
}

/// Reference slice time, a little under the probe's time on a 4-core Xeon
/// KVM guest (only a scale: it sets the speed figures are given at).
/// On shared hosts the replayer's speed drifts by up to 50% over minutes and
/// the probe, run on the same thread next to the work, drifts with it. Ops
/// and set-up parts are therefore reported at this reference speed: raw
/// time / slowdown, slowdown = adjacent probe slice / this reference.
constexpr double kCalibrationRefS = 0.05;

/// Slowdown right now, from a warm slice (the first slice in a thread also
/// pays for faulting in its pool).
double probe_slowdown() {
  calibration_slice_s();
  return calibration_slice_s() / kCalibrationRefS;
}

/// Slowdown from one slice, when this thread has already run one.
double probe_slowdown_warm() { return calibration_slice_s() / kCalibrationRefS; }

/// Probe slices taken over the timed phase, between ops on the timed
/// thread, so that they see the host in the state the ops saw.
class HostSpeed {
 public:
  /// Runs one slice on the calling thread; returns its slowdown.
  double sample() {
    slices_.push_back(calibration_slice_s());
    return slices_.back() / kCalibrationRefS;
  }

  double probe_s() const { return median(slices_); }
  const std::vector<double>& slices() const { return slices_; }
  double slowdown() const { return probe_s() / kCalibrationRefS; }

 private:
  std::vector<double> slices_;
};

/// The calling thread's CPU affinity.
cpu_set_t current_affinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  return set;
}

/// Restricts the calling thread to `cpu`; threads it starts inherit the
/// restriction. Returns false if the host refuses.
bool pin_thread(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0;
}
void unpin_thread(const cpu_set_t& set) { sched_setaffinity(0, sizeof set, &set); }

/// The highest-numbered CPU the process may run on.
int last_cpu(const cpu_set_t& set) {
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu)
    if (CPU_ISSET(cpu, &set)) return cpu;
  throw std::runtime_error("empty CPU affinity");
}

// -- spans -------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  long parent = -1;  ///< index into the same tracer's spans, -1 = root
  long op = -1;      ///< shared by every span of one op
};

/// In-memory span recorder for one thread. Off: every call is a no-op.
class Tracer {
 public:
  Tracer(bool on, Clock::time_point epoch) : on_(on), epoch_(epoch) {}

  long begin(const std::string& name, long op) {
    if (!on_) return -1;
    const long id = static_cast<long>(spans_.size());
    spans_.push_back({name, now(), 0.0, stack_.empty() ? -1 : stack_.back(),
                      op});
    stack_.push_back(id);
    return id;
  }

  void end(long id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  /// Appends `other`'s spans, re-basing their parent indexes.
  void merge(const Tracer& other) {
    const long base = static_cast<long>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(std::move(s));
    }
  }

  /// Self time per span: duration minus the time its children cover.
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end - spans_[i].start;
    for (const Span& s : spans_)
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    return self;
  }

  /// Median over ops of the summed self time of spans called `name`.
  double median_self(const std::string& name) const {
    const auto self = self_times();
    std::map<long, double> per_op;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].name == name) per_op[spans_[i].op] += self[i];
    std::vector<double> v;
    for (const auto& [op, s] : per_op) v.push_back(s);
    return median(v);
  }

  void write_json(const fs::path& path) const {
    if (path.empty()) return;
    const auto self = self_times();
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": " << jstr(s.name)
          << ", \"op\": " << s.op << ", \"parent\": " << s.parent
          << ", \"start_s\": " << num(s.start) << ", \"end_s\": "
          << num(s.end) << ", \"self_s\": " << num(self[i]) << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  double now() const { return since(epoch_); }

  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<long> stack_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, long op)
      : tracer_(tracer), id_(tracer.begin(name, op)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  long id_;
};

// -- workloads ---------------------------------------------------------------

enum class Kind { lu, cg, serve };

struct Workload {
  std::string name;
  Kind kind;
  std::string platform;  ///< replay workloads: topology spec
  int ranks = 0;
  std::uint64_t iterations = 0;  ///< cg: synthetic iterations
  double lu_scale = 0.0;         ///< lu: fraction of class B iterations
};

// Sizes keep one op at about 1-3 s on a 4-core x86 host (RelWithDebInfo).
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"lu-b64", Kind::lu, "bordereau:nodes=64", 64, 0, 0.05},
      {"cg256-backbone", Kind::cg, "bordereau:nodes=256", 256, 80, 0.0},
      {"cg256-torus", Kind::cg, "torus:dims=8x8x4", 256, 600, 0.0},
      {"serve-mixed", Kind::serve, "", 0, 0, 0.0},
  };
  return table;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return w;
  throw std::runtime_error("unknown workload '" + name + "'");
}

constexpr int kLuFolding = 8;
/// Per-rank compute-volume jitter the seed draws, as a +/- fraction.
constexpr double kComputeJitter = 0.01;

/// Writes a synthetic CG trace, one compact file per rank, with each rank's
/// compute volumes scaled by a seeded factor in [1 - j, 1 + j].
std::vector<fs::path> write_cg(const fs::path& dir,
                               const trace::SyntheticSpec& spec,
                               std::uint64_t seed, std::uint64_t stream) {
  fs::create_directories(dir);
  std::vector<fs::path> files;
  for (int pid = 0; pid < spec.nprocs; ++pid) {
    trace::CompactProgram program = trace::synthetic_program(spec, pid);
    const double factor =
        1.0 + kComputeJitter *
                  (2.0 * unit_draw(seed, stream, static_cast<std::uint64_t>(pid)) - 1.0);
    for (trace::LoopBlock& block : program)
      for (trace::Action& action : block.body)
        if (action.type == trace::ActionType::compute) action.volume *= factor;
    files.push_back(dir / ("SG_process" + std::to_string(pid) + ".trace"));
    trace::write_compact(files.back(), program, pid);
  }
  return files;
}

// serve-mixed: a population of small CG traces x platforms x eager
// thresholds. Novel scenarios vary the eager threshold.
struct ServeTrace {
  int ranks;
  std::uint64_t iterations;
  double message_bytes;
};
const ServeTrace kServeTraces[] = {{16, 60, 65536},  {16, 120, 16384},
                                   {24, 60, 32768},  {24, 120, 65536},
                                   {32, 60, 16384},  {32, 120, 32768}};
const char* const kServePlatforms[] = {"cluster:hosts=32",
                                       "bordereau:nodes=32",
                                       "torus:dims=4x4x2"};
constexpr int kServeTraceCount = 6;
constexpr int kServePlatformCount = 3;
/// Novel scenarios draw their eager threshold, in bytes, uniformly from
/// [kServeEagerMin, kServeEagerMin + kServeEagerSpan): with 18 (trace,
/// platform) pairs that is 4.7 M scenarios, far more than any run can use.
constexpr std::uint64_t kServeEagerMin = 2048;
constexpr std::uint64_t kServeEagerSpan = 256 * 1024;
constexpr int kServeClients = 2;       ///< closed-loop clients
constexpr std::size_t kServeMinRequests = 1000;  ///< >= 10 beyond the p99
/// Trace-cache budget as a share of the population's resident total, so
/// that some requests decode again.
constexpr double kServeBudgetShare = 0.8;

struct ServeKey {
  int trace = 0, platform = 0;
  std::uint64_t eager = kServeEagerMin;  ///< bytes
  std::uint64_t packed() const {
    return static_cast<std::uint64_t>(trace * kServePlatformCount + platform)
               << 32 |
           eager;
  }
};

serve::Request serve_request(const ServeKey& key, const std::string& id) {
  serve::Request request;
  request.id = id;
  request.params = {{"platform", kServePlatforms[key.platform]},
                    {"traces", "t" + std::to_string(key.trace)},
                    {"deployment", "block"},
                    {"eager", std::to_string(key.eager)}};
  return request;
}

// -- command line ------------------------------------------------------------

struct Args {
  std::string command;
  std::map<std::string, std::string> values;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  std::string need(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2)
    throw std::runtime_error("usage: perfbench setup|run|stream --key value ...");
  args.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::runtime_error("bad argument '" + key + "'");
    args.values[key.substr(2)] = argv[i + 1];
  }
  return args;
}

// -- setup -------------------------------------------------------------------

acq::AcquisitionReport acquire_lu(apps::NpbClass cls, int ranks, double scale,
                                  int folding, const fs::path& workdir) {
  apps::LuConfig cfg;
  cfg.cls = cls;
  cfg.nprocs = ranks;
  cfg.iteration_scale = scale;
  acq::AcquisitionSpec spec;
  spec.app = apps::make_lu_app(cfg);
  spec.mode = folding > 1 ? acq::Mode::folding : acq::Mode::regular;
  spec.folding = folding;
  spec.workdir = workdir;
  spec.run_uninstrumented_baseline = false;
  return acq::run_acquisition(spec);
}

void add_acquisition_metrics(Metrics& m, double run_s,
                             const acq::AcquisitionReport& r) {
  m.add("acquisition.run_s", run_s, "s");
  m.add("acquisition.extract_s", r.extraction_wall, "s");
  m.add("acquisition.tau_bytes", static_cast<double>(r.tau_bytes), "bytes");
  m.add("acquisition.ti_bytes", static_cast<double>(r.ti_bytes), "bytes");
}

int cmd_setup(const Args& args) {
  const Workload& w = find_workload(args.need("workload"));
  const std::uint64_t seed = std::stoull(args.need("seed"));
  const fs::path dir = args.need("dir");
  const bool traced = args.get("trace", "0") == "1";
  Tracer tracer(traced, Clock::now());
  Metrics layers;

  const double slowdown_before = probe_slowdown();
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream manifest(dir / "manifest.txt");
  const auto t0 = Clock::now();
  {
    Scope setup(tracer, "setup.inputs", 0);
    if (w.kind == Kind::lu) {
      acq::AcquisitionReport report;
      {
        Scope s(tracer, "acquisition.run_acquisition", 0);
        report = acquire_lu(apps::NpbClass::B, w.ranks, w.lu_scale,
                            kLuFolding, dir / "acq");
      }
      add_acquisition_metrics(layers, since(t0), report);
      for (const auto& f : report.ti_files) manifest << f.string() << "\n";
    } else if (w.kind == Kind::cg) {
      trace::SyntheticSpec spec;
      spec.nprocs = w.ranks;
      spec.iterations = w.iterations;
      Scope s(tracer, "trace.write_compact", 0);
      for (const auto& f : write_cg(dir / "inputs", spec, seed, 0))
        manifest << f.string() << "\n";
    } else {
      for (int t = 0; t < kServeTraceCount; ++t) {
        trace::SyntheticSpec spec;
        spec.nprocs = kServeTraces[t].ranks;
        spec.iterations = kServeTraces[t].iterations;
        spec.message_bytes = kServeTraces[t].message_bytes;
        Scope s(tracer, "trace.write_compact", 0);
        write_cg(dir / "serve" / ("t" + std::to_string(t)), spec, seed,
                 static_cast<std::uint64_t>(t) + 1);
      }
      manifest << (dir / "serve").string() << "\n";
    }
  }
  const double gen_s = since(t0);
  const double slowdown = 0.5 * (slowdown_before + probe_slowdown_warm());
  manifest.close();
  fs::remove_all(dir / "acq" / "tau");  // ~100 MB the replay never reads

  // Workloads without an acquisition step still report the acquisition
  // layer, from a small fixed probe (LU class S, 8 ranks, regular mode), so
  // that every per-layer metric is a measurement on every workload.
  if (traced && w.kind != Kind::lu) {
    const auto tp = Clock::now();
    acq::AcquisitionReport report;
    {
      Scope s(tracer, "acquisition.run_acquisition", 1);
      report = acquire_lu(apps::NpbClass::S, 8, 1.0, 1, dir / "probe");
    }
    add_acquisition_metrics(layers, since(tp), report);
    fs::remove_all(dir / "probe");
  }
  tracer.write_json(args.get("spans", ""));
  std::printf("{\"gen_s\": %s, \"slowdown\": %s, \"metrics\": %s}\n",
              num(gen_s).c_str(), num(slowdown).c_str(), layers.json().c_str());
  return 0;
}

// -- answers -----------------------------------------------------------------

struct Answer {
  double makespan = 0.0;
  std::vector<double> finish;
};

Answer answer_of(const replay::ReplayReport& report) {
  return {report.sim_time, report.result.process_finish_times};
}

bool bit_identical(const Answer& a, const Answer& b) {
  return std::memcmp(&a.makespan, &b.makespan, sizeof(double)) == 0 &&
         a.finish.size() == b.finish.size() &&
         (a.finish.empty() ||
          std::memcmp(a.finish.data(), b.finish.data(),
                      a.finish.size() * sizeof(double)) == 0);
}

/// Relative tolerance of the reference check: loose enough for
/// floating-point reassociation, far below any modelling change.
constexpr double kReferenceTolerance = 1e-9;

bool close_to(double value, double ref) {
  return std::fabs(value - ref) <= kReferenceTolerance * std::fabs(ref);
}

/// Empty when the op's answer is acceptable, else the reason.
std::string check_answer(const replay::ReplayReport& report,
                         const Answer* first, const Answer* reference) {
  if (report.status != replay::ReplayStatus::ok)
    return "status " + std::string(replay::to_string(report.status)) + ": " +
           report.error;
  const Answer a = answer_of(report);
  if (!std::isfinite(a.makespan)) return "non-finite makespan";
  for (const double f : a.finish)
    if (!std::isfinite(f)) return "non-finite finish time";
  if (first != nullptr && !bit_identical(a, *first))
    return "answer differs from the run's first op";
  if (reference != nullptr) {
    if (!close_to(a.makespan, reference->makespan))
      return "makespan " + num(a.makespan) + " != reference " +
             num(reference->makespan);
    if (a.finish.size() != reference->finish.size())
      return "finish-time count differs from the reference";
    for (std::size_t i = 0; i < a.finish.size(); ++i)
      if (!close_to(a.finish[i], reference->finish[i]))
        return "rank " + std::to_string(i) + " finish " + num(a.finish[i]) +
               " != reference " + num(reference->finish[i]);
  }
  return "";
}

Answer read_reference(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path.string());
  Answer a;
  bool have_makespan = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "makespan") {
      fields >> a.makespan;
      have_makespan = true;
    } else if (key == "finish") {
      std::size_t rank = 0;
      double value = 0.0;
      fields >> rank >> value;
      if (rank != a.finish.size())
        throw std::runtime_error("reference ranks out of order");
      a.finish.push_back(value);
    }
    if (!fields) throw std::runtime_error("bad reference line: " + line);
  }
  if (!have_makespan) throw std::runtime_error("reference has no makespan");
  return a;
}

void write_reference(const fs::path& path, const Workload& w,
                     std::uint64_t seed, const Answer& a) {
  std::ofstream out(path);
  out << "# perfbench reference answer: workload " << w.name << ", seed "
      << seed << ", default ReplayConfig\n";
  out << "makespan " << num(a.makespan) << "\n";
  for (std::size_t i = 0; i < a.finish.size(); ++i)
    out << "finish " << i << " " << num(a.finish[i]) << "\n";
}

// -- layer probes ------------------------------------------------------------

/// Median wall time of one remove/add/solve_changed step on 256 flows.
/// Coupled: every flow also crosses one saturated backbone, and the
/// replacement flow toggles its weight, so each step re-rates every flow.
/// Disjoint: one private link per flow, so each step re-rates one.
double maxmin_step_us(bool coupled, Tracer& tracer, long op) {
  Scope span(tracer, coupled ? "simkern.maxmin_coupled" : "simkern.maxmin_disjoint", op);
  constexpr int kFlows = 256;
  constexpr int kSteps = 2000;
  constexpr int kBatches = 5;
  sim::MaxMin lmm;
  std::vector<sim::ResourceId> links;
  for (int i = 0; i < kFlows; ++i) links.push_back(lmm.add_resource(1.25e8));
  const sim::ResourceId backbone = lmm.add_resource(1.25e9);
  auto route = [&](int i) {
    std::vector<sim::ResourceId> r{links[static_cast<std::size_t>(i)]};
    if (coupled) r.push_back(backbone);
    return r;
  };
  std::vector<sim::VarId> vars;
  std::vector<double> weights(kFlows, 1.0);
  for (int i = 0; i < kFlows; ++i) vars.push_back(lmm.add_variable(1.0, route(i)));
  lmm.solve_changed();
  std::vector<double> per_step_us;
  std::uint64_t rerated = 0;
  for (int batch = 0; batch < kBatches; ++batch) {
    const auto t0 = Clock::now();
    for (int s = 0; s < kSteps; ++s) {
      const auto i = static_cast<std::size_t>((batch * kSteps + s) % kFlows);
      lmm.remove_variable(vars[i]);
      weights[i] = weights[i] == 1.0 ? 2.0 : 1.0;
      vars[i] = lmm.add_variable(weights[i], route(static_cast<int>(i)));
      rerated += lmm.solve_changed().size();
    }
    per_step_us.push_back(since(t0) * 1e6 / kSteps);
  }
  const double per_solve = static_cast<double>(rerated) / (kBatches * kSteps);
  if (coupled ? per_solve < kFlows / 2 : per_solve > 2.0)
    throw std::runtime_error("max-min probe lost its shape: " +
                             num(per_solve) + " flows re-rated per solve");
  return median(per_step_us);
}

/// Per-request telemetry of one serve reply, plus the client-side latency.
struct ServeRecord {
  std::uint64_t key = 0;
  serve::Response::Status status = serve::Response::Status::failed;
  bool memo_hit = false;
  bool trace_hit = false;
  double sim_time = 0.0;
  std::uint64_t actions = 0;
  double queue_s = 0.0, decode_s = 0.0, solve_s = 0.0, latency_s = 0.0;
  bool traced = false;
  double start_s = 0.0;  ///< submit time, from the start of the timed phase
};

ServeRecord record_of(std::uint64_t key, const serve::Response& r,
                      double latency, bool traced) {
  return {key,          r.status,        r.memo_hit,      r.trace_hit,
          r.sim_time,   r.actions_replayed, r.queue_seconds, r.decode_seconds,
          r.solve_seconds, latency,      traced};
}

void add_serve_layer_metrics(Metrics& m, const std::vector<ServeRecord>& recs,
                             const serve::ServiceStats& before,
                             const serve::ServiceStats& after) {
  std::vector<double> queue, decode, solve;
  double memo_hits = 0, trace_hits = 0;
  for (const ServeRecord& r : recs) {
    queue.push_back(r.queue_s * 1e3);
    if (r.decode_s > 0.0) decode.push_back(r.decode_s * 1e3);
    if (!r.memo_hit && r.solve_s > 0.0) solve.push_back(r.solve_s * 1e3);
    memo_hits += r.memo_hit;
    trace_hits += r.trace_hit;
  }
  const double n = recs.empty() ? 1.0 : static_cast<double>(recs.size());
  m.add("serve.queue_wait_p50_ms", median(queue), "ms");
  m.add("serve.decode_p50_ms", median(decode), "ms");
  m.add("serve.solve_p50_ms", median(solve), "ms");
  m.add("serve.memo_hit_ratio", memo_hits / n, "ratio");
  m.add("serve.trace_hit_ratio", trace_hits / n, "ratio");
  m.add("serve.trace_evictions",
        static_cast<double>(after.trace_cache.evictions -
                            before.trace_cache.evictions),
        "count");
  m.add("serve.batches", static_cast<double>(after.batches - before.batches),
        "count");
}

/// Replay workloads: one small scenario (the smallest serve-mixed trace on
/// the workload's platform) once cold and three times warm through an
/// in-process ReplayService. The hit ratios (0.75) and evictions (0) are
/// fixed by this construction; the times are measurements.
std::string serve_probe(Metrics& m, const std::string& platform,
                        const fs::path& trace_dir, Tracer& tracer, long op) {
  serve::ServiceOptions options;
  options.workers = 1;
  serve::ReplayService service(options);
  serve::Request request;
  request.params = {{"platform", platform},
                    {"traces", fs::absolute(trace_dir).string()},
                    {"deployment", "block"}};
  const serve::ServiceStats before = service.stats();
  std::vector<ServeRecord> recs;
  std::string error;
  for (int i = 0; i < 4; ++i) {
    request.id = "probe-" + std::to_string(i);
    const auto t0 = Clock::now();
    serve::Response r;
    {
      Scope s(tracer, "serve.request", op);
      r = service.run(request);
    }
    recs.push_back(record_of(0, r, since(t0), true));
    if (r.status != serve::Response::Status::ok)
      error = "serve probe status " + std::string(serve::to_string(r.status));
    else if (i > 0 && std::memcmp(&r.sim_time, &recs[0].sim_time,
                                  sizeof(double)) != 0)
      error = "serve probe memo hit differs from the cold answer";
  }
  add_serve_layer_metrics(m, recs, before, service.stats());
  return error;
}

struct Counters {
  std::uint64_t actions = 0;
  sim::EngineStats engine;
  trace::TraceStats trace;
};

void accumulate(Counters& c, const replay::ReplayReport& r,
                const trace::TraceSet& traces) {
  const sim::EngineStats& e = r.result.engine_stats;
  c.actions += r.result.actions_replayed;
  c.engine.resumes += e.resumes;
  c.engine.heap_events += e.heap_events;
  c.engine.solver_calls += e.solver_calls;
  c.engine.solver_vars_touched += e.solver_vars_touched;
  c.engine.flows_rerated += e.flows_rerated;
  c.engine.solver_component_size_max =
      std::max(c.engine.solver_component_size_max, e.solver_component_size_max);
  c.trace += traces.stats();
}

void add_counter_metrics(Metrics& m, const Counters& c) {
  const double actions = std::max<double>(1.0, static_cast<double>(c.actions));
  const double solves =
      std::max<double>(1.0, static_cast<double>(c.engine.solver_calls));
  m.add("mpisim.p2p_msgs", static_cast<double>(c.trace.p2p_messages), "count");
  m.add("mpisim.collectives", static_cast<double>(c.trace.collectives), "count");
  m.add("simkern.resumes_per_action", c.engine.resumes / actions, "count/action");
  m.add("simkern.heap_events_per_action", c.engine.heap_events / actions,
        "count/action");
  m.add("simkern.solver_calls_per_action", c.engine.solver_calls / actions,
        "count/action");
  m.add("simkern.vars_touched_per_solve", c.engine.solver_vars_touched / solves,
        "vars/solve");
  m.add("simkern.flows_rerated_per_solve", c.engine.flows_rerated / solves,
        "flows/solve");
  m.add("simkern.max_component_vars",
        static_cast<double>(c.engine.solver_component_size_max), "vars");
}

/// Replays `spec` with span recording on and analyzes the timeline; the
/// answer must stay bit-identical to `expect` (recording must not change
/// simulated results).
std::string obs_pass(Metrics& m, replay::ScenarioSpec spec,
                     const Answer& expect, Tracer& tracer, long op) {
  spec.config.record_spans = true;
  const auto t0 = Clock::now();
  replay::ReplayReport report;
  {
    Scope s(tracer, "obs.spans_replay", op);
    report = replay::run_scenario_report(spec);
  }
  m.add("obs.spans_replay_s", since(t0), "s");
  if (!report.result.spans) return "span recording returned no recorder";
  const auto t1 = Clock::now();
  {
    Scope s(tracer, "obs.analyze", op);
    const obs::TimelineReport timeline = obs::analyze(*report.result.spans);
    if (!std::isfinite(timeline.makespan)) return "non-finite timeline";
  }
  m.add("obs.analyze_s", since(t1), "s");
  m.add("obs.spans", static_cast<double>(report.result.spans->total_spans()),
        "count");
  return check_answer(report, &expect, nullptr);
}

void add_solver_probe_metrics(Metrics& m, Tracer& tracer, long op) {
  m.add("simkern.maxmin_coupled_solve_us", maxmin_step_us(true, tracer, op), "us");
  m.add("simkern.maxmin_disjoint_solve_us", maxmin_step_us(false, tracer, op),
        "us");
}

/// Timed-phase results of one run, as measured or at reference speed.
struct Timed {
  double actions_per_s = 0.0;
  double p50_s = 0.0;
  double tail_s = 0.0;
  double ops_per_s = 0.0;
  std::size_t samples = 0;
};

/// Replay workloads: 10-20 ops per run, so no percentile has ten samples
/// beyond it; the tail is the nearest-rank p75. A p90 (the second-slowest
/// op) moved by up to 0.27 between runs on a shared host, where a burst
/// the probe slices around an op miss inflates that one op.
Timed timed_from_ops(const std::vector<double>& op_s, std::uint64_t actions) {
  double total = 0.0;
  for (const double x : op_s) total += x;
  const double p50 = median(op_s);
  return {static_cast<double>(actions) / p50, p50, quantile(op_s, 0.75),
          static_cast<double>(op_s.size()) / total, op_s.size()};
}

void add_end_to_end(Metrics& m, const Timed& raw, const Timed& at_ref,
                    double peak_rss, const HostSpeed& speed) {
  m.add("replay_actions_per_s", at_ref.actions_per_s, "1/s");
  m.add("peak_rss_mib", peak_rss, "MiB");
  m.add("latency_p50_ms", at_ref.p50_s * 1e3, "ms");
  m.add("latency_tail_ms", at_ref.tail_s * 1e3, "ms");
  m.add("ops_per_s", at_ref.ops_per_s, "1/s");
  m.add("samples", static_cast<double>(raw.samples), "count");
  m.add("raw.replay_actions_per_s", raw.actions_per_s, "1/s");
  m.add("raw.latency_p50_ms", raw.p50_s * 1e3, "ms");
  m.add("raw.latency_tail_ms", raw.tail_s * 1e3, "ms");
  m.add("raw.ops_per_s", raw.ops_per_s, "1/s");
  m.add("bench.host_probe_ms", speed.probe_s() * 1e3, "ms");
  m.add("bench.host_slowdown", speed.slowdown(), "ratio");
}

// -- run: replay workloads ---------------------------------------------------

struct RunOutput {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  Metrics metrics;
  struct SetupRep {
    double platform_s, warmup_s, slowdown;
  };
  std::vector<SetupRep> setup_reps;
  std::string params;  ///< workload parameters, JSON object

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
};

struct ReplayInputs {
  std::vector<fs::path> files;
  std::shared_ptr<const plat::Platform> platform;
  std::vector<int> hosts;
};

struct OpOutcome {
  replay::ReplayReport report;
  trace::TraceSet traces;
  double decode_s = 0.0;
  double wall_s = 0.0;
};

/// One op: decode the trace files, then run_scenario on the decoded set.
OpOutcome replay_op(const ReplayInputs& in, Tracer& tracer, long op) {
  OpOutcome out;
  const auto t0 = Clock::now();
  Scope op_span(tracer, "op", op);
  {
    Scope s(tracer, "trace.decode", op);
    out.traces = trace::TraceSet::per_process_files(in.files);
    out.traces.resident_bytes();  // forces the decode
  }
  out.decode_s = since(t0);
  replay::ScenarioSpec spec;
  spec.name = "perfbench";
  spec.platform = in.platform;
  spec.process_hosts = in.hosts;
  spec.traces = out.traces;
  {
    Scope s(tracer, "replay.run_scenario", op);
    out.report = replay::run_scenario_report(spec);
  }
  out.wall_s = since(t0);
  return out;
}

/// A trace directory's per-rank files, SG_process0.trace upwards.
std::vector<fs::path> read_dir_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (int pid = 0;; ++pid) {
    fs::path f = dir / ("SG_process" + std::to_string(pid) + ".trace");
    if (!fs::exists(f)) break;
    files.push_back(std::move(f));
  }
  if (files.empty()) throw std::runtime_error("no traces under " + dir.string());
  return files;
}

std::vector<std::string> read_manifest(const fs::path& dir) {
  std::ifstream in(dir / "manifest.txt");
  if (!in) throw std::runtime_error("no inputs under " + dir.string() +
                                    " (run setup first)");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  return lines;
}

void run_replay(const Workload& w, std::uint64_t seed, const fs::path& dir,
                double seconds, bool traced, int reps, const Args& args,
                RunOutput& out) {
  ReplayInputs in;
  for (const auto& f : read_manifest(dir)) in.files.push_back(f);
  const int ranks = static_cast<int>(in.files.size());

  // Placement: identity for the CG workloads; for LU a seeded permutation
  // of rank -> host on the flat cluster.
  in.hosts.resize(static_cast<std::size_t>(ranks));
  for (int i = 0; i < ranks; ++i) in.hosts[static_cast<std::size_t>(i)] = i;
  if (w.kind == Kind::lu) {
    std::mt19937_64 rng(splitmix(seed));
    std::shuffle(in.hosts.begin(), in.hosts.end(), rng);
  }

  std::unique_ptr<Answer> reference;
  if (const std::string ref = args.get("reference", ""); !ref.empty())
    reference = std::make_unique<Answer>(read_reference(ref));
  std::unique_ptr<Answer> first;

  Tracer tracer(traced, Clock::now());
  long next_op = 0;
  auto check = [&](const replay::ReplayReport& report) {
    ++out.attempted;
    const std::string why = check_answer(report, first.get(), reference.get());
    if (!why.empty()) out.fail(why);
    if (!first && report.status == replay::ReplayStatus::ok)
      first = std::make_unique<Answer>(answer_of(report));
  };

  std::vector<double> platform_s;
  for (int k = 0; k < reps; ++k) {
    const double slowdown = probe_slowdown();
    const long op = next_op++;
    Scope setup(tracer, "setup", op);
    const auto t0 = Clock::now();
    {
      Scope s(tracer, "platform.make_platform", op);
      in.platform = std::make_shared<const plat::Platform>(
          plat::make_platform(w.platform));
    }
    const double plat_s = since(t0);
    platform_s.push_back(plat_s);
    const OpOutcome warm = replay_op(in, tracer, op);
    check(warm.report);
    out.setup_reps.push_back(
        {plat_s, warm.wall_s, 0.5 * (slowdown + probe_slowdown_warm())});
  }
  if (const std::string path = args.get("write-reference", ""); !path.empty()) {
    if (!first) throw std::runtime_error("no ok op to write a reference from");
    write_reference(path, w, seed, *first);
  }

  // Timed phase. A traced run alternates traced and untraced ops so that
  // the tracing overhead is measured within one process.
  std::vector<double> walls, traced_walls, walls_at_ref, rss_after_op;
  std::uint64_t actions = 0;
  Counters counters;
  HostSpeed speed;
  const auto start = Clock::now();
  // Probe slices run between ops on the same thread; each op is rescaled
  // to the reference speed by the mean slowdown of the slices around it.
  double slowdown_before = speed.sample();
  for (int i = 0; i < 3 || since(start) < seconds; ++i) {
    const bool trace_op = traced && i % 2 == 0;
    Tracer off(false, start);
    const long op = next_op++;
    OpOutcome o = replay_op(in, trace_op ? tracer : off, op);
    check(o.report);
    const double slowdown_after = speed.sample();
    (trace_op ? traced_walls : walls).push_back(o.wall_s);
    if (!trace_op)
      walls_at_ref.push_back(o.wall_s * 2.0 /
                             (slowdown_before + slowdown_after));
    slowdown_before = slowdown_after;
    actions = o.report.result.actions_replayed;
    if (i == 0) accumulate(counters, o.report, o.traces);
    rss_after_op.push_back(peak_rss_mib());
  }
  const double peak_rss = peak_rss_mib();

  Metrics& m = out.metrics;
  const double op_s = median(walls);
  add_end_to_end(m, timed_from_ops(walls, actions),
                 timed_from_ops(walls_at_ref, actions), peak_rss, speed);

  if (traced && first) {
    const long op = next_op++;
    const double decode = tracer.median_self("trace.decode");
    m.add("trace.decode_s", decode, "s");
    m.add("trace.decode_actions_per_s", static_cast<double>(actions) / decode,
          "1/s");
    const trace::TraceSet traces = trace::TraceSet::per_process_files(in.files);
    m.add("trace.disk_bytes", static_cast<double>(traces.disk_bytes()),
          "bytes");
    m.add("trace.resident_bytes",
          static_cast<double>(traces.resident_bytes()), "bytes");
    {
      Scope s(tracer, "trace.digest", op);
      const auto t0 = Clock::now();
      trace::digest(traces);
      m.add("trace.digest_s", since(t0), "s");
    }
    m.add("replay.run_scenario_s", tracer.median_self("replay.run_scenario"),
          "s");
    add_counter_metrics(m, counters);
    add_solver_probe_metrics(m, tracer, op);
    m.add("platform.build_s", median(platform_s), "s");

    replay::ScenarioSpec spec;
    spec.platform = in.platform;
    spec.process_hosts = in.hosts;
    spec.traces = traces;
    if (const std::string why = obs_pass(m, spec, *first, tracer, op); !why.empty())
      out.fail("obs pass: " + why);
    trace::SyntheticSpec probe_spec;
    probe_spec.nprocs = kServeTraces[0].ranks;
    probe_spec.iterations = kServeTraces[0].iterations;
    probe_spec.message_bytes = kServeTraces[0].message_bytes;
    const fs::path probe_dir = dir / "serve-probe";
    write_cg(probe_dir, probe_spec, seed, 1);
    if (const std::string why =
            serve_probe(m, w.platform, probe_dir, tracer, op);
        !why.empty())
      out.fail(why);
    m.add("bench.tracing_overhead", median(traced_walls) / op_s - 1.0, "ratio");
  }
  tracer.write_json(args.get("spans", ""));

  std::ostringstream p;
  p << "{\"platform\": " << jstr(w.platform) << ", \"ranks\": " << ranks;
  if (w.kind == Kind::lu)
    p << ", \"app\": \"LU class B\", \"iteration_scale\": " << num(w.lu_scale)
      << ", \"acquisition\": \"F-" << kLuFolding << "\", \"codec\": \"text\"";
  else
    p << ", \"app\": \"synthetic CG\", \"iterations\": " << w.iterations
      << ", \"codec\": \"compact\", \"compute_jitter\": " << num(kComputeJitter);
  p << ", \"actions\": " << actions << ", \"makespan\": "
    << num(first ? first->makespan : 0.0) << ", \"op_s\": [";
  for (std::size_t i = 0; i < walls.size(); ++i)
    p << (i ? ", " : "") << num(walls[i]);
  p << "], \"probe_s\": [";
  for (std::size_t i = 0; i < speed.slices().size(); ++i)
    p << (i ? ", " : "") << num(speed.slices()[i]);
  p << "], \"peak_rss_mib_after_op\": [";
  for (std::size_t i = 0; i < rss_after_op.size(); ++i)
    p << (i ? ", " : "") << num(rss_after_op[i]);
  p << "]}";
  out.params = p.str();
}

// -- run: serve-mixed --------------------------------------------------------

/// Lets one client stop every client between requests: run() waits until
/// no request is in flight, runs its task, and lets the clients go on.
class ProbePause {
 public:
  /// Held by a client for the duration of one request.
  class Request {
   public:
    explicit Request(ProbePause& p) : p_(p) {
      std::unique_lock<std::mutex> lock(p_.mu_);
      p_.cv_.wait(lock, [&] { return !p_.paused_; });
      ++p_.in_flight_;
    }
    ~Request() {
      std::lock_guard<std::mutex> lock(p_.mu_);
      --p_.in_flight_;
      p_.cv_.notify_all();
    }
    Request(const Request&) = delete;
    Request& operator=(const Request&) = delete;

   private:
    ProbePause& p_;
  };

  template <typename Task>
  void run(Task task) {
    const auto t0 = Clock::now();
    {
      std::unique_lock<std::mutex> lock(mu_);
      paused_ = true;
      cv_.wait(lock, [&] { return in_flight_ == 0; });
    }
    try {
      task();
    } catch (...) {
      resume(t0);  // the other clients must not wait forever
      throw;
    }
    resume(t0);
  }

  double paused_s() const {
    std::lock_guard<std::mutex> lock(mu_);
    return paused_s_;
  }

 private:
  void resume(Clock::time_point paused_at) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      paused_ = false;
      paused_s_ += since(paused_at);
    }
    cv_.notify_all();
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool paused_ = false;
  int in_flight_ = 0;
  double paused_s_ = 0.0;
};

/// The seeded request sequence: ~90% repeats of answered scenarios, ~10%
/// scenarios never requested before. Both kinds first draw a (trace,
/// platform) pair uniformly, so every run requests each pair about equally
/// often; a repeat then names one of that pair's answered scenarios. (Drawn
/// from the pool of all answered scenarios instead, a run's requests per
/// trace differed by up to 1.6x, and the median latency followed the
/// seed.) A
/// novel scenario joins the repeat pool only a few requests later, so a
/// repeat is never still in flight.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, const std::vector<std::uint64_t>& answered)
      : rng_(splitmix(seed ^ 0x5e77e)), seen_(answered.begin(), answered.end()) {
    for (const std::uint64_t key : answered)
      answered_[static_cast<std::size_t>(key >> 32)].push_back(key);
  }

  ServeKey next() {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.size() > 4) {
      answered_[static_cast<std::size_t>(pending_.front() >> 32)].push_back(
          pending_.front());
      pending_.erase(pending_.begin());
    }
    const bool novel = rng_() % 10 == 0;
    const auto pair = static_cast<int>(rng_() % kServePairs);
    if (novel) {
      for (int tries = 0; tries < 64; ++tries) {
        ServeKey k{pair / kServePlatformCount, pair % kServePlatformCount,
                   kServeEagerMin + rng_() % kServeEagerSpan};
        if (seen_.insert(k.packed()).second) {
          pending_.push_back(k.packed());
          return k;
        }
      }
      throw std::runtime_error("no novel serve scenario left to request");
    }
    const std::vector<std::uint64_t>& keys =
        answered_[static_cast<std::size_t>(pair)];
    return unpack(keys[rng_() % keys.size()]);
  }

  static ServeKey unpack(std::uint64_t packed) {
    const auto pair = static_cast<int>(packed >> 32);
    return {pair / kServePlatformCount, pair % kServePlatformCount,
            packed & 0xffffffffu};
  }

 private:
  static constexpr int kServePairs = kServeTraceCount * kServePlatformCount;
  std::mutex mu_;
  std::mt19937_64 rng_;
  std::array<std::vector<std::uint64_t>, kServePairs> answered_;
  std::vector<std::uint64_t> pending_;
  std::set<std::uint64_t> seen_;
};

/// The warm-up answers every (trace, platform) pair at the lowest eager
/// threshold; these are the first scenarios repeats draw from.
std::vector<std::uint64_t> serve_initial_keys() {
  std::vector<std::uint64_t> keys;
  for (int t = 0; t < kServeTraceCount; ++t)
    for (int p = 0; p < kServePlatformCount; ++p)
      keys.push_back(ServeKey{t, p}.packed());
  return keys;
}

void run_serve(std::uint64_t seed, const fs::path& dir, double seconds,
               bool traced, int reps, const Args& args, RunOutput& out) {
  const fs::path base = read_manifest(dir).front();
  const auto epoch = Clock::now();
  Tracer tracer(traced, epoch);
  long next_op = 0;

  const std::vector<std::uint64_t> initial = serve_initial_keys();
  std::map<std::uint64_t, double> cold;  // scenario -> first cold makespan
  std::unique_ptr<serve::ReplayService> service;
  std::vector<double> platform_s;
  std::uint64_t budget = 0;
  // The service's dispatcher thread, which with one worker runs every
  // replay itself, is started on one CPU and stays there; the host-speed
  // probe runs on that CPU too. The replays' speed moves by up to 20%
  // between runs and between seconds of a run; a probe on a client
  // thread's CPU did not follow it at all.
  const cpu_set_t all_cpus = current_affinity();
  const int service_cpu = last_cpu(all_cpus);
  bool pinned = true;
  for (int k = 0; k < reps; ++k) {
    // The set-up runs on the service's CPU as well, probed before and after.
    pinned = pin_thread(service_cpu) && pinned;
    const double slowdown = probe_slowdown();
    const long op = next_op++;
    Scope setup(tracer, "setup", op);
    const auto t0 = Clock::now();
    {
      Scope s(tracer, "platform.make_platform", op);
      for (const char* spec : kServePlatforms) plat::make_platform(spec);
    }
    platform_s.push_back(since(t0));
    const auto t1 = Clock::now();
    std::uint64_t resident = 0;
    {
      Scope s(tracer, "trace.decode_population", op);
      for (int t = 0; t < kServeTraceCount; ++t)
        resident += trace::decoded_bytes(trace::TraceSet::per_process_files(
            read_dir_files(base / ("t" + std::to_string(t)))));
    }
    budget = static_cast<std::uint64_t>(kServeBudgetShare * resident);
    serve::ServiceOptions options;
    options.workers = 1;
    options.base_dir = base.string();
    options.trace_cache.byte_budget = budget;
    service.reset();
    service = std::make_unique<serve::ReplayService>(options);
    for (const std::uint64_t key : initial) {
      Scope s(tracer, "serve.request", op);
      const serve::Response r =
          service->run(serve_request(RequestStream::unpack(key), "warm"));
      ++out.attempted;
      if (r.status != serve::Response::Status::ok || !std::isfinite(r.sim_time)) {
        out.fail("warm-up status " + std::string(serve::to_string(r.status)) +
                 " " + r.error);
        continue;
      }
      const auto [it, inserted] = cold.emplace(key, r.sim_time);
      if (!inserted &&
          std::memcmp(&it->second, &r.sim_time, sizeof(double)) != 0)
        out.fail("cold answer differs between set-up repetitions");
    }
    const double warmup_s = since(t1);
    out.setup_reps.push_back(
        {platform_s.back(), warmup_s, 0.5 * (slowdown + probe_slowdown_warm())});
    unpin_thread(all_cpus);
  }

  // Timed phase: closed-loop clients, each waiting for its reply. About
  // once a second client 0 pauses both clients, waits for the service to
  // drain, and runs a probe slice on the service's CPU, so that the probe
  // competes neither with the service nor with the other client. Paused
  // time is not run time.
  HostSpeed speed;
  ProbePause pause;
  RequestStream stream(seed, initial);
  const serve::ServiceStats before = service->stats();
  std::atomic<std::size_t> completed{0};
  std::vector<std::vector<ServeRecord>> per_client(kServeClients);
  std::vector<std::unique_ptr<Tracer>> client_tracers;
  for (int c = 0; c < kServeClients; ++c)
    client_tracers.push_back(std::make_unique<Tracer>(traced, epoch));
  const long op_base = next_op;
  std::vector<std::exception_ptr> client_errors(kServeClients);
  std::vector<double> probe_at;  // start of each probe slice
  const auto start = Clock::now();
  auto client = [&](int c) {
    try {
      Tracer off(false, epoch);
      double next_probe = 0.0;
      for (long i = 0;; ++i) {
        if (since(start) >= seconds && completed.load() >= kServeMinRequests)
          break;
        if (c == 0 && since(start) >= next_probe) {
          pause.run([&] {
            service->drain();
            if (pinned) pin_thread(service_cpu);
            probe_at.push_back(since(start));
            speed.sample();
            unpin_thread(all_cpus);
          });
          next_probe = since(start) + 1.0;
        }
        const ProbePause::Request in_flight(pause);
        const ServeKey key = stream.next();
        const bool trace_req = traced && i % 2 == 0;
        Tracer& t =
            trace_req ? *client_tracers[static_cast<std::size_t>(c)] : off;
        const long op = op_base + i * kServeClients + c;
        const auto t0 = Clock::now();
        serve::Response r;
        {
          Scope s(t, "serve.request", op);
          r = service->run(serve_request(key, std::to_string(op)));
        }
        per_client[static_cast<std::size_t>(c)].push_back(
            record_of(key.packed(), r, since(t0), trace_req));
        per_client[static_cast<std::size_t>(c)].back().start_s =
            std::chrono::duration<double>(t0 - start).count();
        completed.fetch_add(1);
      }
    } catch (...) {
      client_errors[static_cast<std::size_t>(c)] = std::current_exception();
    }
  };
  {
    std::vector<std::thread> threads;
    for (int c = 1; c < kServeClients; ++c) threads.emplace_back(client, c);
    client(0);
    for (std::thread& t : threads) t.join();
  }
  for (const std::exception_ptr& e : client_errors)
    if (e) std::rethrow_exception(e);
  const double elapsed = since(start) - pause.paused_s();
  const serve::ServiceStats after = service->stats();
  for (const auto& t : client_tracers) tracer.merge(*t);

  // Answer check: every reply ok and finite; every reply for a scenario
  // (memo hit or not) bit-identical to that scenario's first cold answer.
  std::vector<ServeRecord> recs;
  for (const auto& v : per_client) recs.insert(recs.end(), v.begin(), v.end());
  for (const ServeRecord& r : recs)
    if (!r.memo_hit && r.status == serve::Response::Status::ok)
      cold.emplace(r.key, r.sim_time);  // first cold reply wins
  // A request's latency and solve time are rescaled by the mean slowdown
  // of the probe slices before and after it (over the run's median
  // slowdown, the spread of the p99 was a third wider); the request rate
  // by the run's median slowdown.
  auto slowdown_at = [&](double t) {
    const auto next = std::upper_bound(probe_at.begin(), probe_at.end(), t);
    const auto i = static_cast<std::size_t>(next - probe_at.begin());
    const std::vector<double>& slices = speed.slices();
    const double before = slices[i == 0 ? 0 : i - 1];
    const double after = slices[i < slices.size() ? i : slices.size() - 1];
    return 0.5 * (before + after) / kCalibrationRefS;
  };
  std::vector<double> latencies, latencies_at_ref, traced_lat, untraced_lat;
  double cold_actions = 0.0, cold_solve = 0.0, cold_solve_at_ref = 0.0;
  std::set<std::uint64_t> counted;
  for (const ServeRecord& r : recs) {
    ++out.attempted;
    const double k = slowdown_at(r.start_s);
    latencies.push_back(r.latency_s);
    latencies_at_ref.push_back(r.latency_s / k);
    (r.traced ? traced_lat : untraced_lat).push_back(r.latency_s);
    if (r.status != serve::Response::Status::ok) {
      out.fail("status " + std::string(serve::to_string(r.status)));
      continue;
    }
    if (!std::isfinite(r.sim_time)) {
      out.fail("non-finite makespan");
      continue;
    }
    const auto it = cold.find(r.key);
    if (it == cold.end() ||
        std::memcmp(&it->second, &r.sim_time, sizeof(double)) != 0) {
      out.fail(r.memo_hit ? "memo hit differs from the cold answer"
                          : "cold answers differ");
      continue;
    }
    if (!r.memo_hit && r.solve_s > 0.0 && counted.insert(r.key).second) {
      cold_actions += static_cast<double>(r.actions);
      cold_solve += r.solve_s;
      cold_solve_at_ref += r.solve_s / k;
    }
  }

  Metrics& m = out.metrics;
  const Timed raw{cold_solve > 0 ? cold_actions / cold_solve : 0.0,
                  quantile(latencies, 0.50), quantile(latencies, 0.99),
                  static_cast<double>(recs.size()) / elapsed, recs.size()};
  const double k = speed.slowdown();
  add_end_to_end(m, raw,
                 {cold_solve > 0 ? cold_actions / cold_solve_at_ref : 0.0,
                  quantile(latencies_at_ref, 0.50),
                  quantile(latencies_at_ref, 0.99), raw.ops_per_s * k,
                  raw.samples},
                 peak_rss_mib(), speed);

  if (traced) {
    // The trace, replay, simkern and obs layers on this workload: one pass
    // over the population, each trace decoded and replayed on every
    // platform with the default configuration.
    long op = op_base + static_cast<long>(recs.size() + 1) * kServeClients;
    Counters counters;
    std::uint64_t disk = 0, resident = 0;
    std::vector<double> digest_s;
    double decode_total = 0.0;
    std::vector<std::shared_ptr<const plat::Platform>> platforms;
    for (const char* spec : kServePlatforms)
      platforms.push_back(std::make_shared<const plat::Platform>(
          plat::make_platform(spec)));
    replay::ScenarioSpec largest;
    Answer largest_answer;
    for (int t = 0; t < kServeTraceCount; ++t) {
      ReplayInputs in;
      in.files = read_dir_files(base / ("t" + std::to_string(t)));
      for (int i = 0; i < static_cast<int>(in.files.size()); ++i)
        in.hosts.push_back(i);
      for (int p = 0; p < kServePlatformCount; ++p) {
        in.platform = platforms[static_cast<std::size_t>(p)];
        const OpOutcome o = replay_op(in, tracer, op++);
        const std::string why = check_answer(o.report, nullptr, nullptr);
        if (!why.empty()) out.fail("layer pass: " + why);
        accumulate(counters, o.report, o.traces);
        decode_total += o.decode_s;
        if (p == 0) {
          disk += o.traces.disk_bytes();
          resident += o.traces.resident_bytes();
          Scope s(tracer, "trace.digest", op);
          const auto t0 = Clock::now();
          trace::digest(o.traces);
          digest_s.push_back(since(t0));
        }
        if (t == kServeTraceCount - 1 && p == 0) {
          largest.platform = in.platform;
          largest.process_hosts = in.hosts;
          largest.traces = o.traces;
          largest_answer = answer_of(o.report);
        }
      }
    }
    const double decode = tracer.median_self("trace.decode");
    m.add("trace.decode_s", decode, "s");
    m.add("trace.decode_actions_per_s",
          static_cast<double>(counters.actions) / decode_total, "1/s");
    m.add("trace.disk_bytes", static_cast<double>(disk), "bytes");
    m.add("trace.resident_bytes", static_cast<double>(resident), "bytes");
    m.add("trace.digest_s", median(digest_s), "s");
    m.add("replay.run_scenario_s", tracer.median_self("replay.run_scenario"),
          "s");
    add_counter_metrics(m, counters);
    add_solver_probe_metrics(m, tracer, op);
    m.add("platform.build_s", median(platform_s), "s");
    if (const std::string why = obs_pass(m, largest, largest_answer, tracer, op);
        !why.empty())
      out.fail("obs pass: " + why);
    add_serve_layer_metrics(m, recs, before, after);
    m.add("bench.tracing_overhead",
          median(traced_lat) / median(untraced_lat) - 1.0, "ratio");
  }
  tracer.write_json(args.get("spans", ""));

  std::ostringstream p;
  p << "{\"clients\": " << kServeClients << ", \"service_workers\": 1"
    << ", \"traces\": " << kServeTraceCount << ", \"platforms\": "
    << kServePlatformCount << ", \"eager_bytes\": [" << kServeEagerMin
    << ", " << kServeEagerMin + kServeEagerSpan
    << "], \"novel_share\": 0.1, \"trace_cache_budget_bytes\": " << budget
    << ", \"compute_jitter\": " << num(kComputeJitter)
    << ", \"paused_s\": " << num(pause.paused_s())
    << ", \"service_cpu\": " << (pinned ? service_cpu : -1)
    << ", \"probe_s\": [";
  for (std::size_t i = 0; i < speed.slices().size(); ++i)
    p << (i ? ", " : "") << num(speed.slices()[i]);
  p << "]}";
  out.params = p.str();
}

/// Draws --requests requests from serve-mixed's request stream without
/// serving them and prints how many named a scenario never seen before.
int cmd_stream(const Args& args) {
  const std::uint64_t seed = std::stoull(args.need("seed"));
  const std::uint64_t requests = std::stoull(args.need("requests"));
  const std::vector<std::uint64_t> initial = serve_initial_keys();
  RequestStream stream(seed, initial);
  std::set<std::uint64_t> seen(initial.begin(), initial.end());
  std::uint64_t novel = 0;
  for (std::uint64_t i = 0; i < requests; ++i)
    novel += seen.insert(stream.next().packed()).second;
  std::printf("{\"requests\": %llu, \"novel\": %llu}\n",
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(novel));
  return 0;
}

int cmd_run(const Args& args) {
  const Workload& w = find_workload(args.need("workload"));
  const std::uint64_t seed = std::stoull(args.need("seed"));
  const fs::path dir = args.need("dir");
  const double seconds = std::stod(args.need("seconds"));
  const bool traced = args.get("trace", "0") == "1";
  const int reps = std::max(1, std::stoi(args.get("reps", "3")));

  RunOutput out;
  if (w.kind == Kind::serve)
    run_serve(seed, dir, seconds, traced, reps, args, out);
  else
    run_replay(w, seed, dir, seconds, traced, reps, args, out);

  std::string setup = "[";
  for (std::size_t i = 0; i < out.setup_reps.size(); ++i)
    setup += (i ? ", " : "") + std::string("{\"platform_s\": ") +
             num(out.setup_reps[i].platform_s) + ", \"warmup_s\": " +
             num(out.setup_reps[i].warmup_s) + ", \"slowdown\": " +
             num(out.setup_reps[i].slowdown) + "}";
  setup += "]";
  std::string errors = "[";
  for (std::size_t i = 0; i < out.errors.size(); ++i)
    errors += (i ? ", " : "") + jstr(out.errors[i]);
  errors += "]";
  std::printf(
      "{\"attempted\": %llu, \"failed\": %llu, \"errors\": %s, "
      "\"metrics\": %s, \"setup_reps\": %s, \"params\": %s, "
      "\"build_type\": %s, \"compiler\": %s, \"nproc\": %u}\n",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), errors.c_str(),
      out.metrics.json().c_str(), setup.c_str(), out.params.c_str(),
      jstr(PERFBENCH_BUILD_TYPE).c_str(), jstr(PERFBENCH_COMPILER).c_str(),
      std::thread::hardware_concurrency());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "setup") return cmd_setup(args);
    if (args.command == "run") return cmd_run(args);
    if (args.command == "stream") return cmd_stream(args);
    throw std::runtime_error("unknown command '" + args.command + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
