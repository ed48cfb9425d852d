// Property tests on the trace formats: randomly generated action streams
// survive text and binary round trips, and the two encodings agree.
#include <gtest/gtest.h>

#include <filesystem>

#include "support/rng.hpp"
#include "trace/binary_format.hpp"
#include "trace/text_format.hpp"
#include "trace/trace_set.hpp"

using namespace tir;
using trace::Action;
using trace::ActionType;
namespace fs = std::filesystem;

namespace {

Action random_action(Rng& rng, int pid, int nprocs) {
  Action a;
  a.pid = pid;
  const int kind = static_cast<int>(rng.next_below(11));
  a.type = static_cast<ActionType>(kind);
  const auto volume = [&]() -> double {
    switch (rng.next_below(3)) {
      case 0: return static_cast<double>(rng.next_below(1u << 20));
      case 1: return static_cast<double>(rng.next_below(1ull << 40));
      default: return rng.uniform(0.0, 1e12);  // non-integral
    }
  };
  switch (a.type) {
    case ActionType::compute:
    case ActionType::bcast:
      a.volume = volume();
      break;
    case ActionType::send:
    case ActionType::isend:
    case ActionType::recv:
    case ActionType::irecv:
      a.partner = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(nprocs)));
      a.volume = volume();
      break;
    case ActionType::reduce:
    case ActionType::allreduce:
      a.volume = volume();
      a.volume2 = volume();
      break;
    case ActionType::comm_size:
      a.comm_size = nprocs;
      break;
    case ActionType::barrier:
    case ActionType::wait:
      break;
  }
  return a;
}

std::vector<Action> random_stream(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Action> actions;
  actions.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) actions.push_back(random_action(rng, 3, 64));
  return actions;
}

class TraceProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tir_prop_" + std::to_string(::getpid()) + "_" +
            std::to_string(GetParam()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

}  // namespace

TEST_P(TraceProperty, TextLineRoundTrip) {
  for (const Action& a : random_stream(GetParam(), 500)) {
    const Action back = trace::parse_line(trace::to_line(a));
    EXPECT_EQ(back.pid, a.pid);
    EXPECT_EQ(back.type, a.type);
    EXPECT_EQ(back.partner, a.partner);
    EXPECT_EQ(back.comm_size, a.comm_size);
    // recv lines may legitimately drop a zero volume; otherwise exact.
    EXPECT_DOUBLE_EQ(back.volume, a.volume);
    EXPECT_DOUBLE_EQ(back.volume2, a.volume2);
  }
}

TEST_P(TraceProperty, TextFileRoundTrip) {
  const auto actions = random_stream(GetParam(), 400);
  const auto file = dir_ / "t.trace";
  {
    trace::TextTraceWriter writer(file);
    for (const Action& a : actions) writer.write(a);
  }
  EXPECT_EQ(trace::read_all(file), actions);
}

TEST_P(TraceProperty, BinaryFileRoundTrip) {
  const auto actions = random_stream(GetParam(), 400);
  const auto file = dir_ / "t.btrace";
  {
    trace::BinaryTraceWriter writer(file, 3);
    for (const Action& a : actions) writer.write(a);
  }
  trace::BinaryTraceReader reader(file);
  std::vector<Action> back;
  while (auto a = reader.next()) back.push_back(*a);
  EXPECT_EQ(back, actions);
}

TEST_P(TraceProperty, FormatsAgreeThroughConversion) {
  const auto actions = random_stream(GetParam(), 300);
  const auto text = dir_ / "a.trace";
  const auto binary = dir_ / "a.btrace";
  const auto text2 = dir_ / "b.trace";
  {
    trace::TextTraceWriter writer(text);
    for (const Action& a : actions) writer.write(a);
  }
  trace::text_to_binary(text, binary);
  trace::binary_to_text(binary, text2);
  EXPECT_EQ(trace::read_all(text2), trace::read_all(text));
}

TEST_P(TraceProperty, BinaryIsNeverLarger) {
  const auto actions = random_stream(GetParam(), 300);
  const auto text = dir_ / "a.trace";
  const auto binary = dir_ / "a.btrace";
  {
    trace::TextTraceWriter writer(text);
    for (const Action& a : actions) writer.write(a);
  }
  trace::text_to_binary(text, binary);
  EXPECT_LE(fs::file_size(binary), fs::file_size(text));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceProperty,
                         ::testing::Values(7, 21, 42, 99, 1234, 31337));
