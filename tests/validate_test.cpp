#include <gtest/gtest.h>

#include "platform/cluster.hpp"
#include "replay/scenario.hpp"
#include "support/error.hpp"
#include "trace/validate.hpp"

using namespace tir;
using trace::Action;
using trace::ActionType;

namespace {

std::vector<std::vector<Action>> clean_pair() {
  return {
      {{0, ActionType::compute, -1, 1e6, 0, 0},
       {0, ActionType::send, 1, 1024, 0, 0},
       {0, ActionType::barrier, -1, 0, 0, 0}},
      {{1, ActionType::recv, 0, 1024, 0, 0},
       {1, ActionType::compute, -1, 1e6, 0, 0},
       {1, ActionType::barrier, -1, 0, 0, 0}},
  };
}

}  // namespace

TEST(ValidateTest, CleanTracePasses) {
  const auto traces = trace::TraceSet::in_memory(clean_pair());
  const auto report = trace::validate(traces);
  EXPECT_TRUE(report.ok) << report.render();
  EXPECT_EQ(report.errors(), 0u);
  EXPECT_EQ(report.nprocs, 2);
  EXPECT_EQ(report.actions, 6u);
}

TEST(ValidateTest, UnmatchedSendIsAnError) {
  auto streams = clean_pair();
  streams[1].erase(streams[1].begin());  // drop the recv
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  EXPECT_FALSE(report.ok);
  bool found = false;
  for (const auto& i : report.issues)
    if (i.severity == trace::Severity::error &&
        i.message.find("p2p mismatch") != std::string::npos)
      found = true;
  EXPECT_TRUE(found) << report.render();
}

TEST(ValidateTest, RecvWithoutSendIsAnError) {
  auto streams = clean_pair();
  streams[0].erase(streams[0].begin() + 1);  // drop the send, keep the recv
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.render().find("no matching send"), std::string::npos);
}

TEST(ValidateTest, VolumeDisagreementIsAWarningNotAnError) {
  auto streams = clean_pair();
  streams[1][0].volume = 2048;  // recv declares a different size
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  EXPECT_TRUE(report.ok);  // warnings only
  EXPECT_EQ(report.warnings(), 1u);
  EXPECT_NE(report.render().find("recv declares"), std::string::npos);
}

TEST(ValidateTest, PartnerOutOfRangeIsAnError) {
  auto streams = clean_pair();
  streams[0][1].partner = 7;
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.render().find("outside [0, 2)"), std::string::npos);
}

TEST(ValidateTest, NegativeVolumeIsAnError) {
  auto streams = clean_pair();
  streams[0][0].volume = -1.0;
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.render().find("negative volume"), std::string::npos);
}

TEST(ValidateTest, CollectiveDivergenceIsAnError) {
  auto streams = clean_pair();
  streams[1][2] = {1, ActionType::allreduce, -1, 64, 100, 0};
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.render().find("collective round #0"), std::string::npos);
}

TEST(ValidateTest, MissingCollectiveParticipantIsAnError) {
  auto streams = clean_pair();
  streams[1].pop_back();  // rank 1 skips the barrier
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.render().find("participates in 0 collective(s)"),
            std::string::npos);
}

TEST(ValidateTest, WaitWithoutPendingRequestIsAnError) {
  std::vector<std::vector<Action>> streams = {
      {{0, ActionType::wait, -1, 0, 0, 0}}};
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.render().find("wait with no pending request"),
            std::string::npos);
}

TEST(ValidateTest, CommSizeMismatchIsAWarning) {
  auto streams = clean_pair();
  streams[0].insert(streams[0].begin(),
                    {0, ActionType::comm_size, -1, 0, 0, 8});
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.warnings(), 1u);
}

TEST(ValidateTest, JsonReportIsMachineReadable) {
  auto streams = clean_pair();
  streams[1].erase(streams[1].begin());
  const auto report =
      trace::validate(trace::TraceSet::in_memory(std::move(streams)));
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
}

TEST(TruncateConsistentTest, CleanTraceKeepsEverything) {
  const auto traces = trace::TraceSet::in_memory(clean_pair());
  const auto cut = trace::truncate_consistent(traces);
  EXPECT_EQ(cut.dropped, 0u);
  EXPECT_DOUBLE_EQ(cut.coverage, 1.0);
  EXPECT_EQ(cut.traces.actions(0).size(), 3u);
  EXPECT_EQ(cut.traces.actions(1).size(), 3u);
}

TEST(TruncateConsistentTest, DanglingSendIsCut) {
  auto streams = clean_pair();
  // Rank 0 sends a second message nobody receives, after the barrier.
  streams[0].push_back({0, ActionType::send, 1, 4096, 0, 0});
  const auto cut =
      trace::truncate_consistent(trace::TraceSet::in_memory(streams));
  EXPECT_EQ(cut.kept[0], 3u);
  EXPECT_EQ(cut.kept[1], 3u);
  EXPECT_EQ(cut.dropped, 1u);
  EXPECT_LT(cut.coverage, 1.0);
  EXPECT_TRUE(trace::validate(cut.traces).ok);
}

TEST(TruncateConsistentTest, CollectiveRoundsAreAligned) {
  auto streams = clean_pair();
  // Rank 0 runs one more barrier than rank 1.
  streams[0].push_back({0, ActionType::barrier, -1, 0, 0, 0});
  const auto cut =
      trace::truncate_consistent(trace::TraceSet::in_memory(streams));
  EXPECT_EQ(cut.kept[0], 3u);
  EXPECT_EQ(cut.dropped, 1u);
  EXPECT_TRUE(trace::validate(cut.traces).ok);
}

TEST(TruncateConsistentTest, CascadingCutsReachAFixpoint) {
  using A = Action;
  // Rank 0: send, barrier. Rank 1: recv, barrier, recv (dangling).
  // Cutting rank 1's dangling recv is enough; but if rank 1's *first* recv
  // were dangling, the barrier behind it must fall too.
  std::vector<std::vector<A>> streams = {
      {{0, ActionType::barrier, -1, 0, 0, 0}},
      {{1, ActionType::recv, 0, 64, 0, 0},  // never sent: cut here
       {1, ActionType::barrier, -1, 0, 0, 0}},
  };
  const auto cut =
      trace::truncate_consistent(trace::TraceSet::in_memory(streams));
  // Rank 1 loses its recv AND the barrier behind it; rank 0's barrier then
  // has no peer and falls as well.
  EXPECT_EQ(cut.kept[0], 0u);
  EXPECT_EQ(cut.kept[1], 0u);
  EXPECT_TRUE(trace::validate(cut.traces).ok);
}

TEST(TruncateConsistentTest, WaitWithoutPendingIsCut) {
  std::vector<std::vector<Action>> streams = {
      {{0, ActionType::compute, -1, 1e3, 0, 0},
       {0, ActionType::wait, -1, 0, 0, 0},
       {0, ActionType::compute, -1, 1e3, 0, 0}}};
  const auto cut =
      trace::truncate_consistent(trace::TraceSet::in_memory(streams));
  EXPECT_EQ(cut.kept[0], 1u);  // cut at the stray wait
}

// What only the trace set shows (a partner outside [0, nprocs), a record
// labelled for another process) fails the replay with the line the
// validator prints for it, naming the process and the action index.
TEST(ValidateTest, ReplayRejectsWhatOnlyTheTraceSetShowsWithTheSameLine) {
  const std::vector<std::vector<std::vector<Action>>> cases = {
      {{{0, ActionType::compute, -1, 5, 0, 0},
        {0, ActionType::send, 9, 100, 0, 0}},
       {{1, ActionType::compute, -1, 5, 0, 0}}},
      {{{0, ActionType::compute, -1, 5, 0, 0},
        {1, ActionType::compute, -1, 5, 0, 0}},
       {{1, ActionType::compute, -1, 5, 0, 0}}},
  };
  const auto platform = std::make_shared<plat::Platform>();
  const auto hosts = plat::build_cluster(*platform, plat::bordereau_spec(2));
  for (const auto& streams : cases) {
    const auto traces = trace::TraceSet::in_memory(streams);
    const auto report = trace::validate(traces);
    ASSERT_EQ(report.errors(), 1u) << report.render();
    const std::string line = trace::describe(report.issues[0]);
    EXPECT_EQ(line.rfind("process 0 action #1: ", 0), 0u) << line;

    replay::ScenarioSpec spec;
    spec.platform = platform;
    spec.process_hosts = hosts;
    spec.traces = traces;
    try {
      replay::run_scenario(spec);
      ADD_FAILURE() << "replayed: " << line;
    } catch (const SimError& e) {
      EXPECT_EQ(std::string(e.what()), line);
    }
  }
}
