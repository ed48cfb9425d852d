#include <gtest/gtest.h>

#include <sys/stat.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include "support/error.hpp"
#include "trace/binary_format.hpp"
#include "trace/codec.hpp"
#include "trace/text_format.hpp"
#include "trace/trace_set.hpp"

using namespace tir::trace;
namespace fs = std::filesystem;

namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tir_trace_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

std::vector<std::vector<Action>> ring_actions() {
  // The paper's Figure 1 trace for 4 processes.
  std::vector<std::vector<Action>> per(4);
  for (int p = 0; p < 4; ++p) {
    per[static_cast<std::size_t>(p)] = {
        {p, ActionType::compute, -1, 1e6, 0, 0},
        {p, ActionType::send, (p + 1) % 4, 1e6, 0, 0},
        {p, ActionType::recv, (p + 3) % 4, 0, 0, 0},
    };
  }
  return per;
}

}  // namespace

TEST_F(TraceIoTest, SplitWriteReadRoundTrip) {
  const auto actions = ring_actions();
  const auto paths = write_split_traces(dir_, actions);
  ASSERT_EQ(paths.size(), 4u);
  EXPECT_EQ(paths[0].filename(), "SG_process0.trace");
  for (int p = 0; p < 4; ++p) {
    const auto back = read_all(paths[static_cast<std::size_t>(p)]);
    EXPECT_EQ(back, actions[static_cast<std::size_t>(p)]);
  }
}

TEST_F(TraceIoTest, MergedWriteReadWithFilter) {
  const auto actions = ring_actions();
  const auto file = dir_ / "merged.trace";
  write_merged_trace(file, actions);
  for (int p = 0; p < 4; ++p) {
    const auto back = read_all(file, p);
    EXPECT_EQ(back, actions[static_cast<std::size_t>(p)]);
  }
  EXPECT_EQ(read_all(file).size(), 12u);
}

TEST_F(TraceIoTest, ReaderSkipsCommentsAndBlankLines) {
  const auto file = dir_ / "annotated.trace";
  std::ofstream(file) << "# header comment\n\n  \np0 compute 5\n"
                      << "# middle\np0 barrier\n";
  const auto actions = read_all(file);
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_EQ(actions[1].type, ActionType::barrier);
}

TEST_F(TraceIoTest, ParseErrorCarriesLineNumber) {
  const auto file = dir_ / "bad.trace";
  std::ofstream(file) << "p0 compute 5\np0 warp 9\n";
  try {
    read_all(file);
    FAIL() << "expected ParseError";
  } catch (const tir::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos);
  }
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(TextTraceReader(dir_ / "nope.trace"), tir::IoError);
}

TEST_F(TraceIoTest, BinaryRoundTripPerProcess) {
  const auto actions = ring_actions()[1];
  const auto file = dir_ / "p1.btrace";
  {
    BinaryTraceWriter writer(file, 1);
    for (const Action& a : actions) writer.write(a);
    EXPECT_GT(writer.close(), 0u);
  }
  EXPECT_TRUE(is_binary_trace(file));
  BinaryTraceReader reader(file);
  std::vector<Action> back;
  while (auto a = reader.next()) back.push_back(*a);
  EXPECT_EQ(back, actions);
}

TEST_F(TraceIoTest, BinaryRoundTripMixedPidsAndDoubles) {
  std::vector<Action> actions = {
      {0, ActionType::compute, -1, 1234.5678, 0, 0},
      {3, ActionType::reduce, -1, 4096, 99.5, 0},
      {200, ActionType::send, 199, 1e15, 0, 0},
      {1, ActionType::comm_size, -1, 0, 0, 64},
      {1, ActionType::wait, -1, 0, 0, 0},
  };
  const auto file = dir_ / "mixed.btrace";
  {
    BinaryTraceWriter writer(file, -1);
    for (const Action& a : actions) writer.write(a);
  }
  BinaryTraceReader reader(file);
  std::vector<Action> back;
  while (auto a = reader.next()) back.push_back(*a);
  EXPECT_EQ(back, actions);
}

TEST_F(TraceIoTest, BinaryIsSmallerThanText) {
  // Paper future work: "reduce the size of the traces, e.g., using a binary
  // format". Verify the claimed benefit on a realistic action mix.
  std::vector<Action> actions;
  for (int i = 0; i < 2000; ++i) {
    actions.push_back({7, ActionType::compute, -1, 1e6 + i, 0, 0});
    actions.push_back({7, ActionType::send, (i % 63), 163840, 0, 0});
    actions.push_back({7, ActionType::recv, (i % 63), 163840, 0, 0});
  }
  const auto text_file = dir_ / "t.trace";
  const auto bin_file = dir_ / "t.btrace";
  {
    TextTraceWriter w(text_file);
    for (const Action& a : actions) w.write(a);
  }
  {
    BinaryTraceWriter w(bin_file, 7);
    for (const Action& a : actions) w.write(a);
  }
  const auto text_size = fs::file_size(text_file);
  const auto bin_size = fs::file_size(bin_file);
  EXPECT_LT(bin_size * 2, text_size);  // at least 2x smaller
}

TEST_F(TraceIoTest, TextBinaryConvertersAgree) {
  const auto actions = ring_actions();
  const auto text_file = dir_ / "orig.trace";
  write_merged_trace(text_file, actions);
  const auto bin_file = dir_ / "conv.btrace";
  const auto text_back = dir_ / "back.trace";
  text_to_binary(text_file, bin_file);
  binary_to_text(bin_file, text_back);
  EXPECT_EQ(read_all(text_back), read_all(text_file));
}

TEST_F(TraceIoTest, CorruptBinaryThrows) {
  const auto file = dir_ / "corrupt.btrace";
  std::ofstream(file, std::ios::binary) << "TIRB" << '\x01' << '\x00'
                                        << '\x0F';  // bogus tag 15
  BinaryTraceReader reader(file);
  EXPECT_THROW(reader.next(), tir::ParseError);
}

TEST_F(TraceIoTest, TraceSetSplitLayout) {
  const auto actions = ring_actions();
  const auto paths = write_split_traces(dir_, actions);
  const TraceSet set = TraceSet::per_process_files(paths);
  EXPECT_EQ(set.nprocs(), 4);
  auto src = set.open(2);
  const auto first = src->next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->pid, 2);
  EXPECT_GT(set.disk_bytes(), 0u);
}

TEST_F(TraceIoTest, TraceSetMergedLayout) {
  const auto actions = ring_actions();
  const auto file = dir_ / "merged.trace";
  write_merged_trace(file, actions);
  const TraceSet set = TraceSet::merged_file(file, 4);
  for (int p = 0; p < 4; ++p) {
    auto src = set.open(p);
    int count = 0;
    while (auto a = src->next()) {
      EXPECT_EQ(a->pid, p);
      ++count;
    }
    EXPECT_EQ(count, 3);
  }
}

TEST_F(TraceIoTest, TraceSetStats) {
  const TraceSet set = TraceSet::in_memory(ring_actions());
  const TraceStats stats = set.stats();
  EXPECT_EQ(stats.actions, 12u);
  EXPECT_EQ(stats.computes, 4u);
  EXPECT_EQ(stats.p2p_messages, 4u);
  EXPECT_DOUBLE_EQ(stats.total_flops, 4e6);
  EXPECT_DOUBLE_EQ(stats.total_bytes_sent, 4e6);
}

TEST_F(TraceIoTest, TraceSetValidatesArguments) {
  EXPECT_THROW(TraceSet::per_process_files({}), tir::Error);
  EXPECT_THROW(TraceSet::in_memory({}), tir::Error);
  EXPECT_THROW(TraceSet::merged_file("x", 0), tir::Error);
  const TraceSet set = TraceSet::in_memory(ring_actions());
  EXPECT_THROW(set.open(-1), tir::Error);
  EXPECT_THROW(set.open(4), tir::Error);
}

TEST_F(TraceIoTest, MergedFileRoundTripsThroughAllCodecs) {
  // A merged file written in any of the three formats must reconstruct the
  // same per-process streams. Note the recv lines carry no volume (the
  // paper's Figure 1 shape) — historically only exercised through text.
  const auto per_process = ring_actions();
  std::vector<Action> merged;
  for (const auto& actions : per_process)
    merged.insert(merged.end(), actions.begin(), actions.end());

  for (const TraceCodec* codec : all_codecs()) {
    const auto file = dir_ / ("merged_" + std::string(codec->name()));
    EXPECT_GT(codec->encode(file, merged, /*pid=*/-1), 0u)
        << codec->name();
    EXPECT_EQ(read_all(file), merged) << codec->name();

    const TraceSet set = TraceSet::merged_file(file, 4);
    for (int p = 0; p < 4; ++p) {
      auto source = set.open(p);
      std::vector<Action> back;
      while (auto a = source->next()) back.push_back(*a);
      EXPECT_EQ(back, per_process[static_cast<std::size_t>(p)])
          << codec->name() << " pid " << p;
    }
    // One merged file = exactly one decode pass, however many streams.
    EXPECT_EQ(set.decode_count(), 1u) << codec->name();
  }
}

TEST_F(TraceIoTest, RecvWithoutVolumeRoundTripsThroughAllCodecs) {
  // Figure 1: "p3 recv p2" — the matched send carries the volume. Zero
  // volume must survive every codec (text omits the field entirely).
  const std::vector<Action> actions = {
      {5, ActionType::recv, 2, 0, 0, 0},
      {5, ActionType::irecv, 3, 0, 0, 0},
      {5, ActionType::send, 2, 4096, 0, 0},
      {5, ActionType::recv, 2, 8192, 0, 0},  // explicit volume still works
      {5, ActionType::wait, -1, 0, 0, 0},
  };
  for (const TraceCodec* codec : all_codecs()) {
    const auto file = dir_ / ("recv_" + std::string(codec->name()));
    codec->encode(file, actions, /*pid=*/5);
    const auto back = read_all(file);
    EXPECT_EQ(back, actions) << codec->name();
    EXPECT_DOUBLE_EQ(back[0].volume, 0.0) << codec->name();
  }
}

TEST_F(TraceIoTest, CodecRegistryDetectsFormats) {
  const auto actions = ring_actions()[0];
  const auto text = dir_ / "f.trace";
  const auto bin = dir_ / "f.btrace";
  const auto compact = dir_ / "f.ctrace";
  codec_by_name("text").encode(text, actions, 0);
  codec_by_name("binary").encode(bin, actions, 0);
  codec_by_name("compact").encode(compact, actions, 0);
  EXPECT_EQ(codec_for_file(text).name(), "text");
  EXPECT_EQ(codec_for_file(bin).name(), "binary");
  EXPECT_EQ(codec_for_file(compact).name(), "compact");
  EXPECT_THROW(codec_by_name("tarot"), tir::Error);
}

TEST_F(TraceIoTest, TraceSetSharesDecodedStorageAcrossCopies) {
  const auto paths = write_split_traces(dir_, ring_actions());
  const TraceSet set = TraceSet::per_process_files(paths);
  const TraceSet copy = set;  // cheap handle, same storage
  EXPECT_EQ(copy.stats().actions, 12u);
  EXPECT_EQ(set.decode_count(), 4u);
  EXPECT_EQ(copy.decode_count(), 4u);
  // Re-opening decodes nothing new.
  for (int p = 0; p < 4; ++p) (void)set.open(p);
  EXPECT_EQ(set.decode_count(), 4u);
}

TEST_F(TraceIoTest, TraceSetAutoDetectsBinaryFiles) {
  const auto actions = ring_actions();
  std::vector<fs::path> paths;
  for (int p = 0; p < 4; ++p) {
    const auto path = dir_ / ("SG_process" + std::to_string(p) + ".btrace");
    BinaryTraceWriter writer(path, p);
    for (const Action& a : actions[static_cast<std::size_t>(p)])
      writer.write(a);
    writer.close();
    paths.push_back(path);
  }
  const TraceSet set = TraceSet::per_process_files(paths);
  EXPECT_EQ(set.stats().actions, 12u);
}

TEST_F(TraceIoTest, CompactFileWithBadMagicFailsStrictAndSalvagesLenient) {
  // A .ctrace whose magic bytes are wrong: strict decoding must refuse it,
  // lenient decoding must report it as unusable (coverage < 1) rather
  // than silently treating garbage as actions.
  const auto file = dir_ / "bad.ctrace";
  const auto good = dir_ / "good.trace";
  codec_by_name("compact").encode(file, ring_actions()[0], 0);
  codec_by_name("text").encode(good, ring_actions()[1], 1);
  {
    std::fstream patch(file, std::ios::in | std::ios::out | std::ios::binary);
    patch.write("XXXX", 4);  // clobber the magic
  }

  const auto strict = TraceSet::per_process_files({file, good});
  EXPECT_THROW(strict.stats(), tir::ParseError);

  const auto lenient =
      TraceSet::per_process_files({file, good}, DecodeMode::lenient);
  EXPECT_LT(lenient.coverage(), 1.0);
  EXPECT_TRUE(lenient.actions(0).empty());      // nothing salvageable
  EXPECT_EQ(lenient.actions(1).size(), 3u);     // the good file is intact
  const auto salvage = lenient.salvage_report();
  ASSERT_EQ(salvage.size(), 2u);
  EXPECT_FALSE(salvage[0].complete);
  EXPECT_TRUE(salvage[1].complete);
}

TEST_F(TraceIoTest, NegativeVolumeFailsStrictAndSalvagesLenient) {
  const auto file = dir_ / "neg.trace";
  std::ofstream(file) << "p0 compute 100\n"
                      << "p0 send 1 -64\n"
                      << "p0 barrier\n";

  const auto strict = TraceSet::per_process_files({file});
  EXPECT_THROW(strict.stats(), tir::ParseError);

  const auto lenient =
      TraceSet::per_process_files({file}, DecodeMode::lenient);
  EXPECT_EQ(lenient.actions(0).size(), 1u);  // clean prefix: the compute
  EXPECT_LT(lenient.coverage(), 1.0);
  EXPECT_GT(lenient.coverage(), 0.0);
  const auto salvage = lenient.salvage_report();
  ASSERT_EQ(salvage.size(), 1u);
  EXPECT_NE(salvage[0].error.find("negative volume"), std::string::npos);
}

TEST_F(TraceIoTest, ReadersWorkWhereTheFileCannotBeMapped) {
  // A FIFO cannot be mmap'd: the readers fall back to an ifstream and must
  // decode the same records, with the same line numbers in errors.
  const auto fifo = dir_ / "pipe.trace";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const auto feed = [&](std::string bytes) {
    return std::thread([&fifo, bytes] {
      std::ofstream(fifo, std::ios::binary) << bytes;
    });
  };

  std::thread writer = feed("# comment\np0 compute 5\n\np0 barrier");
  std::vector<Action> back;
  {
    TextTraceReader reader(fifo);
    while (auto a = reader.next()) back.push_back(*a);
  }
  writer.join();
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].type, ActionType::barrier);

  writer = feed("p0 compute 5\np0 warp 9\n");
  try {
    TextTraceReader reader(fifo);
    while (reader.next()) {
    }
    FAIL() << "expected ParseError";
  } catch (const tir::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("pipe.trace:2: "),
              std::string::npos);
  }
  writer.join();

  const auto bin = dir_ / "p1.btrace";
  const auto ring = ring_actions();
  {
    BinaryTraceWriter w(bin, 1);
    for (const Action& a : ring[1]) w.write(a);
  }
  std::ifstream in(bin, std::ios::binary);
  writer = feed({std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>()});
  back.clear();
  {
    BinaryTraceReader reader(fifo);
    while (auto a = reader.next()) back.push_back(*a);
  }
  writer.join();
  EXPECT_EQ(back, ring[1]);
}

TEST_F(TraceIoTest, LargeFilesDecodeTheSameThroughTheMapping) {
  // Files of 64 KiB and more are mmap'd; a merged file that large must
  // stream per pid exactly as it materialises, and a bad last record must
  // stop both shapes at the same place with the same message.
  std::vector<std::vector<Action>> per(4);
  for (int i = 0; i < 2500; ++i)
    for (int p = 0; p < 4; ++p)
      per[static_cast<std::size_t>(p)].push_back(
          {p, ActionType::send, (p + 1) % 4, 1e6 + 0.5 * i, 0, 0});
  std::vector<Action> merged;
  for (const auto& actions : per)
    merged.insert(merged.end(), actions.begin(), actions.end());

  for (const char* name : {"text", "binary"}) {
    SCOPED_TRACE(name);
    const auto file = dir_ / ("large_" + std::string(name));
    codec_by_name(name).encode(file, merged, -1);
    ASSERT_GE(fs::file_size(file), 64u << 10);
    const auto mat = TraceSet::merged_file(file, 4, DecodeMode::strict,
                                           DecodePolicy::materialise);
    const auto str = TraceSet::merged_file(file, 4, DecodeMode::strict,
                                           DecodePolicy::stream);
    ASSERT_TRUE(str.streaming());
    for (int p = 0; p < 4; ++p) {
      auto source = str.open(p);
      std::vector<Action> back;
      while (auto a = source->next()) back.push_back(*a);
      EXPECT_EQ(back, per[static_cast<std::size_t>(p)]);
      EXPECT_EQ(mat.actions(p), per[static_cast<std::size_t>(p)]);
    }

    std::ofstream(file, std::ios::binary | std::ios::app) << "\x0F junk\n";
    const auto lenient = [&](DecodePolicy policy) {
      return TraceSet::merged_file(file, 4, DecodeMode::lenient, policy)
          .salvage_report()
          .at(0);
    };
    const SalvageInfo m = lenient(DecodePolicy::materialise);
    const SalvageInfo s = lenient(DecodePolicy::stream);
    EXPECT_FALSE(m.complete);
    EXPECT_EQ(m.error, s.error);
    EXPECT_EQ(m.bytes_consumed, s.bytes_consumed);
    EXPECT_EQ(m.bytes_consumed, fs::file_size(file) - 7);  // the junk line
    try {
      (void)read_all(file);
      FAIL() << "expected ParseError";
    } catch (const tir::ParseError& e) {
      EXPECT_EQ(std::string(e.what()), m.error);
    }
  }
}

TEST_F(TraceIoTest, ReadersReReadPagesReleasedBehindThem) {
  // A mapped file's pages are released in 4 MiB windows behind the reader;
  // a seek back into released pages must read the same records again.
  const auto check = [](auto& reader, const std::vector<Action>& actions) {
    std::vector<Action> back;
    auto a = reader.next();
    ASSERT_TRUE(a.has_value());
    const std::uint64_t first = reader.record_offset();
    for (; a; a = reader.next()) back.push_back(*a);
    EXPECT_EQ(back, actions);
    reader.seek(first);
    back.clear();
    while (auto b = reader.next()) back.push_back(*b);
    EXPECT_EQ(back, actions);
  };
  const auto trace = [](int n) {
    std::vector<Action> actions;
    for (int i = 0; i < n; ++i)
      actions.push_back({0, ActionType::send, 1, 1e6 + 0.37 * i, 0, 0});
    return actions;
  };

  const auto text = trace(400000);
  const auto text_file = dir_ / "released.trace";
  codec_by_name("text").encode(text_file, text, 0);
  ASSERT_GE(fs::file_size(text_file), 9u << 20);
  TextTraceReader text_reader(text_file);
  check(text_reader, text);

  const auto binary = trace(1000000);
  const auto binary_file = dir_ / "released.tirb";
  codec_by_name("binary").encode(binary_file, binary, 0);
  ASSERT_GE(fs::file_size(binary_file), 9u << 20);
  BinaryTraceReader binary_reader(binary_file);
  check(binary_reader, binary);
}
