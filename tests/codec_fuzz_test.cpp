// Codec round-trip fuzz: randomly generated *valid* multi-process action
// streams survive every registered codec (text, binary, compact) exactly,
// re-encoding is a byte-level fixpoint, cross-codec conversion chains
// preserve the stream, trace::validate reaches the same verdict whichever
// on-disk format carried the trace, and the bounded-memory streaming
// decoder yields element-identical sequences — including the salvage
// truncation points lenient decode picks on corrupted files. Numeric edge
// cases (nan, inf, 1e999, negative volumes, integers that do not fit their
// field, varint overflow, huge compact repeat counts) must be rejected by
// every codec with the same error under both decode policies, and -0 must
// decode as +0 everywhere.
//
// Seeds are logged on every run; reproduce one case with
//   TIR_FUZZ_SEED=<seed> ./test_extended --gtest_filter='*CodecFuzz*'
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "trace/codec.hpp"
#include "trace/digest.hpp"
#include "trace/trace_set.hpp"
#include "trace/validate.hpp"

using namespace tir;
using trace::Action;
using trace::ActionType;
namespace fs = std::filesystem;

namespace {

double random_volume(Rng& rng) {
  switch (rng.next_below(3)) {
    case 0: return static_cast<double>(rng.next_below(1u << 20));
    case 1: return static_cast<double>(rng.next_below(1ull << 40));
    default: return rng.uniform(0.0, 1e12);  // non-integral
  }
}

/// A random but *consistent* multi-process program: p2p sends and receives
/// pair up FIFO per (src, dst) with agreeing volumes, every rank runs the
/// same collective sequence, and waits never outnumber pending requests —
/// so trace::validate must accept it whatever the seed.
std::vector<std::vector<Action>> random_program(std::uint64_t seed,
                                                int nprocs, int rounds) {
  Rng rng(seed);
  std::vector<std::vector<Action>> per(static_cast<std::size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p)
    per[static_cast<std::size_t>(p)].push_back(
        {p, ActionType::comm_size, -1, 0, 0, nprocs});
  for (int r = 0; r < rounds; ++r) {
    switch (rng.next_below(8)) {
      case 0:
        for (int p = 0; p < nprocs; ++p)
          per[static_cast<std::size_t>(p)].push_back(
              {p, ActionType::compute, -1, random_volume(rng), 0, 0});
        break;
      case 1: {  // ring exchange, matched volumes
        const double v = random_volume(rng);
        for (int p = 0; p < nprocs; ++p) {
          auto& mine = per[static_cast<std::size_t>(p)];
          mine.push_back({p, ActionType::send, (p + 1) % nprocs, v, 0, 0});
          mine.push_back(
              {p, ActionType::recv, (p + nprocs - 1) % nprocs, v, 0, 0});
        }
        break;
      }
      case 2: {  // nonblocking ring + waitall
        const double v = random_volume(rng);
        for (int p = 0; p < nprocs; ++p) {
          auto& mine = per[static_cast<std::size_t>(p)];
          mine.push_back({p, ActionType::isend, (p + 1) % nprocs, v, 0, 0});
          mine.push_back(
              {p, ActionType::irecv, (p + nprocs - 1) % nprocs, v, 0, 0});
          mine.push_back({p, ActionType::waitall, -1, 0, 0, 0});
        }
        break;
      }
      case 3: {
        const double v = random_volume(rng);
        for (int p = 0; p < nprocs; ++p)
          per[static_cast<std::size_t>(p)].push_back(
              {p, ActionType::bcast, -1, v, 0, 0});
        break;
      }
      case 4: {
        const double vcomm = random_volume(rng);
        const double vcomp = random_volume(rng);
        for (int p = 0; p < nprocs; ++p)
          per[static_cast<std::size_t>(p)].push_back(
              {p, ActionType::reduce, -1, vcomm, vcomp, 0});
        break;
      }
      case 5: {
        const double vcomm = random_volume(rng);
        const double vcomp = random_volume(rng);
        for (int p = 0; p < nprocs; ++p)
          per[static_cast<std::size_t>(p)].push_back(
              {p, ActionType::allreduce, -1, vcomm, vcomp, 0});
        break;
      }
      case 6:
        for (int p = 0; p < nprocs; ++p)
          per[static_cast<std::size_t>(p)].push_back(
              {p, ActionType::barrier, -1, 0, 0, 0});
        break;
      default: {
        const double v = random_volume(rng);
        const ActionType coll =
            rng.next_below(2) == 0 ? ActionType::allgather
                                   : ActionType::alltoall;
        for (int p = 0; p < nprocs; ++p)
          per[static_cast<std::size_t>(p)].push_back({p, coll, -1, v, 0, 0});
        break;
      }
    }
  }
  return per;
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Seeds: the env override (TIR_FUZZ_SEED=<n>) reruns one failing case;
/// otherwise a fixed battery keeps the suite deterministic in CI.
std::vector<std::uint64_t> fuzz_seeds() {
  if (const char* env = std::getenv("TIR_FUZZ_SEED"))
    return {std::strtoull(env, nullptr, 0)};
  return {1, 7, 42, 99, 1234, 31337, 0xDEADBEEF};
}

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    RecordProperty("seed", std::to_string(GetParam()));
    std::printf("[ fuzz   ] seed=%llu (rerun: TIR_FUZZ_SEED=%llu)\n",
                static_cast<unsigned long long>(GetParam()),
                static_cast<unsigned long long>(GetParam()));
    dir_ = fs::temp_directory_path() /
           ("tir_codec_fuzz_" + std::to_string(::getpid()) + "_" +
            std::to_string(GetParam()));
    fs::create_directories(dir_);
    program_ = random_program(GetParam(), 6, 40);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::vector<std::vector<Action>> program_;
};

}  // namespace

TEST_P(CodecFuzz, EveryCodecRoundTripsExactly) {
  for (const trace::TraceCodec* codec : trace::all_codecs()) {
    for (int p = 0; p < static_cast<int>(program_.size()); ++p) {
      const auto& actions = program_[static_cast<std::size_t>(p)];
      const fs::path file =
          dir_ / (std::string(codec->name()) + std::to_string(p) + ".trace");
      codec->encode(file, actions, p);
      EXPECT_EQ(trace::read_all(file), actions)
          << codec->name() << " pid " << p;
      // Sniffing must route the file back to the codec that wrote it.
      EXPECT_EQ(trace::codec_for_file(file).name(), codec->name());
    }
  }
}

TEST_P(CodecFuzz, ReEncodingDecodedOutputIsAByteFixpoint) {
  const auto& actions = program_[0];
  for (const trace::TraceCodec* codec : trace::all_codecs()) {
    const fs::path first = dir_ / ("fix1." + std::string(codec->name()));
    const fs::path second = dir_ / ("fix2." + std::string(codec->name()));
    codec->encode(first, actions, 0);
    codec->encode(second, trace::read_all(first), 0);
    EXPECT_EQ(read_bytes(first), read_bytes(second)) << codec->name();
  }
}

TEST_P(CodecFuzz, CrossCodecConversionChainPreservesTheStream) {
  const auto& actions = program_[1];
  // text -> binary -> compact -> text, re-decoding at every hop.
  const auto& text = trace::codec_by_name("text");
  const auto& binary = trace::codec_by_name("binary");
  const auto& compact = trace::codec_by_name("compact");

  const fs::path a = dir_ / "chain.trace";
  const fs::path b = dir_ / "chain.btrace";
  const fs::path c = dir_ / "chain.ctrace";
  const fs::path d = dir_ / "chain2.trace";
  text.encode(a, actions, 1);
  binary.encode(b, trace::read_all(a), 1);
  compact.encode(c, trace::read_all(b), 1);
  text.encode(d, trace::read_all(c), 1);
  EXPECT_EQ(trace::read_all(d), actions);
  // Each hop was decoded by the codec that wrote it.
  EXPECT_EQ(trace::codec_for_file(a).name(), "text");
  EXPECT_EQ(trace::codec_for_file(b).name(), "binary");
  EXPECT_EQ(trace::codec_for_file(c).name(), "compact");
  EXPECT_EQ(trace::codec_for_file(d).name(), "text");
  EXPECT_EQ(read_bytes(a), read_bytes(d));
}

TEST_P(CodecFuzz, ValidateVerdictIsStableAcrossFormats) {
  const auto memory_report =
      trace::validate(trace::TraceSet::in_memory(program_));
  EXPECT_TRUE(memory_report.ok) << memory_report.render();
  EXPECT_EQ(memory_report.nprocs, 6);

  for (const trace::TraceCodec* codec : trace::all_codecs()) {
    std::vector<fs::path> files;
    for (int p = 0; p < static_cast<int>(program_.size()); ++p) {
      files.push_back(dir_ / ("val" + std::to_string(p) + "." +
                              std::string(codec->name())));
      codec->encode(files.back(), program_[static_cast<std::size_t>(p)], p);
    }
    const auto report =
        trace::validate(trace::TraceSet::per_process_files(files));
    EXPECT_EQ(report.ok, memory_report.ok) << codec->name();
    EXPECT_EQ(report.actions, memory_report.actions) << codec->name();
    EXPECT_EQ(report.issues.size(), memory_report.issues.size())
        << codec->name();
  }

  // A consistent program truncates to itself.
  const auto cut =
      trace::truncate_consistent(trace::TraceSet::in_memory(program_));
  EXPECT_EQ(cut.dropped, 0u);
  EXPECT_DOUBLE_EQ(cut.coverage, 1.0);
}

namespace {

std::vector<Action> drain(const trace::TraceSet& set, int pid) {
  std::vector<Action> out;
  const auto source = set.open(pid);
  while (const auto a = source->next()) out.push_back(*a);
  return out;
}

}  // namespace

TEST_P(CodecFuzz, StreamedDecodeIsElementIdenticalEveryCodec) {
  for (const trace::TraceCodec* codec : trace::all_codecs()) {
    std::vector<fs::path> files;
    for (int p = 0; p < static_cast<int>(program_.size()); ++p) {
      files.push_back(dir_ / ("stream" + std::to_string(p) + "." +
                              std::string(codec->name())));
      codec->encode(files.back(), program_[static_cast<std::size_t>(p)], p);
    }
    const auto mat = trace::TraceSet::per_process_files(
        files, trace::DecodeMode::strict, trace::DecodePolicy::materialise);
    const auto str = trace::TraceSet::per_process_files(
        files, trace::DecodeMode::strict, trace::DecodePolicy::stream);
    ASSERT_TRUE(str.streaming()) << codec->name();
    for (int p = 0; p < static_cast<int>(program_.size()); ++p) {
      EXPECT_EQ(drain(mat, p), drain(str, p))
          << codec->name() << " pid " << p;
      EXPECT_EQ(mat.action_count(p), str.action_count(p)) << codec->name();
    }
    EXPECT_EQ(trace::digest(mat), trace::digest(str)) << codec->name();
    EXPECT_EQ(mat.stats().actions, str.stats().actions) << codec->name();
  }
}

TEST_P(CodecFuzz, StreamedLenientSalvageMatchesMaterialised) {
  // Truncate each codec's encoding of one stream at a random byte and
  // lenient-decode both ways: the streaming index must pick exactly the
  // same salvage point — same kept prefix, same bytes_consumed, same error
  // text (text and binary keep the records before the cut, compact the
  // loop blocks before it).
  Rng rng(GetParam() ^ 0x5a11a6e);
  for (const trace::TraceCodec* codec : trace::all_codecs()) {
    const auto& actions = program_[0];
    const fs::path whole =
        dir_ / ("salvage_whole." + std::string(codec->name()));
    codec->encode(whole, actions, 0);
    const std::string bytes = read_bytes(whole);
    ASSERT_GT(bytes.size(), 2u);
    const std::size_t cut =
        1 + static_cast<std::size_t>(rng.next_below(
                static_cast<std::uint64_t>(bytes.size() - 1)));
    const fs::path trunc =
        dir_ / ("salvage_cut." + std::string(codec->name()));
    {
      std::ofstream out(trunc, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    SCOPED_TRACE(std::string(codec->name()) + " cut at " +
                 std::to_string(cut) + "/" + std::to_string(bytes.size()));

    const auto mat = trace::TraceSet::per_process_files(
        {trunc}, trace::DecodeMode::lenient,
        trace::DecodePolicy::materialise);
    const auto str = trace::TraceSet::per_process_files(
        {trunc}, trace::DecodeMode::lenient, trace::DecodePolicy::stream);

    EXPECT_EQ(drain(mat, 0), drain(str, 0));
    EXPECT_EQ(trace::digest(mat), trace::digest(str));

    const auto msal = mat.salvage_report();
    const auto ssal = str.salvage_report();
    ASSERT_EQ(msal.size(), 1u);
    ASSERT_EQ(ssal.size(), 1u);
    EXPECT_EQ(msal[0].complete, ssal[0].complete);
    EXPECT_EQ(msal[0].error, ssal[0].error);
    EXPECT_EQ(msal[0].bytes_consumed, ssal[0].bytes_consumed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::ValuesIn(fuzz_seeds()));

// A non-finite volume never decodes, whichever codec carried it and
// whichever decoder reads it: `p0 compute nan` must not replay to a
// simulated time of nan.
TEST(CodecEdgeCases, NonFiniteVolumesAreRejectedEveryCodec) {
  const fs::path dir = fs::temp_directory_path() /
                       ("tir_nonfinite_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const double kInf = std::numeric_limits<double>::infinity();
  for (const double v :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    const std::vector<Action> actions = {
        {0, ActionType::comm_size, -1, 0, 0, 1},
        {0, ActionType::compute, -1, v, 0, 0}};
    for (const trace::TraceCodec* codec : trace::all_codecs()) {
      SCOPED_TRACE(std::string(codec->name()) + " " + std::to_string(v));
      const fs::path file = dir / ("nonfinite." + std::string(codec->name()));
      codec->encode(file, actions, 0);
      EXPECT_THROW(trace::read_all(file), ParseError);
      const auto streamed = trace::TraceSet::per_process_files(
          {file}, trace::DecodeMode::strict, trace::DecodePolicy::stream);
      EXPECT_THROW(drain(streamed, 0), ParseError);
    }
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Numeric edge cases. Each case is a hand-made file of one codec; it must
// decode to the same outcome under both decode policies — the same
// exception type and message, or the same actions.

namespace {

/// What decoding a one-process file produced.
struct Outcome {
  std::string error;  ///< "<type>: <message>"; empty when it decoded
  std::vector<Action> actions;

  bool operator==(const Outcome&) const = default;
};

Outcome decode_outcome(const fs::path& file, trace::DecodePolicy policy) {
  Outcome out;
  try {
    const auto set = trace::TraceSet::per_process_files(
        {file}, trace::DecodeMode::strict, policy);
    out.actions = drain(set, 0);
  } catch (const IoError& e) {
    out.error = std::string("IoError: ") + e.what();
  } catch (const ParseError& e) {
    out.error = std::string("ParseError: ") + e.what();
  } catch (const Error& e) {
    out.error = std::string("Error: ") + e.what();
  }
  return out;
}

/// Decodes `file` under both policies, expects them to agree, and returns
/// the (shared) outcome.
Outcome decode_both(const fs::path& file) {
  const Outcome mat =
      decode_outcome(file, trace::DecodePolicy::materialise);
  const Outcome str = decode_outcome(file, trace::DecodePolicy::stream);
  EXPECT_EQ(mat.error, str.error) << file;
  EXPECT_EQ(mat.actions, str.actions) << file;
  return mat;
}

std::string varint(std::uint64_t value) {
  std::string out;
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
  return out;
}

std::string raw_double(double v) {
  std::string out(sizeof v, '\0');
  std::memcpy(out.data(), &v, sizeof v);
  return out;
}

/// A binary file with per-record pids holding `records` verbatim.
std::string binary_file(const std::string& records) {
  return std::string("TIRB") + '\x01' + varint(0) + records;
}

/// A compact file for pid 0 with one block: `repeat` x the body lines.
std::string compact_file(std::uint64_t repeat,
                         const std::vector<std::string>& body) {
  std::string out = std::string("TIRC") + '\x01' + varint(0) + varint(1) +
                    varint(repeat) + varint(body.size());
  for (const std::string& line : body) out += varint(line.size()) + line;
  return out;
}

constexpr char kSend = static_cast<char>(ActionType::send);
constexpr char kComputeDouble = 0x10;  // compute, volume stored as a double
constexpr char kCommSize = static_cast<char>(ActionType::comm_size);

class CodecNumericEdges : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tir_numeric_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path write(const std::string& name, const std::string& bytes) {
    const fs::path file = dir_ / name;
    std::ofstream(file, std::ios::binary) << bytes;
    return file;
  }

  /// Expects a ParseError under both policies whose message contains each
  /// of `parts`.
  void expect_rejected(const fs::path& file,
                       const std::vector<std::string>& parts) {
    const Outcome out = decode_both(file);
    EXPECT_EQ(out.error.rfind("ParseError: " + file.string(), 0), 0u)
        << out.error;
    for (const std::string& part : parts)
      EXPECT_NE(out.error.find(part), std::string::npos)
          << "'" << part << "' not in " << out.error;
  }

  fs::path dir_;
};

}  // namespace

// Integer fields that do not fit their type are decode errors naming the
// file and the line or byte offset; they must never wrap (p4294967297 is
// not p1). One test per codec.
TEST_F(CodecNumericEdges, TextIntegersPastIntMaxAreRejected) {
  expect_rejected(write("partner.trace", "p0 send p4294967297 100\n"),
                  {":1: ", "partner '4294967297' out of range"});
  expect_rejected(write("pid.trace", "p0 compute 1\np2147483648 compute 5\n"),
                  {":2: ", "process id '2147483648' out of range"});
  expect_rejected(write("comm.trace", "p0 comm_size 4294967298\n"),
                  {":1: ", "comm_size '4294967298' out of range"});
  expect_rejected(write("huge.trace", "p0 comm_size 99999999999999999999\n"),
                  {":1: ", "invalid integer"});
  // INT_MAX itself fits.
  const Outcome max = decode_both(write("max.trace", "p0 send p2147483647 1\n"));
  ASSERT_EQ(max.error, "");
  EXPECT_EQ(max.actions.at(0).partner, 2147483647);
}

TEST_F(CodecNumericEdges, BinaryIntegersPastIntMaxAreRejected) {
  // Offsets name the record's first byte: the header is 6 bytes long.
  expect_rejected(
      write("partner.btrace", binary_file(std::string(1, kSend) + varint(0) +
                                          varint(4294967297ull) + varint(100))),
      {": byte 6: ", "partner 4294967297 out of range"});
  expect_rejected(
      write("pid.btrace",
            binary_file(std::string(1, kSend) + varint(2147483648ull))),
      {": byte 6: ", "process id 2147483648 out of range"});
  expect_rejected(write("comm.btrace",
                        binary_file(std::string(1, kCommSize) + varint(0) +
                                    varint(4294967298ull))),
                  {": byte 6: ", "comm_size 4294967298 out of range"});
  expect_rejected(write("header.btrace", std::string("TIRB") + '\x01' +
                                             varint(4294967297ull)),
                  {": byte 5: ", "header process id 4294967296 out of range"});
}

TEST_F(CodecNumericEdges, CompactRepeatCountsPastUint32AreRejected) {
  // The block header starts at byte 7 (magic, version, pid, block count).
  expect_rejected(write("repeat.ctrace",
                        compact_file(4294967297ull, {"p0 compute 5"})),
                  {": byte 7: ", "repeat count 4294967297 out of range"});
  expect_rejected(write("max64.ctrace", compact_file(UINT64_MAX, {})),
                  {": byte 7: ", "out of range"});
  // The largest count that fits, over an empty body, expands to nothing
  // (a non-empty body would expand to 4e9 actions).
  const Outcome fits = decode_both(write("u32.ctrace", compact_file(UINT32_MAX, {})));
  EXPECT_EQ(fits.error, "");
  EXPECT_TRUE(fits.actions.empty());
  // Integer fields inside a body line follow the text rules.
  expect_rejected(write("partner.ctrace",
                        compact_file(2, {"p0 send p4294967297 100"})),
                  {"partner '4294967297' out of range"});
}

TEST_F(CodecNumericEdges, NonFiniteAndOverflowingVolumesAreRejected) {
  for (const char* v : {"nan", "inf", "-inf", "1e999"}) {
    SCOPED_TRACE(v);
    const std::string line = std::string("p0 compute ") + v;
    expect_rejected(write("v.trace", line + "\n"), {":1: "});
    expect_rejected(write("v.ctrace", compact_file(3, {line})), {": byte "});
  }
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    expect_rejected(
        write("v.btrace", binary_file(std::string(1, kComputeDouble) +
                                      varint(0) + raw_double(v))),
        {": byte 6: ", "non-finite double"});
  }
}

TEST_F(CodecNumericEdges, VarintOverflowIsRejected) {
  // Eleven bytes, and ten bytes whose last one carries more than bit 63.
  const std::string eleven = std::string(10, '\xFF') + '\x01';
  const std::string ten = std::string(9, '\xFF') + '\x02';
  for (const std::string& bad : {eleven, ten}) {
    expect_rejected(write("v.btrace", binary_file(std::string(1, kSend) +
                                                  varint(0) + varint(1) + bad)),
                    {": byte 6: ", "varint overflow"});
    expect_rejected(write("v.ctrace", std::string("TIRC") + '\x01' +
                                          varint(0) + varint(1) + bad),
                    {": byte 7: ", "varint overflow"});
  }
  // 2^64 - 1 is the largest varint: a valid (if enormous) volume.
  const Outcome max = decode_both(write(
      "max.btrace", binary_file(std::string(1, kSend) + varint(0) + varint(1) +
                                varint(UINT64_MAX))));
  ASSERT_EQ(max.error, "");
  EXPECT_EQ(max.actions.at(0).volume, 18446744073709551615.0);
}

TEST_F(CodecNumericEdges, NegativeZeroReadsAsZeroEveryCodec) {
  // One behaviour for -0 across the three codecs: it decodes as +0.
  const std::vector<fs::path> files = {
      write("z.trace", "p0 compute -0\np0 reduce -0 -0.0\n"),
      write("z.btrace", binary_file(std::string(1, kComputeDouble) +
                                    varint(0) + raw_double(-0.0))),
      write("z.ctrace", compact_file(2, {"p0 compute -0"})),
  };
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    const Outcome out = decode_both(file);
    ASSERT_EQ(out.error, "");
    ASSERT_FALSE(out.actions.empty());
    for (const Action& a : out.actions) {
      EXPECT_EQ(a.volume, 0.0);
      EXPECT_FALSE(std::signbit(a.volume));
      EXPECT_FALSE(std::signbit(a.volume2));
    }
  }
}

TEST_F(CodecNumericEdges, NegativeVolumesAreRejectedEveryCodec) {
  expect_rejected(write("n.trace", "p0 compute -5\n"), {"negative volume"});
  expect_rejected(write("n.btrace", binary_file(std::string(1, kComputeDouble) +
                                                varint(0) + raw_double(-5.0))),
                  {": byte 6: ", "negative volume"});
  expect_rejected(write("n.ctrace", compact_file(2, {"p0 compute -5"})),
                  {"negative volume"});
}
