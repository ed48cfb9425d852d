#include "trace/binary_format.hpp"

#include <climits>
#include <cmath>
#include <cstring>

#include "support/error.hpp"
#include "trace/text_format.hpp"
#include "trace/trace_set.hpp"

namespace tir::trace {

namespace {

constexpr std::size_t kFlushThreshold = 1 << 20;
constexpr std::uint8_t kVolumeIsDouble = 0x10;
constexpr std::uint8_t kVolume2IsDouble = 0x20;

bool integral_volume(double v) {
  return v >= 0 && v < 9.007199254740992e15 && v == std::floor(v);
}

}  // namespace

BinaryTraceWriter::BinaryTraceWriter(const std::filesystem::path& path,
                                     int pid)
    : out_(path, std::ios::binary), default_pid_(pid) {
  if (!out_)
    throw IoError("cannot create binary trace '" + path.string() + "'");
  buffer_.reserve(kFlushThreshold + 64);
  buffer_.append(kBinaryMagic, sizeof(kBinaryMagic));
  buffer_.push_back(static_cast<char>(kBinaryVersion));
  append_varint(buffer_, pid < 0 ? 0 : static_cast<std::uint64_t>(pid) + 1);
}

BinaryTraceWriter::~BinaryTraceWriter() {
  if (!closed_) close();
}

void BinaryTraceWriter::put_double(double value) {
  char raw[sizeof(double)];
  std::memcpy(raw, &value, sizeof(double));
  buffer_.append(raw, sizeof(double));
}

void BinaryTraceWriter::flush() {
  out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  bytes_ += buffer_.size();
  buffer_.clear();
}

void BinaryTraceWriter::write(const Action& a) {
  std::uint8_t tag = static_cast<std::uint8_t>(a.type);
  const bool v_double = !integral_volume(a.volume);
  const bool v2_double = !integral_volume(a.volume2);
  if (v_double) tag |= kVolumeIsDouble;
  if (v2_double) tag |= kVolume2IsDouble;
  buffer_.push_back(static_cast<char>(tag));
  if (default_pid_ < 0) append_varint(buffer_, static_cast<std::uint64_t>(a.pid));

  const auto put_volume = [&](double v, bool as_double) {
    if (as_double)
      put_double(v);
    else
      append_varint(buffer_, static_cast<std::uint64_t>(v));
  };

  switch (a.type) {
    case ActionType::compute:
    case ActionType::bcast:
    case ActionType::gather:
    case ActionType::allgather:
    case ActionType::alltoall:
      put_volume(a.volume, v_double);
      break;
    case ActionType::send:
    case ActionType::isend:
    case ActionType::recv:
    case ActionType::irecv:
      append_varint(buffer_, static_cast<std::uint64_t>(a.partner));
      put_volume(a.volume, v_double);
      break;
    case ActionType::reduce:
    case ActionType::allreduce:
      put_volume(a.volume, v_double);
      put_volume(a.volume2, v2_double);
      break;
    case ActionType::comm_size:
      append_varint(buffer_, static_cast<std::uint64_t>(a.comm_size));
      break;
    case ActionType::barrier:
    case ActionType::wait:
    case ActionType::waitall:
      break;
  }
  if (buffer_.size() >= kFlushThreshold) flush();
}

std::uint64_t BinaryTraceWriter::close() {
  if (closed_) return bytes_;
  flush();
  out_.close();
  closed_ = true;
  return bytes_;
}

BinaryTraceReader::BinaryTraceReader(const std::filesystem::path& path)
    : in_(path) {
  const auto magic = in_.take(sizeof(kBinaryMagic));
  if (!magic || std::memcmp(magic->data(), kBinaryMagic, 4) != 0)
    throw ParseError(path.string() + ": not a binary TIR trace");
  const int version = in_.get();
  if (version != kBinaryVersion)
    throw ParseError(path.string() + ": unsupported binary trace version " +
                     std::to_string(version));
  in_.mark();
  const std::uint64_t pid_plus_1 = read_varint(in_);
  if (pid_plus_1 > static_cast<std::uint64_t>(INT_MAX) + 1)
    in_.fail("header process id " + std::to_string(pid_plus_1 - 1) +
             " out of range");
  default_pid_ = pid_plus_1 == 0 ? -1 : static_cast<int>(pid_plus_1 - 1);
}

int BinaryTraceReader::get_int(const char* field) {
  const std::uint64_t value = read_varint(in_);
  if (value > static_cast<std::uint64_t>(INT_MAX))
    in_.fail(std::string(field) + " " + std::to_string(value) +
             " out of range");
  return static_cast<int>(value);
}

double BinaryTraceReader::get_volume(bool as_double) {
  if (!as_double) return static_cast<double>(read_varint(in_));
  const auto raw = in_.take(sizeof(double));
  if (!raw) in_.fail("truncated double");
  double value;
  std::memcpy(&value, raw->data(), sizeof(double));
  if (!std::isfinite(value)) in_.fail("non-finite double");
  if (value < 0) in_.fail("negative volume " + std::to_string(value));
  return value == 0 ? 0.0 : value;  // -0 reads as 0, as in every codec
}

std::optional<Action> BinaryTraceReader::next() {
  in_.mark();
  const int tag_byte = in_.get();
  if (tag_byte < 0) return std::nullopt;
  const auto tag = static_cast<std::uint8_t>(tag_byte);
  const auto type_raw = static_cast<int>(tag & 0x0F);
  if (type_raw > static_cast<int>(ActionType::waitall))
    in_.fail("corrupt action tag");
  Action a;
  a.type = static_cast<ActionType>(type_raw);
  a.pid = default_pid_ >= 0 ? default_pid_ : get_int("process id");

  const bool v_double = (tag & kVolumeIsDouble) != 0;
  const bool v2_double = (tag & kVolume2IsDouble) != 0;

  switch (a.type) {
    case ActionType::compute:
    case ActionType::bcast:
    case ActionType::gather:
    case ActionType::allgather:
    case ActionType::alltoall:
      a.volume = get_volume(v_double);
      break;
    case ActionType::send:
    case ActionType::isend:
    case ActionType::recv:
    case ActionType::irecv:
      a.partner = get_int("partner");
      a.volume = get_volume(v_double);
      break;
    case ActionType::reduce:
    case ActionType::allreduce:
      a.volume = get_volume(v_double);
      a.volume2 = get_volume(v2_double);
      break;
    case ActionType::comm_size:
      a.comm_size = get_int("comm_size");
      break;
    case ActionType::barrier:
    case ActionType::wait:
    case ActionType::waitall:
      break;
  }
  return a;
}

bool is_binary_trace(const std::filesystem::path& path) {
  return starts_with_magic(path, {kBinaryMagic, sizeof(kBinaryMagic)});
}

std::uint64_t text_to_binary(const std::filesystem::path& text_in,
                             const std::filesystem::path& binary_out) {
  const std::vector<Action> actions = read_all(text_in);
  // Factor the pid out when a single one covers the file.
  int pid = actions.empty() ? -1 : actions.front().pid;
  for (const Action& a : actions)
    if (a.pid != pid) {
      pid = -1;
      break;
    }
  BinaryTraceWriter writer(binary_out, pid);
  for (const Action& a : actions) writer.write(a);
  return writer.close();
}

std::uint64_t binary_to_text(const std::filesystem::path& binary_in,
                             const std::filesystem::path& text_out) {
  TextTraceWriter writer(text_out);
  for (const Action& a : read_all(binary_in)) writer.write(a);
  return writer.close();
}

}  // namespace tir::trace
