#include "trace/binary_format.hpp"

#include <cmath>
#include <cstring>

#include "support/error.hpp"
#include "trace/text_format.hpp"

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
  put_varint(pid < 0 ? 0 : static_cast<std::uint64_t>(pid) + 1);
}

BinaryTraceWriter::~BinaryTraceWriter() {
  if (!closed_) close();
}

void BinaryTraceWriter::put_varint(std::uint64_t value) {
  while (value >= 0x80) {
    buffer_.push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  buffer_.push_back(static_cast<char>(value));
}

void BinaryTraceWriter::put_double(double value) {
  char raw[sizeof(double)];
  std::memcpy(raw, &value, sizeof(double));
  buffer_.append(raw, sizeof(double));
}

void BinaryTraceWriter::maybe_flush() {
  if (buffer_.size() >= kFlushThreshold) {
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    bytes_ += buffer_.size();
    buffer_.clear();
  }
}

void BinaryTraceWriter::write(const Action& a) {
  std::uint8_t tag = static_cast<std::uint8_t>(a.type);
  const bool v_double = !integral_volume(a.volume);
  const bool v2_double = !integral_volume(a.volume2);
  if (v_double) tag |= kVolumeIsDouble;
  if (v2_double) tag |= kVolume2IsDouble;
  buffer_.push_back(static_cast<char>(tag));
  if (default_pid_ < 0) put_varint(static_cast<std::uint64_t>(a.pid));

  const auto put_volume = [&](double v, bool as_double) {
    if (as_double)
      put_double(v);
    else
      put_varint(static_cast<std::uint64_t>(v));
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
      put_varint(static_cast<std::uint64_t>(a.partner));
      put_volume(a.volume, v_double);
      break;
    case ActionType::reduce:
    case ActionType::allreduce:
      put_volume(a.volume, v_double);
      put_volume(a.volume2, v2_double);
      break;
    case ActionType::comm_size:
      put_varint(static_cast<std::uint64_t>(a.comm_size));
      break;
    case ActionType::barrier:
    case ActionType::wait:
    case ActionType::waitall:
      break;
  }
  maybe_flush();
}

std::uint64_t BinaryTraceWriter::close() {
  if (closed_) return bytes_;
  if (!buffer_.empty()) {
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    bytes_ += buffer_.size();
    buffer_.clear();
  }
  out_.close();
  closed_ = true;
  return bytes_;
}

BinaryTraceReader::BinaryTraceReader(const std::filesystem::path& path)
    : in_(path, std::ios::binary), path_(path), default_pid_(-1) {
  if (!in_) throw IoError("cannot open binary trace '" + path.string() + "'");
  char magic[4];
  in_.read(magic, 4);
  if (in_.gcount() != 4 || std::memcmp(magic, kBinaryMagic, 4) != 0)
    throw ParseError(path.string() + ": not a binary TIR trace");
  const int version = in_.get();
  if (version != kBinaryVersion)
    throw ParseError(path.string() + ": unsupported binary trace version " +
                     std::to_string(version));
  const std::uint64_t pid_plus_1 = get_varint();
  default_pid_ = pid_plus_1 == 0 ? -1 : static_cast<int>(pid_plus_1 - 1);
}

std::uint64_t BinaryTraceReader::byte_offset() {
  const auto pos = in_.tellg();
  return pos < 0 ? 0 : static_cast<std::uint64_t>(pos);
}

void BinaryTraceReader::seek(std::uint64_t offset) {
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(offset));
}

std::uint64_t BinaryTraceReader::get_varint() {
  std::uint64_t value = 0;
  int shift = 0;
  for (;;) {
    const int byte = in_.get();
    if (byte == EOF)
      throw ParseError(path_.string() + ": truncated varint");
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
    if (shift > 63) throw ParseError(path_.string() + ": varint overflow");
  }
}

double BinaryTraceReader::get_double() {
  char raw[sizeof(double)];
  in_.read(raw, sizeof(double));
  if (in_.gcount() != sizeof(double))
    throw ParseError(path_.string() + ": truncated double");
  double value;
  std::memcpy(&value, raw, sizeof(double));
  if (!std::isfinite(value))
    throw ParseError(path_.string() + ": non-finite double");
  return value;
}

std::optional<Action> BinaryTraceReader::next() {
  const int tag_byte = in_.get();
  if (tag_byte == EOF) return std::nullopt;
  const auto tag = static_cast<std::uint8_t>(tag_byte);
  const auto type_raw = static_cast<int>(tag & 0x0F);
  if (type_raw > static_cast<int>(ActionType::waitall))
    throw ParseError(path_.string() + ": corrupt action tag");
  Action a;
  a.type = static_cast<ActionType>(type_raw);
  a.pid = default_pid_ >= 0 ? default_pid_
                            : static_cast<int>(get_varint());

  const auto get_volume = [&](bool as_double) {
    return as_double ? get_double() : static_cast<double>(get_varint());
  };
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
      a.partner = static_cast<int>(get_varint());
      a.volume = get_volume(v_double);
      break;
    case ActionType::reduce:
    case ActionType::allreduce:
      a.volume = get_volume(v_double);
      a.volume2 = get_volume(v2_double);
      break;
    case ActionType::comm_size:
      a.comm_size = static_cast<int>(get_varint());
      break;
    case ActionType::barrier:
    case ActionType::wait:
    case ActionType::waitall:
      break;
  }
  return a;
}

bool is_binary_trace(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[4];
  in.read(magic, 4);
  return in.gcount() == 4 && std::memcmp(magic, kBinaryMagic, 4) == 0;
}

std::uint64_t text_to_binary(const std::filesystem::path& text_in,
                             const std::filesystem::path& binary_out) {
  TextTraceReader reader(text_in);
  // Probe the first action to decide whether a single pid covers the file.
  std::vector<Action> actions;
  while (auto a = reader.next()) actions.push_back(*a);
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
  BinaryTraceReader reader(binary_in);
  TextTraceWriter writer(text_out);
  while (auto a = reader.next()) writer.write(*a);
  return writer.close();
}

}  // namespace tir::trace
