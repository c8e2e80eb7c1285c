#include "comm/wire.hpp"

#include <cstring>

namespace fp::comm {

// ---- FrameWriter ------------------------------------------------------------

void FrameWriter::raw(const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  buf_.insert(buf_.end(), b, b + n);
}

void FrameWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(s.data(), s.size());
}

void FrameWriter::bytes(const std::vector<std::uint8_t>& b) {
  u64(b.size());
  raw(b.data(), b.size());
}

void FrameWriter::blob(const nn::ParamBlob& b) {
  u64(b.size());
  raw(b.data(), b.size() * sizeof(float));
}

void FrameWriter::wire_msg(const WireMessage& msg) {
  u8(static_cast<std::uint8_t>(msg.kind));
  u8(msg.delta ? 1 : 0);
  u64(msg.num_elems);
  bytes(msg.payload);
}

// ---- FrameReader ------------------------------------------------------------

void FrameReader::raw(void* p, std::size_t n) {
  if (size_ - off_ < n) throw WireError("frame truncated");
  if (n == 0) return;  // an empty container's data() may be null
  std::memcpy(p, p_ + off_, n);
  off_ += n;
}

std::size_t FrameReader::checked_count(std::uint64_t count,
                                       std::size_t elem_size) {
  if (count > (size_ - off_) / (elem_size ? elem_size : 1))
    throw WireError("frame container length exceeds frame size");
  return static_cast<std::size_t>(count);
}

std::uint8_t FrameReader::u8() {
  std::uint8_t v;
  raw(&v, sizeof(v));
  return v;
}

std::uint32_t FrameReader::u32() {
  std::uint32_t v;
  raw(&v, sizeof(v));
  return v;
}

std::uint64_t FrameReader::u64() {
  std::uint64_t v;
  raw(&v, sizeof(v));
  return v;
}

std::int64_t FrameReader::i64() {
  std::int64_t v;
  raw(&v, sizeof(v));
  return v;
}

float FrameReader::f32() {
  float v;
  raw(&v, sizeof(v));
  return v;
}

double FrameReader::f64() {
  double v;
  raw(&v, sizeof(v));
  return v;
}

std::string FrameReader::str() {
  const std::size_t n = checked_count(u32(), 1);
  std::string s(n, '\0');
  raw(s.data(), n);
  return s;
}

std::vector<std::uint8_t> FrameReader::bytes() {
  const std::size_t n = checked_count(u64(), 1);
  std::vector<std::uint8_t> b(n);
  raw(b.data(), n);
  return b;
}

nn::ParamBlob FrameReader::blob() {
  const std::size_t n = checked_count(u64(), sizeof(float));
  nn::ParamBlob b(n);
  raw(b.data(), n * sizeof(float));
  return b;
}

WireMessage FrameReader::wire_msg() {
  WireMessage msg;
  const std::uint8_t kind = u8();
  if (kind > static_cast<std::uint8_t>(CodecKind::kTopK))
    throw WireError("frame carries an unknown codec kind");
  msg.kind = static_cast<CodecKind>(kind);
  msg.delta = u8() != 0;
  msg.num_elems = u64();
  msg.payload = bytes();
  return msg;
}

}  // namespace fp::comm
