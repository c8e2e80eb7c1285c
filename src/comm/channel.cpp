#include "comm/channel.hpp"

#include <optional>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fp::comm {

namespace {
thread_local WireTape* tls_tape = nullptr;
}  // namespace

WireTape::Scope::Scope(WireTape* tape) : saved_(tls_tape) { tls_tape = tape; }
WireTape::Scope::~Scope() { tls_tape = saved_; }

Channel::Channel(const CommConfig& cfg)
    : cfg_(cfg), codec_(make_codec(cfg)), net_(cfg.model_network) {}

std::int64_t Channel::dense_wire_bytes(const nn::ParamBlob& blob) {
  return static_cast<std::int64_t>(blob.size() * sizeof(float)) +
         static_cast<std::int64_t>(WireMessage::kHeaderBytes);
}

nn::ParamBlob Channel::downlink(nn::ParamBlob blob,
                                std::int64_t* wire_bytes) const {
  obs::PhaseTimer encode_phase(obs::Phase::kEncode);
  FP_TRACE_SCOPE_ARG("downlink", "comm", "floats",
                     static_cast<std::int64_t>(blob.size()));
  const bool dense = !cfg_.compress_downlink ||
                     codec_->kind() == CodecKind::kIdentity ||
                     codec_->kind() == CodecKind::kTopK;
  return transfer(std::move(blob), nullptr, dense, wire_bytes, "encode_down");
}

nn::ParamBlob Channel::uplink(nn::ParamBlob blob, const nn::ParamBlob* ref,
                              std::int64_t* wire_bytes) const {
  obs::PhaseTimer encode_phase(obs::Phase::kEncode);
  FP_TRACE_SCOPE_ARG("uplink", "comm", "floats",
                     static_cast<std::int64_t>(blob.size()));
  return transfer(std::move(blob), ref, codec_->kind() == CodecKind::kIdentity,
                  wire_bytes, "encode_up");
}

nn::ParamBlob Channel::transfer(nn::ParamBlob blob, const nn::ParamBlob* ref,
                                bool dense, std::int64_t* wire_bytes,
                                const char* tape_span) const {
  WireTape* tape = tls_tape;
  // A transfer recorded for the socket is a span of its own: the wire
  // encoding a distributed run pays on top of the fused path.
  std::optional<obs::SpanScope> recording;
  if (tape) recording.emplace(tape_span, "comm");
  if (dense) {
    // Identity framing: skip the encode/decode copy, the bytes are the
    // dense fp32 payload either way and the values are bit-identical (the
    // fast path that keeps golden hashes exact).
    if (wire_bytes) *wire_bytes += dense_wire_bytes(blob);
    if (tape) tape->messages.push_back(IdentityCodec().encode(blob));
    return blob;
  }
  WireMessage msg = codec_->encode(blob, ref);
  if (wire_bytes) *wire_bytes += msg.wire_bytes();
  nn::ParamBlob out = codec_->decode(msg, ref);
  if (tape)
    tape->messages.push_back(tape->record_decoded ? IdentityCodec().encode(out)
                                                  : std::move(msg));
  return out;
}

nn::ParamBlob Channel::decode(const WireMessage& msg,
                              const nn::ParamBlob* ref) const {
  obs::PhaseTimer encode_phase(obs::Phase::kEncode);
  FP_TRACE_SCOPE("decode", "comm");
  switch (msg.kind) {
    case CodecKind::kIdentity:
      return IdentityCodec().decode(msg);
    case CodecKind::kFp16:
      return Fp16Codec().decode(msg);
    case CodecKind::kInt8:
      return Int8Codec().decode(msg);
    case CodecKind::kTopK:
      // The fraction only steers encode-side selection; decode reads the
      // kept pairs and the delta flag off the message itself.
      return TopKCodec(cfg_.topk_fraction, msg.delta).decode(msg, ref);
  }
  throw std::invalid_argument("Channel::decode: unknown codec kind");
}

}  // namespace fp::comm
