// The engine-owned communication channel: every server->client broadcast and
// client->server upload of the federated runtime is routed through here. The
// channel applies the configured wire codec (encode immediately followed by
// decode — the simulation has no real network, but the lossy round-trip and
// the byte counts are exactly what a deployment would see) and exposes the
// NetworkModel the schedulers price transfers with.
//
// All methods are const and thread-safe: uplinks may run concurrently from
// client worker threads (the engine aggregates byte counts on its own
// thread), and the only state they write is the calling thread's WireTape.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "comm/codec.hpp"
#include "comm/network.hpp"

namespace fp::comm {

/// The WireMessages one end of a distributed run puts on the wire. While a
/// tape is bound to a thread (WireTape::Scope), every Channel::downlink and
/// ::uplink that thread runs appends the message it encoded — IdentityCodec
/// framing on the identity fast paths — so methods never see the transport:
/// the root records a dispatch's broadcasts around begin_dispatch, a worker
/// records each client's uploads around train_client (DESIGN.md §10).
struct WireTape {
  std::vector<WireMessage> messages;
  /// Record each transfer as IdentityCodec(decoded blob) instead of the
  /// codec's own encoding (net.codec=identity: dense fp32 on the socket,
  /// while byte accounting still models the configured codec).
  bool record_decoded = false;

  /// Binds `tape` to the calling thread for the scope's lifetime (nullptr
  /// binds nothing); the previous binding is restored on exit.
  class Scope {
   public:
    explicit Scope(WireTape* tape);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    WireTape* saved_;
  };
};

class Channel {
 public:
  explicit Channel(const CommConfig& cfg);

  const NetworkModel& network() const { return net_; }

  /// True when the configured codec round-trips bit-exactly (IdentityCodec):
  /// callers that serialize state solely to push it through the channel may
  /// skip the re-load, since the decoded blob is the one they encoded.
  bool lossless() const { return codec_->kind() == CodecKind::kIdentity; }

  /// Server->client broadcast: returns the blob as the client receives it and
  /// adds the framed wire size to *wire_bytes (if given). Dense (identity
  /// framing) unless `compress_downlink` is set; TopK downlinks always stay
  /// dense — without a client-side reference a sparsified broadcast would
  /// zero most of the model. Appends the message to the bound WireTape.
  nn::ParamBlob downlink(nn::ParamBlob blob, std::int64_t* wire_bytes) const;

  /// Client->server upload: returns the blob as the server decodes it and
  /// adds the framed wire size to *wire_bytes (if given). `ref` is the blob
  /// both ends already share (the broadcast the client trained from); TopK
  /// delta selection measures magnitudes against it and fills unsent
  /// coordinates from it. Appends the message to the bound WireTape.
  nn::ParamBlob uplink(nn::ParamBlob blob, const nn::ParamBlob* ref,
                       std::int64_t* wire_bytes) const;

  // ---- Receiver half for the distributed runtime (DESIGN.md §10) -----------
  // downlink()/uplink() fuse encode+decode because the simulation has both
  // ends in one process. Over a real socket the sender records the encoded
  // messages on a WireTape and the receiver decodes them here: decode(msg,
  // ref) of a recorded message is bit-identical to the fused path's result.

  /// Decodes any message by its own codec kind — messages are
  /// self-describing, so the receiver needs no out-of-band codec agreement.
  /// `ref` must be the reference blob the encoder used (nullptr for none).
  nn::ParamBlob decode(const WireMessage& msg,
                       const nn::ParamBlob* ref = nullptr) const;

 private:
  static std::int64_t dense_wire_bytes(const nn::ParamBlob& blob);
  /// The shared body of downlink/uplink: identity framing when `dense`, the
  /// configured codec otherwise; records on the thread's WireTape, if bound,
  /// inside a `tape_span` trace span.
  nn::ParamBlob transfer(nn::ParamBlob blob, const nn::ParamBlob* ref,
                         bool dense, std::int64_t* wire_bytes,
                         const char* tape_span) const;

  CommConfig cfg_;
  std::unique_ptr<BlobCodec> codec_;
  NetworkModel net_;
};

}  // namespace fp::comm
