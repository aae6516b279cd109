#include "ohpx/protocol/relay.hpp"

#include "ohpx/common/error.hpp"
#include "ohpx/trace/trace.hpp"
#include "ohpx/wire/decoder.hpp"
#include "ohpx/wire/encoder.hpp"

namespace ohpx::proto {

RelayForwarder::RelayForwarder(std::string gateway_endpoint)
    : endpoint_(std::move(gateway_endpoint)) {
  transport::EndpointRegistry::instance().bind(
      endpoint_, [this](const wire::Buffer& envelope) { return handle(envelope); });
}

RelayForwarder::~RelayForwarder() {
  transport::EndpointRegistry::instance().unbind(endpoint_);
}

std::uint64_t RelayForwarder::forwarded() const noexcept {
  return forwarded_.load(std::memory_order_relaxed);
}

wire::Buffer RelayForwarder::wrap(const std::string& target_endpoint,
                                  const wire::Buffer& inner_frame) {
  wire::Buffer envelope;
  envelope.reserve(4 + target_endpoint.size() + inner_frame.size());
  wire::Encoder enc(envelope);
  enc.put_string(target_endpoint);
  enc.put_raw(inner_frame.view());
  return envelope;
}

wire::Buffer RelayForwarder::handle(const wire::Buffer& envelope) {
  wire::Decoder dec(envelope.view());
  const std::string target = dec.get_string();
  const BytesView inner = dec.get_raw(dec.remaining());

  forwarded_.fetch_add(1, std::memory_order_relaxed);
  transport::InProcChannel channel(target);
  CostLedger ledger;  // the gateway's own cost is not the caller's concern
  return channel.roundtrip(wire::Buffer(inner.data(), inner.size()), ledger);
}

RelayProtocol::RelayProtocol(std::string gateway_endpoint)
    : gateway_endpoint_(std::move(gateway_endpoint)) {
  if (gateway_endpoint_.empty()) {
    throw ProtocolError(ErrorCode::protocol_bad_proto_data,
                        "relay protocol needs a gateway endpoint");
  }
}

bool RelayProtocol::applicable(const CallTarget& target) const {
  return !target.address.endpoint.empty() &&
         transport::EndpointRegistry::instance().contains(gateway_endpoint_);
}

ReplyMessage RelayProtocol::invoke(const wire::MessageHeader& header,
                                   wire::Buffer& payload,
                                   const CallTarget& target,
                                   CostLedger& ledger) {
  trace::Span span(trace::SpanKind::transport, "proto.relay");
  wire::Buffer inner_frame;
  {
    ScopedRealTime timer(ledger);
    inner_frame = wire::encode_frame(header, payload.view());
  }
  const wire::Buffer envelope =
      RelayForwarder::wrap(target.address.endpoint, inner_frame);

  transport::InProcChannel channel(gateway_endpoint_);
  wire::Buffer reply_frame = channel.roundtrip(envelope, ledger);

  ScopedRealTime timer(ledger);
  BytesView body;
  ReplyMessage reply;
  reply.header = wire::decode_frame(reply_frame.view(), body);
  check_reply(reply.header, header.request_id);
  reply.payload = wire::Buffer(body.data(), body.size());
  return reply;
}

std::string RelayProtocol::describe() const {
  return "relay[" + gateway_endpoint_ + "]";
}

Bytes RelayProtocol::make_proto_data(const std::string& gateway_endpoint) {
  return bytes_of(gateway_endpoint);
}

}  // namespace ohpx::proto
