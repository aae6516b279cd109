#include "ohpx/protocol/tcp_proto.hpp"

#include "ohpx/common/error.hpp"
#include "ohpx/trace/trace.hpp"
#include "ohpx/transport/reactor.hpp"

namespace ohpx::proto {

bool TcpProtocol::applicable(const CallTarget& target) const {
  return target.address.tcp_port != 0 && !target.address.tcp_host.empty();
}

ReplyMessage TcpProtocol::invoke(const wire::MessageHeader& header,
                                 wire::Buffer& payload,
                                 const CallTarget& target, CostLedger& ledger) {
  // Sync bridge over the reactor: submit, then park on the future.  The
  // reactor throws backpressure/deadline refusals synchronously (before
  // anything is queued) and surfaces wire-level failures through the
  // future — either way they leave this frame as ordinary exceptions for
  // the retry/breaker machinery above.
  trace::Span span(trace::SpanKind::transport, "proto.tcp");
  Future<transport::RawReply> future = transport::Reactor::global().submit(
      target.address.tcp_host, target.address.tcp_port, header,
      payload.view());
  ledger.add_bytes_sent(wire::kHeaderSize + payload.size());
  transport::RawReply raw;
  {
    ScopedRealTime timer(ledger);
    try {
      raw = future.get();
    } catch (const TransportError& e) {
      // A cached connection gone stale (server restarted / migrated)
      // fails the call once; retry once and the reactor re-dials the
      // reaped connection fresh.  Backpressure is not staleness — it must
      // surface unretried for the caller to pace.
      if (e.code() == ErrorCode::backpressure) throw;
      trace::event("retry.reconnect", "stale tcp connection dropped");
      raw = transport::Reactor::global()
                .submit(target.address.tcp_host, target.address.tcp_port,
                        header, payload.view())
                .get();
    }
  }
  ledger.add_bytes_received(raw.frame_size);
  // The reactor already decoded the frame (header, body, CRC) on its loop
  // thread to demultiplex by correlation id; RawReply *is* ReplyMessage.
  check_reply(raw.header, header.request_id);
  return raw;
}

Future<ReplyMessage> TcpProtocol::invoke_async(
    const wire::MessageHeader& header, wire::Buffer& payload,
    const CallTarget& target) {
  // The reactor's future passes through with no map stage — no
  // shared-state allocation, no extra settlement, no type-erased
  // continuation per call.  The reply check happens in the invocation
  // layer's settlement (CallCore::finish_async_reply).
  return transport::Reactor::global().submit(
      target.address.tcp_host, target.address.tcp_port, header,
      payload.view());
}

}  // namespace ohpx::proto
