#include "transport/port.hpp"

#include <cstring>
#include <exception>
#include <new>

#include "common/error.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pbuf/schema.hpp"

namespace morph::transport {

namespace {
using C = MessagePort::PortStats::Id;

/// Process-wide port span histograms (the counters live in each port's
/// CounterSet).
struct PortMetrics {
  obs::Histogram& send_ns = obs::metrics().histogram(obs::Metric::morph_span_ns, {"port.send"});
  obs::Histogram& deliver_ns =
      obs::metrics().histogram(obs::Metric::morph_span_ns, {"port.deliver"});
};

PortMetrics& port_metrics() {
  static PortMetrics* m = new PortMetrics();  // leaked: outlives all ports
  return *m;
}
}  // namespace

MessagePort::MessagePort(Link& link, core::Receiver* receiver)
    : link_(link), receiver_(receiver) {
  link_.set_on_data([this](const uint8_t* data, size_t size) { on_bytes(data, size); });
}

void MessagePort::declare_transform(core::TransformSpec spec) {
  declared_transforms_.push_back(std::move(spec));
  // If the source format already went out, ship the transform immediately
  // so existing peers can use it.
  const auto& s = declared_transforms_.back();
  if (sent_formats_.count(s.src->fingerprint()) != 0) {
    ByteBuffer payload;
    s.serialize(payload);
    ByteBuffer frame;
    write_frame(frame, FrameType::kTransformDef, payload.data(), payload.size());
    link_.send(frame);
    stats_.inc(C::meta_frames_sent);
    stats_.add(C::bytes_sent, frame.size());
  }
}

void MessagePort::send_meta_for(const pbio::FormatPtr& fmt) {
  if (!sent_formats_.insert(fmt->fingerprint()).second) return;

  if (meta_publisher_) {
    std::vector<core::TransformSpec> attached;
    for (const auto& spec : declared_transforms_) {
      if (spec.src->fingerprint() == fmt->fingerprint()) attached.push_back(spec);
    }
    if (meta_publisher_(fmt, attached)) {
      stats_.inc(C::meta_published);
      // Chain targets go out of band too, so a receiver fetching this
      // format can resolve the whole retro-transformation chain.
      for (const auto& spec : attached) send_meta_for(spec.dst);
      return;
    }
    // Publisher declined (service down or entry refused): fall through to
    // inline meta-data frames so this format still reaches the peer.
  }

  ByteBuffer payload;
  fmt->serialize(payload);
  ByteBuffer frame;
  write_frame(frame, FrameType::kFormatDef, payload.data(), payload.size());
  link_.send(frame);
  stats_.inc(C::meta_frames_sent);
  stats_.add(C::bytes_sent, frame.size());

  // Ship every declared transform reachable from this format, walking the
  // retro-transformation chain (Figure 1).
  for (const auto& spec : declared_transforms_) {
    if (spec.src->fingerprint() != fmt->fingerprint()) continue;
    ByteBuffer tp;
    spec.serialize(tp);
    ByteBuffer tf;
    write_frame(tf, FrameType::kTransformDef, tp.data(), tp.size());
    link_.send(tf);
    stats_.inc(C::meta_frames_sent);
    stats_.add(C::bytes_sent, tf.size());
    send_meta_for(spec.dst);  // recurse down the chain
  }
}

void MessagePort::send_record(const pbio::FormatPtr& fmt, const void* record) {
  // With tracing enabled every message gets a trace id — the caller's
  // active one if there is one, else a fresh id — and carries it on the
  // wire so the receiving port (and any broker in between) can correlate
  // its spans with ours.
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  if (obs::tracing_enabled()) {
    trace_id = obs::current_trace().trace_id;
    if (trace_id == 0) {
      trace_id = obs::new_trace_id();
    } else {
      // Inherit the caller's active span so our send span parents under it.
      parent_span = obs::current_trace().span_id;
    }
  }
  obs::TraceScope trace_scope(obs::TraceContext{trace_id, parent_span});
  obs::TraceSpan span("port.send", &port_metrics().send_ns);

  send_meta_for(fmt);
  if (peer_accepts_pbuf_ && pbuf_sendable(fmt)) {
    send_record_pbuf(fmt, record, trace_id);
    return;
  }
  auto it = encoders_.find(fmt->fingerprint());
  if (it == encoders_.end()) {
    it = encoders_.emplace(fmt->fingerprint(), std::make_unique<pbio::Encoder>(fmt)).first;
  }
  ByteBuffer msg;
  it->second->encode(record, msg);
  ByteBuffer frame;
  write_frame(frame, FrameType::kData, msg.data(), msg.size(), trace_id);
  link_.send(frame);
  stats_.inc(C::data_sent);
  stats_.add(C::bytes_sent, frame.size());
}

bool MessagePort::pbuf_sendable(const pbio::FormatPtr& fmt) {
  auto it = pbuf_sendable_.find(fmt->fingerprint());
  if (it == pbuf_sendable_.end()) {
    it = pbuf_sendable_.emplace(fmt->fingerprint(), pbuf::pbuf_encodable(*fmt)).first;
  }
  return it->second;
}

void MessagePort::send_record_pbuf(const pbio::FormatPtr& fmt, const void* record,
                                   uint64_t trace_id) {
  auto it = pbuf_encoders_.find(fmt->fingerprint());
  if (it == pbuf_encoders_.end()) {
    it = pbuf_encoders_.emplace(fmt->fingerprint(), std::make_unique<pbuf::EncodePlan>(fmt))
             .first;
  }
  ByteBuffer frame;
  write_pbuf_frame(frame, *it->second, record, trace_id);
  link_.send(frame);
  stats_.inc(C::data_sent);
  stats_.inc(C::pbuf_sent);
  stats_.add(C::bytes_sent, frame.size());
}

void MessagePort::announce_pbuf() {
  send_control(kPbufEnableSentinel, sizeof(kPbufEnableSentinel) - 1);
}

SharedPayload make_shared_frame(const void* msg, size_t size, uint64_t trace_id) {
  auto frame = std::make_shared<ByteBuffer>();
  write_frame(*frame, FrameType::kData, msg, size, trace_id);
  return frame;
}

void MessagePort::send_shared(const pbio::FormatPtr& fmt, const SharedPayload& frame) {
  obs::TraceSpan span("port.send", &port_metrics().send_ns);
  send_meta_for(fmt);
  link_.send_shared(frame);
  stats_.inc(C::data_sent);
  stats_.add(C::bytes_sent, frame->size());
}

void MessagePort::send_control(const void* data, size_t size) {
  ByteBuffer frame;
  write_frame(frame, FrameType::kControl, data, size);
  link_.send(frame);
  stats_.add(C::control_bytes_sent, frame.size());
}

void MessagePort::on_bytes(const uint8_t* data, size_t size) {
  // A malformed frame (bad type, oversized length, truncated trace
  // header) means the byte stream itself is corrupt: framing never
  // recovers after that, so the port goes wire-dead — every later chunk is
  // dropped — instead of letting TransportError unwind through the link's
  // receive callback into whatever event loop drives it.
  if (wire_dead_) return;
  try {
    feed_frames(data, size);
  } catch (const Error&) {
    wire_dead_ = true;
    stats_.inc(C::bad_frames);
  } catch (const std::bad_alloc&) {
    // Allocation failure while assembling or delivering a frame: go
    // wire-dead like any other poisoned stream instead of letting
    // bad_alloc unwind into the event loop driving the link.
    wire_dead_ = true;
    stats_.inc(C::bad_frames);
  }
}

void MessagePort::feed_frames(const uint8_t* data, size_t size) {
  assembler_.feed(data, size, [this](Frame& frame) {
    switch (frame.type) {
      case FrameType::kFormatDef: {
        stats_.inc(C::meta_frames_received);
        if (receiver_ == nullptr) return;
        ByteReader r(frame.payload.data(), frame.payload.size());
        receiver_->learn_format(pbio::FormatDescriptor::deserialize(r));
        break;
      }
      case FrameType::kTransformDef: {
        stats_.inc(C::meta_frames_received);
        if (receiver_ == nullptr) return;
        ByteReader r(frame.payload.data(), frame.payload.size());
        receiver_->learn_transform(core::TransformSpec::deserialize(r));
        break;
      }
      case FrameType::kData: {
        stats_.inc(C::data_received);
        if (receiver_ == nullptr) return;
        // Adopt the sender's trace id (0 when the frame carried none) for
        // the duration of delivery, so receiver-side spans correlate with
        // the sender's through the wire-propagated id.
        obs::TraceScope trace_scope(obs::TraceContext{frame.trace_id});
        obs::TraceSpan span("port.deliver", &port_metrics().deliver_ns);
        // Decode in the frame's own payload: an exact match becomes a
        // pointer fix-up and a morph from the wire layout feeds its chain
        // straight from the frame; other decisions fall back to the copying
        // path. Records are valid for the duration of the handler: the
        // payload is overwritten by the next frame and the arena is
        // recycled per message.
        rx_arena_.reset();
        receiver_->process_in_place(frame.payload.data(), frame.payload.size(), rx_arena_);
        break;
      }
      case FrameType::kControl: {
        // Encoding negotiation rides the control channel: the sentinel is
        // consumed here, everything else reaches the application handler.
        constexpr size_t kSentinelLen = sizeof(kPbufEnableSentinel) - 1;
        if (frame.payload.size() == kSentinelLen &&
            std::memcmp(frame.payload.data(), kPbufEnableSentinel, kSentinelLen) == 0) {
          peer_accepts_pbuf_ = true;
          break;
        }
        if (on_control_) on_control_(frame.payload.data(), frame.payload.size());
        break;
      }
      case FrameType::kPbufData: {
        stats_.inc(C::data_received);
        stats_.inc(C::pbuf_received);
        if (receiver_ == nullptr) return;
        obs::TraceScope trace_scope(obs::TraceContext{frame.trace_id});
        obs::TraceSpan span("port.deliver", &port_metrics().deliver_ns);
        deliver_pbuf(frame);
        break;
      }
      case FrameType::kFmtsvcRequest:
      case FrameType::kFmtsvcReply:
      case FrameType::kTelemetry:
        // Service-plane frames (format service, telemetry collector)
        // belong on their own connections, never on a data-plane port.
        break;
    }
  });
}

void MessagePort::deliver_pbuf(const Frame& frame) {
  // Unlike a mangled frame header, a hostile protobuf payload leaves the
  // byte stream itself in sync — rejects here are per-frame (counted and
  // flight-recorded), never wire-death, and never an exception through the
  // link's receive callback.
  auto reject = [this](const std::string& detail) {
    stats_.inc(C::pbuf_rejects);
    obs::flight_record(obs::FlightKind::kReject, obs::current_trace().trace_id, detail);
  };
  if (frame.payload.size() < 8) {
    reject("port: pbuf frame shorter than its fingerprint header");
    return;
  }
  ByteReader r(frame.payload.data(), frame.payload.size());
  const uint64_t fp = r.read_u64();
  pbio::FormatPtr fmt = receiver_->learned().by_fingerprint(fp);
  if (fmt == nullptr) {
    reject("port: pbuf frame for unknown fingerprint " + std::to_string(fp));
    return;
  }
  auto it = pbuf_decoders_.find(fp);
  if (it == pbuf_decoders_.end()) {
    try {
      it = pbuf_decoders_.emplace(fp, std::make_unique<pbuf::DecodePlan>(fmt)).first;
    } catch (const Error& e) {
      // Negative-cache the failure: a learned-but-not-pbuf-decodable
      // format never becomes decodable (fingerprints are content-based),
      // so later frames for it reject on the map lookup instead of paying
      // plan construction again.
      pbuf_decoders_.emplace(fp, nullptr);
      reject("port: format '" + fmt->name() + "' is not pbuf-decodable: " + e.what());
      return;
    }
  }
  if (it->second == nullptr) {
    reject("port: format '" + fmt->name() + "' is not pbuf-decodable");
    return;
  }
  rx_arena_.reset();
  void* record = nullptr;
  try {
    record = it->second->decode(frame.payload.data() + 8, frame.payload.size() - 8, rx_arena_);
  } catch (const Error& e) {
    // DecodeError (malformed payload, budget) and FormatError alike: a
    // hostile payload is rejected per-frame, never wire-death.
    reject("port: pbuf decode of '" + fmt->name() + "' rejected: " + e.what());
    return;
  } catch (const std::exception& e) {
    // bad_alloc and friends from arena growth stop here too — anything
    // escaping the link's receive callback would kill the connection.
    reject("port: pbuf decode of '" + fmt->name() + "' failed: " + std::string(e.what()));
    return;
  }
  receiver_->process_record(fmt, record, rx_arena_);
}

void write_pbuf_frame(ByteBuffer& out, const pbuf::EncodePlan& plan, const void* record,
                      uint64_t trace_id) {
  const size_t at = begin_frame(out, FrameType::kPbufData, trace_id);
  out.append_u64(plan.format()->fingerprint());
  plan.encode(record, out);
  end_frame(out, at);
}

SharedPayload make_shared_pbuf_frame(const pbuf::EncodePlan& plan, const void* record,
                                     uint64_t trace_id) {
  auto frame = std::make_shared<ByteBuffer>();
  write_pbuf_frame(*frame, plan, record, trace_id);
  return frame;
}

}  // namespace morph::transport
