#include "echo/process.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "pbio/record.hpp"

namespace morph::echo {

using core::Delivery;
using core::Outcome;
using transport::MessagePort;

namespace {
using C = EchoProcess::ProcessStats::Id;

/// Hex round-trip for fingerprints in EVTSUB control frames.
std::string fp_to_hex(uint64_t fp) {
  std::ostringstream os;
  os << std::hex << fp;
  return os.str();
}

/// A uint64_t fingerprint as sent by fp_to_hex: 1..16 hex digits.
bool is_fp_hex(const std::string& s) {
  if (s.empty() || s.size() > 16) return false;
  return std::all_of(s.begin(), s.end(),
                     [](unsigned char c) { return std::isxdigit(c) != 0; });
}

/// Upper bound on distinct (channel, format-name) EVTSUB entries per peer.
/// Announcements are peer-controlled input; without a cap a hostile peer
/// streaming fresh names could grow broker memory without bound (the
/// FanoutPlanner::kMaxCachedPlans rationale, applied to the subscription map).
constexpr size_t kMaxEventSubsPerPeer = 4096;
}  // namespace

struct EchoProcess::Peer {
  std::string name;  // learned from the hello control frame
  std::unique_ptr<core::Receiver> receiver;
  std::unique_ptr<MessagePort> port;
  /// Event formats this peer announced via EVTSUB: channel -> format name
  /// -> fingerprint of the format it registered with its receiver.
  std::map<std::string, std::map<std::string, uint64_t>> event_subs;
  /// Subscriptions the peer additionally marked protobuf-preferred via
  /// EVTENC (always a subset of event_subs: EVTENC for an unknown
  /// subscription is dropped, which also bounds this map by the EVTSUB cap).
  std::map<std::string, std::set<std::string>> pbuf_subs;
};

/// A Peer's address doubles as its SinkId: Peer objects are uniquely owned
/// and never deallocated while the process lives (peers_ only grows).
static SinkId sink_id(const void* peer) { return reinterpret_cast<SinkId>(peer); }

EchoProcess::EchoProcess(std::string contact, EchoVersion version,
                         core::ReceiverOptions receiver_options)
    : contact_(std::move(contact)),
      version_(version),
      rx_options_(receiver_options),
      planner_(receiver_options.fuse),
      publisher_(planner_) {}

EchoProcess::~EchoProcess() = default;

void EchoProcess::attach_link(transport::Link& link) {
  auto peer = std::make_unique<Peer>();
  peer->receiver = std::make_unique<core::Receiver>(rx_options_);
  peer->port = std::make_unique<MessagePort>(link, peer->receiver.get());
  setup_peer(*peer);
  peers_.push_back(std::move(peer));
  // Introduce ourselves so the other side can route by contact name.
  std::string hello = "HELLO " + contact_;
  peers_.back()->port->send_control(hello.data(), hello.size());
}

void EchoProcess::set_meta_publisher(transport::MessagePort::MetaPublisher publisher) {
  meta_publisher_ = std::move(publisher);
  for (auto& peer : peers_) peer->port->set_meta_publisher(meta_publisher_);
}

void EchoProcess::setup_peer(Peer& peer) {
  Peer* p = &peer;

  if (meta_publisher_) peer.port->set_meta_publisher(meta_publisher_);

  peer.port->set_on_control([this, p](const uint8_t* data, size_t size) {
    handle_control(*p, std::string(reinterpret_cast<const char*>(data), size));
  });

  // Channel-open request handling (creator side).
  peer.receiver->register_handler(channel_open_request_format(),
                                  [this, p](const Delivery& d) { handle_open_request(*p, d); });

  // Channel-open response handling (subscriber side). A v1.0 process only
  // understands v1.0; a v2.0 process registers both ("speaks X and Y").
  peer.receiver->register_handler(channel_open_response_v1_format(), [this](const Delivery& d) {
    handle_open_response(d, /*from_v2_format=*/false);
  });
  if (version_ == EchoVersion::kV2) {
    peer.receiver->register_handler(channel_open_response_v2_format(), [this](const Delivery& d) {
      handle_open_response(d, /*from_v2_format=*/true);
    });
    // A v2.0 sender always ships the Figure 5 retro-transform with its
    // response format.
    peer.port->declare_transform(response_v2_to_v1_spec());
  }

  // Event formats registered so far: wire up delivery and tell the peer
  // which format this process wants, so a publishing peer can group us.
  for (const auto& reg : event_regs_) {
    const EventReg* r = &reg;
    peer.receiver->register_handler(reg.fmt, [this, r](const Delivery& d) {
      counters_.inc(C::events_received);
      if (d.outcome == Outcome::kMorphed || d.outcome == Outcome::kMorphedReconciled) {
        counters_.inc(C::events_morphed);
      }
      Event ev{&d, r->channel};
      r->handler(ev);
    });
    announce_subscription(peer, reg);
  }
  for (const auto& spec : event_transforms_) peer.port->declare_transform(spec);
}

void EchoProcess::handle_control(Peer& peer, const std::string& msg) {
  if (msg.rfind("HELLO ", 0) == 0) {
    bool was_unnamed = peer.name.empty();
    peer.name = msg.substr(6);
    MORPH_LOG_DEBUG("echo") << contact_ << ": peer introduced as " << peer.name;
    // EVTSUBs processed before the peer introduced itself could not be
    // grouped (sync matches members by name); re-derive those channels now
    // so the sink is not stuck on the per-subscriber fallback until the
    // next membership change.
    if (was_unnamed && !peer.name.empty()) {
      for (const auto& [channel, subs] : peer.event_subs) sync_channel_groups(channel);
    }
    return;
  }
  // EVTSUB <fp-hex>\x1f<channel>\x1f<format name>: the peer registered an
  // event handler; remember its target format so grouped publishes can
  // deliver pre-morphed events.
  if (msg.rfind("EVTSUB ", 0) == 0) {
    std::string rest = msg.substr(7);
    size_t s1 = rest.find('\x1f');
    size_t s2 = s1 == std::string::npos ? std::string::npos : rest.find('\x1f', s1 + 1);
    if (s2 == std::string::npos || !is_fp_hex(rest.substr(0, s1))) {
      MORPH_LOG_WARN("echo") << contact_ << ": malformed EVTSUB '" << msg << "'";
      return;
    }
    uint64_t fp = std::stoull(rest.substr(0, s1), nullptr, 16);
    std::string channel = rest.substr(s1 + 1, s2 - s1 - 1);
    std::string name = rest.substr(s2 + 1);
    auto chan_it = peer.event_subs.find(channel);
    if (chan_it == peer.event_subs.end() || chan_it->second.count(name) == 0) {
      size_t total = 0;
      for (const auto& [ch, subs] : peer.event_subs) total += subs.size();
      if (total >= kMaxEventSubsPerPeer) {
        MORPH_LOG_WARN("echo") << contact_ << ": EVTSUB cap (" << kMaxEventSubsPerPeer
                               << ") reached for peer '" << peer.name << "'; dropping '"
                               << name << "'";
        return;
      }
    }
    peer.event_subs[channel][name] = fp;
    sync_channel_groups(channel);
    return;
  }
  // EVTENC <fp-hex>\x1f<channel>\x1f<format name>: the peer wants the named
  // subscription delivered protobuf-encoded (kPbufData frames). Only
  // meaningful for a subscription it already announced — the sender always
  // emits EVTSUB first on the same ordered link — so EVTENC for an unknown
  // subscription is hostile or stale and gets dropped.
  if (msg.rfind("EVTENC ", 0) == 0) {
    std::string rest = msg.substr(7);
    size_t s1 = rest.find('\x1f');
    size_t s2 = s1 == std::string::npos ? std::string::npos : rest.find('\x1f', s1 + 1);
    if (s2 == std::string::npos || !is_fp_hex(rest.substr(0, s1))) {
      MORPH_LOG_WARN("echo") << contact_ << ": malformed EVTENC '" << msg << "'";
      return;
    }
    std::string channel = rest.substr(s1 + 1, s2 - s1 - 1);
    std::string name = rest.substr(s2 + 1);
    auto chan_it = peer.event_subs.find(channel);
    if (chan_it == peer.event_subs.end() || chan_it->second.count(name) == 0) {
      MORPH_LOG_WARN("echo") << contact_ << ": EVTENC without matching EVTSUB for '" << name
                             << "'";
      return;
    }
    peer.pbuf_subs[channel].insert(name);
    sync_channel_groups(channel);
    return;
  }
}

void EchoProcess::announce_subscription(Peer& peer, const EventReg& reg) {
  std::string body = fp_to_hex(reg.fmt->fingerprint()) + '\x1f' + reg.channel + '\x1f' +
                     reg.fmt->name();
  std::string msg = "EVTSUB " + body;
  peer.port->send_control(msg.data(), msg.size());
  if (reg.encoding == SinkEncoding::kPbuf) {
    // Two-level opt-in: the port-level sentinel switches direct
    // send_record traffic to protobuf, the EVTENC verb switches grouped
    // fan-out for this subscription. Legacy peers ignore both.
    peer.port->announce_pbuf();
    std::string enc = "EVTENC " + body;
    peer.port->send_control(enc.data(), enc.size());
  }
}

void EchoProcess::sync_channel_groups(const std::string& channel) {
  auto it = channels_.find(channel);
  const std::vector<Member>* members = it == channels_.end() ? nullptr : &it->second.members;
  for (auto& p : peers_) {
    if (p->name.empty()) continue;
    auto subs = p->event_subs.find(channel);
    if (subs == p->event_subs.end()) continue;
    bool is_sink = false;
    if (members != nullptr) {
      for (const auto& m : *members) {
        if (m.contact == p->name && m.is_sink) {
          is_sink = true;
          break;
        }
      }
    }
    auto enc_chan = p->pbuf_subs.find(channel);
    for (const auto& [name, fp] : subs->second) {
      std::string key = FanoutRegistry::key(channel, name);
      if (is_sink) {
        SinkEncoding enc =
            enc_chan != p->pbuf_subs.end() && enc_chan->second.count(name) != 0
                ? SinkEncoding::kPbuf
                : SinkEncoding::kPbio;
        groups_.subscribe(key, sink_id(p.get()), fp, enc);
      } else {
        groups_.unsubscribe(key, sink_id(p.get()));
      }
    }
  }
}

EchoProcess::Peer* EchoProcess::peer_by_contact(const std::string& peer_contact) {
  for (auto& p : peers_) {
    if (p->name == peer_contact) return p.get();
  }
  return nullptr;
}

void EchoProcess::create_channel(const std::string& channel) {
  auto& state = channels_[channel];
  state.creator = true;
}

void EchoProcess::open_channel(const std::string& channel, const std::string& creator_contact,
                               bool as_source, bool as_sink) {
  Peer* p = peer_by_contact(creator_contact);
  if (p == nullptr) {
    throw Error("echo: no connected peer named '" + creator_contact + "'");
  }
  channels_[channel];  // ensure state exists (members arrive in the response)

  RecordArena arena;
  auto* req = static_cast<ChannelOpenRequest*>(
      pbio::alloc_record(*channel_open_request_format(), arena));
  req->channel_id = arena.copy_string(channel);
  req->contact = arena.copy_string(contact_);
  req->as_source = as_source ? 1 : 0;
  req->as_sink = as_sink ? 1 : 0;
  p->port->send_record(channel_open_request_format(), req);
}

void EchoProcess::leave_channel(const std::string& channel,
                                const std::string& creator_contact) {
  // A subscription as neither source nor sink is the leave signal; the
  // creator removes us and re-notifies the remaining members.
  open_channel(channel, creator_contact, false, false);
}

void EchoProcess::handle_open_request(Peer& peer, const Delivery& d) {
  counters_.inc(C::open_requests_handled);
  const auto* req = static_cast<const ChannelOpenRequest*>(d.record);
  std::string channel = req->channel_id == nullptr ? "" : req->channel_id;
  std::string contact = req->contact == nullptr ? "" : req->contact;
  auto it = channels_.find(channel);
  if (it == channels_.end() || !it->second.creator) {
    MORPH_LOG_WARN("echo") << contact_ << ": open request for unknown channel '" << channel
                           << "'";
    return;
  }
  if (peer.name.empty() && !contact.empty()) {
    peer.name = contact;
    // Naming the peer may unlock grouping for EVTSUBs it announced on
    // other channels before introducing itself (this channel syncs below).
    for (const auto& [ch, subs] : peer.event_subs) {
      if (ch != channel) sync_channel_groups(ch);
    }
  }
  auto& members = it->second.members;

  bool leaving = req->as_source == 0 && req->as_sink == 0;
  if (leaving) {
    // A request subscribing as neither source nor sink is a leave.
    members.erase(std::remove_if(members.begin(), members.end(),
                                 [&](const Member& m) { return m.contact == contact; }),
                  members.end());
  } else {
    bool found = false;
    for (auto& m : members) {
      if (m.contact == contact) {
        m.is_source = req->as_source != 0;
        m.is_sink = req->as_sink != 0;
        found = true;
        break;
      }
    }
    if (!found) {
      Member m;
      m.contact = contact;
      m.id = ++it->second.next_member_id;
      m.is_source = req->as_source != 0;
      m.is_sink = req->as_sink != 0;
      members.push_back(std::move(m));
    }
  }

  sync_channel_groups(channel);

  // Reply to the requester (including a leaver, so it sees the post-leave
  // membership) and re-notify every remaining member.
  send_response_to(peer, channel);
  for (const auto& m : members) {
    if (m.contact == contact) continue;
    Peer* target = peer_by_contact(m.contact);
    if (target != nullptr) send_response_to(*target, channel);
  }
}

void EchoProcess::send_response_to(Peer& peer, const std::string& channel) {
  const auto& members = channels_[channel].members;
  RecordArena arena;

  if (version_ == EchoVersion::kV2) {
    auto* rec = static_cast<ChannelOpenResponseV2*>(
        pbio::alloc_record(*channel_open_response_v2_format(), arena));
    rec->channel = arena.copy_string(channel);
    rec->member_count = static_cast<int32_t>(members.size());
    rec->member_list = static_cast<MemberEntryV2*>(
        pbio::alloc_dyn_array(arena, sizeof(MemberEntryV2), members.size()));
    for (size_t i = 0; i < members.size(); ++i) {
      rec->member_list[i].info = arena.copy_string(members[i].contact);
      rec->member_list[i].id = members[i].id;
      rec->member_list[i].is_source = members[i].is_source ? 1 : 0;
      rec->member_list[i].is_sink = members[i].is_sink ? 1 : 0;
    }
    peer.port->send_record(channel_open_response_v2_format(), rec);
    return;
  }

  auto* rec = static_cast<ChannelOpenResponseV1*>(
      pbio::alloc_record(*channel_open_response_v1_format(), arena));
  rec->channel = arena.copy_string(channel);
  rec->member_count = static_cast<int32_t>(members.size());
  size_t cap = members.empty() ? 1 : members.size();
  rec->member_list =
      static_cast<MemberEntryV1*>(pbio::alloc_dyn_array(arena, sizeof(MemberEntryV1), cap));
  rec->src_list =
      static_cast<MemberEntryV1*>(pbio::alloc_dyn_array(arena, sizeof(MemberEntryV1), cap));
  rec->sink_list =
      static_cast<MemberEntryV1*>(pbio::alloc_dyn_array(arena, sizeof(MemberEntryV1), cap));
  int32_t src = 0, sink = 0;
  for (size_t i = 0; i < members.size(); ++i) {
    rec->member_list[i].info = arena.copy_string(members[i].contact);
    rec->member_list[i].id = members[i].id;
    if (members[i].is_source) {
      rec->src_list[src].info = rec->member_list[i].info;
      rec->src_list[src].id = members[i].id;
      ++src;
    }
    if (members[i].is_sink) {
      rec->sink_list[sink].info = rec->member_list[i].info;
      rec->sink_list[sink].id = members[i].id;
      ++sink;
    }
  }
  rec->src_count = src;
  rec->sink_count = sink;
  peer.port->send_record(channel_open_response_v1_format(), rec);
}

void EchoProcess::handle_open_response(const Delivery& d, bool from_v2_format) {
  counters_.inc(C::responses_received);
  if (d.outcome == Outcome::kMorphed || d.outcome == Outcome::kMorphedReconciled) {
    counters_.inc(C::responses_morphed);
  }

  std::string channel;
  std::vector<Member> members;
  if (from_v2_format) {
    const auto* rec = static_cast<const ChannelOpenResponseV2*>(d.record);
    channel = rec->channel == nullptr ? "" : rec->channel;
    for (int32_t i = 0; i < rec->member_count; ++i) {
      Member m;
      m.contact = rec->member_list[i].info == nullptr ? "" : rec->member_list[i].info;
      m.id = rec->member_list[i].id;
      m.is_source = rec->member_list[i].is_source != 0;
      m.is_sink = rec->member_list[i].is_sink != 0;
      members.push_back(std::move(m));
    }
  } else {
    const auto* rec = static_cast<const ChannelOpenResponseV1*>(d.record);
    channel = rec->channel == nullptr ? "" : rec->channel;
    for (int32_t i = 0; i < rec->member_count; ++i) {
      Member m;
      m.contact = rec->member_list[i].info == nullptr ? "" : rec->member_list[i].info;
      m.id = rec->member_list[i].id;
      members.push_back(std::move(m));
    }
    auto mark = [&members](const MemberEntryV1* list, int32_t count, bool source) {
      for (int32_t i = 0; i < count; ++i) {
        const char* info = list[i].info;
        for (auto& m : members) {
          if (m.contact == (info == nullptr ? "" : info)) {
            (source ? m.is_source : m.is_sink) = true;
          }
        }
      }
    };
    mark(rec->src_list, rec->src_count, true);
    mark(rec->sink_list, rec->sink_count, false);
  }
  channels_[channel].members = std::move(members);
  sync_channel_groups(channel);
}

std::vector<Member> EchoProcess::members(const std::string& channel) const {
  auto it = channels_.find(channel);
  return it == channels_.end() ? std::vector<Member>{} : it->second.members;
}

void EchoProcess::on_event(const std::string& channel, pbio::FormatPtr fmt,
                           EventHandler handler, SinkEncoding encoding) {
  for (const auto& reg : event_regs_) {
    if (reg.fmt->name() == fmt->name() && reg.channel != channel) {
      throw Error("echo: event format '" + fmt->name() +
                  "' is already registered for channel '" + reg.channel +
                  "' (one channel per format name per process)");
    }
  }
  event_regs_.push_back({channel, std::move(fmt), std::move(handler), encoding});
  const EventReg& reg = event_regs_.back();
  const EventReg* r = &reg;
  for (auto& p : peers_) {
    p->receiver->register_handler(reg.fmt, [this, r](const Delivery& d) {
      counters_.inc(C::events_received);
      if (d.outcome == Outcome::kMorphed || d.outcome == Outcome::kMorphedReconciled) {
        counters_.inc(C::events_morphed);
      }
      Event ev{&d, r->channel};
      r->handler(ev);
    });
    announce_subscription(*p, reg);
  }
}

void EchoProcess::declare_event_transform(core::TransformSpec spec) {
  event_transforms_.push_back(spec);
  // The publisher-side planner learns the transform too: it is what makes
  // the spec's destination reachable as a fan-out group target.
  planner_.learn_transform(spec);
  for (auto& p : peers_) p->port->declare_transform(spec);
}

size_t EchoProcess::publish(const std::string& channel, const pbio::FormatPtr& fmt,
                            const void* record) {
  auto it = channels_.find(channel);
  if (it == channels_.end()) throw Error("echo: unknown channel '" + channel + "'");
  counters_.inc(C::events_published);
  auto snap = groups_.snapshot(FanoutRegistry::key(channel, fmt->name()));
  size_t sent = 0;

  const PublisherStats counts = publisher_.publish(
      fmt, record, *snap,
      // SinkIds are Peer addresses (sink_id); the registry only ever holds
      // peers of this process, so the cast back is safe.
      [](SinkId sink) { return reinterpret_cast<Peer*>(sink)->port.get(); },
      // Unreachable target format: per-sink fallback, the source-format
      // record, which the sink's own receiver reconciles.
      [&](SinkId sink) {
        reinterpret_cast<Peer*>(sink)->port->send_record(fmt, record);
        ++sent;
      });
  sent += counts.fanout_deliveries;

  // Sink members outside every group — nothing announced for this event
  // format (an old peer, or a sink that registered a different format
  // name) — get the same per-sink fallback.
  auto grouped = [&](SinkId sink) {
    for (const auto& g : snap->groups) {
      if (std::binary_search(g.sinks.begin(), g.sinks.end(), sink)) return true;
    }
    return false;
  };
  for (const auto& m : it->second.members) {
    if (!m.is_sink || m.contact == contact_) continue;
    Peer* p = peer_by_contact(m.contact);
    if (p == nullptr) {
      MORPH_LOG_WARN("echo") << contact_ << ": no link to sink " << m.contact;
      continue;
    }
    if (grouped(sink_id(p))) continue;
    p->port->send_record(fmt, record);
    ++sent;
  }
  return sent;
}

EchoProcess::ProcessStats EchoProcess::stats() const {
  ProcessStats s = counters_.load();
  static_cast<PublisherStats&>(s) = publisher_.stats();
  return s;
}

core::ReceiverStats EchoProcess::receiver_totals() const {
  core::ReceiverStats total;
  for (const auto& p : peers_) total += p->receiver->stats();
  return total;
}

// ---------------------------------------------------------------------------
// EchoDomain
// ---------------------------------------------------------------------------

EchoProcess& EchoDomain::spawn(const std::string& contact, EchoVersion version,
                               core::ReceiverOptions options) {
  processes_.push_back(std::make_unique<EchoProcess>(contact, version, options));
  return *processes_.back();
}

void EchoDomain::connect(EchoProcess& a, EchoProcess& b) {
  pairs_.push_back(std::make_unique<transport::InprocPair>());
  auto& pair = *pairs_.back();
  a.attach_link(pair.a());
  b.attach_link(pair.b());
}

size_t EchoDomain::pump() {
  size_t total = 0;
  for (;;) {
    size_t round = 0;
    for (auto& pair : pairs_) round += pair->pump();
    total += round;
    if (round == 0) return total;
  }
}

}  // namespace morph::echo
