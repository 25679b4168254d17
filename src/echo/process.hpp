// ECho-style event-delivery middleware (§4.1).
//
// An EchoProcess is one middleware instance. Processes are linked pairwise
// (in-process links for tests/examples, TCP for distribution); each link
// carries a MessagePort with its own core::Receiver, so format conversions
// are per-connection exactly as in PBIO.
//
// Channel protocol:
//   * the creator owns the membership list;
//   * a joiner sends ChannelOpenRequest{channel, contact, as_source,
//     as_sink};
//   * the creator replies — and re-notifies every existing member — with
//     ChannelOpenResponse in ITS protocol version: v1.0 (triple lists) or
//     v2.0 (flagged member list, with the Figure 5 retro-transform declared
//     on the port);
//   * sources send events directly to the sinks in their member list.
//
// Version model (paper §3.1): a v1.0 process understands only v1.0
// responses. A v2.0 process understands both v1.0 and v2.0 ("new clients
// speak Protocol X and Protocol Y") and always sends v2.0 — old receivers
// cope through morphing.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/receiver.hpp"
#include "echo/fanout.hpp"
#include "echo/messages.hpp"
#include "transport/link.hpp"
#include "transport/port.hpp"

namespace morph::echo {

enum class EchoVersion { kV1, kV2 };

struct Member {
  std::string contact;
  int32_t id = 0;
  bool is_source = false;
  bool is_sink = false;
};

/// Delivered application event.
struct Event {
  const core::Delivery* delivery;  // record + format + outcome
  const std::string& channel;
};

using EventHandler = std::function<void(const Event&)>;

class EchoProcess {
 public:
  EchoProcess(std::string contact, EchoVersion version,
              core::ReceiverOptions receiver_options = {});
  ~EchoProcess();

  const std::string& contact() const { return contact_; }
  EchoVersion version() const { return version_; }

  /// Attach a bidirectional link to another process. Both processes must
  /// attach their end. Returns the peer slot index.
  void attach_link(transport::Link& link);

  // --- channel API ---------------------------------------------------------

  /// Become the creator of `channel`.
  void create_channel(const std::string& channel);

  /// Join a channel owned by the peer named `creator_contact`.
  void open_channel(const std::string& channel, const std::string& creator_contact,
                    bool as_source, bool as_sink);

  /// Leave a channel previously joined via open_channel. The creator drops
  /// this process from the membership and re-notifies remaining members.
  void leave_channel(const std::string& channel, const std::string& creator_contact);

  /// Members of a channel as this process last learned them.
  std::vector<Member> members(const std::string& channel) const;

  /// Register an event handler: events of `fmt` arriving for `channel`.
  /// The format is registered on every connection's receiver, so evolved
  /// event formats morph per-connection. Passing SinkEncoding::kPbuf asks
  /// publishers to deliver this subscription protobuf-encoded (EVTENC
  /// announcement; legacy publishers ignore it and keep sending PBIO,
  /// which this process still accepts).
  void on_event(const std::string& channel, pbio::FormatPtr fmt, EventHandler handler,
                SinkEncoding encoding = SinkEncoding::kPbio);

  /// Declare a retro-transform for an event format this process publishes.
  void declare_event_transform(core::TransformSpec spec);

  /// Route first-contact format meta-data through an out-of-band publisher
  /// (typically fmtsvc::FormatResolver::publish) on every connection, current
  /// and future. See transport::MessagePort::set_meta_publisher for the
  /// fallback semantics when the publisher declines a format.
  void set_meta_publisher(transport::MessagePort::MetaPublisher publisher);

  /// Publish an event to every sink member of `channel` (except self).
  /// Returns the number of peers the event was sent to.
  ///
  /// Format-grouped fan-out: sinks announce their registered event formats
  /// (EVTSUB control frames), the publisher groups them by target
  /// fingerprint, morphs once per group, encodes once per group into a
  /// refcounted shared frame, and every link in the group forwards the same
  /// buffer. Sinks outside every group (never announced, or dropped by the
  /// EVTSUB cap) and sinks whose target is unreachable (no transform chain)
  /// fall back to per-sink delivery: the source-format record, which the
  /// sink's own receiver morphs.
  size_t publish(const std::string& channel, const pbio::FormatPtr& fmt, const void* record);

  // --- introspection ---------------------------------------------------------

  /// The process's own counters: ProcessStats field and catalog
  /// series. Each lives once, in this process's CounterSet, which the
  /// registry reads at scrape time.
#define MORPH_ECHO_PROCESS_COUNTERS(X)                     \
  X(open_requests_handled, morph_echo_open_requests_total) \
  X(responses_received, morph_echo_responses_total)        \
  X(responses_morphed, morph_echo_responses_morphed_total) \
  X(events_received, morph_echo_events_total)              \
  X(events_morphed, morph_echo_events_morphed_total)       \
  X(events_published, morph_echo_events_published_total)

  /// Per-process counters, plus the grouped fan-out tallies (fanout_*)
  /// read from this process's GroupPublisher.
  struct ProcessStats : PublisherStats {
    MORPH_STATS(ProcessStats, MORPH_ECHO_PROCESS_COUNTERS)
  };
  ProcessStats stats() const;

  /// Planner behind grouped publishing (plan cache, fusion, verification).
  const core::FanoutPlanner& fanout_planner() const { return planner_; }
  /// Sink grouping registry (announcement x membership).
  const FanoutRegistry& fanout_groups() const { return groups_; }

  /// Aggregated receiver stats over all connections.
  core::ReceiverStats receiver_totals() const;

 private:
  struct Peer;
  struct EventReg {
    std::string channel;
    pbio::FormatPtr fmt;
    EventHandler handler;
    SinkEncoding encoding = SinkEncoding::kPbio;
  };

  void setup_peer(Peer& peer);
  Peer* peer_by_contact(const std::string& peer_contact);
  void handle_open_request(Peer& peer, const core::Delivery& d);
  void handle_open_response(const core::Delivery& d, bool from_v2_format);
  void send_response_to(Peer& peer, const std::string& channel);
  void handle_control(Peer& peer, const std::string& msg);
  void announce_subscription(Peer& peer, const EventReg& reg);
  /// Re-derive the fan-out registry for `channel` from current membership
  /// and the peers' announced event formats (both sync points: membership
  /// changes and EVTSUB arrivals funnel here).
  void sync_channel_groups(const std::string& channel);

  struct ChannelState {
    bool creator = false;
    int32_t next_member_id = 0;
    std::vector<Member> members;
  };

  std::string contact_;
  EchoVersion version_;
  core::ReceiverOptions rx_options_;
  std::vector<std::unique_ptr<Peer>> peers_;
  std::map<std::string, ChannelState> channels_;
  // deque: handlers capture pointers to entries, which must stay stable as
  // registrations are appended.
  std::deque<EventReg> event_regs_;
  std::vector<core::TransformSpec> event_transforms_;
  transport::MessagePort::MetaPublisher meta_publisher_;
  core::FanoutPlanner planner_;
  FanoutRegistry groups_;
  GroupPublisher publisher_;
  obs::CounterSet<ProcessStats> counters_;
};

/// Deterministic in-process wiring for tests and examples: owns the links
/// and pumps them until quiescent.
class EchoDomain {
 public:
  EchoProcess& spawn(const std::string& contact, EchoVersion version,
                     core::ReceiverOptions options = {});
  void connect(EchoProcess& a, EchoProcess& b);

  /// Deliver queued traffic until the network is quiet.
  size_t pump();

 private:
  std::vector<std::unique_ptr<EchoProcess>> processes_;
  std::vector<std::unique_ptr<transport::InprocPair>> pairs_;
};

}  // namespace morph::echo
