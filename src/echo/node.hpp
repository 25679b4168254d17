// EchoTcpNode: one EchoProcess served over real TCP at connection scale.
//
// EchoProcess itself is deliberately single-threaded (deterministic pump
// semantics, per-connection receivers with no internal locks). This node
// supplies the serving shell around it: one ReactorServer event loop accepts
// and owns every connection AND the process, so all protocol handling,
// membership bookkeeping and fan-out run on the node's only thread and the
// process needs no locking at all. Publishes from other threads hop onto the
// loop through with_process(). Peers cost a socket and a receiver, not an OS
// thread.
//
// Lifecycle caveat (inherited from EchoProcess, whose peer table only
// grows): a disconnected peer stays in channel membership; sends to it
// become counted drops (morph_reactor_send_drops_total) until it re-joins
// or the node dies. Link objects are pinned until node destruction so the
// process's MessagePorts never dangle.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "echo/process.hpp"
#include "transport/reactor.hpp"
#include "transport/tcp.hpp"

namespace morph::echo {

/// Single-valued stub: grouped fan-out is the only engine; perfbench/broker.cpp still names it.
enum class FanoutMode { kGrouped };

struct NodeOptions {
  uint16_t port = 0;  // 0 picks an ephemeral port; read back with port()
  /// Unread stub (the reactor is the only engine); perfbench/broker.cpp still sets it.
  transport::TransportMode transport = transport::TransportMode::kReactor;
  size_t max_connections = 1u << 20;
  core::ReceiverOptions receiver;
  EchoVersion version = EchoVersion::kV2;
  /// Unread stub (grouped fan-out is the only engine); perfbench/broker.cpp still sets it.
  FanoutMode fanout = FanoutMode::kGrouped;
};

class EchoTcpNode {
 public:
  /// Start serving immediately. `contact` is the hosted process's name in
  /// the channel protocol.
  EchoTcpNode(std::string contact, NodeOptions options = {});

  EchoTcpNode(const EchoTcpNode&) = delete;
  EchoTcpNode& operator=(const EchoTcpNode&) = delete;

  uint16_t port() const { return listener_.port(); }
  size_t connections() const { return server_.connections(); }

  /// Run `fn` with the hosted process on the event loop, blocking until it
  /// is done. This is the only way to touch the process — create_channel,
  /// on_event, publish, stats all go through it.
  void with_process(const std::function<void(EchoProcess&)>& fn);

  /// Convenience: publish under with_process, returning the fan-out count.
  size_t publish(const std::string& channel, const pbio::FormatPtr& fmt, const void* record);

 private:
  transport::TcpListener listener_;
  std::unique_ptr<EchoProcess> process_;
  // Links pinned until node destruction (see header comment). Loop-thread-
  // only once serving starts.
  std::vector<std::shared_ptr<transport::AsyncTcpLink>> pinned_links_;
  // Declared last: serving starts after every other member exists and
  // stops (joining the loop) before any of them is destroyed.
  transport::ReactorServer server_;
};

}  // namespace morph::echo
