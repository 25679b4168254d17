#include "echo/node.hpp"

#include <condition_variable>
#include <mutex>

namespace morph::echo {

EchoTcpNode::EchoTcpNode(std::string contact, NodeOptions options)
    : listener_(options.port),
      process_(std::make_unique<EchoProcess>(std::move(contact), options.version,
                                             options.receiver)),
      // EchoProcess is single-threaded: the server's one loop owns it.
      server_(listener_, transport::ReactorOptions{.max_connections = options.max_connections},
              [this](transport::AsyncTcpLink& link) {
                // Loop thread. Pin the link for the process's lifetime (its
                // MessagePort holds a Link&), then let the process claim the
                // data callback and send its HELLO.
                pinned_links_.push_back(link.shared());
                process_->attach_link(link);
              }) {}

void EchoTcpNode::with_process(const std::function<void(EchoProcess&)>& fn) {
  transport::Reactor& loop = server_.loop();
  if (loop.on_loop_thread()) {
    fn(*process_);
    return;
  }
  // Hop onto the loop and wait: callers get sequential consistency with
  // inbound protocol traffic, and the process stays lock-free.
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;
  loop.post([&] {
    try {
      fn(*process_);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(m);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return done; });
  if (error) std::rethrow_exception(error);
}

size_t EchoTcpNode::publish(const std::string& channel, const pbio::FormatPtr& fmt,
                            const void* record) {
  size_t sent = 0;
  with_process([&](EchoProcess& p) { sent = p.publish(channel, fmt, record); });
  return sent;
}

}  // namespace morph::echo
