// Golden request->reply byte streams for the network servers.
//
// Each scenario under tests/golden/ is a pair of files: NAME.req holds the
// exact bytes a client sends, NAME.rep the exact bytes the server sends
// back. A test starts the server, replays NAME.req verbatim over one
// loopback connection and asserts the reply stream equals NAME.rep byte for
// byte. The streams were recorded while each server still had its
// thread-per-connection engine, and that engine's replies equal the
// reactor's (tests/golden/README.md says how each was checked).
//
// On a mismatch the actual reply is written to golden_actual/NAME.rep in
// the test's working directory: after a deliberate protocol change, review
// it and copy it over the committed file.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "transport/tcp.hpp"

namespace morph::golden {

using Bytes = std::vector<uint8_t>;

inline Bytes read_file(const std::string& name) {
  std::ifstream in(std::string(MORPH_GOLDEN_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

/// Send `request` to 127.0.0.1:`port` on a fresh connection and collect the
/// reply bytes until `want` bytes arrived or 3 s passed. `poll`, if set,
/// runs between pumps (a scenario step that must wait for the server, such
/// as publishing once the subscription has landed).
inline Bytes replay(uint16_t port, const Bytes& request, size_t want,
                    const std::function<void()>& poll = {}) {
  auto link = transport::TcpLink::connect("127.0.0.1", port);
  Bytes reply;
  link->set_on_data([&](const uint8_t* d, size_t n) { reply.insert(reply.end(), d, d + n); });
  link->send(request.data(), request.size());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (reply.size() < want && std::chrono::steady_clock::now() < deadline) {
    if (poll) poll();
    if (!link->pump(10)) break;
  }
  return reply;
}

/// Replay NAME.req against the server on `port` and assert the reply
/// equals NAME.rep, naming the first differing offset; on a mismatch keep
/// the actual stream for review.
inline void check(const std::string& name, uint16_t port,
                  const std::function<void()>& poll = {}) {
  const Bytes request = read_file(name + ".req");
  const Bytes expected = read_file(name + ".rep");
  ASSERT_FALSE(request.empty());
  ASSERT_FALSE(expected.empty());
  const Bytes actual = replay(port, request, expected.size(), poll);
  if (actual == expected) return;
  size_t at = 0;
  while (at < actual.size() && at < expected.size() && actual[at] == expected[at]) ++at;
  std::filesystem::create_directories("golden_actual");
  std::ofstream("golden_actual/" + name + ".rep", std::ios::binary)
      .write(reinterpret_cast<const char*>(actual.data()),
             static_cast<std::streamsize>(actual.size()));
  ADD_FAILURE() << name << ": reply differs from the golden stream at byte " << at << " (got "
                << actual.size() << " bytes, want " << expected.size()
                << "); actual kept in golden_actual/" << name << ".rep";
}

}  // namespace morph::golden
