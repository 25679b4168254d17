// Driver role: publisher, subscribers, oracle and metrics.
//
// Threads: the main thread (generator and publisher, on a blocking TcpLink
// through a MessagePort) and one client-side transport::Reactor loop that
// owns every subscriber: one EchoProcess per subscriber, each on its own
// AsyncTcpLink to the broker. Four connections in all.
//
// A run sets the pipeline up kSetups times (fork+exec of a fresh broker,
// connects, channel joins, EVTSUB grouping settled, first event through
// every revision) and reports the median set-up time; the last set-up stays
// up for the measured phases:
//
//   untraced  an open loop at the workload's fixed rate on a Poisson
//             schedule fixed from the seed before the run (latency, CPU,
//             bytes, RSS), then a closed loop with kWindow events in flight
//             (capacity);
//   traced    an untraced and a traced open-loop window at the same rate
//             (per-layer spans, counters, trace overhead), then the probes.
//
// Every delivered record is checked field by field against a reference
// computed by an in-process core::Receiver fed the same wire bytes, and for
// per-subscriber order and duplicates. The broker's own counters must agree
// with what the subscribers saw.
#include <fcntl.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/receiver.hpp"
#include "echo/process.hpp"
#include "obs/trace.hpp"
#include "pbio/encode.hpp"
#include "transport/port.hpp"
#include "transport/reactor.hpp"
#include "transport/tcp.hpp"

namespace perfbench {

namespace {

using morph::echo::EchoProcess;
using morph::transport::AsyncTcpLink;

constexpr int kSetups = 9;              // set-ups per run; setup_s is their median
constexpr uint64_t kWarmup = 32;        // events through every revision before timing
constexpr uint64_t kWindow = 64;        // closed-loop events in flight
constexpr double kCapacitySlice = 0.25; // s; throughput is the median slice rate
constexpr double kSlice = 1.0;          // s; open-loop figures are slice medians
constexpr double kMaxGenLateUs = 200;   // generator median lateness that voids a run
constexpr uint64_t kSpinNs = 30000;     // generator sleeps until this close to due
constexpr double kTimeoutS = 10;        // any wait for the pipeline to settle

std::atomic<pid_t> g_broker_pid{0};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of unsorted samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  const size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

void sleep_until_ns(uint64_t t) {
  timespec ts{static_cast<time_t>(t / 1000000000ull), static_cast<long>(t % 1000000000ull)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

void sleep_us(uint64_t us) { sleep_until_ns(now_ns() + us * 1000); }

/// Placement of the benchmark's busy threads on a machine with at least
/// kPinnedCpus CPUs: the generator, the subscriber loop and the broker
/// process each get their own CPUs. Left to itself the scheduler sometimes
/// co-locates the broker and subscriber loops, which batches events and
/// shifts CPU per event and latency together from run to run.
constexpr int kPinnedCpus = 4;
constexpr int kGeneratorCpu = 0;
constexpr int kSubscriberCpu = 1;
constexpr int kBrokerCpus[] = {2, 3};

bool can_pin() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return false;
  for (int cpu = 0; cpu < kPinnedCpus; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) return false;
  }
  return true;
}

/// Pin the calling thread (threads it creates inherit the mask).
void pin_to(std::initializer_list<int> cpus) {
  static const bool enabled = can_pin();
  if (!enabled) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

double thread_cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// --- broker process ------------------------------------------------------------

/// Key=value reply of the broker's MARK command.
using Mark = std::map<std::string, double>;

/// The forked broker and the pipes of its command protocol (broker.cpp).
class BrokerProcess {
 public:
  BrokerProcess(const std::string& exe, const std::string& workload) {
    int to_child[2];
    int from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0 || pipe2(from_child, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2 failed");
    }
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      pin_to({kBrokerCpus[0], kBrokerCpus[1]});
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      execl(exe.c_str(), exe.c_str(), "--role", "broker", "--workload", workload.c_str(),
            static_cast<char*>(nullptr));
      _exit(127);
    }
    g_broker_pid.store(pid_);
    ::close(to_child[0]);
    ::close(from_child[1]);
    in_ = fdopen(to_child[1], "w");
    out_ = fdopen(from_child[0], "r");
    const std::string hello = read_line();
    unsigned port = 0;
    if (std::sscanf(hello.c_str(), "PORT %u", &port) != 1) {
      throw std::runtime_error("broker did not report its port: '" + hello + "'");
    }
    port_ = static_cast<uint16_t>(port);
  }

  ~BrokerProcess() {
    if (in_ != nullptr) {
      std::fputs("QUIT\n", in_);
      std::fclose(in_);
    }
    if (out_ != nullptr) std::fclose(out_);
    if (pid_ > 0) waitpid(pid_, nullptr, 0);
    g_broker_pid.store(0);
  }

  BrokerProcess(const BrokerProcess&) = delete;
  BrokerProcess& operator=(const BrokerProcess&) = delete;

  uint16_t port() const { return port_; }

  std::string command(const std::string& cmd) {
    std::fprintf(in_, "%s\n", cmd.c_str());
    std::fflush(in_);
    return read_line();
  }

  Mark mark() { return parse_mark(command("MARK")); }

  /// Ask for a MARK without waiting; collect_marks() reads the replies.
  void post_mark() {
    std::fputs("MARK\n", in_);
    std::fflush(in_);
    ++pending_marks_;
  }

  std::vector<Mark> collect_marks() {
    std::vector<Mark> out;
    for (; pending_marks_ > 0; --pending_marks_) out.push_back(parse_mark(read_line()));
    return out;
  }

 private:
  static Mark parse_mark(const std::string& line) {
    std::istringstream in(line);
    std::string tok;
    in >> tok;
    if (tok != "MARK") throw std::runtime_error("bad MARK reply");
    Mark m;
    while (in >> tok) {
      const size_t eq = tok.find('=');
      if (eq != std::string::npos) m[tok.substr(0, eq)] = std::stod(tok.substr(eq + 1));
    }
    return m;
  }

 public:
  /// Grouped sinks on the egress channel.
  size_t grouped_sinks() {
    size_t sinks = 0, groups = 0;
    if (std::sscanf(command("GROUPS").c_str(), "GROUPS %zu %zu", &sinks, &groups) != 2) {
      throw std::runtime_error("bad GROUPS reply");
    }
    return sinks;
  }

  std::vector<RelaySpan> spans() {
    size_t n = 0;
    if (std::sscanf(command("SPANS").c_str(), "SPANS %zu", &n) != 1) {
      throw std::runtime_error("bad SPANS reply");
    }
    std::vector<RelaySpan> out(n);
    for (auto& sp : out) {
      long long seq = 0;
      unsigned long long a = 0, b = 0;
      if (std::fscanf(out_, "%lld %llu %llu", &seq, &a, &b) != 3) {
        throw std::runtime_error("truncated SPANS reply");
      }
      sp = {seq, a, b};
    }
    if (n > 0) read_line();  // rest of the last span line
    return out;
  }

 private:
  std::string read_line() {
    char buf[8192];
    if (std::fgets(buf, sizeof buf, out_) == nullptr) {
      throw std::runtime_error("broker exited unexpectedly");
    }
    std::string s(buf);
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
    return s;
  }

  pid_t pid_ = -1;
  uint16_t port_ = 0;
  size_t pending_marks_ = 0;
  FILE* in_ = nullptr;
  FILE* out_ = nullptr;
};

// --- subscribers -----------------------------------------------------------------

/// A Link that forwards to a reactor link and runs a hook after every
/// inbound chunk has been processed — how the driver sees a subscriber's
/// membership change the moment the response lands, without polling.
class TapLink : public morph::transport::Link {
 public:
  TapLink(std::shared_ptr<AsyncTcpLink> inner, std::function<void()> after)
      : inner_(std::move(inner)), after_(std::move(after)) {
    inner_->set_on_data([this](const uint8_t* data, size_t size) {
      if (on_data_) on_data_(data, size);
      after_();
    });
  }
  using Link::send;
  void send(const void* data, size_t size) override { inner_->send(data, size); }
  void send_shared(morph::transport::SharedPayload p) override {
    inner_->send_shared(std::move(p));
  }
  bool connected() const override { return inner_->connected(); }

 private:
  std::shared_ptr<AsyncTcpLink> inner_;
  std::function<void()> after_;
};

struct Sink {
  SubscriberSpec spec;
  std::string contact;
  FormatPtr fmt;
  std::unique_ptr<EchoProcess> proc;
  std::shared_ptr<AsyncTcpLink> link;
  std::unique_ptr<TapLink> tap;
  // Loop-thread state.
  int64_t last_seq = -1;
  uint64_t received = 0;
  uint64_t wrong = 0;     // a field differs from the oracle's record
  uint64_t disorder = 0;  // duplicate, out of order, or never sent
  bool member = false;    // membership this sink asked for last
  bool change_pending = false;
  uint64_t change_t0 = 0;
  std::vector<std::pair<int64_t, uint64_t>> entries;  // traced: (seq, handler entry)
};

/// One latency sample: open-loop slice and ns from intended send time to
/// subscriber handler entry.
struct Sample {
  uint32_t slice;
  uint64_t ns;
};

/// Loop-thread CPU and deliveries seen, read on the subscriber loop.
struct SinkMark {
  double cpu_us = 0;
  uint64_t deliveries = 0;
};

/// Counters around one open-loop window, also at every slice boundary of
/// an untraced window: CPU figures are slice medians.
struct WindowResult {
  std::vector<Mark> marks;     // broker MARKs, window start .. window end
  std::vector<SinkMark> sink;  // the same instants on the subscriber loop
  std::vector<double> pub_send_us;  // traced only

  const Mark& before() const { return marks.front(); }
  const Mark& after() const { return marks.back(); }
  double delta(const char* key) const { return after().at(key) - before().at(key); }
  double per_event(const char* key) const {
    const double events = delta("published");
    return events > 0 ? delta(key) / events : 0;
  }
  double broker_cpu_per_event() const {
    std::vector<double> slices;
    for (size_t i = 1; i < marks.size(); ++i) {
      const Mark& a = marks[i - 1];
      const Mark& b = marks[i];
      const double events = b.at("published") - a.at("published");
      const double cpu = b.at("utime_us") - a.at("utime_us") + b.at("stime_us") - a.at("stime_us");
      if (events > 0) slices.push_back(cpu / events);
    }
    return median(slices);
  }
  double sink_cpu_per_delivery() const {
    std::vector<double> slices;
    for (size_t i = 1; i < sink.size(); ++i) {
      const uint64_t n = sink[i].deliveries - sink[i - 1].deliveries;
      if (n > 0) slices.push_back((sink[i].cpu_us - sink[i - 1].cpu_us) / static_cast<double>(n));
    }
    return median(slices);
  }
};

class Driver {
 public:
  Driver(const Options& opts, std::string exe)
      : opts_(opts), exe_(std::move(exe)), w_(make_workload(opts.workload)) {}
  // The subscriber loop touches most members: stop it before they go.
  ~Driver() { stop_instance(); }

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  int run();

 private:
  // Set-up and teardown of one pipeline instance.
  double start_instance();
  void stop_instance();
  template <typename Fn>
  void on_loop(Fn&& fn);
  template <typename Pred>
  void wait_until(const char* what, Pred&& pred);

  // Loop thread.
  void on_delivery(Sink& s, const morph::echo::Event& ev);
  void after_data(Sink& s);
  void change_membership(Sink& s, bool join);

  // Main thread.
  void build_pool_and_oracle();
  void send(int64_t seq, uint64_t intended);
  void churn_tick(uint64_t now);
  void wait_for_window();
  double closed_loop(double seconds);
  WindowResult open_loop(double seconds, bool traced);
  SinkMark sink_mark();  // loop thread
  /// Per-slice latency percentiles (us) of the last open-loop window.
  void latency_slices(std::vector<double>& p50s, std::vector<double>& p99s, size_t& samples);
  void drain();
  void verify_instance();
  void note_failure(const std::string& what);
  void note_error(const std::string& what);  // any thread

  const Options opts_;
  const std::string exe_;
  Workload w_;

  // Seeded inputs and the oracle's references (refs_[rev][pool index]).
  morph::RecordArena pool_arena_;
  std::vector<void*> pool_;
  std::vector<std::unique_ptr<morph::RecordArena>> ref_arenas_;
  std::vector<std::vector<void*>> refs_;
  morph::Rng sched_rng_{0};

  // The live instance.
  std::unique_ptr<BrokerProcess> broker_;
  std::unique_ptr<morph::transport::TcpLink> pub_link_;
  std::unique_ptr<morph::transport::MessagePort> pub_port_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::vector<Sink*> steady_;
  Sink* churner_ = nullptr;
  size_t accepted_ = 0;  // loop thread
  int64_t next_seq_ = 0;
  uint64_t next_churn_ns_ = 0;
  std::unique_ptr<morph::transport::Reactor> reactor_;  // last: its loop uses the rest

  // Shared between the generator and the loop thread.
  std::unique_ptr<std::atomic<uint64_t>[]> intended_;
  size_t max_events_ = 0;
  std::atomic<int64_t> sent_{0};
  std::atomic<uint64_t> fully_{0};  // events delivered to every steady sink
  std::atomic<bool> waiting_{false};
  std::mutex progress_mu_;
  std::condition_variable progress_cv_;
  std::atomic<uint64_t> first_all_ns_{0};
  std::atomic<int64_t> lat_first_seq_{INT64_MAX};
  std::atomic<bool> trace_on_{false};
  // Loop-thread accumulators (read by main through on_loop).
  size_t sinks_with_first_ = 0;
  uint64_t lat_t0_ = 0;
  uint32_t lat_slices_ = 1;
  std::vector<Sample> samples_;
  std::vector<SinkMark> sink_marks_;
  std::vector<double> change_ms_;
  uint64_t changes_ = 0;

  // Run totals.
  std::vector<double> gen_late_us_;
  uint64_t attempted_ = 0;
  uint64_t lost_ = 0;
  uint64_t failed_ = 0;
  std::mutex errors_mu_;
  std::vector<std::string> errors_;
};

/// Run fn on the subscriber loop and wait for it. No timeout of its own:
/// the task refers to this frame, so the run's alarm is the deadline.
template <typename Fn>
void Driver::on_loop(Fn&& fn) {
  std::promise<void> done;
  std::future<void> fut = done.get_future();
  reactor_->post([&] {
    try {
      fn();
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  fut.get();
}

template <typename Pred>
void Driver::wait_until(const char* what, Pred&& pred) {
  const uint64_t deadline = now_ns() + static_cast<uint64_t>(kTimeoutS * 1e9);
  while (!pred()) {
    if (now_ns() > deadline) throw std::runtime_error(std::string("timed out: ") + what);
    sleep_us(50);
  }
}

void Driver::note_failure(const std::string& what) {
  ++failed_;
  note_error(what);
}

void Driver::note_error(const std::string& what) {
  std::lock_guard<std::mutex> lock(errors_mu_);
  if (errors_.size() < 20) errors_.push_back(what);
}

void Driver::build_pool_and_oracle() {
  morph::Rng rng(opts_.seed * 0x9e3779b97f4a7c15ull + std::hash<std::string>{}(w_.name));
  sched_rng_ = morph::Rng(rng.next_u64());
  for (size_t i = 0; i < w_.pool_size; ++i) pool_.push_back(w_.make_record(w_, rng, pool_arena_));

  // The reference for every revision a subscriber or the broker reads: a
  // Receiver that learned the same formats and transforms, fed the
  // publisher's encoding of each pool record (seq = pool index).
  morph::pbio::Encoder enc(w_.publish_fmt());
  morph::ByteBuffer wire;
  refs_.resize(w_.revs.size());
  for (size_t rev = 0; rev < w_.revs.size(); ++rev) {
    ref_arenas_.push_back(std::make_unique<morph::RecordArena>());
    morph::core::Receiver rx;
    void* got = nullptr;
    rx.register_handler(w_.revs[rev], [&](const morph::core::Delivery& d) { got = d.record; });
    for (const auto& f : w_.revs) rx.learn_format(f);
    for (const auto& spec : w_.transforms) rx.learn_transform(spec);
    for (size_t i = 0; i < pool_.size(); ++i) {
      write_seq(pool_[i], static_cast<int64_t>(i));
      wire.clear();
      enc.encode(pool_[i], wire);
      got = nullptr;
      rx.process(wire.data(), wire.size(), *ref_arenas_.back());
      if (got == nullptr) throw std::runtime_error("oracle could not read revision " +
                                                   std::to_string(rev));
      refs_[rev].push_back(got);
    }
  }
}

// --- loop thread -------------------------------------------------------------------

void Driver::on_delivery(Sink& s, const morph::echo::Event& ev) {
  const uint64_t t = now_ns();
  const void* rec = ev.delivery->record;
  const int64_t seq = read_seq(rec);
  ++s.received;
  if (seq <= s.last_seq || seq >= sent_.load(std::memory_order_acquire)) {
    ++s.disorder;
    if (s.disorder == 1) {
      note_error(s.contact + ": seq " + std::to_string(seq) + " after " +
                 std::to_string(s.last_seq));
    }
    return;
  }
  s.last_seq = seq;
  const std::string diff =
      first_difference(*s.fmt, rec, refs_[static_cast<size_t>(s.spec.rev)][seq % pool_.size()]);
  if (!diff.empty()) {
    ++s.wrong;
    if (s.wrong == 1) {
      note_error(s.contact + ": seq " + std::to_string(seq) + " differs at " + diff);
    }
  }
  if (seq >= lat_first_seq_.load(std::memory_order_acquire)) {
    const uint64_t due = intended_[static_cast<size_t>(seq)].load(std::memory_order_relaxed);
    const auto slice = static_cast<uint32_t>(static_cast<double>(due - lat_t0_) /
                                             (kSlice * 1e9));
    samples_.push_back({std::min(slice, lat_slices_ - 1), t - due});
  }
  if (trace_on_.load(std::memory_order_relaxed)) s.entries.emplace_back(seq, t);
  if (s.received == 1 && ++sinks_with_first_ == sinks_.size()) first_all_ns_.store(t);
  if (s.spec.churns) return;
  uint64_t fully = UINT64_MAX;
  for (const Sink* st : steady_) fully = std::min(fully, st->received);
  fully_.store(fully);
  if (waiting_.load()) {
    std::lock_guard<std::mutex> lock(progress_mu_);
    progress_cv_.notify_one();
  }
}

void Driver::after_data(Sink& s) {
  if (!s.change_pending) return;
  bool in = false;
  for (const auto& m : s.proc->members("egress")) {
    if (m.contact == s.contact && m.is_sink) in = true;
  }
  if (in != s.member) return;
  change_ms_.push_back(static_cast<double>(now_ns() - s.change_t0) / 1e6);
  s.change_pending = false;
}

/// Throws morph::Error, changing nothing, while the broker is unknown.
void Driver::change_membership(Sink& s, bool join) {
  const uint64_t t0 = now_ns();
  if (join) {
    s.proc->open_channel("egress", "broker", false, true);
  } else {
    s.proc->leave_channel("egress", "broker");
  }
  // The response is handled on this thread, so it cannot land before this.
  s.member = join;
  s.change_t0 = t0;
  s.change_pending = true;
  ++changes_;
}

// --- instance lifecycle ----------------------------------------------------------------

double Driver::start_instance() {
  const uint64_t t0 = now_ns();
  broker_ = std::make_unique<BrokerProcess>(exe_, w_.name);

  next_seq_ = 0;
  next_churn_ns_ = UINT64_MAX;  // membership holds still during set-up
  sent_.store(0);
  fully_.store(0);
  first_all_ns_.store(0);
  sinks_with_first_ = 0;
  accepted_ = 0;
  changes_ = 0;
  sinks_.clear();
  steady_.clear();
  churner_ = nullptr;
  for (size_t i = 0; i < w_.subs.size(); ++i) {
    auto s = std::make_unique<Sink>();
    s->spec = w_.subs[i];
    s->contact = "sub" + std::to_string(i);
    s->fmt = w_.revs[static_cast<size_t>(s->spec.rev)];
    s->proc = std::make_unique<EchoProcess>(s->contact, morph::echo::EchoVersion::kV2);
    if (s->spec.churns) {
      churner_ = s.get();
    } else {
      steady_.push_back(s.get());
    }
    sinks_.push_back(std::move(s));
  }

  pin_to({kSubscriberCpu});  // the loop thread inherits this mask
  reactor_ = std::make_unique<morph::transport::Reactor>(morph::transport::ReactorOptions{});
  pin_to({kGeneratorCpu});
  reactor_->set_on_accept([this](AsyncTcpLink& link) {
    Sink& s = *sinks_[accepted_++];
    s.link = link.shared();
    s.tap = std::make_unique<TapLink>(s.link, [this, &s] { after_data(s); });
    s.proc->attach_link(*s.tap);
    s.proc->on_event(
        "egress", s.fmt, [this, &s](const morph::echo::Event& ev) { on_delivery(s, ev); },
        s.spec.encoding);
  });
  pub_link_ = morph::transport::TcpLink::connect("127.0.0.1", broker_->port());
  pub_port_ = std::make_unique<morph::transport::MessagePort>(*pub_link_, nullptr);
  for (const auto& spec : w_.transforms) pub_port_->declare_transform(spec);
  for (size_t i = 0; i < sinks_.size(); ++i) {
    reactor_->adopt(morph::transport::TcpLink::connect("127.0.0.1", broker_->port())->release_fd());
  }

  // Join as soon as each subscriber has learned the broker's name (HELLO).
  std::vector<bool> joined(sinks_.size(), false);
  wait_until("channel open requests", [&] {
    bool all = true;
    on_loop([&] {
      for (size_t i = 0; i < sinks_.size(); ++i) {
        if (joined[i] || i >= accepted_) {
          all = all && joined[i];
          continue;
        }
        try {
          change_membership(*sinks_[i], true);
          joined[i] = true;
        } catch (const morph::Error&) {
          all = false;  // the broker has not introduced itself yet; retry
        }
      }
    });
    return all;
  });
  wait_until("membership", [&] {
    bool settled = true;
    on_loop([&] {
      for (const auto& s : sinks_) settled = settled && !s->change_pending;
    });
    return settled;
  });
  wait_until("EVTSUB grouping", [&] { return broker_->grouped_sinks() == sinks_.size(); });

  // First event through every revision: decision builds, plan builds, JIT.
  for (uint64_t i = 0; i < kWarmup; ++i) {
    wait_for_window();
    send(next_seq_, now_ns());
    ++next_seq_;
  }
  wait_until("first event at every subscriber", [&] { return first_all_ns_.load() != 0; });
  const double setup_s = static_cast<double>(first_all_ns_.load() - t0) / 1e9;
  drain();
  pub_link_->pump(0);  // the broker's HELLO and EVTSUB controls
  return setup_s;
}

void Driver::stop_instance() {
  reactor_.reset();  // joins the loop; no callbacks after this
  sinks_.clear();
  steady_.clear();
  churner_ = nullptr;
  pub_port_.reset();
  pub_link_.reset();
  broker_.reset();
}

// --- generator ---------------------------------------------------------------------------

void Driver::send(int64_t seq, uint64_t intended) {
  if (static_cast<size_t>(seq) >= max_events_) throw std::runtime_error("event budget exhausted");
  void* rec = pool_[static_cast<size_t>(seq) % pool_.size()];
  write_seq(rec, seq);
  intended_[static_cast<size_t>(seq)].store(intended, std::memory_order_relaxed);
  sent_.store(seq + 1, std::memory_order_release);
  pub_port_->send_record(w_.publish_fmt(), rec);
}

void Driver::churn_tick(uint64_t now) {
  if (churner_ == nullptr || now < next_churn_ns_) return;
  const auto period = static_cast<uint64_t>(w_.churn_period_s * 1e9);
  next_churn_ns_ = std::max(next_churn_ns_ + period, now);
  reactor_->post([this] {
    if (!churner_->change_pending) change_membership(*churner_, !churner_->member);
  });
}

/// Block until fewer than kWindow events are in flight to the steady sinks.
void Driver::wait_for_window() {
  uint64_t last = fully_.load();
  uint64_t last_change = now_ns();
  while (static_cast<uint64_t>(next_seq_) - fully_.load() >= kWindow) {
    std::unique_lock<std::mutex> lock(progress_mu_);
    waiting_.store(true);
    progress_cv_.wait_for(lock, std::chrono::milliseconds(2), [&] {
      return static_cast<uint64_t>(next_seq_) - fully_.load() < kWindow;
    });
    waiting_.store(false);
    lock.unlock();
    const uint64_t now = now_ns();
    churn_tick(now);
    if (fully_.load() != last) {
      last = fully_.load();
      last_change = now;
    } else if (now - last_change > static_cast<uint64_t>(kTimeoutS * 1e9)) {
      throw std::runtime_error("closed loop stalled: events stopped arriving");
    }
  }
}

double Driver::closed_loop(double seconds) {
  const uint64_t start = now_ns();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  const auto slice = static_cast<uint64_t>(kCapacitySlice * 1e9);
  std::vector<double> rates;
  uint64_t slice_start = start;
  uint64_t slice_base = fully_.load();
  for (uint64_t now = start; now < end; now = now_ns()) {
    wait_for_window();
    send(next_seq_, now_ns());
    ++next_seq_;
    churn_tick(now);
    if (now - slice_start >= slice) {
      const uint64_t done = fully_.load();
      rates.push_back(static_cast<double>(done - slice_base) * 1e9 /
                      static_cast<double>(now - slice_start));
      slice_start = now;
      slice_base = done;
    }
  }
  drain();
  return median(rates);
}

WindowResult Driver::open_loop(double seconds, bool traced) {
  // The schedule is fixed before the first send: Poisson arrivals at the
  // workload's rate from the seeded stream.
  std::vector<uint64_t> offsets;
  const double horizon = seconds * 1e9;
  for (double t = 0;;) {
    t += -std::log(1.0 - sched_rng_.next_double()) * 1e9 / w_.fixed_rate;
    if (t >= horizon) break;
    offsets.push_back(static_cast<uint64_t>(t));
  }
  lat_slices_ = std::max<uint32_t>(1, static_cast<uint32_t>(std::lround(seconds / kSlice)));
  const auto slice_ns = static_cast<uint64_t>(kSlice * 1e9);

  WindowResult r;
  if (traced) {
    broker_->command("TRACE 1");
    r.pub_send_us.reserve(offsets.size());
  }
  on_loop([&] {
    samples_.clear();
    samples_.reserve(offsets.size() * sinks_.size() + 1024);
    for (const auto& s : sinks_) {
      s->entries.clear();
      if (traced) s->entries.reserve(offsets.size() + 1024);
    }
    sink_marks_.assign(1, sink_mark());
  });
  trace_on_.store(traced);
  r.marks.push_back(broker_->mark());

  const uint64_t start = now_ns() + 1000000;  // 1 ms to get going
  lat_t0_ = start;
  lat_first_seq_.store(next_seq_, std::memory_order_release);
  uint64_t next_slice = start + slice_ns;
  for (uint64_t off : offsets) {
    const uint64_t due = start + off;
    if (!traced && due >= next_slice) {
      // Slice boundary: counters on both sides, without waiting for them.
      broker_->post_mark();
      reactor_->post([this] { sink_marks_.push_back(sink_mark()); });
      next_slice += slice_ns;
    }
    if (due > now_ns() + kSpinNs) sleep_until_ns(due - kSpinNs);
    uint64_t now = now_ns();
    while (now < due) now = now_ns();
    gen_late_us_.push_back(static_cast<double>(now - due) / 1e3);
    churn_tick(now);
    if (traced) {
      const uint64_t a = now_ns();
      send(next_seq_, due);
      r.pub_send_us.push_back(static_cast<double>(now_ns() - a) / 1e3);
    } else {
      send(next_seq_, due);
    }
    ++next_seq_;
  }
  drain();
  for (Mark& m : broker_->collect_marks()) r.marks.push_back(std::move(m));
  r.marks.push_back(broker_->mark());
  trace_on_.store(false);
  lat_first_seq_.store(INT64_MAX);
  if (traced) broker_->command("TRACE 0");
  on_loop([&] {
    sink_marks_.push_back(sink_mark());
    r.sink = sink_marks_;
  });
  return r;
}

SinkMark Driver::sink_mark() {
  SinkMark m;
  m.cpu_us = thread_cpu_us();
  for (const auto& s : sinks_) m.deliveries += s->received;
  return m;
}

void Driver::latency_slices(std::vector<double>& p50s, std::vector<double>& p99s,
                            size_t& samples) {
  std::vector<std::vector<double>> slices(lat_slices_);
  on_loop([&] {
    for (const auto& smp : samples_) slices[smp.slice].push_back(static_cast<double>(smp.ns) / 1e3);
  });
  samples = 0;
  for (const auto& sl : slices) {
    if (sl.empty()) continue;
    samples += sl.size();
    p50s.push_back(percentile(sl, 0.50));
    p99s.push_back(percentile(sl, 0.99));
  }
}

/// Wait until every steady sink has every event sent so far. Events still
/// missing after kTimeoutS are lost; verify_instance() counts them.
void Driver::drain() {
  const uint64_t deadline = now_ns() + static_cast<uint64_t>(kTimeoutS * 1e9);
  while (fully_.load() < static_cast<uint64_t>(next_seq_)) {
    if (now_ns() > deadline) {
      note_error("events missing at a steady subscriber after " + std::to_string(kTimeoutS) +
                 " s");
      return;
    }
    sleep_us(50);
  }
}

void Driver::verify_instance() {
  // Conservation against the broker's own counters, once the churner's
  // in-flight deliveries have landed.
  const uint64_t deadline = now_ns() + static_cast<uint64_t>(2e9);
  Mark m;
  uint64_t seen = 0;
  for (;;) {
    m = broker_->mark();
    on_loop([&] {
      seen = 0;
      for (const auto& s : sinks_) seen += s->received;
    });
    if (static_cast<double>(seen) == m.at("deliveries") || now_ns() > deadline) break;
    sleep_us(200);
  }
  if (static_cast<double>(seen) != m.at("deliveries")) {
    note_failure("echo_fanout_deliveries_total " + std::to_string(m.at("deliveries")) +
                 " != deliveries seen " + std::to_string(seen));
  }
  if (m.at("published") != static_cast<double>(next_seq_)) {
    note_failure("broker published " + std::to_string(m.at("published")) + " of " +
                 std::to_string(next_seq_) + " events");
  }
  if (m.at("rx_messages") != m.at("rx_outcomes")) {
    note_failure("broker receiver: messages != sum of outcomes");
  }
  if (m.at("send_drops") != 0) note_failure("morph_reactor_send_drops_total != 0");
  if (m.at("bp_closes") != 0) note_failure("morph_reactor_backpressure_closes_total != 0");
  if (m.at("fallbacks") != 0) note_failure("echo_fanout_fallback_total != 0");

  // A wrong, duplicated or reordered record counts as lost on a steady
  // sink; on the churner (whose expected set depends on timing) it fails.
  on_loop([&] {
    for (const auto& s : sinks_) {
      const uint64_t bad = s->wrong + s->disorder;
      if (s->spec.churns) {
        failed_ += bad;
        continue;
      }
      const auto expected = static_cast<uint64_t>(next_seq_);
      const uint64_t good = s->received - bad;
      const uint64_t lost = expected > good ? expected - good : 0;
      attempted_ += expected;
      lost_ += lost;
      failed_ += lost;
    }
  });
}

// --- the run ------------------------------------------------------------------------------

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

int Driver::run() {
  build_pool_and_oracle();
  // Room for every event a run can send: the open loop's schedule plus a
  // closed loop of up to ~280k events/s, several times any workload's.
  max_events_ = static_cast<size_t>(w_.fixed_rate * opts_.seconds * 1.5 +
                                    100000 * opts_.seconds) + kWarmup;
  intended_ = std::make_unique<std::atomic<uint64_t>[]>(max_events_);

  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    setups.push_back(start_instance());
    if (i + 1 < kSetups) {
      verify_instance();
      stop_instance();
    }
  }
  std::vector<Metric> metrics;
  const double S = opts_.seconds;
  next_churn_ns_ = now_ns();

  std::vector<double> p50s, p99s;
  size_t samples = 0;
  if (!opts_.trace) {
    // Fixed rate first: the broker's peak RSS is then taken after a number
    // of events fixed by the schedule, not by how fast the closed loop ran.
    const WindowResult win = open_loop(0.55 * S, false);
    latency_slices(p50s, p99s, samples);
    const double throughput = closed_loop(0.35 * S);
    verify_instance();
    metrics = {
        {"setup_s", "s", median(setups)},
        {"throughput_eps", "events/s", throughput},
        {"broker_cpu_us_per_event", "us", win.broker_cpu_per_event()},
        {"sink_cpu_us_per_delivery", "us", win.sink_cpu_per_delivery()},
        {"broker_rss_mb", "MB", win.after().at("maxrss_kb") / 1024.0},
        {"wire_bytes_per_delivery", "B", win.delta("deliveries") > 0
                                             ? win.delta("bytes_sent") / win.delta("deliveries")
                                             : 0},
    };
  } else {
    // The untraced window gives the latency and the overhead baseline.
    const WindowResult plain = open_loop(0.3 * S, false);
    latency_slices(p50s, p99s, samples);
    const WindowResult win = open_loop(0.5 * S, true);
    const std::vector<RelaySpan> relay = broker_->spans();
    std::vector<std::vector<std::pair<int64_t, uint64_t>>> entries;
    on_loop([&] {
      for (const auto& s : sinks_) entries.push_back(s->entries);
    });
    verify_instance();
    const Mark end = win.after();
    const double changes = static_cast<double>(changes_);
    stop_instance();
    const ProbeResult probe = run_probes(w_, pool_);

    // Spans, joined by sequence number.
    std::vector<double> ingress, egress, publish;
    std::vector<uint64_t> relay_end;
    const int64_t first = relay.empty() ? 0 : relay.front().seq;
    for (const auto& sp : relay) {
      const auto idx = static_cast<size_t>(sp.seq);
      ingress.push_back(static_cast<double>(sp.entry_ns - intended_[idx].load()) / 1e3);
      publish.push_back(static_cast<double>(sp.end_ns - sp.entry_ns) / 1e3);
      if (sp.seq - first >= 0) {
        relay_end.resize(static_cast<size_t>(sp.seq - first) + 1, 0);
        relay_end[static_cast<size_t>(sp.seq - first)] = sp.end_ns;
      }
    }
    for (const auto& es : entries) {
      for (const auto& [seq, t] : es) {
        const int64_t k = seq - first;
        if (k < 0 || static_cast<size_t>(k) >= relay_end.size() || relay_end[k] == 0) continue;
        egress.push_back(static_cast<double>(t - relay_end[static_cast<size_t>(k)]) / 1e3);
      }
    }
    const double traced_cpu = win.broker_cpu_per_event();
    const double plain_cpu = plain.broker_cpu_per_event();
    const double hits = end.at("rx_hits"), misses = end.at("rx_misses");
    const double stime = win.delta("stime_us"), utime = win.delta("utime_us");
    const double deliveries = win.delta("deliveries");
    metrics = {
        {"latency_p50_us", "us", median(p50s)},
        {"latency_p99_us", "us", median(p99s)},
        {"transport.pub_send_us", "us", median(win.pub_send_us)},
        {"transport.ingress_us", "us", median(ingress)},
        {"transport.egress_us", "us", median(egress)},
        {"transport.reactor_loop_ns_p50", "ns", end.at("loop_ns_p50")},
        {"transport.dispatch_ns_p50", "ns", end.at("dispatch_ns_p50")},
        {"transport.wakeups_per_event", "count", win.per_event("loops")},
        {"transport.kernel_cpu_share", "ratio", stime + utime > 0 ? stime / (stime + utime) : 0},
        {"transport.frames_sent_per_event", "count", win.per_event("frames_sent")},
        {"transport.send_drops", "count", end.at("send_drops")},
        {"transport.backpressure_closes", "count", end.at("bp_closes")},
        {"receiver.decide_ns_p50", "ns", end.at("decide_ns_p50")},
        {"receiver.decode_ns_p50", "ns", end.at("decode_ns_p50")},
        {"receiver.morph_ns_p50", "ns", end.at("morph_ns_p50")},
        {"receiver.cache_hit_ratio", "ratio", hits + misses > 0 ? hits / (hits + misses) : 0},
        {"receiver.decision_build_ms", "ms", end.at("build_ms")},
        {"receiver.process_us", "us", probe.receiver_process_us},
        {"ecode.compile_ms", "ms", end.at("compile_ms")},
        {"ecode.jit_ms", "ms", end.at("jit_ms")},
        {"ecode.verify_ms", "ms", end.at("verify_ms")},
        {"ecode.chain_morph_us", "us", probe.chain_morph_us},
        {"echo.publish_us_p50", "us", percentile(publish, 0.50)},
        {"echo.publish_us_p99", "us", percentile(publish, 0.99)},
        {"echo.morphs_per_event", "count", win.per_event("morphs")},
        {"echo.encodes_per_event", "count", win.per_event("encodes")},
        {"echo.deliveries_per_event", "count", win.per_event("deliveries")},
        {"echo.fallback_ratio", "ratio", deliveries > 0 ? win.delta("fallbacks") / deliveries : 0},
        {"echo.membership_change_ms", "ms", median(change_ms_)},
        {"echo.group_rebuilds_per_change", "count", changes > 0 ? end.at("rebuilds") / changes : 0},
        {"pbio.encode_us", "us", probe.pbio_encode_us},
        {"pbio.decode_us", "us", probe.pbio_decode_us},
        {"pbuf.encode_us", "us", probe.pbuf_encode_us},
        {"pbuf.decode_us", "us", probe.pbuf_decode_us},
        {"pbuf.encodes_per_event", "count", win.per_event("pbuf_encodes")},
        {"driver.gen_late_p99_us", "us", percentile(gen_late_us_, 0.99)},
        {"driver.gen_late_max_us", "us", percentile(gen_late_us_, 1.0)},
        {"budget.unattributed_us_per_event", "us",
         traced_cpu - probe.receiver_process_us - median(publish)},
        {"trace.overhead_pct", "%", plain_cpu > 0 ? (traced_cpu - plain_cpu) / plain_cpu * 100 : 0},
    };
  }
  if (!opts_.trace) stop_instance();

  std::fprintf(stderr, "%s seed=%llu: %zu latency samples in %zu slices at %.0f events/s\n",
               w_.name.c_str(), static_cast<unsigned long long>(opts_.seed), samples, p50s.size(),
               w_.fixed_rate);
  for (size_t i = 0; i < p50s.size(); ++i) {
    std::fprintf(stderr, "  slice %zu: p50 %.1f us, p99 %.1f us\n", i, p50s[i], p99s[i]);
  }
  // Transient stalls show in driver.gen_late_*; a generator that is late on
  // the median event could not hold the rate, and its latencies are void.
  const double gen_p50 = percentile(gen_late_us_, 0.50);
  if (gen_p50 > kMaxGenLateUs) {
    note_failure("generator fell behind: median lateness " + std::to_string(gen_p50) +
                 " us; run invalid");
  }
  for (const auto& m : metrics) {
    if (!std::isfinite(m.value)) note_failure(m.name + " is not a finite number");
  }
  const double loss = attempted_ > 0 ? static_cast<double>(lost_) / static_cast<double>(attempted_)
                                     : 1.0;
  if (opts_.trace) metrics.push_back({"loss_fraction", "ratio", loss});

  for (const auto& e : errors_) std::fprintf(stderr, "FAIL %s: %s\n", w_.name.c_str(), e.c_str());
  for (const auto& m : metrics) {
    std::fprintf(stderr, "  %-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::fprintf(stderr, "  loss fraction %.6f (attempted %llu, failed %llu)\n", loss,
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_));

  const bool correct = failed_ == 0 && attempted_ > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void on_alarm(int) {
  const pid_t pid = g_broker_pid.load();
  if (pid > 0) kill(pid, SIGKILL);
  static const char msg[] = "pipeline_bench: run exceeded its deadline\n";
  (void)!write(STDERR_FILENO, msg, sizeof msg - 1);
  _exit(3);
}

}  // namespace

int run_driver(const Options& options, const std::string& self_exe) {
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGALRM, on_alarm);
  alarm(170);
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  morph::obs::set_tracing(false);
  Driver driver(options, self_exe);
  return driver.run();
}

}  // namespace perfbench
