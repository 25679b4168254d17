#include "ecode/ecode.hpp"

#include <cstdlib>
#include <vector>

#include "common/error.hpp"
#include "ecode/compiler.hpp"
#include "ecode/jit_x64.hpp"
#include "ecode/parser.hpp"
#include "ecode/vm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace morph::ecode {

namespace {
using M = obs::Metric;

struct EcodeMetrics {
  obs::Histogram& compile_ns = obs::metrics().histogram(M::morph_ecode_compile_ns);
  obs::Histogram& verify_ns = obs::metrics().histogram(M::morph_ecode_verify_ns);
  obs::Histogram& jit_ns = obs::metrics().histogram(M::morph_ecode_jit_ns);
  obs::Counter& jit_dispatch = obs::metrics().counter(M::morph_ecode_dispatch_total, {"jit"});
  obs::Counter& vm_dispatch = obs::metrics().counter(M::morph_ecode_dispatch_total, {"vm"});
  obs::Gauge& code_bytes = obs::metrics().gauge(M::morph_ecode_native_code_bytes);
};

EcodeMetrics& em() {
  static EcodeMetrics& m = *new EcodeMetrics();  // leaked: outlives static dtors
  return m;
}
}  // namespace

bool jit_supported() {
#if defined(__x86_64__) && defined(__unix__)
  // Probed once at first use: getenv is racy only against a concurrent
  // setenv, which this process never performs after startup.
  static const bool enabled = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* disabled = std::getenv("MORPH_DISABLE_JIT");
    return disabled == nullptr || disabled[0] == '\0' || disabled[0] == '0';
  }();
  return enabled;
#else
  return false;
#endif
}

Transform Transform::compile(const std::string& source, std::vector<RecordParam> params,
                             ExecBackend backend) {
  CompileOptions options;
  options.backend = backend;
  return compile(source, std::move(params), options);
}

Transform Transform::compile(const std::string& source, std::vector<RecordParam> params,
                             const CompileOptions& options) {
  uint64_t t0 = obs::monotonic_ns();
  auto prog = parse(source);
  analyze(*prog, params);

  Transform t;
  t.chunk_ = ecode::compile(*prog, params);
  t.params_ = std::move(params);
  em().compile_ns.record(obs::monotonic_ns() - t0);

  if (options.verify) {
    obs::TraceSpan verify_span("ecode.verify", &em().verify_ns);
    VerifyOptions vo;
    vo.require_full_assignment = options.require_full_assignment;
    VerifyResult result = verify(t.chunk_, t.params_, vo);

    // An uncertifiable loop is repaired, not rejected: when every error is
    // an unbounded loop, the offending back-edges are routed through fuel
    // guards and the chunk is re-verified, which must discharge exactly
    // those findings.
    if (!result.ok() && options.fuel_limit > 0 && !result.unbounded_backedges.empty()) {
      bool only_loops = true;
      for (const auto& f : result.findings) {
        if (f.severity == VerifySeverity::kError && f.check != VerifyCheck::kUnboundedLoop) {
          only_loops = false;
          break;
        }
      }
      if (only_loops && result.error_count() == result.unbounded_backedges.size()) {
        Chunk guarded = instrument_fuel(t.chunk_, options.fuel_limit, result.unbounded_backedges);
        VerifyResult reverified = verify(guarded, t.params_, vo);
        if (reverified.ok()) {
          t.chunk_ = std::move(guarded);
          t.fuel_instrumented_ = true;
          result = std::move(reverified);
        }
      }
    }

    if (!result.ok()) throw VerifyError(std::move(result));
    t.verify_findings_ = std::move(result.findings);
  }

  ExecBackend backend = options.backend;
  bool want_jit = backend == ExecBackend::kJit || (backend == ExecBackend::kAuto && jit_supported());
  if (want_jit) {
    uint64_t j0 = obs::monotonic_ns();
    auto jit = JitCode::build(t.chunk_);
    em().jit_ns.record(obs::monotonic_ns() - j0);
    if (jit == nullptr && backend == ExecBackend::kJit) {
      throw Error("ecode: JIT requested but not supported on this platform");
    }
    if (jit != nullptr) em().code_bytes.add(static_cast<double>(jit->code_size()));
    t.jit_ = std::move(jit);
  }
  return t;
}

Transform::~Transform() = default;
Transform::Transform(Transform&&) noexcept = default;
Transform& Transform::operator=(Transform&&) noexcept = default;

bool Transform::jitted() const { return jit_ != nullptr; }

size_t Transform::native_code_size() const { return jit_ ? jit_->code_size() : 0; }

void Transform::run(void* const* records, RecordArena& arena) const {
  EcodeRuntime rt;
  rt.arena = &arena;
  // Dispatch counters only — run() sits inside the per-message morph path,
  // whose latency the receiver already times per format.
  (jit_ ? em().jit_dispatch : em().vm_dispatch).inc();
  if (jit_) {
    // Locals live on the caller's stack frame; 64 covers almost every
    // transform without touching the heap.
    if (chunk_.local_slots <= 64) {
      int64_t locals[64] = {0};
      jit_->run(records, locals, rt);
    } else {
      std::vector<int64_t> locals(static_cast<size_t>(chunk_.local_slots), 0);
      jit_->run(records, locals.data(), rt);
    }
    return;
  }
  vm_run(chunk_, records, rt);
}

void Transform::run2(void* dst, const void* src, RecordArena& arena) const {
  if (params_.size() != 2) {
    throw Error("Transform::run2 requires a two-parameter transform");
  }
  void* records[2] = {dst, const_cast<void*>(src)};
  run(records, arena);
}

}  // namespace morph::ecode
