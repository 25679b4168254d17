// Ablation A — what dynamic binary code generation buys.
//
// The Figure 5 transform executed by: (a) handwritten C++ (the upper
// bound), (b) the Ecode x86-64 JIT (the paper's DCG), (c) the Ecode
// bytecode interpreter (what a DCG-less implementation would do).
#include "bench_support.hpp"

#include "core/transform.hpp"
#include "pbio/record.hpp"

namespace {

using namespace morph;
using namespace morph::bench;

void paper_table() {
  std::printf("Ablation A: Figure-5 transform execution backend (ms per message)\n\n");
  print_header("size", {"native-C++", "ecode-JIT", "ecode-VM", "VM/JIT"});

  auto spec = echo::response_v2_to_v1_spec();
  core::MorphChain jit_chain({&spec}, {.backend = ecode::ExecBackend::kJit});
  core::MorphChain vm_chain({&spec}, {.backend = ecode::ExecBackend::kInterpreter});

  for (size_t size : paper_sizes()) {
    RecordArena arena;
    auto* rec = make_payload(size, arena);

    RecordArena a1;
    double native_ms = time_median_ms(size, [&] {
      a1.reset();
      benchmark::DoNotOptimize(echo::transform_v2_to_v1_reference(*rec, a1));
    });

    RecordArena a2;
    double jit_ms = time_median_ms(size, [&] {
      a2.reset();
      benchmark::DoNotOptimize(jit_chain.apply(rec, a2));
    });

    RecordArena a3;
    double vm_ms = time_median_ms(size, [&] {
      a3.reset();
      benchmark::DoNotOptimize(vm_chain.apply(rec, a3));
    });

    print_row(size_label(size), {native_ms, jit_ms, vm_ms, vm_ms / jit_ms});
  }
  std::printf("\nexpectation: JIT within a small factor of native; VM several times slower\n");
}

void bm_backend(benchmark::State& state, ecode::ExecBackend backend) {
  auto spec = echo::response_v2_to_v1_spec();
  core::MorphChain chain({&spec}, {.backend = backend});
  RecordArena arena;
  auto* rec = make_payload(static_cast<size_t>(state.range(0)), arena);
  RecordArena out;
  for (auto _ : state) {
    out.reset();
    benchmark::DoNotOptimize(chain.apply(rec, out));
  }
}
void bm_jit(benchmark::State& s) { bm_backend(s, ecode::ExecBackend::kJit); }
void bm_vm(benchmark::State& s) { bm_backend(s, ecode::ExecBackend::kInterpreter); }

BENCHMARK(bm_jit)->Arg(1 << 10)->Arg(100 << 10)->Arg(1 << 20);
BENCHMARK(bm_vm)->Arg(1 << 10)->Arg(100 << 10)->Arg(1 << 20);

}  // namespace

MORPH_BENCH_MAIN(paper_table)
