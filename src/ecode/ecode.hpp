// Ecode: the transformation language of Message Morphing.
//
// Ecode is the C subset the paper uses to express format transforms
// (Figure 5). A transform binds one or more named record parameters — by
// convention the destination first ("old") and the source second ("new") —
// and is compiled at runtime: lexer -> parser -> semantic analysis against
// the PBIO formats -> stack bytecode -> either an x86-64 native function
// (dynamic binary code generation, the paper's headline mechanism) or the
// portable bytecode VM.
//
// Language summary:
//   * types: int / long / short / char / unsigned / float / double
//     (integers are 64-bit at runtime; floats are doubles)
//   * statements: declarations, assignment (= += -= *= /= %=), ++/--,
//     if/else, for, while, blocks, return
//   * expressions: full C operator precedence, ?:, short-circuit && and ||,
//     builtins abs/min/max/strlen/streq, string literals
//   * record access: param.field, nested structs, static and dynamic
//     arrays (param.list[i].member). Writing through a destination
//     dynamic array grows it automatically; its count field is whatever
//     the program stores into it (as in Figure 5).
//   * division by zero yields 0; transforms can never trap.
//
// Thread safety: a compiled Transform is immutable and may be shared;
// each run() call uses its own arena/runtime.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "ecode/bytecode.hpp"
#include "ecode/sema.hpp"
#include "ecode/verify.hpp"

namespace morph::ecode {

class JitCode;  // internal (jit_x64.cpp)

enum class ExecBackend {
  kAuto,         // JIT when supported on this host, VM otherwise
  kInterpreter,  // force the bytecode VM
  kJit,          // force native code (throws if unsupported)
};

/// True when the native code generator supports this process (x86-64 and
/// not disabled via MORPH_DISABLE_JIT=1).
bool jit_supported();

struct CompileOptions {
  ExecBackend backend = ExecBackend::kAuto;
  /// Run the static verifier (ecode/verify.hpp) and throw VerifyError on any
  /// error-severity finding. Code from peers is always verified (the
  /// receiver and the fan-out planner set this); off is for local code.
  bool verify = false;
  /// Under verification, loops without a termination certificate are
  /// rewritten to give up after this many back-edge traversals instead of
  /// being rejected. 0 disables instrumentation (unbounded loops are errors).
  int64_t fuel_limit = 1 << 20;
  /// Escalate never-assigned destination fields from warning to error.
  bool require_full_assignment = false;
};

/// A compiled Ecode transform.
class Transform {
 public:
  /// Compile `source` against the given record parameters.
  /// Throws EcodeError on lexical/syntax/type errors.
  static Transform compile(const std::string& source, std::vector<RecordParam> params,
                           ExecBackend backend = ExecBackend::kAuto);

  /// Compile with explicit options. With options.verify the static verifier
  /// runs between bytecode generation and native code emission and throws
  /// VerifyError (carrying structured findings) before any executable
  /// artifact exists for a rejected program.
  static Transform compile(const std::string& source, std::vector<RecordParam> params,
                           const CompileOptions& options);

  ~Transform();
  Transform(Transform&&) noexcept;
  Transform& operator=(Transform&&) noexcept;

  /// Execute against `records` (one base pointer per record parameter, in
  /// declaration order). Memory the transform allocates (strings, grown
  /// arrays) comes from `arena` and must outlive the destination record.
  void run(void* const* records, RecordArena& arena) const;

  /// Convenience for the common two-parameter (dst, src) shape.
  void run2(void* dst, const void* src, RecordArena& arena) const;

  /// True when this transform executes as native code.
  bool jitted() const;

  const Chunk& chunk() const { return chunk_; }
  const std::vector<RecordParam>& params() const { return params_; }

  /// Warning-severity findings from verification (empty when compiled
  /// without it; a program with error findings never compiles).
  const std::vector<VerifyFinding>& verify_findings() const { return verify_findings_; }

  /// True when the verifier rewrote an uncertifiable loop with a fuel guard.
  bool fuel_instrumented() const { return fuel_instrumented_; }

  /// Bytecode listing (diagnostics).
  std::string disassemble() const { return chunk_.disassemble(); }

  /// Native code size in bytes (0 when interpreted).
  size_t native_code_size() const;

 private:
  Transform() = default;

  Chunk chunk_;
  std::vector<RecordParam> params_;
  std::shared_ptr<const JitCode> jit_;  // null -> VM
  std::vector<VerifyFinding> verify_findings_;
  bool fuel_instrumented_ = false;
};

}  // namespace morph::ecode
