// Ecode safety verifier: a static analysis pass over compiled bytecode that
// runs between the bytecode compiler and the JIT.
//
// A receiver executes dynamically generated transformation code in its own
// address space on messages it has never seen; sema proves the program is
// well-typed against the format descriptors, but nothing else. This pass
// proves, per Chunk, machine-checked safety properties:
//
//   (a) memory safety — every field, static-array, and dynamic-array access
//       stays inside the region the source format's descriptor declares
//       (dynamic-array reads must be dominated by a guard against the
//       array's declared length field);
//   (b) definite assignment — destination fields are assigned before the
//       transform returns, and never read before they are assigned (no
//       zeroed garbage leaks into morphed messages);
//   (c) bounded execution — every loop carries a termination certificate
//       (a unit-step induction variable tested against a loop-invariant
//       bound), or the verifier inserts a fuel counter that cuts it off;
//   (d) backend agreement — the structural invariants the x86-64 JIT
//       assumes but never checks (consistent stack depth at every pc, jump
//       targets on instruction boundaries, local/param/string indices in
//       range, load/store widths and signedness matching the descriptor)
//       hold by construction, closing the VM/JIT differential gap.
//
// The verifier is conservative: it may reject a safe program (report it as
// unprovable), never the reverse. Aliasing between record parameters is
// assumed absent — the morph core always passes distinct records.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "ecode/bytecode.hpp"
#include "ecode/sema.hpp"

namespace morph::ecode {

enum class VerifySeverity : uint8_t { kWarning, kError };

/// Which property a finding violates.
enum class VerifyCheck : uint8_t {
  kStructure,        // malformed chunk: bad jump target / index out of range
  kStackShape,       // inconsistent or overflowing evaluation stack
  kTypeConfusion,    // int/float/pointer/string operand kind mismatch
  kOobAccess,        // access not provably inside the descriptor's region
  kWidthMismatch,    // load/store width or signedness differs from the field
  kReadBeforeAssign, // destination field read before it is assigned
  kUninitField,      // destination field never definitely assigned
  kUnboundedLoop,    // no termination certificate for a loop
};

const char* verify_check_name(VerifyCheck c);

struct VerifyFinding {
  VerifyCheck check = VerifyCheck::kStructure;
  VerifySeverity severity = VerifySeverity::kError;
  std::string message;
  int pc = -1;        // bytecode index, -1 when not tied to an instruction
  int line = 0;       // 1-based Ecode source line (0 = unknown/synthesized)
  std::string field;  // dotted field path ("old.member_count") when known

  std::string to_string() const;
};

struct VerifyOptions {
  /// Parameters treated as transform destinations for checks (b); by the
  /// paper's convention the destination is parameter 0 ("old").
  std::vector<int> dst_params = {0};
  /// Escalate kUninitField findings from warning to error.
  bool require_full_assignment = false;
};

struct VerifyResult {
  std::vector<VerifyFinding> findings;
  /// Bytecode indices of back-edges with no termination certificate; these
  /// are the jumps instrument_fuel() needs to guard.
  std::vector<int> unbounded_backedges;

  bool ok() const {
    for (const auto& f : findings) {
      if (f.severity == VerifySeverity::kError) return false;
    }
    return true;
  }
  size_t error_count() const {
    size_t n = 0;
    for (const auto& f : findings) {
      if (f.severity == VerifySeverity::kError) ++n;
    }
    return n;
  }
  /// One finding per line, "check: message (line N, field F)".
  std::string to_string() const;
};

/// Run the verifier over a compiled chunk. `params` must be the same record
/// parameters the chunk was compiled against.
VerifyResult verify(const Chunk& chunk, const std::vector<RecordParam>& params,
                    const VerifyOptions& options = {});

/// Rewrite `chunk` so every back-edge listed in `backedges` is redirected
/// through an appended guard trampoline that bumps a fresh fuel local and
/// exits the transform once it reaches `fuel_limit`. No original instruction
/// moves, so jump targets stay valid. The instrumented program is
/// observationally identical until `fuel_limit` total guarded back-edge
/// traversals, after which it returns early — turning a potential infinite
/// loop into a truncated (but delivered) morph. Each listed back-edge must
/// run at statement depth (empty evaluation stack after its own pop); true
/// for all compiler-emitted loops and enforced by verify(), which only lists
/// such edges in VerifyResult::unbounded_backedges.
Chunk instrument_fuel(const Chunk& chunk, int64_t fuel_limit, const std::vector<int>& backedges);

/// Thrown by Transform::compile with CompileOptions::verify set when
/// verification fails; carries the structured findings.
class VerifyError : public EcodeError {
 public:
  explicit VerifyError(VerifyResult result)
      : EcodeError("transform rejected by verifier:\n" + result.to_string(), first_line(result)),
        result_(std::move(result)) {}
  const VerifyResult& result() const { return result_; }

 private:
  static int first_line(const VerifyResult& r) {
    for (const auto& f : r.findings) {
      if (f.severity == VerifySeverity::kError && f.line > 0) return f.line;
    }
    return 0;
  }
  VerifyResult result_;
};

}  // namespace morph::ecode
