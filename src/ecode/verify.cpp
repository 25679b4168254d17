#include "ecode/verify.hpp"

#include <algorithm>

#include "ecode/absint.hpp"

namespace morph::ecode {

namespace {

bool is_jump(Op op) { return op == Op::kJmp || op == Op::kJz || op == Op::kJnz; }

// ---------------------------------------------------------------------------
// Structural pass: the invariants the JIT assumes without checking. Any
// violation makes the abstract interpreter's job meaningless, so verify()
// stops after this pass if it fails.

void structural_pass(const Chunk& chunk, const std::vector<RecordParam>& params,
                     std::vector<VerifyFinding>& out) {
  auto err = [&](int pc, std::string msg) {
    VerifyFinding f;
    f.check = VerifyCheck::kStructure;
    f.severity = VerifySeverity::kError;
    f.message = std::move(msg);
    f.pc = pc;
    f.line = pc >= 0 && pc < static_cast<int>(chunk.code.size())
                 ? chunk.code[static_cast<size_t>(pc)].line
                 : 0;
    out.push_back(std::move(f));
  };

  const int n = static_cast<int>(chunk.code.size());
  if (n == 0) {
    err(-1, "chunk has no code");
    return;
  }
  if (chunk.code.back().op != Op::kRet) {
    err(n - 1, "last instruction is not ret: control can fall off the end of the chunk");
  }
  if (chunk.param_count != static_cast<int>(params.size())) {
    err(-1, "chunk was compiled for " + std::to_string(chunk.param_count) +
                " parameter(s) but " + std::to_string(params.size()) + " were supplied");
  }
  if (chunk.local_slots < 0 || chunk.max_stack <= 0) {
    err(-1, "negative local count or non-positive max_stack");
  }
  for (const auto& p : params) {
    if (p.format == nullptr) {
      err(-1, "record parameter '" + p.name + "' has no format descriptor");
      return;
    }
  }

  for (int pc = 0; pc < n; ++pc) {
    const Instr& in = chunk.code[static_cast<size_t>(pc)];
    switch (in.op) {
      case Op::kJmp:
      case Op::kJz:
      case Op::kJnz:
        if (in.a < 0 || in.a >= n) {
          err(pc, "jump target " + std::to_string(in.a) + " is outside the chunk");
        }
        break;
      case Op::kConstStr:
        if (in.a < 0 || in.a >= static_cast<int>(chunk.string_pool.size())) {
          err(pc, "string pool index " + std::to_string(in.a) + " is out of range");
        }
        break;
      case Op::kLoadLocal:
      case Op::kStoreLocal:
        if (in.a < 0 || in.a >= chunk.local_slots) {
          err(pc, "local slot " + std::to_string(in.a) + " is out of range (chunk declares " +
                      std::to_string(chunk.local_slots) + ")");
        }
        break;
      case Op::kParamAddr:
        if (in.a < 0 || in.a >= chunk.param_count) {
          err(pc, "parameter index " + std::to_string(in.a) + " is out of range");
        }
        break;
      case Op::kIndex:
      case Op::kEnsure:
        if (in.imm <= 0) {
          err(pc, "array stride " + std::to_string(in.imm) + " must be positive");
        }
        break;
      case Op::kStructCopy:
        if (in.imm == 0) {
          err(pc, "struct copy carries a null format descriptor");
        }
        break;
      case Op::kCopyLoop:
        if (in.a < 0 || in.a >= static_cast<int>(chunk.copy_loops.size())) {
          err(pc, "copy loop index " + std::to_string(in.a) + " is out of range");
        }
        break;
      default:
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Loop-termination pass. A back-edge is any jump whose target does not lie
// after it; every cycle in the CFG traverses at least one back-edge, so
// certifying each back-edge independently bounds the whole program.

/// Matches the count-up fuel guard emitted by instrument_fuel() ending with
/// the back-edge at S:
///   [LoadLocal F, ConstI 1, AddI, StoreLocal F, LoadLocal F, ConstI lim,
///    GeI, Jnz exit(>S), Jmp H]
/// and requires every other store to F in the chunk to sit inside such a
/// window, so the counter is monotone and the loop provably exits.
bool fuel_certified(const Chunk& chunk, int S) {
  const auto& code = chunk.code;
  if (S < 8 || code[static_cast<size_t>(S)].op != Op::kJmp) return false;
  auto window_at = [&](int w) -> int {  // returns F, or -1 if no match
    if (w < 0 || w + 8 >= static_cast<int>(code.size())) return -1;
    const Instr* c = &code[static_cast<size_t>(w)];
    if (c[0].op != Op::kLoadLocal || c[1].op != Op::kConstI || c[1].imm != 1 ||
        c[2].op != Op::kAddI || c[3].op != Op::kStoreLocal || c[4].op != Op::kLoadLocal ||
        c[5].op != Op::kConstI || c[5].imm <= 0 || c[6].op != Op::kGeI || c[7].op != Op::kJnz ||
        c[8].op != Op::kJmp) {
      return -1;
    }
    int f = c[0].a;
    if (c[3].a != f || c[4].a != f) return -1;
    if (c[7].a <= w + 8) return -1;  // exit must leave the loop
    return f;
  };
  int fuel = window_at(S - 8);
  if (fuel < 0) return false;
  // The counter must be monotone: no store to it outside guard windows.
  for (int pc = 0; pc < static_cast<int>(code.size()); ++pc) {
    if (code[static_cast<size_t>(pc)].op == Op::kStoreLocal &&
        code[static_cast<size_t>(pc)].a == fuel) {
      if (window_at(pc - 3) != fuel) return false;
    }
  }
  return true;
}

/// Attempts a termination certificate for the back-edge at S targeting H:
/// a unit-step induction local tested against a loop-invariant bound by the
/// loop's exit test. Returns true on success; on failure `why` explains.
bool induction_certified(const Chunk& chunk, const absint::AbsintResult& ai, int H, int S,
                         std::string* why) {
  using absint::OriginKind;
  const auto& code = chunk.code;
  const Op edge_op = code[static_cast<size_t>(S)].op;

  // 1. Locate the exit test and whether the loop continues on "true".
  int cond_pc = -1;
  bool continue_on_true = true;
  if (edge_op == Op::kJz || edge_op == Op::kJnz) {
    cond_pc = S;  // tail test (do-while): the back-edge is the test
    continue_on_true = edge_op == Op::kJnz;
  } else {
    for (int pc = H; pc < S; ++pc) {
      const Instr& in = code[static_cast<size_t>(pc)];
      if ((in.op == Op::kJz || in.op == Op::kJnz) && in.a > S) {
        cond_pc = pc;
        continue_on_true = in.op == Op::kJz;
        break;
      }
    }
    if (cond_pc < 0) {
      *why = "no conditional exit from the loop";
      return false;
    }
    // The test must run on every iteration: nothing may jump past it into
    // the head region.
    for (int pc = 0; pc < static_cast<int>(code.size()); ++pc) {
      const Instr& in = code[static_cast<size_t>(pc)];
      if (is_jump(in.op) && in.a > H && in.a <= cond_pc) {
        *why = "a jump bypasses the loop's exit test";
        return false;
      }
    }
  }

  // 2. The test must consume a fresh integer comparison.
  if (cond_pc == 0) {
    *why = "exit test has no comparison";
    return false;
  }
  const Op cmp_op = code[static_cast<size_t>(cond_pc - 1)].op;
  absint::Rel rel;
  switch (cmp_op) {
    case Op::kLtI:
      rel = absint::Rel::kLt;
      break;
    case Op::kLeI:
      rel = absint::Rel::kLe;
      break;
    case Op::kGtI:
      rel = absint::Rel::kGt;
      break;
    case Op::kGeI:
      rel = absint::Rel::kGe;
      break;
    default:
      *why = "exit test is not a <, <=, >, or >= integer comparison";
      return false;
  }
  auto cmp_it = ai.cmps.find(cond_pc - 1);
  if (cmp_it == ai.cmps.end()) {
    *why = "loop condition operands could not be analyzed";
    return false;
  }
  if (!continue_on_true) rel = absint::rel_negate(rel);

  // 3. Identify the induction local and the bound operand.
  const absint::AbsVal* bound = nullptr;
  int ind = -1;
  if (cmp_it->second.lhs.origin.kind == OriginKind::kLocal) {
    ind = cmp_it->second.lhs.origin.local;
    bound = &cmp_it->second.rhs;
  } else if (cmp_it->second.rhs.origin.kind == OriginKind::kLocal) {
    ind = cmp_it->second.rhs.origin.local;
    bound = &cmp_it->second.lhs;
    rel = absint::rel_swap(rel);
  } else {
    *why = "neither side of the loop condition is a local variable";
    return false;
  }

  // 4. The bound must be loop-invariant.
  switch (bound->origin.kind) {
    case OriginKind::kConst:
      break;
    case OriginKind::kLocal:
      for (int pc = H; pc <= S; ++pc) {
        if (code[static_cast<size_t>(pc)].op == Op::kStoreLocal &&
            code[static_cast<size_t>(pc)].a == bound->origin.local) {
          *why = "loop bound local is modified inside the loop";
          return false;
        }
      }
      break;
    case OriginKind::kFieldLoad: {
      for (const absint::StoreRec& srec : ai.stores) {
        if (srec.pc < H || srec.pc > S || !srec.root) continue;
        if (srec.param == bound->origin.param && srec.lo < bound->origin.offset +
            static_cast<int64_t>(bound->origin.size) &&
            srec.hi > bound->origin.offset) {
          *why = "loop bound field is modified inside the loop";
          return false;
        }
      }
      break;
    }
    default:
      *why = "loop bound is not a constant, local, or record field";
      return false;
  }

  // 5. Exactly one store to the induction local, matching the contiguous
  //    unit-step pattern [LoadLocal i, ConstI +-1, AddI/SubI, StoreLocal i].
  int store_pc = -1;
  for (int pc = H; pc <= S; ++pc) {
    if (code[static_cast<size_t>(pc)].op == Op::kStoreLocal &&
        code[static_cast<size_t>(pc)].a == ind) {
      if (store_pc >= 0) {
        *why = "induction variable is stored more than once in the loop";
        return false;
      }
      store_pc = pc;
    }
  }
  if (store_pc < H + 3) {
    *why = "induction variable is never advanced inside the loop";
    return false;
  }
  const Instr* w = &code[static_cast<size_t>(store_pc - 3)];
  int64_t step = 0;
  if (w[0].op == Op::kLoadLocal && w[0].a == ind && w[1].op == Op::kConstI &&
      (w[2].op == Op::kAddI || w[2].op == Op::kSubI)) {
    step = w[2].op == Op::kAddI ? w[1].imm : -w[1].imm;
  }
  if (step != 1 && step != -1) {
    *why = "induction step is not a unit increment or decrement";
    return false;
  }
  // Nothing may jump into the middle of the step sequence or between the
  // step and the back-edge (the step must execute on every traversal).
  for (int pc = 0; pc < static_cast<int>(code.size()); ++pc) {
    const Instr& in = code[static_cast<size_t>(pc)];
    if (is_jump(in.op) && in.a > store_pc - 3 && in.a <= S) {
      *why = "a jump bypasses the induction step";
      return false;
    }
  }

  // 6. Step direction must drive the condition false, without wrap-around.
  switch (rel) {
    case absint::Rel::kLt:
      if (step != 1) {
        *why = "loop counts down but continues while below its bound";
        return false;
      }
      break;
    case absint::Rel::kLe:
      if (step != 1 || bound->iv.hi == INT64_MAX) {
        *why = step != 1 ? "loop counts down but continues while below its bound"
                         : "inclusive upper bound may be INT64_MAX: increment can wrap";
        return false;
      }
      break;
    case absint::Rel::kGt:
      if (step != -1) {
        *why = "loop counts up but continues while above its bound";
        return false;
      }
      break;
    case absint::Rel::kGe:
      if (step != -1 || bound->iv.lo == INT64_MIN) {
        *why = step != -1 ? "loop counts up but continues while above its bound"
                          : "inclusive lower bound may be INT64_MIN: decrement can wrap";
        return false;
      }
      break;
    default:
      *why = "loop condition is an equality test, not an ordering";
      return false;
  }
  return true;
}

void loop_pass(const Chunk& chunk, const absint::AbsintResult& ai, VerifyResult& result) {
  const int n = static_cast<int>(chunk.code.size());
  for (int S = 0; S < n; ++S) {
    const Instr& in = chunk.code[static_cast<size_t>(S)];
    if (!is_jump(in.op) || in.a > S) continue;
    if (static_cast<size_t>(S) < ai.depth_at.size() && ai.depth_at[static_cast<size_t>(S)] < 0) {
      continue;  // unreachable back-edge: dead code, nothing to certify
    }
    std::string why;
    if (fuel_certified(chunk, S)) continue;
    if (induction_certified(chunk, ai, in.a, S, &why)) continue;
    VerifyFinding f;
    f.check = VerifyCheck::kUnboundedLoop;
    f.severity = VerifySeverity::kError;
    f.message = "loop has no termination certificate: " + why;
    f.pc = S;
    f.line = chunk.code[static_cast<size_t>(S)].line;
    result.findings.push_back(std::move(f));
    // Only edges that run at statement depth can host a fuel trampoline.
    int depth = static_cast<size_t>(S) < ai.depth_at.size()
                    ? ai.depth_at[static_cast<size_t>(S)]
                    : -1;
    if (depth - (in.op == Op::kJmp ? 0 : 1) == 0) {
      result.unbounded_backedges.push_back(S);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------

const char* verify_check_name(VerifyCheck c) {
  switch (c) {
    case VerifyCheck::kStructure:
      return "structure";
    case VerifyCheck::kStackShape:
      return "stack-shape";
    case VerifyCheck::kTypeConfusion:
      return "type-confusion";
    case VerifyCheck::kOobAccess:
      return "oob-access";
    case VerifyCheck::kWidthMismatch:
      return "width-mismatch";
    case VerifyCheck::kReadBeforeAssign:
      return "read-before-assign";
    case VerifyCheck::kUninitField:
      return "uninit-field";
    case VerifyCheck::kUnboundedLoop:
      return "unbounded-loop";
  }
  return "?";
}

std::string VerifyFinding::to_string() const {
  std::string s = severity == VerifySeverity::kError ? "error: " : "warning: ";
  s += verify_check_name(check);
  s += ": ";
  s += message;
  std::string loc;
  if (pc >= 0) loc += "pc " + std::to_string(pc);
  if (line > 0) loc += (loc.empty() ? "" : ", ") + std::string("line ") + std::to_string(line);
  if (!loc.empty()) {
    s += " (" + loc + ")";
  }
  return s;
}

std::string VerifyResult::to_string() const {
  std::string s;
  for (const auto& f : findings) {
    s += f.to_string();
    s += '\n';
  }
  return s;
}

VerifyResult verify(const Chunk& chunk, const std::vector<RecordParam>& params,
                    const VerifyOptions& options) {
  VerifyResult result;
  structural_pass(chunk, params, result.findings);
  if (!result.ok()) return result;  // absint would chase invalid indices
  absint::AbsintResult ai = absint::interpret(chunk, params, options, result.findings);
  loop_pass(chunk, ai, result);
  return result;
}

Chunk instrument_fuel(const Chunk& chunk, int64_t fuel_limit, const std::vector<int>& backedges) {
  Chunk out = chunk;
  if (backedges.empty()) return out;
  if (fuel_limit < 1) fuel_limit = 1;
  const int32_t fuel = out.local_slots;  // fresh local, zero-initialized by both backends
  out.local_slots += 1;
  out.max_stack = std::max(out.max_stack, 4);

  // One count-up guard trampoline per back-edge, appended after the original
  // code so no existing jump target shifts; the shared exit ret goes last.
  const int fuel_exit =
      static_cast<int>(chunk.code.size()) + 9 * static_cast<int>(backedges.size());
  for (int edge : backedges) {
    if (edge < 0 || edge >= static_cast<int>(chunk.code.size())) continue;
    Instr& jump = out.code[static_cast<size_t>(edge)];
    if (!is_jump(jump.op)) continue;
    const int32_t target = jump.a;
    const int32_t tramp = static_cast<int32_t>(out.code.size());
    jump.a = tramp;
    out.code.push_back({Op::kLoadLocal, fuel, 0, 0});
    out.code.push_back({Op::kConstI, 0, 1, 0});
    out.code.push_back({Op::kAddI, 0, 0, 0});
    out.code.push_back({Op::kStoreLocal, fuel, 0, 0});
    out.code.push_back({Op::kLoadLocal, fuel, 0, 0});
    out.code.push_back({Op::kConstI, 0, fuel_limit, 0});
    out.code.push_back({Op::kGeI, 0, 0, 0});
    out.code.push_back({Op::kJnz, fuel_exit, 0, 0});
    out.code.push_back({Op::kJmp, target, 0, 0});
  }
  out.code.push_back({Op::kRet, 0, 0, 0});
  return out;
}

}  // namespace morph::ecode
