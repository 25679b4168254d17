#include "ecode/compiler.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "ecode/copyloop.hpp"

namespace morph::ecode {

namespace {

using pbio::FieldDescriptor;
using pbio::FieldKind;

class Compiler {
 public:
  Compiler(const Program& prog, const std::vector<RecordParam>& params)
      : prog_(prog), params_(params) {}

  Chunk run() {
    chunk_.string_pool = prog_.string_pool;
    chunk_.local_slots = prog_.local_slot_count;
    chunk_.param_count = static_cast<int>(params_.size());
    for (const auto& s : prog_.stmts) stmt(*s);
    emit(Op::kRet);
    chunk_.max_stack = max_depth_ + 8;  // slack for the interpreter
    return std::move(chunk_);
  }

 private:
  // --- emission helpers -----------------------------------------------------

  int emit(Op op, int32_t a = 0, int64_t imm = 0) {
    chunk_.code.push_back({op, a, imm, cur_line_});
    depth_ += stack_delta(op);
    if (depth_ > max_depth_) max_depth_ = depth_;
    return static_cast<int>(chunk_.code.size()) - 1;
  }

  static int stack_delta(Op op) {
    switch (op) {
      case Op::kConstI:
      case Op::kConstF:
      case Op::kConstStr:
      case Op::kLoadLocal:
      case Op::kParamAddr:
      case Op::kDup:
        return +1;
      case Op::kStoreLocal:
      case Op::kJz:
      case Op::kJnz:
      case Op::kPop:
      case Op::kAddI:
      case Op::kSubI:
      case Op::kMulI:
      case Op::kDivI:
      case Op::kModI:
      case Op::kBitAnd:
      case Op::kBitOr:
      case Op::kBitXor:
      case Op::kShl:
      case Op::kShr:
      case Op::kAddF:
      case Op::kSubF:
      case Op::kMulF:
      case Op::kDivF:
      case Op::kEqI:
      case Op::kNeI:
      case Op::kLtI:
      case Op::kLeI:
      case Op::kGtI:
      case Op::kGeI:
      case Op::kEqF:
      case Op::kNeF:
      case Op::kLtF:
      case Op::kLeF:
      case Op::kGtF:
      case Op::kGeF:
      case Op::kMinI:
      case Op::kMaxI:
      case Op::kMinF:
      case Op::kMaxF:
      case Op::kIndex:
      case Op::kEnsure:
      case Op::kStrEq:
        return -1;
      case Op::kStructCopy:
      case Op::kCopyLoop:
        return -2;
      case Op::kStoreI8:
      case Op::kStoreI16:
      case Op::kStoreI32:
      case Op::kStoreI64:
      case Op::kStoreF32:
      case Op::kStoreF64:
      case Op::kStrAssign:
        return -2;
      default:
        return 0;  // unary ops, loads, conversions, jumps, ret
    }
  }

  int here() const { return static_cast<int>(chunk_.code.size()); }
  void patch_jump(int at) { chunk_.code[static_cast<size_t>(at)].a = here(); }

  [[noreturn]] void fail(const std::string& msg, int line) const { throw EcodeError(msg, line); }

  // --- statements -------------------------------------------------------------

  void stmt(const Stmt& s) {
    if (s.line > 0) cur_line_ = s.line;
    switch (s.kind) {
      case StmtKind::kBlock:
        for (const auto& child : s.stmts) stmt(*child);
        break;
      case StmtKind::kDecl:
        for (const auto& d : s.decls) {
          if (d.init) {
            rvalue(*d.init);
            coerce(d.init->type.kind, s.decl_type);
          } else {
            if (s.decl_type == TyKind::kFloat) {
              emit(Op::kConstF, 0, std::bit_cast<int64_t>(0.0));
            } else {
              emit(Op::kConstI, 0, 0);
            }
          }
          emit(Op::kStoreLocal, d.local_slot);
        }
        break;
      case StmtKind::kAssign:
        assignment(s);
        break;
      case StmtKind::kIncDec: {
        rvalue(*s.lvalue);
        emit(Op::kConstI, 0, s.inc_delta);
        emit(Op::kAddI);
        store_into(*s.lvalue);
        break;
      }
      case StmtKind::kExpr:
        rvalue(*s.expr);
        emit(Op::kPop);
        break;
      case StmtKind::kIf: {
        rvalue(*s.expr);
        int jz = emit(Op::kJz);
        stmt(*s.then_branch);
        if (s.else_branch) {
          int jend = emit(Op::kJmp);
          patch_jump(jz);
          stmt(*s.else_branch);
          patch_jump(jend);
        } else {
          patch_jump(jz);
        }
        break;
      }
      case StmtKind::kWhile: {
        int top = here();
        rvalue(*s.expr);
        int jexit = emit(Op::kJz);
        loops_.push_back({});
        stmt(*s.body);
        // continue -> re-test the condition; break -> past the loop.
        for (int at : loops_.back().continues) chunk_.code[static_cast<size_t>(at)].a = top;
        emit(Op::kJmp, top);
        patch_jump(jexit);
        for (int at : loops_.back().breaks) patch_jump(at);
        loops_.pop_back();
        break;
      }
      case StmtKind::kDoWhile: {
        int top = here();
        loops_.push_back({});
        stmt(*s.body);
        int cond_at = here();  // continue -> re-test the condition
        rvalue(*s.expr);
        emit(Op::kJnz, top);
        for (int at : loops_.back().continues) {
          chunk_.code[static_cast<size_t>(at)].a = cond_at;
        }
        for (int at : loops_.back().breaks) patch_jump(at);
        loops_.pop_back();
        break;
      }
      case StmtKind::kFor: {
        if (copy_loop(s)) break;
        if (s.for_init) stmt(*s.for_init);
        int top = here();
        int jexit = -1;
        if (s.expr) {
          rvalue(*s.expr);
          jexit = emit(Op::kJz);
        }
        loops_.push_back({});
        stmt(*s.body);
        int step_at = here();  // continue -> the step expression
        if (s.for_step) stmt(*s.for_step);
        emit(Op::kJmp, top);
        if (jexit >= 0) patch_jump(jexit);
        for (int at : loops_.back().continues) {
          chunk_.code[static_cast<size_t>(at)].a = step_at;
        }
        for (int at : loops_.back().breaks) patch_jump(at);
        loops_.pop_back();
        break;
      }
      case StmtKind::kBreak:
        loops_.back().breaks.push_back(emit(Op::kJmp));
        break;
      case StmtKind::kContinue:
        loops_.back().continues.push_back(emit(Op::kJmp));
        break;
      case StmtKind::kReturn:
        emit(Op::kRet);
        break;
    }
  }

  /// Lower `s` to one kCopyLoop op when it is an element-copy loop
  /// (ecode/copyloop.hpp) that copies no float4 fields; false leaves it to
  /// the generic loop code. A float4 copy stays a load-to-double and a
  /// store, which quiets signalling NaNs; a byte copy would not.
  bool copy_loop(const Stmt& s) {
    const LoopShape shape = loop_shape(s);
    if (!shape.canonical) return false;
    const std::vector<const Stmt*> body = body_stmts(*s.body);
    if (body.empty() || body[0]->kind != StmtKind::kAssign) return false;
    const Expr* head = lvalue_head(*body[0]->lvalue);
    const Expr& count = *s.expr->b;  // S.cnt, sema-resolved
    if (!head || head->a->param_index < 0 || count.a->param_index < 0) return false;
    const RecordParam& dst = params_[static_cast<size_t>(head->a->param_index)];
    const RecordParam& src = params_[static_cast<size_t>(count.a->param_index)];
    CopyLoopProof proof;
    CopySides sides{dst.name, dst.format.get(), src.name, src.format.get(), ""};
    if (!prove_copy_loop(s, sides, proof).empty()) return false;
    CopyLoop loop;
    loop.dst_stride = proof.dst_array->element_stride();
    loop.src_stride = proof.src_array->element_stride();
    for (const ElementCopy& c : proof.copies) {
      const FieldDescriptor* leaf = c.dst_leaf;
      FieldKind kind = leaf ? leaf->kind : proof.dst_array->element_kind;
      uint32_t size = leaf ? leaf->size : proof.dst_array->element_size;
      CopyLoop::Field f{leaf ? leaf->offset : 0, c.src_leaf ? c.src_leaf->offset : 0, size};
      if (kind == FieldKind::kFloat && size == 4) return false;
      (kind == FieldKind::kString ? loop.strings : loop.runs).push_back(f);
    }
    std::sort(loop.runs.begin(), loop.runs.end(),
              [](const CopyLoop::Field& a, const CopyLoop::Field& b) {
                return a.dst_off < b.dst_off;
              });
    std::vector<CopyLoop::Field> merged;
    for (const auto& f : loop.runs) {
      if (!merged.empty() && merged.back().dst_off + merged.back().len == f.dst_off &&
          merged.back().src_off + merged.back().len == f.src_off) {
        merged.back().len += f.len;
      } else {
        merged.push_back(f);
      }
    }
    loop.runs = std::move(merged);
    // dst slot, src slot, count; the helper returns the loop variable.
    emit(Op::kParamAddr, head->a->param_index);
    if (proof.dst_array->offset != 0) emit(Op::kFieldAddr, 0, proof.dst_array->offset);
    emit(Op::kParamAddr, count.a->param_index);
    if (proof.src_array->offset != 0) emit(Op::kFieldAddr, 0, proof.src_array->offset);
    rvalue(count);
    chunk_.copy_loops.push_back(std::move(loop));
    emit(Op::kCopyLoop, static_cast<int32_t>(chunk_.copy_loops.size() - 1));
    const Stmt& init = *s.for_init;
    emit(Op::kStoreLocal,
         init.kind == StmtKind::kDecl ? init.decls[0].local_slot : init.lvalue->local_slot);
    return true;
  }

  void assignment(const Stmt& s) {
    const Expr& lhs = *s.lvalue;
    if (lhs.type.kind == TyKind::kRecord) {
      // src base (value), then dst base (address), then the runtime copy.
      record_base(*s.expr, /*for_write=*/false);
      record_base(lhs, /*for_write=*/true);
      emit(Op::kStructCopy, 0,
           static_cast<int64_t>(reinterpret_cast<intptr_t>(lhs.type.record)));
      return;
    }
    if (lhs.type.kind == TyKind::kString) {
      // value (char*) then slot address, then the runtime copy.
      rvalue(*s.expr);
      address_of(lhs, /*for_write=*/true);
      emit(Op::kStrAssign);
      return;
    }
    if (s.assign_op == AssignOp::kSet) {
      rvalue(*s.expr);
      coerce(s.expr->type.kind, lhs.type.kind);
    } else {
      bool f = lhs.type.kind == TyKind::kFloat || s.expr->type.kind == TyKind::kFloat;
      if (s.assign_op == AssignOp::kMod) f = false;
      rvalue(lhs);
      if (f && lhs.type.kind != TyKind::kFloat) emit(Op::kI2F);
      rvalue(*s.expr);
      if (f && s.expr->type.kind != TyKind::kFloat) emit(Op::kI2F);
      switch (s.assign_op) {
        case AssignOp::kAdd:
          emit(f ? Op::kAddF : Op::kAddI);
          break;
        case AssignOp::kSub:
          emit(f ? Op::kSubF : Op::kSubI);
          break;
        case AssignOp::kMul:
          emit(f ? Op::kMulF : Op::kMulI);
          break;
        case AssignOp::kDiv:
          emit(f ? Op::kDivF : Op::kDivI);
          break;
        case AssignOp::kMod:
          emit(Op::kModI);
          break;
        case AssignOp::kSet:
          break;
      }
      coerce(f ? TyKind::kFloat : TyKind::kInt, lhs.type.kind);
    }
    store_into(lhs);
  }

  /// Store the value on top of the stack into an lvalue.
  void store_into(const Expr& lhs) {
    if (lhs.kind == ExprKind::kVarRef) {
      emit(Op::kStoreLocal, lhs.local_slot);
      return;
    }
    address_of(lhs, /*for_write=*/true);
    const FieldDescriptor* fd = lhs.field;
    if (lhs.kind == ExprKind::kIndex && !fd->element_format) {
      emit(store_op(fd->element_kind, fd->element_size));
    } else {
      emit(store_op(fd->kind, fd->size));
    }
  }

  static Op store_op(FieldKind kind, uint32_t size) {
    if (kind == FieldKind::kFloat) return size == 4 ? Op::kStoreF32 : Op::kStoreF64;
    switch (size) {
      case 1:
        return Op::kStoreI8;
      case 2:
        return Op::kStoreI16;
      case 4:
        return Op::kStoreI32;
      default:
        return Op::kStoreI64;
    }
  }

  static Op load_op(FieldKind kind, uint32_t size) {
    switch (kind) {
      case FieldKind::kFloat:
        return size == 4 ? Op::kLoadF32 : Op::kLoadF64;
      case FieldKind::kUInt:
      case FieldKind::kChar:
        switch (size) {
          case 1:
            return Op::kLoadU8;
          case 2:
            return Op::kLoadU16;
          case 4:
            return Op::kLoadU32;
          default:
            return Op::kLoadI64;
        }
      default:  // signed ints, enums
        switch (size) {
          case 1:
            return Op::kLoadI8;
          case 2:
            return Op::kLoadI16;
          case 4:
            return Op::kLoadI32;
          default:
            return Op::kLoadI64;
        }
    }
  }

  // --- expression compilation ---------------------------------------------------

  void coerce(TyKind from, TyKind to) {
    if (from == to) return;
    if (from == TyKind::kInt && to == TyKind::kFloat) {
      emit(Op::kI2F);
    } else if (from == TyKind::kFloat && to == TyKind::kInt) {
      emit(Op::kF2I);
    }
  }

  /// Push the base pointer of a record-typed expression.
  void record_base(const Expr& e, bool for_write) {
    switch (e.kind) {
      case ExprKind::kVarRef:
        emit(Op::kParamAddr, e.param_index);
        return;
      case ExprKind::kFieldAccess:  // nested struct
        record_base(*e.a, for_write);
        if (e.field->offset != 0) emit(Op::kFieldAddr, 0, e.field->offset);
        return;
      case ExprKind::kIndex:  // struct array element
        element_addr(e, for_write);
        return;
      default:
        fail("internal: expression is not a record base", e.line);
    }
  }

  /// Push the address of array element e = base_array[idx].
  void element_addr(const Expr& e, bool for_write) {
    const Expr& arr = *e.a;  // FieldAccess resolving to an array field
    const FieldDescriptor* fd = e.field;
    record_base(*arr.a, for_write);
    uint32_t stride = fd->element_stride();
    if (fd->kind == FieldKind::kStaticArray) {
      if (fd->offset != 0) emit(Op::kFieldAddr, 0, fd->offset);
      rvalue(*e.b);
      emit(Op::kIndex, 0, stride);
    } else if (for_write) {
      // Destination dynamic arrays grow on demand through the runtime.
      if (fd->offset != 0) emit(Op::kFieldAddr, 0, fd->offset);
      rvalue(*e.b);
      emit(Op::kEnsure, 0, stride);
    } else {
      if (fd->offset != 0) emit(Op::kFieldAddr, 0, fd->offset);
      emit(Op::kLoadPtr);
      rvalue(*e.b);
      emit(Op::kIndex, 0, stride);
    }
  }

  /// Push the address of a scalar/string lvalue.
  void address_of(const Expr& e, bool for_write) {
    switch (e.kind) {
      case ExprKind::kFieldAccess:
        record_base(*e.a, for_write);
        if (e.field->offset != 0) emit(Op::kFieldAddr, 0, e.field->offset);
        return;
      case ExprKind::kIndex:
        element_addr(e, for_write);
        return;
      default:
        fail("internal: not an addressable expression", e.line);
    }
  }

  /// Compile an expression, leaving its value on the stack.
  void rvalue(const Expr& e) {
    if (e.line > 0) cur_line_ = e.line;
    switch (e.kind) {
      case ExprKind::kIntLit:
        emit(Op::kConstI, 0, e.int_value);
        return;
      case ExprKind::kFloatLit:
        emit(Op::kConstF, 0, std::bit_cast<int64_t>(e.float_value));
        return;
      case ExprKind::kStringLit:
        emit(Op::kConstStr, static_cast<int32_t>(e.int_value));
        return;
      case ExprKind::kVarRef:
        if (e.param_index >= 0) fail("record parameter used as a value", e.line);
        emit(Op::kLoadLocal, e.local_slot);
        return;
      case ExprKind::kFieldAccess: {
        address_of(e, /*for_write=*/false);
        if (e.type.kind == TyKind::kString) {
          emit(Op::kLoadPtr);
        } else {
          emit(load_op(e.field->kind, e.field->size));
        }
        return;
      }
      case ExprKind::kIndex: {
        address_of(e, /*for_write=*/false);
        const FieldDescriptor* fd = e.field;
        if (e.type.kind == TyKind::kString) {
          emit(Op::kLoadPtr);
        } else {
          emit(load_op(fd->element_kind, fd->element_size));
        }
        return;
      }
      case ExprKind::kUnary: {
        rvalue(*e.a);
        switch (e.un_op) {
          case UnOp::kNeg:
            emit(e.type.kind == TyKind::kFloat ? Op::kNegF : Op::kNegI);
            return;
          case UnOp::kNot:
            emit(Op::kNotL);
            return;
          case UnOp::kBitNot:
            emit(Op::kBitNot);
            return;
        }
        return;
      }
      case ExprKind::kBinary:
        binary(e);
        return;
      case ExprKind::kCond: {
        rvalue(*e.a);
        int jz = emit(Op::kJz);
        int saved = depth_;
        rvalue(*e.b);
        coerce(e.b->type.kind, e.type.kind);
        int jend = emit(Op::kJmp);
        depth_ = saved;
        patch_jump(jz);
        rvalue(*e.c);
        coerce(e.c->type.kind, e.type.kind);
        patch_jump(jend);
        return;
      }
      case ExprKind::kCall:
        call(e);
        return;
    }
  }

  void binary(const Expr& e) {
    BinOp op = e.bin_op;
    if (op == BinOp::kAnd || op == BinOp::kOr) {
      // Short-circuit to a materialized 0/1.
      rvalue(*e.a);
      int saved = depth_;
      if (op == BinOp::kAnd) {
        int j1 = emit(Op::kJz);
        depth_ = saved - 1;
        rvalue(*e.b);
        int j2 = emit(Op::kJz);
        emit(Op::kConstI, 0, 1);
        int jend = emit(Op::kJmp);
        patch_jump(j1);
        patch_jump(j2);
        depth_ = saved - 1;
        emit(Op::kConstI, 0, 0);
        patch_jump(jend);
      } else {
        int j1 = emit(Op::kJnz);
        depth_ = saved - 1;
        rvalue(*e.b);
        int j2 = emit(Op::kJnz);
        emit(Op::kConstI, 0, 0);
        int jend = emit(Op::kJmp);
        patch_jump(j1);
        patch_jump(j2);
        depth_ = saved - 1;
        emit(Op::kConstI, 0, 1);
        patch_jump(jend);
      }
      return;
    }

    bool float_op = e.a->type.kind == TyKind::kFloat || e.b->type.kind == TyKind::kFloat;
    bool is_compare = op == BinOp::kEq || op == BinOp::kNe || op == BinOp::kLt ||
                      op == BinOp::kLe || op == BinOp::kGt || op == BinOp::kGe;
    bool is_int_only = op == BinOp::kMod || op == BinOp::kBitAnd || op == BinOp::kBitOr ||
                       op == BinOp::kBitXor || op == BinOp::kShl || op == BinOp::kShr;
    if (is_int_only) float_op = false;

    rvalue(*e.a);
    if (float_op && e.a->type.kind != TyKind::kFloat) emit(Op::kI2F);
    rvalue(*e.b);
    if (float_op && e.b->type.kind != TyKind::kFloat) emit(Op::kI2F);

    switch (op) {
      case BinOp::kAdd: emit(float_op ? Op::kAddF : Op::kAddI); break;
      case BinOp::kSub: emit(float_op ? Op::kSubF : Op::kSubI); break;
      case BinOp::kMul: emit(float_op ? Op::kMulF : Op::kMulI); break;
      case BinOp::kDiv: emit(float_op ? Op::kDivF : Op::kDivI); break;
      case BinOp::kMod: emit(Op::kModI); break;
      case BinOp::kBitAnd: emit(Op::kBitAnd); break;
      case BinOp::kBitOr: emit(Op::kBitOr); break;
      case BinOp::kBitXor: emit(Op::kBitXor); break;
      case BinOp::kShl: emit(Op::kShl); break;
      case BinOp::kShr: emit(Op::kShr); break;
      case BinOp::kEq: emit(float_op ? Op::kEqF : Op::kEqI); break;
      case BinOp::kNe: emit(float_op ? Op::kNeF : Op::kNeI); break;
      case BinOp::kLt: emit(float_op ? Op::kLtF : Op::kLtI); break;
      case BinOp::kLe: emit(float_op ? Op::kLeF : Op::kLeI); break;
      case BinOp::kGt: emit(float_op ? Op::kGtF : Op::kGtI); break;
      case BinOp::kGe: emit(float_op ? Op::kGeF : Op::kGeI); break;
      case BinOp::kAnd:
      case BinOp::kOr:
        break;  // handled above
    }
    (void)is_compare;
  }

  void call(const Expr& e) {
    switch (static_cast<Builtin>(e.builtin)) {
      case Builtin::kAbs:
        rvalue(*e.args[0]);
        emit(e.type.kind == TyKind::kFloat ? Op::kAbsF : Op::kAbsI);
        return;
      case Builtin::kMin:
      case Builtin::kMax: {
        bool f = e.type.kind == TyKind::kFloat;
        rvalue(*e.args[0]);
        if (f) coerce(e.args[0]->type.kind, TyKind::kFloat);
        rvalue(*e.args[1]);
        if (f) coerce(e.args[1]->type.kind, TyKind::kFloat);
        bool is_min = static_cast<Builtin>(e.builtin) == Builtin::kMin;
        emit(f ? (is_min ? Op::kMinF : Op::kMaxF) : (is_min ? Op::kMinI : Op::kMaxI));
        return;
      }
      case Builtin::kSqrt:
      case Builtin::kFloor:
      case Builtin::kCeil: {
        rvalue(*e.args[0]);
        coerce(e.args[0]->type.kind, TyKind::kFloat);
        Builtin b = static_cast<Builtin>(e.builtin);
        emit(b == Builtin::kSqrt ? Op::kSqrtF : b == Builtin::kFloor ? Op::kFloorF : Op::kCeilF);
        return;
      }
      case Builtin::kStrLen:
        rvalue(*e.args[0]);
        emit(Op::kStrLen);
        return;
      case Builtin::kStrEq:
        rvalue(*e.args[0]);
        rvalue(*e.args[1]);
        emit(Op::kStrEq);
        return;
    }
    fail("internal: unknown builtin", e.line);
  }

  struct LoopCtx {
    std::vector<int> breaks;     // kJmp instructions to patch to loop end
    std::vector<int> continues;  // kJmp instructions to patch to cond/step
  };

  const Program& prog_;
  const std::vector<RecordParam>& params_;
  Chunk chunk_;
  std::vector<LoopCtx> loops_;
  int depth_ = 0;
  int max_depth_ = 0;
  int32_t cur_line_ = 0;
};

}  // namespace

Chunk compile(const Program& prog, const std::vector<RecordParam>& params) {
  return Compiler(prog, params).run();
}

}  // namespace morph::ecode
