#include "ecode/absint.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <sstream>

namespace morph::ecode::absint {

namespace {

using pbio::FieldDescriptor;
using pbio::FieldKind;
using pbio::FormatDescriptor;

// Joins at a pc beyond this count switch to widening (intervals jump to
// +-infinity instead of creeping), guaranteeing convergence.
constexpr int kWidenAfter = 3;

// ---------------------------------------------------------------------------
// Interval arithmetic. Any operation that could leave int64 range returns the
// full interval: both backends wrap, and a wrapped value is unbounded for
// safety purposes.

Interval iv_add(Interval a, Interval b) {
  int64_t lo, hi;
  if (__builtin_add_overflow(a.lo, b.lo, &lo) || __builtin_add_overflow(a.hi, b.hi, &hi)) {
    return Interval::full();
  }
  return {lo, hi};
}

Interval iv_sub(Interval a, Interval b) {
  int64_t lo, hi;
  if (__builtin_sub_overflow(a.lo, b.hi, &lo) || __builtin_sub_overflow(a.hi, b.lo, &hi)) {
    return Interval::full();
  }
  return {lo, hi};
}

Interval iv_mul(Interval a, Interval b) {
  __int128 c[4] = {static_cast<__int128>(a.lo) * b.lo, static_cast<__int128>(a.lo) * b.hi,
                   static_cast<__int128>(a.hi) * b.lo, static_cast<__int128>(a.hi) * b.hi};
  __int128 lo = c[0], hi = c[0];
  for (__int128 v : c) {
    lo = v < lo ? v : lo;
    hi = v > hi ? v : hi;
  }
  if (lo < INT64_MIN || hi > INT64_MAX) return Interval::full();
  return {static_cast<int64_t>(lo), static_cast<int64_t>(hi)};
}

Interval iv_neg(Interval a) { return iv_sub(Interval::exact(0), a); }

Interval iv_div(Interval a, Interval b) {
  if (!b.singleton() || b.lo == 0 || b.lo == -1) return Interval::full();
  int64_t d = b.lo;
  if (d > 0) return {a.lo / d, a.hi / d};
  return {a.hi / d, a.lo / d};
}

Interval iv_mod(Interval a, Interval b) {
  if (!b.singleton()) return Interval::full();
  int64_t d = b.lo;
  if (d == 0 || d == -1) return Interval::exact(0);
  int64_t m = d < 0 ? -(d + 1) : d - 1;  // |d| - 1 without overflow
  if (a.lo >= 0) return {0, m};
  return {-m, m};
}

Interval iv_shr(Interval a, Interval b) {
  if (!b.singleton()) return Interval::full();
  int64_t s = b.lo & 63;
  return {a.lo >> s, a.hi >> s};
}

Interval iv_and(Interval a, Interval b) {
  if (b.singleton() && b.lo >= 0) return {0, b.lo};
  if (a.singleton() && a.lo >= 0) return {0, a.lo};
  return Interval::full();
}

Interval iv_abs(Interval a) {
  if (a.lo == INT64_MIN) return Interval::full();
  if (a.lo >= 0) return a;
  if (a.hi <= 0) return {-a.hi, -a.lo};
  return {0, std::max(-a.lo, a.hi)};
}

/// Union (with optional widening); returns true if `a` grew.
bool iv_join(Interval& a, Interval b, bool widen) {
  Interval n = {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
  if (widen) {
    if (n.lo < a.lo) n.lo = INT64_MIN;
    if (n.hi > a.hi) n.hi = INT64_MAX;
  }
  bool changed = !(n == a);
  a = n;
  return changed;
}

/// Same comparison over the same operands (intervals may differ and are
/// joined separately: a loop's induction variable widens between visits and
/// must not strip the predicate).
bool pred_same_shape(const Pred& a, const Pred& b) {
  return a.cmp == b.cmp && a.negated == b.negated && a.l == b.l && a.r == b.r;
}

bool ptr_eq_base(const PtrVal& a, const PtrVal& b) {
  return a.kind == b.kind && a.param == b.param && a.fmt == b.fmt && a.skind == b.skind &&
         a.ssize == b.ssize && a.dyn == b.dyn;
}

/// Lattice join of two abstract values; returns true if `a` changed.
bool val_join(AbsVal& a, const AbsVal& b, bool widen) {
  if (b.kind == ValKind::kBottom) return false;
  if (a.kind == ValKind::kBottom) {
    a = b;
    return true;
  }
  if (a.kind != b.kind) {
    bool changed = a.kind != ValKind::kAny;
    a = AbsVal::any();
    return changed;
  }
  bool changed = false;
  if (a.kind == ValKind::kInt || a.kind == ValKind::kFloat) {
    changed |= iv_join(a.iv, b.iv, widen);
    if (!(a.ub == b.ub)) {
      changed |= a.ub.valid();
      a.ub = SymBound{};
    }
    if (!(a.origin == b.origin)) {
      changed |= a.origin.kind != OriginKind::kNone;
      a.origin = Origin{};
    }
    if (!pred_same_shape(a.pred, b.pred)) {
      changed |= a.pred.cmp != Op::kNop;
      a.pred = Pred{};
    } else if (a.pred.cmp != Op::kNop) {
      changed |= iv_join(a.pred.liv, b.pred.liv, widen);
      changed |= iv_join(a.pred.riv, b.pred.riv, widen);
    }
    if (b.from_f2i && !a.from_f2i) {
      a.from_f2i = true;
      changed = true;
    }
  } else if (a.kind == ValKind::kPtr) {
    if (!ptr_eq_base(a.ptr, b.ptr)) {
      changed = a.ptr.kind != PtrKind::kNone;
      PtrVal p;  // unknown pointer: any dereference becomes unprovable
      a.ptr = p;
      return changed || true;
    }
    changed |= iv_join(a.ptr.off, b.ptr.off, widen);
    changed |= iv_join(a.ptr.root_off, b.ptr.root_off, widen);
    if (a.ptr.root_inline && !b.ptr.root_inline) {
      a.ptr.root_inline = false;
      changed = true;
    }
    if (!(a.ptr.len == b.ptr.len)) {
      changed |= a.ptr.len.valid();
      a.ptr.len = SymBound{};
    }
  }
  return changed;
}

// ---------------------------------------------------------------------------

struct State {
  bool reachable = false;
  std::vector<AbsVal> stack;
  std::vector<AbsVal> locals;
  // Byte-precise must-initialized maps; empty vector for non-destination
  // parameters (not tracked).
  std::vector<std::vector<uint8_t>> init;
};

Rel rel_of(Op cmp) {
  switch (cmp) {
    case Op::kLtI:
      return Rel::kLt;
    case Op::kLeI:
      return Rel::kLe;
    case Op::kGtI:
      return Rel::kGt;
    case Op::kGeI:
      return Rel::kGe;
    case Op::kEqI:
      return Rel::kEq;
    case Op::kNeI:
      return Rel::kNe;
    default:
      return Rel::kNone;
  }
}

class Interp {
 public:
  Interp(const Chunk& chunk, const std::vector<RecordParam>& params, const VerifyOptions& options,
         std::vector<VerifyFinding>& out)
      : chunk_(chunk), params_(params), options_(options), out_(out) {}

  AbsintResult run();

 private:
  const Layout& layout(const FormatDescriptor* fmt) {
    auto it = layouts_.find(fmt);
    if (it == layouts_.end()) it = layouts_.emplace(fmt, Layout(fmt)).first;
    return it->second;
  }

  bool is_dst(int param) const {
    for (int d : options_.dst_params) {
      if (d == param) return true;
    }
    return false;
  }

  VerifySeverity severity_of(VerifyCheck c) const {
    if (c == VerifyCheck::kUninitField && !options_.require_full_assignment) {
      return VerifySeverity::kWarning;
    }
    return VerifySeverity::kError;
  }

  void finding(VerifyCheck c, int pc, std::string msg, std::string field = "") {
    if (!dedup_.insert({pc, static_cast<int>(c)}).second) return;
    VerifyFinding f;
    f.check = c;
    f.severity = severity_of(c);
    f.message = std::move(msg);
    f.pc = pc;
    f.line = pc >= 0 && pc < static_cast<int>(chunk_.code.size())
                 ? chunk_.code[static_cast<size_t>(pc)].line
                 : 0;
    f.field = std::move(field);
    out_.push_back(std::move(f));
  }

  std::string field_name(int param, const std::string& path) const {
    return params_[static_cast<size_t>(param)].name + "." + path;
  }

  // --- state plumbing -------------------------------------------------------

  AbsVal pop(State& st, int pc) {
    if (st.stack.empty()) {
      finding(VerifyCheck::kStackShape, pc, "pop from an empty evaluation stack");
      return AbsVal::any();
    }
    AbsVal v = std::move(st.stack.back());
    st.stack.pop_back();
    return v;
  }

  AbsVal pop_int(State& st, int pc, const char* what) {
    AbsVal v = pop(st, pc);
    if (v.kind != ValKind::kInt && v.kind != ValKind::kAny) {
      finding(VerifyCheck::kTypeConfusion, pc,
              std::string(what) + " expects an integer operand, got " + kind_name(v.kind));
      return AbsVal::integer(Interval::full());
    }
    if (v.kind == ValKind::kAny) return AbsVal::integer(Interval::full());
    return v;
  }

  AbsVal pop_float(State& st, int pc, const char* what) {
    AbsVal v = pop(st, pc);
    if (v.kind != ValKind::kFloat && v.kind != ValKind::kAny) {
      finding(VerifyCheck::kTypeConfusion, pc,
              std::string(what) + " expects a float operand, got " + kind_name(v.kind));
    }
    return AbsVal::floating();
  }

  AbsVal pop_str(State& st, int pc, const char* what) {
    AbsVal v = pop(st, pc);
    if (v.kind != ValKind::kStr && v.kind != ValKind::kAny) {
      finding(VerifyCheck::kTypeConfusion, pc,
              std::string(what) + " expects a string operand, got " + kind_name(v.kind));
    }
    AbsVal s;
    s.kind = ValKind::kStr;
    return s;
  }

  void push(State& st, int pc, AbsVal v) {
    if (static_cast<int>(st.stack.size()) >= chunk_.max_stack) {
      finding(VerifyCheck::kStackShape, pc, "evaluation stack exceeds the chunk's max_stack");
      return;
    }
    st.stack.push_back(std::move(v));
  }

  static const char* kind_name(ValKind k) {
    switch (k) {
      case ValKind::kBottom:
        return "bottom";
      case ValKind::kInt:
        return "int";
      case ValKind::kFloat:
        return "float";
      case ValKind::kStr:
        return "string";
      case ValKind::kPtr:
        return "pointer";
      case ValKind::kAny:
        return "unknown";
    }
    return "?";
  }

  // A store to bytes [lo, hi) of `param`'s root struct invalidates symbolic
  // bounds and comparison predicates that snapshot overlapping fields.
  void kill_field_refs(State& st, int param, int64_t lo, int64_t hi) {
    auto overlaps = [&](int p, int64_t off, uint32_t size) {
      return p == param && off < hi && off + static_cast<int64_t>(size) > lo;
    };
    auto scrub = [&](AbsVal& v) {
      if (v.ub.valid() && overlaps(v.ub.param, v.ub.off, v.ub.size)) v.ub = SymBound{};
      if (v.pred.cmp != Op::kNop) {
        const Origin& a = v.pred.l;
        const Origin& b = v.pred.r;
        if ((a.kind == OriginKind::kFieldLoad && overlaps(a.param, a.offset, a.size)) ||
            (b.kind == OriginKind::kFieldLoad && overlaps(b.param, b.offset, b.size))) {
          v.pred = Pred{};
        }
      }
      if (v.kind == ValKind::kPtr && v.ptr.len.valid() &&
          overlaps(v.ptr.len.param, v.ptr.len.off, v.ptr.len.size)) {
        v.ptr.len = SymBound{};
      }
    };
    for (auto& v : st.stack) scrub(v);
    for (auto& v : st.locals) scrub(v);
  }

  // A store to local L invalidates predicates that snapshot L's value.
  void kill_local_refs(State& st, int slot) {
    for (auto& v : st.stack) {
      if (v.pred.cmp != Op::kNop &&
          ((v.pred.l.kind == OriginKind::kLocal && v.pred.l.local == slot) ||
           (v.pred.r.kind == OriginKind::kLocal && v.pred.r.local == slot))) {
        v.pred = Pred{};
      }
    }
  }

  // --- memory marking -------------------------------------------------------

  void mark_read(State& st, int pc, int param, Interval root, uint32_t width,
                 const std::string& what) {
    if (param < 0) return;
    auto& summary = summaries_[static_cast<size_t>(param)];
    int64_t sz = static_cast<int64_t>(summary.ever_read.size());
    int64_t lo = std::clamp<int64_t>(root.lo, 0, sz);
    int64_t hi = std::clamp<int64_t>(root.hi + width, 0, sz);
    for (int64_t i = lo; i < hi; ++i) summary.ever_read[static_cast<size_t>(i)] = 1;
    // Definite-assignment: reading a destination byte that is not provably
    // assigned on this path leaks the arena's zero fill into the output.
    if (is_dst(param) && root.singleton()) {
      const auto& init = st.init[static_cast<size_t>(param)];
      for (int64_t i = lo; i < std::min<int64_t>(root.lo + width, sz); ++i) {
        if (!init[static_cast<size_t>(i)]) {
          finding(VerifyCheck::kReadBeforeAssign, pc,
                  "destination field '" + what + "' is read before it is assigned", what);
          break;
        }
      }
    }
  }

  void mark_store(State& st, int /*pc*/, int param, Interval root, uint32_t width) {
    if (param < 0) return;
    auto& summary = summaries_[static_cast<size_t>(param)];
    int64_t sz = static_cast<int64_t>(summary.ever_stored.size());
    int64_t lo = std::clamp<int64_t>(root.lo, 0, sz);
    int64_t hi = std::clamp<int64_t>(root.hi + width, 0, sz);
    for (int64_t i = lo; i < hi; ++i) summary.ever_stored[static_cast<size_t>(i)] = 1;
    if (is_dst(param) && root.singleton()) {
      auto& init = st.init[static_cast<size_t>(param)];
      for (int64_t i = lo; i < std::min<int64_t>(root.lo + width, sz); ++i) {
        init[static_cast<size_t>(i)] = 1;
      }
    }
    kill_field_refs(st, param, root.lo, root.hi + width);
  }

  void record_store(int pc, int param, const PtrVal& p, bool scalar, FieldKind kind,
                    uint32_t width, const AbsVal& value, const std::string& path) {
    StoreRec rec;
    rec.pc = pc;
    rec.line = chunk_.code[static_cast<size_t>(pc)].line;
    rec.param = param;
    rec.root = p.root_inline;
    if (p.root_inline) {
      rec.lo = p.root_off.lo;
      rec.hi = p.root_off.hi + width;
    }
    rec.scalar = scalar;
    rec.kind = kind;
    rec.path = path;
    rec.width = width;
    rec.value = value;
    auto it = store_recs_.find(pc);
    if (it == store_recs_.end()) {
      store_recs_.emplace(pc, std::move(rec));
    } else {
      // Re-visited store: keep the widest byte range and join the value.
      it->second.root = it->second.root && rec.root;
      it->second.lo = std::min(it->second.lo, rec.lo);
      it->second.hi = std::max(it->second.hi, rec.hi);
      val_join(it->second.value, rec.value, /*widen=*/false);
    }
  }

  // --- address resolution ---------------------------------------------------

  /// Resolve a struct pointer to the single field site it targets, or null
  /// (reporting). The offset must be exact: a variable struct offset means
  /// the compiler's addressing invariants were broken.
  const FieldSite* resolve_site(const PtrVal& p, int pc, const char* what) {
    if (p.fmt == nullptr) {
      finding(VerifyCheck::kOobAccess, pc,
              std::string(what) + ": address is not statically resolvable");
      return nullptr;
    }
    if (!p.off.singleton()) {
      finding(VerifyCheck::kOobAccess, pc,
              std::string(what) + ": struct offset is not a single statically-known value");
      return nullptr;
    }
    const FieldSite* site = layout(p.fmt).at(p.off.lo);
    if (site == nullptr) {
      finding(VerifyCheck::kOobAccess, pc,
              std::string(what) + ": offset " + std::to_string(p.off.lo) +
                  " does not name a field of format '" + p.fmt->name() + "'");
    }
    return site;
  }

  // --- transfer function ----------------------------------------------------

  void step(int pc, State st);
  void flow_to(int target, State&& st);
  void apply_rel(State& st, const Pred& p, bool truth, bool& feasible);
  void refine_local(State& st, int slot, Rel rel, Interval bound, const Origin& bound_origin,
                    bool& feasible);
  void do_load(State& st, int pc, Op op);
  void do_store(State& st, int pc, Op op);
  void do_index(State& st, int pc, const Instr& in);
  void do_copy_loop(State& st, int pc, const Instr& in);
  const FieldSite* dyn_slot(const AbsVal& v, int pc, const std::string& what);
  std::optional<FieldSite> element_leaf(const FieldDescriptor& array, int64_t off);
  std::string check_copy_fields(const FieldDescriptor& dst, const FieldDescriptor& src,
                                const CopyLoop& loop);

  static uint32_t load_width(Op op) {
    switch (op) {
      case Op::kLoadI8:
      case Op::kLoadU8:
      case Op::kStoreI8:
        return 1;
      case Op::kLoadI16:
      case Op::kLoadU16:
      case Op::kStoreI16:
        return 2;
      case Op::kLoadI32:
      case Op::kLoadU32:
      case Op::kLoadF32:
      case Op::kStoreI32:
      case Op::kStoreF32:
        return 4;
      default:
        return 8;
    }
  }

  static Interval load_range(Op op) {
    switch (op) {
      case Op::kLoadI8:
        return {INT8_MIN, INT8_MAX};
      case Op::kLoadI16:
        return {INT16_MIN, INT16_MAX};
      case Op::kLoadI32:
        return {INT32_MIN, INT32_MAX};
      case Op::kLoadU8:
        return {0, UINT8_MAX};
      case Op::kLoadU16:
        return {0, UINT16_MAX};
      case Op::kLoadU32:
        return {0, UINT32_MAX};
      default:
        return Interval::full();
    }
  }

  /// True when `op` is the correct load for a scalar of (kind, size) — the
  /// width/signedness contract between descriptor and backends.
  static bool load_matches(Op op, FieldKind kind, uint32_t size) {
    if (kind == FieldKind::kFloat) {
      return (op == Op::kLoadF32 && size == 4) || (op == Op::kLoadF64 && size == 8);
    }
    if (load_width(op) != size) return false;
    bool want_unsigned = kind == FieldKind::kUInt || kind == FieldKind::kChar;
    switch (op) {
      case Op::kLoadU8:
      case Op::kLoadU16:
      case Op::kLoadU32:
        return want_unsigned;
      case Op::kLoadI8:
      case Op::kLoadI16:
      case Op::kLoadI32:
        return !want_unsigned;
      case Op::kLoadI64:
        return true;  // full-width reload is sign-agnostic
      default:
        return false;
    }
  }

  static bool store_matches(Op op, FieldKind kind, uint32_t size) {
    if (kind == FieldKind::kFloat) {
      return (op == Op::kStoreF32 && size == 4) || (op == Op::kStoreF64 && size == 8);
    }
    if (op == Op::kStoreF32 || op == Op::kStoreF64) return false;
    return load_width(op) == size && pbio::is_fixed_scalar(kind);
  }

  const Chunk& chunk_;
  const std::vector<RecordParam>& params_;
  const VerifyOptions& options_;
  std::vector<VerifyFinding>& out_;

  std::map<const FormatDescriptor*, Layout> layouts_;
  std::set<std::pair<int, int>> dedup_;
  std::vector<State> states_;       // entry state per pc
  std::vector<int> join_counts_;    // joins per pc, drives widening
  std::vector<uint8_t> loop_heads_; // back-edge targets: the only widening points
  std::vector<uint8_t> on_work_;    // membership flag for the worklist
  std::deque<int> worklist_;
  std::vector<ParamSummary> summaries_;
  std::vector<std::vector<uint8_t>> ret_init_;  // at-return intersection
  bool any_ret_ = false;
  std::map<int, StoreRec> store_recs_;
  std::map<int, CmpRec> cmp_recs_;
  AbsintResult result_;
};

// ---------------------------------------------------------------------------

void Interp::flow_to(int target, State&& st) {
  if (target < 0 || target >= static_cast<int>(states_.size())) return;  // structural pass caught
  State& dst = states_[static_cast<size_t>(target)];
  bool changed = false;
  if (!dst.reachable) {
    dst = std::move(st);
    dst.reachable = true;
    changed = true;
  } else {
    if (dst.stack.size() != st.stack.size()) {
      finding(VerifyCheck::kStackShape, target,
              "inconsistent evaluation-stack depth at join (" +
                  std::to_string(dst.stack.size()) + " vs " + std::to_string(st.stack.size()) +
                  "): the JIT requires one depth per pc");
      return;
    }
    // Widen only at loop heads. Every CFG cycle crosses a back-edge target,
    // so widening there is enough for convergence; widening at straight-line
    // merge points would destroy guard refinements mid-body (e.g. blow a
    // bounded induction variable to +inf between its guard and its use).
    bool widen = loop_heads_[static_cast<size_t>(target)] &&
                 join_counts_[static_cast<size_t>(target)] >= kWidenAfter;
    for (size_t i = 0; i < dst.stack.size(); ++i) {
      changed |= val_join(dst.stack[i], st.stack[i], widen);
    }
    for (size_t i = 0; i < dst.locals.size(); ++i) {
      changed |= val_join(dst.locals[i], st.locals[i], widen);
    }
    for (size_t p = 0; p < dst.init.size(); ++p) {
      auto& a = dst.init[p];
      const auto& b = st.init[p];
      for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] && !b[i]) {
          a[i] = 0;
          changed = true;
        }
      }
    }
  }
  if (changed) {
    ++join_counts_[static_cast<size_t>(target)];
    if (!on_work_[static_cast<size_t>(target)]) {
      on_work_[static_cast<size_t>(target)] = 1;
      worklist_.push_back(target);
    }
  }
}

void Interp::refine_local(State& st, int slot, Rel rel, Interval bound, const Origin& bound_origin,
                          bool& feasible) {
  if (slot < 0 || slot >= static_cast<int>(st.locals.size())) return;
  AbsVal& v = st.locals[static_cast<size_t>(slot)];
  if (v.kind != ValKind::kInt) return;
  switch (rel) {
    case Rel::kLt:
      if (bound.hi == INT64_MIN) {
        feasible = false;
        return;
      }
      v.iv.hi = std::min(v.iv.hi, bound.hi - 1);
      break;
    case Rel::kLe:
      v.iv.hi = std::min(v.iv.hi, bound.hi);
      break;
    case Rel::kGt:
      if (bound.lo == INT64_MAX) {
        feasible = false;
        return;
      }
      v.iv.lo = std::max(v.iv.lo, bound.lo + 1);
      break;
    case Rel::kGe:
      v.iv.lo = std::max(v.iv.lo, bound.lo);
      break;
    case Rel::kEq:
      v.iv.lo = std::max(v.iv.lo, bound.lo);
      v.iv.hi = std::min(v.iv.hi, bound.hi);
      break;
    case Rel::kNe:
    case Rel::kNone:
      return;
  }
  if (v.iv.lo > v.iv.hi) {
    feasible = false;
    return;
  }
  // "local < length_field" is the certificate a dynamic-array read needs;
  // record it symbolically when the bound is a scalar integer field.
  if ((rel == Rel::kLt || rel == Rel::kLe) && bound_origin.kind == OriginKind::kFieldLoad &&
      bound_origin.fkind != FieldKind::kFloat) {
    v.ub = SymBound{bound_origin.param, bound_origin.offset, bound_origin.size, rel == Rel::kLt};
  }
}

void Interp::apply_rel(State& st, const Pred& p, bool truth, bool& feasible) {
  Rel rel = rel_of(p.cmp);
  if (rel == Rel::kNone) return;
  if (!truth) rel = rel_negate(rel);
  if (p.l.kind == OriginKind::kLocal) {
    // Only refine if the local still holds the compared value.
    const AbsVal& cur = st.locals[static_cast<size_t>(p.l.local)];
    if (cur.kind == ValKind::kInt && cur.iv == p.liv) {
      refine_local(st, p.l.local, rel, p.riv, p.r, feasible);
    }
  }
  if (p.r.kind == OriginKind::kLocal) {
    const AbsVal& cur = st.locals[static_cast<size_t>(p.r.local)];
    if (cur.kind == ValKind::kInt && cur.iv == p.riv) {
      refine_local(st, p.r.local, rel_swap(rel), p.liv, p.l, feasible);
    }
  }
}

void Interp::do_load(State& st, int pc, Op op) {
  AbsVal addr = pop(st, pc);
  if (addr.kind != ValKind::kPtr) {
    if (addr.kind == ValKind::kAny) {
      finding(VerifyCheck::kOobAccess, pc, "load from a statically unresolvable address");
    } else {
      finding(VerifyCheck::kTypeConfusion, pc,
              std::string("load expects an address, got ") + kind_name(addr.kind));
    }
    push(st, pc, AbsVal::any());
    return;
  }
  const PtrVal& p = addr.ptr;
  uint32_t width = load_width(op);
  bool is_float = op == Op::kLoadF32 || op == Op::kLoadF64;
  FieldKind kind = FieldKind::kInt;
  uint32_t size = 0;
  std::string path;
  if (p.kind == PtrKind::kStruct) {
    const FieldSite* site = resolve_site(p, pc, "load");
    if (site == nullptr) {
      push(st, pc, AbsVal::any());
      return;
    }
    path = site->path;
    if (site->use != SiteUse::kScalar) {
      finding(VerifyCheck::kTypeConfusion, pc,
              "scalar load from non-scalar field '" + field_name(p.param, path) + "'",
              field_name(p.param, path));
      push(st, pc, AbsVal::any());
      return;
    }
    if (p.off.lo != site->start || width > site->size) {
      finding(VerifyCheck::kOobAccess, pc,
              "load at offset " + std::to_string(p.off.lo) + " straddles field '" +
                  field_name(p.param, path) + "'",
              field_name(p.param, path));
      push(st, pc, AbsVal::any());
      return;
    }
    kind = site->kind;
    size = site->size;
  } else if (p.kind == PtrKind::kScalarSlot) {
    kind = p.skind;
    size = p.ssize;
    path = "<element>";
  } else {
    finding(VerifyCheck::kTypeConfusion, pc, "scalar load from a non-scalar address");
    push(st, pc, AbsVal::any());
    return;
  }
  if (!load_matches(op, kind, size)) {
    finding(VerifyCheck::kWidthMismatch, pc,
            op_name(op) + " does not match " + std::string(pbio::field_kind_name(kind)) +
                " field of size " + std::to_string(size) +
                (path != "<element>" ? " ('" + field_name(p.param, path) + "')" : ""),
            path != "<element>" ? field_name(p.param, path) : "");
  }
  if (p.root_inline) {
    mark_read(st, pc, p.param, p.root_off, width, field_name(p.param, path));
  }
  AbsVal v;
  if (is_float) {
    v = AbsVal::floating();
  } else {
    v = AbsVal::integer(load_range(op));
  }
  if (p.root_inline && p.root_off.singleton()) {
    v.origin = Origin{OriginKind::kFieldLoad, -1, p.param, p.root_off.lo, size, kind};
  }
  push(st, pc, std::move(v));
}

void Interp::do_store(State& st, int pc, Op op) {
  AbsVal addr = pop(st, pc);
  bool is_float = op == Op::kStoreF32 || op == Op::kStoreF64;
  AbsVal value = is_float ? pop_float(st, pc, op_name(op).c_str())
                          : pop_int(st, pc, op_name(op).c_str());
  if (addr.kind != ValKind::kPtr) {
    if (addr.kind == ValKind::kAny) {
      finding(VerifyCheck::kOobAccess, pc, "store to a statically unresolvable address");
    } else {
      finding(VerifyCheck::kTypeConfusion, pc,
              std::string("store expects an address, got ") + kind_name(addr.kind));
    }
    return;
  }
  const PtrVal& p = addr.ptr;
  uint32_t width = load_width(op);
  const FieldSite* site = nullptr;
  FieldKind kind = FieldKind::kInt;
  uint32_t size = 0;
  std::string path = "<element>";
  if (p.kind == PtrKind::kStruct) {
    site = resolve_site(p, pc, "store");
    if (site == nullptr) return;
    path = site->path;
    if (site->use != SiteUse::kScalar) {
      finding(VerifyCheck::kTypeConfusion, pc,
              "scalar store to non-scalar field '" + field_name(p.param, path) + "'",
              field_name(p.param, path));
      return;
    }
    if (p.off.lo != site->start || width > site->size) {
      finding(VerifyCheck::kOobAccess, pc,
              "store at offset " + std::to_string(p.off.lo) + " straddles field '" +
                  field_name(p.param, path) + "'",
              field_name(p.param, path));
      return;
    }
    kind = site->kind;
    size = site->size;
  } else if (p.kind == PtrKind::kScalarSlot) {
    kind = p.skind;
    size = p.ssize;
  } else {
    finding(VerifyCheck::kTypeConfusion, pc, "scalar store to a non-scalar address");
    return;
  }
  if (!store_matches(op, kind, size)) {
    finding(VerifyCheck::kWidthMismatch, pc,
            op_name(op) + " does not match " + std::string(pbio::field_kind_name(kind)) +
                " field of size " + std::to_string(size) +
                (site != nullptr ? " ('" + field_name(p.param, path) + "')" : ""),
            site != nullptr ? field_name(p.param, path) : "");
  }
  if (p.root_inline) mark_store(st, pc, p.param, p.root_off, width);
  record_store(pc, p.param, p, /*scalar=*/true, kind, width, value, path);
}

void Interp::do_index(State& st, int pc, const Instr& in) {
  AbsVal idx = pop_int(st, pc, "index");
  AbsVal base = pop(st, pc);
  if (base.kind != ValKind::kPtr) {
    if (base.kind == ValKind::kAny) {
      finding(VerifyCheck::kOobAccess, pc, "indexing a statically unresolvable address");
    } else {
      finding(VerifyCheck::kTypeConfusion, pc,
              std::string("index expects an array address, got ") + kind_name(base.kind));
    }
    push(st, pc, AbsVal::any());
    return;
  }
  const PtrVal& p = base.ptr;
  AbsVal out;
  out.kind = ValKind::kPtr;
  if (p.kind == PtrKind::kStruct) {
    const FieldSite* site = resolve_site(p, pc, "index");
    if (site == nullptr) {
      push(st, pc, AbsVal::any());
      return;
    }
    std::string fname = field_name(p.param, site->path);
    if (site->use != SiteUse::kStaticArray) {
      finding(VerifyCheck::kTypeConfusion, pc,
              "indexing non-static-array field '" + fname + "' without loading its pointer",
              fname);
      push(st, pc, AbsVal::any());
      return;
    }
    const FieldDescriptor* fd = site->fd;
    uint32_t stride = fd->element_stride();
    if (in.imm != static_cast<int64_t>(stride)) {
      finding(VerifyCheck::kWidthMismatch, pc,
              "index stride " + std::to_string(in.imm) + " does not match element stride " +
                  std::to_string(stride) + " of '" + fname + "'",
              fname);
    }
    if (idx.iv.lo < 0 || idx.iv.hi >= static_cast<int64_t>(fd->static_count)) {
      finding(VerifyCheck::kOobAccess, pc,
              "static-array index not provably within [0, " + std::to_string(fd->static_count) +
                  ") for '" + fname + "' (index range [" + std::to_string(idx.iv.lo) + ", " +
                  std::to_string(idx.iv.hi) + "])",
              fname);
      push(st, pc, AbsVal::any());
      return;
    }
    Interval delta = iv_mul(idx.iv, Interval::exact(stride));
    if (fd->has_element_format()) {
      out.ptr.kind = PtrKind::kStruct;
      out.ptr.param = p.param;
      out.ptr.fmt = fd->element_format.get();
      out.ptr.off = Interval::exact(0);
    } else {
      out.ptr.kind = PtrKind::kScalarSlot;
      out.ptr.param = p.param;
      out.ptr.skind = fd->element_kind;
      out.ptr.ssize = fd->element_size;
    }
    out.ptr.root_inline = p.root_inline;
    out.ptr.root_off = iv_add(p.root_off, delta);
  } else if (p.kind == PtrKind::kDynElems) {
    const FieldDescriptor* fd = p.dyn;
    std::string fname = params_[static_cast<size_t>(p.param)].name + "." + fd->name;
    uint32_t stride = fd->element_stride();
    if (in.imm != static_cast<int64_t>(stride)) {
      finding(VerifyCheck::kWidthMismatch, pc,
              "index stride " + std::to_string(in.imm) + " does not match element stride " +
                  std::to_string(stride) + " of '" + fname + "'",
              fname);
    }
    bool proven = idx.iv.lo >= 0 && p.len.valid() && idx.ub.valid() && idx.ub.param == p.len.param &&
                  idx.ub.off == p.len.off && idx.ub.size == p.len.size && idx.ub.strict;
    if (!proven) {
      finding(VerifyCheck::kOobAccess, pc,
              "dynamic-array read of '" + fname +
                  "' is not dominated by a guard proving 0 <= index < its length field",
              fname);
      push(st, pc, AbsVal::any());
      return;
    }
    if (fd->has_element_format()) {
      out.ptr.kind = PtrKind::kStruct;
      out.ptr.param = p.param;
      out.ptr.fmt = fd->element_format.get();
      out.ptr.off = Interval::exact(0);
    } else {
      out.ptr.kind = PtrKind::kScalarSlot;
      out.ptr.param = p.param;
      out.ptr.skind = fd->element_kind;
      out.ptr.ssize = fd->element_size;
    }
    out.ptr.root_inline = false;
  } else {
    finding(VerifyCheck::kTypeConfusion, pc, "indexing a scalar address");
    push(st, pc, AbsVal::any());
    return;
  }
  push(st, pc, std::move(out));
}

const FieldSite* Interp::dyn_slot(const AbsVal& v, int pc, const std::string& what) {
  if (v.kind != ValKind::kPtr || v.ptr.kind != PtrKind::kStruct) {
    finding(VerifyCheck::kTypeConfusion, pc, what + " is not a field address");
    return nullptr;
  }
  const FieldSite* site = resolve_site(v.ptr, pc, what.c_str());
  if (site == nullptr) return nullptr;
  if (site->use != SiteUse::kDynSlot) {
    std::string fname = field_name(v.ptr.param, site->path);
    finding(VerifyCheck::kTypeConfusion, pc,
            what + " '" + fname + "' is not a dynamic-array field", fname);
    return nullptr;
  }
  return site;
}

std::optional<FieldSite> Interp::element_leaf(const FieldDescriptor& array, int64_t off) {
  if (array.has_element_format()) {
    const FieldSite* site = layout(array.element_format.get()).at(off);
    if (site == nullptr || site->start != off) return std::nullopt;
    return *site;
  }
  if (off != 0) return std::nullopt;
  FieldSite leaf;
  leaf.size = array.element_size;
  leaf.kind = array.element_kind;
  leaf.use = array.element_kind == FieldKind::kString ? SiteUse::kStringSlot : SiteUse::kScalar;
  return leaf;
}

/// Why `loop`'s runs and strings do not pair whole element fields of the
/// same kind and size in `src`'s and `dst`'s elements, or "". A run never
/// moves pointer bytes, and no copy reaches outside an element.
std::string Interp::check_copy_fields(const FieldDescriptor& dst, const FieldDescriptor& src,
                                      const CopyLoop& loop) {
  for (const auto& run : loop.runs) {
    std::string where = std::to_string(run.len) + "-byte run " + std::to_string(run.src_off) +
                        " -> " + std::to_string(run.dst_off);
    for (uint32_t k = 0; k < run.len;) {
      auto d = element_leaf(dst, int64_t{run.dst_off} + k);
      auto s = element_leaf(src, int64_t{run.src_off} + k);
      if (!d || !s || d->use != SiteUse::kScalar || s->use != SiteUse::kScalar ||
          d->kind != s->kind || d->size != s->size || k + d->size > run.len) {
        return where + " does not cover whole scalar element fields of one kind and size";
      }
      k += d->size;
    }
    if (run.len == 0) return where + " is empty";
  }
  for (const auto& str : loop.strings) {
    auto d = element_leaf(dst, str.dst_off);
    auto s = element_leaf(src, str.src_off);
    if (!d || !s || d->use != SiteUse::kStringSlot || s->use != SiteUse::kStringSlot) {
      return "string copy " + std::to_string(str.src_off) + " -> " + std::to_string(str.dst_off) +
             " does not pair two string element fields";
    }
  }
  return "";
}

/// A lowered element-copy loop: the source reads are safe when the count is
/// the source array's length field as just loaded; the destination grows to
/// the count like kEnsure; the copied fields must pair up by the layouts.
void Interp::do_copy_loop(State& st, int pc, const Instr& in) {
  AbsVal count = pop_int(st, pc, "copy loop");
  AbsVal src = pop(st, pc);
  AbsVal dst = pop(st, pc);
  push(st, pc, AbsVal::integer({0, std::max<int64_t>(0, count.iv.hi)}));
  const CopyLoop& loop = chunk_.copy_loops[static_cast<size_t>(in.a)];
  const FieldSite* ss = dyn_slot(src, pc, "copy loop source");
  const FieldSite* ds = dyn_slot(dst, pc, "copy loop destination");
  if (ss == nullptr || ds == nullptr) return;
  const PtrVal& sp = src.ptr;
  const PtrVal& dp = dst.ptr;
  std::string sname = field_name(sp.param, ss->path);
  std::string dname = field_name(dp.param, ds->path);
  bool bounded = sp.root_inline && sp.off.singleton() && sp.root_off.singleton() &&
                 ss->len_off >= 0 && count.origin.kind == OriginKind::kFieldLoad &&
                 count.origin.param == sp.param &&
                 count.origin.offset == sp.root_off.lo - sp.off.lo + ss->len_off &&
                 count.origin.size == ss->len_size;
  if (!bounded) {
    finding(VerifyCheck::kOobAccess, pc,
            "copy loop over '" + sname + "' is not bounded by its length field", sname);
  }
  if (loop.src_stride != ss->fd->element_stride() || loop.dst_stride != ds->fd->element_stride()) {
    finding(VerifyCheck::kWidthMismatch, pc,
            "copy loop strides " + std::to_string(loop.src_stride) + " -> " +
                std::to_string(loop.dst_stride) + " do not match '" + sname + "' -> '" + dname +
                "'",
            dname);
  } else if (std::string why = check_copy_fields(*ds->fd, *ss->fd, loop); !why.empty()) {
    finding(VerifyCheck::kWidthMismatch, pc,
            "copy loop from '" + sname + "' into '" + dname + "': " + why, dname);
  }
  if (sp.root_inline) mark_read(st, pc, sp.param, sp.root_off, 8, sname);
  if (dp.root_inline) mark_store(st, pc, dp.param, dp.root_off, 8);
  record_store(pc, dp.param, dp, /*scalar=*/false, FieldKind::kDynArray, 8, AbsVal::any(),
               ds->path);
}

void Interp::step(int pc, State st) {
  const Instr& in = chunk_.code[static_cast<size_t>(pc)];
  int next = pc + 1;
  switch (in.op) {
    case Op::kNop:
      break;
    case Op::kConstI: {
      AbsVal v = AbsVal::integer(Interval::exact(in.imm));
      v.origin.kind = OriginKind::kConst;
      push(st, pc, std::move(v));
      break;
    }
    case Op::kConstF: {
      AbsVal v = AbsVal::floating();
      v.origin.kind = OriginKind::kConst;
      push(st, pc, std::move(v));
      break;
    }
    case Op::kConstStr: {
      AbsVal v;
      v.kind = ValKind::kStr;
      push(st, pc, std::move(v));
      break;
    }
    case Op::kLoadLocal: {
      AbsVal v = st.locals[static_cast<size_t>(in.a)];
      v.origin = Origin{OriginKind::kLocal, in.a, -1, 0, 0, FieldKind::kInt};
      v.pred = Pred{};
      push(st, pc, std::move(v));
      break;
    }
    case Op::kStoreLocal: {
      AbsVal v = pop(st, pc);
      kill_local_refs(st, in.a);
      v.origin = Origin{};
      v.pred = Pred{};
      st.locals[static_cast<size_t>(in.a)] = std::move(v);
      break;
    }

    case Op::kAddI:
    case Op::kSubI:
    case Op::kMulI:
    case Op::kDivI:
    case Op::kModI:
    case Op::kBitAnd:
    case Op::kBitOr:
    case Op::kBitXor:
    case Op::kShl:
    case Op::kShr: {
      AbsVal r = pop_int(st, pc, op_name(in.op).c_str());
      AbsVal l = pop_int(st, pc, op_name(in.op).c_str());
      Interval iv = Interval::full();
      switch (in.op) {
        case Op::kAddI:
          iv = iv_add(l.iv, r.iv);
          break;
        case Op::kSubI:
          iv = iv_sub(l.iv, r.iv);
          break;
        case Op::kMulI:
          iv = iv_mul(l.iv, r.iv);
          break;
        case Op::kDivI:
          iv = iv_div(l.iv, r.iv);
          break;
        case Op::kModI:
          iv = iv_mod(l.iv, r.iv);
          break;
        case Op::kBitAnd:
          iv = iv_and(l.iv, r.iv);
          break;
        case Op::kShr:
          iv = iv_shr(l.iv, r.iv);
          break;
        default:
          break;
      }
      AbsVal v = AbsVal::integer(iv);
      v.from_f2i = l.from_f2i || r.from_f2i;
      push(st, pc, std::move(v));
      break;
    }
    case Op::kNegI: {
      AbsVal a = pop_int(st, pc, "neg");
      AbsVal v = AbsVal::integer(iv_neg(a.iv));
      v.from_f2i = a.from_f2i;
      push(st, pc, std::move(v));
      break;
    }
    case Op::kNotL: {
      pop_int(st, pc, "logical not");
      push(st, pc, AbsVal::integer({0, 1}));
      break;
    }
    case Op::kBitNot: {
      pop_int(st, pc, "bitwise not");
      push(st, pc, AbsVal::integer(Interval::full()));
      break;
    }

    case Op::kAddF:
    case Op::kSubF:
    case Op::kMulF:
    case Op::kDivF: {
      AbsVal r = pop_float(st, pc, op_name(in.op).c_str());
      AbsVal l = pop_float(st, pc, op_name(in.op).c_str());
      (void)r;
      (void)l;
      push(st, pc, AbsVal::floating());
      break;
    }
    case Op::kNegF: {
      pop_float(st, pc, "float neg");
      push(st, pc, AbsVal::floating());
      break;
    }

    case Op::kEqI:
    case Op::kNeI:
    case Op::kLtI:
    case Op::kLeI:
    case Op::kGtI:
    case Op::kGeI: {
      AbsVal r = pop_int(st, pc, op_name(in.op).c_str());
      AbsVal l = pop_int(st, pc, op_name(in.op).c_str());
      // Side-record the operands for the loop-termination pass.
      auto it = cmp_recs_.find(pc);
      if (it == cmp_recs_.end()) {
        cmp_recs_.emplace(pc, CmpRec{l, r});
      } else {
        val_join(it->second.lhs, l, /*widen=*/false);
        val_join(it->second.rhs, r, /*widen=*/false);
      }
      AbsVal v = AbsVal::integer({0, 1});
      v.pred = Pred{in.op, false, l.origin, r.origin, l.iv, r.iv};
      push(st, pc, std::move(v));
      break;
    }
    case Op::kEqF:
    case Op::kNeF:
    case Op::kLtF:
    case Op::kLeF:
    case Op::kGtF:
    case Op::kGeF: {
      pop_float(st, pc, op_name(in.op).c_str());
      pop_float(st, pc, op_name(in.op).c_str());
      push(st, pc, AbsVal::integer({0, 1}));
      break;
    }

    case Op::kI2F: {
      AbsVal a = pop_int(st, pc, "int-to-float");
      AbsVal v = AbsVal::floating();
      v.origin = a.origin;
      v.from_f2i = a.from_f2i;
      push(st, pc, std::move(v));
      break;
    }
    case Op::kF2I: {
      AbsVal a = pop_float(st, pc, "float-to-int");
      AbsVal v = AbsVal::integer(Interval::full());
      v.origin = a.origin;
      v.from_f2i = true;
      push(st, pc, std::move(v));
      break;
    }

    case Op::kAbsI: {
      AbsVal a = pop_int(st, pc, "abs");
      push(st, pc, AbsVal::integer(iv_abs(a.iv)));
      break;
    }
    case Op::kAbsF:
    case Op::kSqrtF:
    case Op::kFloorF:
    case Op::kCeilF: {
      pop_float(st, pc, op_name(in.op).c_str());
      push(st, pc, AbsVal::floating());
      break;
    }
    case Op::kMinI:
    case Op::kMaxI: {
      AbsVal r = pop_int(st, pc, op_name(in.op).c_str());
      AbsVal l = pop_int(st, pc, op_name(in.op).c_str());
      AbsVal v;
      if (in.op == Op::kMinI) {
        v = AbsVal::integer({std::min(l.iv.lo, r.iv.lo), std::min(l.iv.hi, r.iv.hi)});
        // min(a, b) inherits either operand's symbolic upper bound.
        v.ub = l.ub.valid() ? l.ub : r.ub;
      } else {
        v = AbsVal::integer({std::max(l.iv.lo, r.iv.lo), std::max(l.iv.hi, r.iv.hi)});
        if (l.ub == r.ub) v.ub = l.ub;
      }
      push(st, pc, std::move(v));
      break;
    }
    case Op::kMinF:
    case Op::kMaxF: {
      pop_float(st, pc, op_name(in.op).c_str());
      pop_float(st, pc, op_name(in.op).c_str());
      push(st, pc, AbsVal::floating());
      break;
    }
    case Op::kStrLen: {
      pop_str(st, pc, "strlen");
      push(st, pc, AbsVal::integer({0, INT64_MAX}));
      break;
    }
    case Op::kStrEq: {
      pop_str(st, pc, "streq");
      pop_str(st, pc, "streq");
      push(st, pc, AbsVal::integer({0, 1}));
      break;
    }

    case Op::kJmp:
      flow_to(in.a, std::move(st));
      return;
    case Op::kJz:
    case Op::kJnz: {
      AbsVal cond = pop_int(st, pc, op_name(in.op).c_str());
      bool jump_on_true = in.op == Op::kJnz;
      bool can_be_zero = cond.iv.lo <= 0 && cond.iv.hi >= 0;
      bool can_be_nonzero = !(cond.iv.lo == 0 && cond.iv.hi == 0);
      bool take_jump = jump_on_true ? can_be_nonzero : can_be_zero;
      bool take_fall = jump_on_true ? can_be_zero : can_be_nonzero;
      if (take_jump) {
        State js = st;
        bool feasible = true;
        if (cond.pred.cmp != Op::kNop) apply_rel(js, cond.pred, jump_on_true, feasible);
        if (feasible) flow_to(in.a, std::move(js));
      }
      if (take_fall) {
        bool feasible = true;
        if (cond.pred.cmp != Op::kNop) apply_rel(st, cond.pred, !jump_on_true, feasible);
        if (feasible) flow_to(next, std::move(st));
      }
      return;
    }
    case Op::kDup: {
      AbsVal v = pop(st, pc);
      push(st, pc, v);
      push(st, pc, std::move(v));
      break;
    }
    case Op::kPop:
      pop(st, pc);
      break;

    case Op::kParamAddr: {
      AbsVal v;
      v.kind = ValKind::kPtr;
      v.ptr.kind = PtrKind::kStruct;
      v.ptr.param = in.a;
      v.ptr.fmt = params_[static_cast<size_t>(in.a)].format.get();
      v.ptr.off = Interval::exact(0);
      v.ptr.root_inline = true;
      v.ptr.root_off = Interval::exact(0);
      push(st, pc, std::move(v));
      break;
    }
    case Op::kFieldAddr: {
      AbsVal base = pop(st, pc);
      if (base.kind != ValKind::kPtr || base.ptr.kind != PtrKind::kStruct) {
        finding(VerifyCheck::kTypeConfusion, pc, "field address of a non-struct base");
        push(st, pc, AbsVal::any());
        break;
      }
      base.ptr.off = iv_add(base.ptr.off, Interval::exact(in.imm));
      base.ptr.root_off = iv_add(base.ptr.root_off, Interval::exact(in.imm));
      push(st, pc, std::move(base));
      break;
    }
    case Op::kLoadPtr: {
      AbsVal addr = pop(st, pc);
      if (addr.kind != ValKind::kPtr) {
        finding(addr.kind == ValKind::kAny ? VerifyCheck::kOobAccess : VerifyCheck::kTypeConfusion,
                pc, "pointer load from a statically unresolvable address");
        push(st, pc, AbsVal::any());
        break;
      }
      const PtrVal& p = addr.ptr;
      if (p.kind == PtrKind::kScalarSlot && p.skind == FieldKind::kString) {
        if (p.root_inline) mark_read(st, pc, p.param, p.root_off, 8, "<element>");
        AbsVal v;
        v.kind = ValKind::kStr;
        push(st, pc, std::move(v));
        break;
      }
      if (p.kind != PtrKind::kStruct) {
        finding(VerifyCheck::kTypeConfusion, pc, "pointer load from a non-slot address");
        push(st, pc, AbsVal::any());
        break;
      }
      const FieldSite* site = resolve_site(p, pc, "pointer load");
      if (site == nullptr) {
        push(st, pc, AbsVal::any());
        break;
      }
      std::string fname = field_name(p.param, site->path);
      if (site->use == SiteUse::kStringSlot) {
        if (p.root_inline) mark_read(st, pc, p.param, p.root_off, 8, fname);
        AbsVal v;
        v.kind = ValKind::kStr;
        push(st, pc, std::move(v));
      } else if (site->use == SiteUse::kDynSlot) {
        if (p.root_inline) mark_read(st, pc, p.param, p.root_off, 8, fname);
        AbsVal v;
        v.kind = ValKind::kPtr;
        v.ptr.kind = PtrKind::kDynElems;
        v.ptr.param = p.param;
        v.ptr.dyn = site->fd;
        if (p.root_inline && p.off.singleton() && p.root_off.singleton() && site->len_off >= 0) {
          v.ptr.len =
              SymBound{p.param, p.root_off.lo - p.off.lo + site->len_off, site->len_size, true};
        }
        push(st, pc, std::move(v));
      } else {
        finding(VerifyCheck::kTypeConfusion, pc,
                "pointer load from non-pointer field '" + fname + "'", fname);
        push(st, pc, AbsVal::any());
      }
      break;
    }
    case Op::kIndex:
      do_index(st, pc, in);
      break;

    case Op::kLoadI8:
    case Op::kLoadI16:
    case Op::kLoadI32:
    case Op::kLoadI64:
    case Op::kLoadU8:
    case Op::kLoadU16:
    case Op::kLoadU32:
    case Op::kLoadF32:
    case Op::kLoadF64:
      do_load(st, pc, in.op);
      break;

    case Op::kStoreI8:
    case Op::kStoreI16:
    case Op::kStoreI32:
    case Op::kStoreI64:
    case Op::kStoreF32:
    case Op::kStoreF64:
      do_store(st, pc, in.op);
      break;

    case Op::kEnsure: {
      AbsVal idx = pop_int(st, pc, "ensure");
      AbsVal slot = pop(st, pc);
      (void)idx;  // runtime clamps negatives and grows: any index is safe
      if (slot.kind != ValKind::kPtr || slot.ptr.kind != PtrKind::kStruct) {
        finding(VerifyCheck::kTypeConfusion, pc, "ensure on a non-struct slot address");
        push(st, pc, AbsVal::any());
        break;
      }
      const PtrVal& p = slot.ptr;
      const FieldSite* site = resolve_site(p, pc, "ensure");
      if (site == nullptr) {
        push(st, pc, AbsVal::any());
        break;
      }
      std::string fname = field_name(p.param, site->path);
      if (site->use != SiteUse::kDynSlot) {
        finding(VerifyCheck::kTypeConfusion, pc,
                "ensure on non-dynamic-array field '" + fname + "'", fname);
        push(st, pc, AbsVal::any());
        break;
      }
      const FieldDescriptor* fd = site->fd;
      uint32_t stride = fd->element_stride();
      if (in.imm != static_cast<int64_t>(stride)) {
        finding(VerifyCheck::kWidthMismatch, pc,
                "ensure stride " + std::to_string(in.imm) + " does not match element stride " +
                    std::to_string(stride) + " of '" + fname + "'",
                fname);
      }
      // The runtime writes the slot pointer; the slot itself counts as
      // assigned, and element writes are tracked separately.
      if (p.root_inline) mark_store(st, pc, p.param, p.root_off, 8);
      record_store(pc, p.param, p, /*scalar=*/false, FieldKind::kDynArray, 8, AbsVal::any(), site->path);
      AbsVal v;
      v.kind = ValKind::kPtr;
      v.ptr.param = p.param;
      if (fd->has_element_format()) {
        v.ptr.kind = PtrKind::kStruct;
        v.ptr.fmt = fd->element_format.get();
        v.ptr.off = Interval::exact(0);
      } else {
        v.ptr.kind = PtrKind::kScalarSlot;
        v.ptr.skind = fd->element_kind;
        v.ptr.ssize = fd->element_size;
      }
      v.ptr.root_inline = false;
      push(st, pc, std::move(v));
      break;
    }
    case Op::kStrAssign: {
      AbsVal slot = pop(st, pc);
      AbsVal src = pop_str(st, pc, "string assignment");
      (void)src;
      if (slot.kind != ValKind::kPtr) {
        finding(VerifyCheck::kTypeConfusion, pc, "string assignment to a non-address");
        break;
      }
      const PtrVal& p = slot.ptr;
      if (p.kind == PtrKind::kScalarSlot && p.skind == FieldKind::kString) {
        if (p.root_inline) mark_store(st, pc, p.param, p.root_off, 8);
        record_store(pc, p.param, p, /*scalar=*/false, FieldKind::kString, 8, src, "<element>");
        break;
      }
      if (p.kind != PtrKind::kStruct) {
        finding(VerifyCheck::kTypeConfusion, pc, "string assignment to a non-slot address");
        break;
      }
      const FieldSite* site = resolve_site(p, pc, "string assignment");
      if (site == nullptr) break;
      std::string fname = field_name(p.param, site->path);
      if (site->use != SiteUse::kStringSlot) {
        finding(VerifyCheck::kTypeConfusion, pc,
                "string assignment to non-string field '" + fname + "'", fname);
        break;
      }
      if (p.root_inline) mark_store(st, pc, p.param, p.root_off, 8);
      record_store(pc, p.param, p, /*scalar=*/false, FieldKind::kString, 8, src, site->path);
      break;
    }
    case Op::kStructCopy: {
      AbsVal dst = pop(st, pc);
      AbsVal src = pop(st, pc);
      const auto* copied =
          reinterpret_cast<const FormatDescriptor*>(static_cast<intptr_t>(in.imm));
      int64_t size = copied != nullptr ? copied->struct_size() : 0;
      auto check_end = [&](const AbsVal& v, const char* role) -> const PtrVal* {
        if (v.kind != ValKind::kPtr || v.ptr.kind != PtrKind::kStruct || v.ptr.fmt == nullptr) {
          finding(VerifyCheck::kTypeConfusion, pc,
                  std::string("struct copy ") + role + " is not a struct address");
          return nullptr;
        }
        if (v.ptr.off.lo < 0 ||
            v.ptr.off.hi + size > static_cast<int64_t>(v.ptr.fmt->struct_size())) {
          finding(VerifyCheck::kOobAccess, pc,
                  std::string("struct copy ") + role + " range [" + std::to_string(v.ptr.off.lo) +
                      ", " + std::to_string(v.ptr.off.hi + size) + ") exceeds format '" +
                      v.ptr.fmt->name() + "' (" + std::to_string(v.ptr.fmt->struct_size()) +
                      " bytes)");
          return nullptr;
        }
        return &v.ptr;
      };
      const PtrVal* ps = check_end(src, "source");
      const PtrVal* pd = check_end(dst, "destination");
      if (ps != nullptr && ps->root_inline) {
        mark_read(st, pc, ps->param, ps->root_off, static_cast<uint32_t>(size),
                  params_[static_cast<size_t>(ps->param)].name + ".<struct>");
      }
      if (pd != nullptr && pd->root_inline) {
        mark_store(st, pc, pd->param, pd->root_off, static_cast<uint32_t>(size));
      }
      if (pd != nullptr) {
        record_store(pc, pd->param, *pd, /*scalar=*/false, FieldKind::kStruct, static_cast<uint32_t>(size), src,
                     "<struct>");
      }
      break;
    }

    case Op::kCopyLoop:
      do_copy_loop(st, pc, in);
      break;

    case Op::kRet: {
      if (!st.stack.empty()) {
        finding(VerifyCheck::kStackShape, pc,
                "evaluation stack holds " + std::to_string(st.stack.size()) +
                    " value(s) at return; the JIT requires an empty stack");
      }
      any_ret_ = true;
      for (size_t p = 0; p < ret_init_.size(); ++p) {
        if (st.init[p].empty()) continue;
        if (ret_init_[p].empty()) {
          ret_init_[p] = st.init[p];
        } else {
          for (size_t i = 0; i < ret_init_[p].size(); ++i) {
            ret_init_[p][i] = ret_init_[p][i] && st.init[p][i];
          }
        }
      }
      return;
    }
  }
  flow_to(next, std::move(st));
}

AbsintResult Interp::run() {
  const int n = static_cast<int>(chunk_.code.size());
  states_.assign(static_cast<size_t>(n), State{});
  join_counts_.assign(static_cast<size_t>(n), 0);
  loop_heads_.assign(static_cast<size_t>(n), 0);
  for (int pc = 0; pc < n; ++pc) {
    const Instr& in = chunk_.code[static_cast<size_t>(pc)];
    if ((in.op == Op::kJmp || in.op == Op::kJz || in.op == Op::kJnz) && in.a >= 0 && in.a <= pc) {
      loop_heads_[static_cast<size_t>(in.a)] = 1;
    }
  }
  on_work_.assign(static_cast<size_t>(n), 0);
  summaries_.resize(params_.size());
  ret_init_.resize(params_.size());
  for (size_t p = 0; p < params_.size(); ++p) {
    uint32_t sz = params_[p].format->struct_size();
    summaries_[p].ever_read.assign(sz, 0);
    summaries_[p].ever_stored.assign(sz, 0);
  }

  State entry;
  entry.reachable = true;
  entry.locals.assign(static_cast<size_t>(chunk_.local_slots), AbsVal::any());
  entry.init.resize(params_.size());
  for (int d : options_.dst_params) {
    if (d >= 0 && d < static_cast<int>(params_.size())) {
      entry.init[static_cast<size_t>(d)].assign(params_[static_cast<size_t>(d)].format->struct_size(),
                                                0);
    }
  }
  flow_to(0, std::move(entry));

  // Generous budget: widening bounds joins per pc, so the fixpoint is small;
  // the cap is a backstop against analysis bugs, not a tuning knob.
  long budget = static_cast<long>(n) * 512 + 4096;
  while (!worklist_.empty()) {
    if (--budget < 0) {
      finding(VerifyCheck::kStructure, -1, "abstract interpretation did not converge");
      result_.converged = false;
      break;
    }
    int pc = worklist_.front();
    worklist_.pop_front();
    on_work_[static_cast<size_t>(pc)] = 0;
    step(pc, states_[static_cast<size_t>(pc)]);
  }

  // Definite assignment at return, per destination parameter.
  for (int d : options_.dst_params) {
    if (d < 0 || d >= static_cast<int>(params_.size())) continue;
    auto& summary = summaries_[static_cast<size_t>(d)];
    summary.any_ret = any_ret_;
    summary.must_init = ret_init_[static_cast<size_t>(d)];
    if (!any_ret_) continue;
    const auto& init = ret_init_[static_cast<size_t>(d)];
    if (init.empty()) continue;
    for (const FieldSite& site : layout(params_[static_cast<size_t>(d)].format.get()).sites()) {
      if (site.use != SiteUse::kScalar && site.use != SiteUse::kStringSlot) continue;
      bool covered = true;
      for (int64_t i = site.start; i < site.start + site.size; ++i) {
        if (i < 0 || i >= static_cast<int64_t>(init.size()) || !init[static_cast<size_t>(i)]) {
          covered = false;
          break;
        }
      }
      if (!covered) {
        VerifyFinding f;
        f.check = VerifyCheck::kUninitField;
        f.severity = severity_of(VerifyCheck::kUninitField);
        f.field = field_name(d, site.path);
        f.message = "destination field '" + f.field + "' is never definitely assigned";
        out_.push_back(std::move(f));
      }
    }
  }

  result_.depth_at.assign(static_cast<size_t>(n), -1);
  for (int pc = 0; pc < n; ++pc) {
    if (states_[static_cast<size_t>(pc)].reachable) {
      result_.depth_at[static_cast<size_t>(pc)] =
          static_cast<int>(states_[static_cast<size_t>(pc)].stack.size());
    }
  }
  result_.cmps = std::move(cmp_recs_);
  for (auto& [pc, rec] : store_recs_) result_.stores.push_back(std::move(rec));
  result_.params = std::move(summaries_);
  return std::move(result_);
}

}  // namespace

// ---------------------------------------------------------------------------
// Layout

Layout::Layout(const pbio::FormatDescriptor* fmt) : fmt_(fmt) {
  flatten(*fmt, 0, "", -1);
  std::sort(sites_.begin(), sites_.end(),
            [](const FieldSite& a, const FieldSite& b) { return a.start < b.start; });
}

void Layout::flatten(const pbio::FormatDescriptor& f, int64_t base, const std::string& prefix,
                     int top_field) {
  for (size_t i = 0; i < f.fields().size(); ++i) {
    const FieldDescriptor& fd = f.fields()[i];
    int tf = top_field < 0 ? static_cast<int>(i) : top_field;
    FieldSite s;
    s.fd = &fd;
    s.start = base + fd.offset;
    s.size = fd.size;
    s.path = prefix + fd.name;
    s.top_field = tf;
    switch (fd.kind) {
      case FieldKind::kInt:
      case FieldKind::kUInt:
      case FieldKind::kFloat:
      case FieldKind::kChar:
      case FieldKind::kEnum:
        s.use = SiteUse::kScalar;
        s.kind = fd.kind;
        sites_.push_back(std::move(s));
        break;
      case FieldKind::kString:
        s.use = SiteUse::kStringSlot;
        sites_.push_back(std::move(s));
        break;
      case FieldKind::kDynArray: {
        s.use = SiteUse::kDynSlot;
        if (const FieldDescriptor* lf = f.find_field(fd.length_field)) {
          s.len_off = base + lf->offset;
          s.len_size = lf->size;
        }
        sites_.push_back(std::move(s));
        break;
      }
      case FieldKind::kStruct:
        flatten(*fd.element_format, base + fd.offset, s.path + ".", tf);
        break;
      case FieldKind::kStaticArray:
        s.use = SiteUse::kStaticArray;
        sites_.push_back(std::move(s));
        break;
    }
  }
}

const FieldSite* Layout::at(int64_t off) const {
  auto it = std::upper_bound(sites_.begin(), sites_.end(), off,
                             [](int64_t v, const FieldSite& s) { return v < s.start; });
  if (it == sites_.begin()) return nullptr;
  --it;
  if (off >= it->start && off < it->start + static_cast<int64_t>(it->size)) return &*it;
  return nullptr;
}

AbsintResult interpret(const Chunk& chunk, const std::vector<RecordParam>& params,
                       const VerifyOptions& options, std::vector<VerifyFinding>& out) {
  return Interp(chunk, params, options, out).run();
}

}  // namespace morph::ecode::absint
