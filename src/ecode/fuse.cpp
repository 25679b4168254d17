#include "ecode/fuse.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"
#include "ecode/ast.hpp"
#include "ecode/copyloop.hpp"
#include "ecode/parser.hpp"
#include "pbio/field_type.hpp"

namespace morph::ecode {
namespace {

using pbio::FieldDescriptor;
using pbio::FieldKind;
using pbio::FormatDescriptor;

/// Internal control flow: thrown wherever the rewriter meets a construct
/// it cannot prove equivalent, caught once in fuse_chain.
struct Bail {
  std::string reason;
};

/// Where the fused program keeps the value of one intermediate field.
enum class Home : uint8_t {
  kLocal,    // an i64/f64 local with store-truncation fixups (scalars only)
  kForward,  // no storage: reads are rewritten to the field it copies
  kDead,     // no storage and no code: writes are dropped, a read bails
};

struct Binding {
  const FieldDescriptor* fd = nullptr;
  Home home = Home::kDead;
  // kLocal: the local's name. kForward: what a read prints as — a source
  // field ("new.name"), an earlier intermediate's local, or for a dynamic
  // array the source array ("new.readings").
  std::string text;
  // kForward dynamic array: element field -> source element field. Arrays
  // of basic elements map "" -> "" (whole elements).
  std::map<std::string, std::string> elems;
  std::string why;  // why the field is not forwarded (kLocal / kDead)
};

/// One record of the chain as the fused program sees it: the original
/// source (every field forwards to itself) or an intermediate record.
struct View {
  int index = -1;  // intermediate number; -1 for the original source
  const FormatDescriptor* fmt = nullptr;
  std::map<std::string, Binding> fields;

  const Binding& at(const std::string& name) const {
    auto it = fields.find(name);
    if (it == fields.end()) throw Bail{"unknown field " + where(name)};
    return it->second;
  }
  std::string where(const std::string& name) const { return "'" + fmt->name() + "." + name + "'"; }
};

/// Name-resolution context while printing one hop.
struct HopCtx {
  int hop = 0;
  bool final_hop = false;
  const std::string* dst_param = nullptr;
  const std::string* src_param = nullptr;
  const View* dst_inter = nullptr;  // null when the hop writes the real dst
  const View* src_inter = nullptr;  // null when the hop reads the real src
  const std::unordered_set<const Stmt*>* dropped = nullptr;  // forwarding writes
};

bool valid_ident(const std::string& s) {
  if (s.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(s[0])) || s[0] == '_')) return false;
  for (char c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) return false;
  }
  return true;
}

/// Statement that reproduces the store-then-load semantics of `fd` on an
/// i64 local: stores to narrow record fields truncate and integer reads
/// sign- or zero-extend (pbio/record.cpp), so the local must be folded to
/// the same value after every write. Empty when the 8-byte store is exact.
std::string trunc_fixup(const FieldDescriptor& fd, const std::string& local) {
  uint32_t width = fd.size;
  bool sign = false;
  switch (fd.kind) {
    case FieldKind::kInt:
      sign = true;
      break;
    case FieldKind::kEnum:
      sign = true;
      width = 4;
      break;
    case FieldKind::kUInt:
      break;
    case FieldKind::kChar:
      width = 1;  // stored as char, read back as unsigned char
      break;
    default:
      return "";  // f64 round-trips exactly
  }
  if (width >= 8) return "";
  uint64_t mask = (uint64_t{1} << (8 * width)) - 1;
  if (!sign) return local + " = " + local + " & " + std::to_string(mask) + ";";
  uint64_t bit = uint64_t{1} << (8 * width - 1);
  return local + " = ((" + local + " & " + std::to_string(mask) + ") ^ " + std::to_string(bit) +
         ") - " + std::to_string(bit) + ";";
}

// --- syntactic facts ------------------------------------------------------

/// One mention of a field of a record parameter: `p.f`, `p.f[e]` or
/// `p.f[e].x` (all count as a mention of `f`).
struct Access {
  std::string field;
  bool write = false;
  size_t top = 0;              // index of the enclosing top-level statement
  const Stmt* stmt = nullptr;  // the writing statement (writes only)
};

/// Every mention of `param`'s fields in a hop, in statement order.
class AccessCollector {
 public:
  explicit AccessCollector(const std::string& param) : param_(param) {}

  std::vector<Access> run(const Program& prog) {
    for (top_ = 0; top_ < prog.stmts.size(); ++top_) stmt(*prog.stmts[top_]);
    return std::move(out_);
  }

 private:
  void stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kDecl:
        for (const auto& d : s.decls) {
          if (d.init) expr(*d.init);
        }
        return;
      case StmtKind::kAssign:
        lvalue(*s.lvalue, s, s.assign_op != AssignOp::kSet);
        expr(*s.expr);
        return;
      case StmtKind::kIncDec:
        lvalue(*s.lvalue, s, true);
        return;
      case StmtKind::kExpr:
      case StmtKind::kReturn:
        if (s.expr) expr(*s.expr);
        return;
      case StmtKind::kIf:
        expr(*s.expr);
        stmt(*s.then_branch);
        if (s.else_branch) stmt(*s.else_branch);
        return;
      case StmtKind::kWhile:
      case StmtKind::kDoWhile:
        expr(*s.expr);
        stmt(*s.body);
        return;
      case StmtKind::kFor:
        if (s.for_init) stmt(*s.for_init);
        if (s.expr) expr(*s.expr);
        if (s.for_step) stmt(*s.for_step);
        stmt(*s.body);
        return;
      case StmtKind::kBlock:
        for (const auto& inner : s.stmts) stmt(*inner);
        return;
      case StmtKind::kBreak:
      case StmtKind::kContinue:
        return;
    }
  }

  /// The head of an lvalue is a write (and a read too for compound forms);
  /// its index expressions are reads.
  void lvalue(const Expr& lv, const Stmt& s, bool also_read) {
    const Expr* cur = &lv;
    while (cur->kind == ExprKind::kFieldAccess || cur->kind == ExprKind::kIndex) {
      if (cur->kind == ExprKind::kIndex) expr(*cur->b);
      if (const std::string* f = param_field(*cur, param_)) {
        out_.push_back(Access{*f, true, top_, &s});
        if (also_read) out_.push_back(Access{*f, false, top_, nullptr});
        return;
      }
      cur = cur->a.get();
    }
  }

  void expr(const Expr& e) {
    if (const std::string* f = param_field(e, param_)) {
      out_.push_back(Access{*f, false, top_, nullptr});
      return;
    }
    if (e.a) expr(*e.a);
    if (e.b) expr(*e.b);
    if (e.c) expr(*e.c);
    for (const auto& arg : e.args) expr(*arg);
  }

  const std::string& param_;
  size_t top_ = 0;
  std::vector<Access> out_;
};

// --- forwarding analysis --------------------------------------------------

/// The original source as a view: every field forwards to itself.
View source_view(const FormatDescriptor& fmt, const std::string& param) {
  View v;
  v.fmt = &fmt;
  for (const auto& fd : fmt.fields()) {
    Binding b;
    b.fd = &fd;
    b.home = Home::kForward;
    b.text = param + "." + fd.name;
    if (fd.kind == FieldKind::kDynArray) {
      if (!fd.element_format) {
        b.elems[""] = "";
      } else {
        for (const auto& ef : fd.element_format->fields()) {
          if (pbio::is_basic(ef.kind)) b.elems[ef.name] = ef.name;
        }
      }
    }
    v.fields.emplace(fd.name, std::move(b));
  }
  return v;
}

/// Why a copy of `src`'s field `name` cannot forward: it has no storage.
std::string no_storage(const View& src, const std::string& name) {
  return "copies " + src.where(name) + ", which has no storage: " + src.at(name).why;
}

/// Decides the Home of every field of hop k's destination record `dst`
/// (an intermediate). Statements that become dead because their field is
/// forwarded are added to `dropped`.
class HopAnalysis {
 public:
  HopAnalysis(const Program& prog, const FuseHop& hop, const View& src,
              const std::string& no_forward, std::unordered_set<const Stmt*>& dropped)
      : prog_(prog), hop_(hop), src_(src), no_forward_(no_forward), dropped_(dropped) {}

  View run(int index) {
    View v;
    v.index = index;
    v.fmt = hop_.dst_fmt.get();
    accesses_ = AccessCollector(hop_.dst_param).run(prog_);
    for (const auto& fd : v.fmt->fields()) {
      Binding b;
      b.fd = &fd;
      if (fd.kind == FieldKind::kStruct || fd.kind == FieldKind::kStaticArray) {
        throw Bail{"intermediate field " + v.where(fd.name) + " is a struct or static array"};
      }
      if (fd.kind != FieldKind::kDynArray) scalar_or_string(v, b);
      v.fields.emplace(fd.name, std::move(b));
    }
    // Arrays last: their count fields must already be decided.
    for (auto& [name, b] : v.fields) {
      if (b.fd->kind != FieldKind::kDynArray) continue;
      b.why = forward_array(v, b);
      b.home = b.why.empty() ? Home::kForward : Home::kDead;
    }
    return v;
  }

 private:
  std::vector<const Access*> mentions(const std::string& field, bool write) const {
    std::vector<const Access*> out;
    for (const auto& a : accesses_) {
      if (a.field == field && a.write == write) out.push_back(&a);
    }
    return out;
  }

  /// Scalar: D.f = S.g once at top level, same kind and size -> forward,
  /// else an i64/f64 local. String: same rule, else dead.
  void scalar_or_string(const View& v, Binding& b) {
    const FieldDescriptor& fd = *b.fd;
    b.why = forward_copy(fd, b.text);
    if (b.why.empty()) {
      b.home = Home::kForward;
    } else if (pbio::is_fixed_scalar(fd.kind)) {
      if (fd.kind == FieldKind::kFloat && fd.size != 8) {
        throw Bail{"intermediate float field " + v.where(fd.name) + " is narrower than f64"};
      }
      if (!valid_ident(fd.name)) {
        throw Bail{"intermediate field " + v.where(fd.name) + " is not a printable identifier"};
      }
      b.home = Home::kLocal;
      b.text = "__m" + std::to_string(v.index) + "_" + fd.name;
    } else {
      b.home = Home::kDead;
    }
  }

  /// Empty when `fd` is a forwardable verbatim copy (its target in `out`);
  /// otherwise why not.
  std::string forward_copy(const FieldDescriptor& fd, std::string& out) {
    if (!no_forward_.empty()) return no_forward_;
    auto writes = mentions(fd.name, true);
    if (writes.empty()) return "never written";
    if (writes.size() > 1) return "written more than once";
    const Access& w = *writes.front();
    const Stmt& s = *w.stmt;
    if (&s != prog_.stmts[w.top].get()) return "conditional write (not at the top level)";
    if (s.kind != StmtKind::kAssign || s.assign_op != AssignOp::kSet) {
      return "not a plain assignment";
    }
    const std::string* g = param_field(*s.expr, hop_.src_param);
    if (!g) return "not a verbatim copy of a source field";
    for (const Access* r : mentions(fd.name, false)) {
      if (r->top <= w.top) return "read before its write";
    }
    const Binding& sb = src_.at(*g);
    if (fd.kind != sb.fd->kind || fd.size != sb.fd->size) {
      return "copies " + src_.where(*g) + ", whose kind or size differs";
    }
    if (sb.home == Home::kDead) return no_storage(src_, *g);
    out = sb.text;
    dropped_.insert(&s);
    return "";
  }

  /// Empty when D.A forwards from S.B: D.A's count forwards from S.B's
  /// count and every element write sits in one top-level canonical loop
  /// `for (int i = 0; i < S.cnt; i++)` whose body only copies elements of
  /// S.B verbatim. Otherwise why not (the array is then dead).
  std::string forward_array(const View& v, Binding& b) {
    if (!no_forward_.empty()) return no_forward_;
    const FieldDescriptor& fd = *b.fd;
    auto writes = mentions(fd.name, true);
    if (writes.empty()) return "never written";
    if (!mentions(fd.name, false).empty()) return "read in the hop that writes it";
    const size_t top = writes.front()->top;
    for (const Access* w : writes) {
      if (w->top != top) return "element writes are not all in one top-level loop";
    }
    const Stmt& loop = *prog_.stmts[top];
    if (loop.kind != StmtKind::kFor) return "element writes are not all in one top-level loop";
    LoopShape shape = loop_shape(loop);
    if (!shape.canonical || !shape.declares) {
      return "element writes are not in a canonical 'for (int i = 0; i < n; i++)' loop";
    }
    std::vector<const Stmt*> body = body_stmts(*loop.body);
    for (const Access* w : writes) {
      if (std::find(body.begin(), body.end(), w->stmt) == body.end()) {
        return "element write outside the body of its loop";
      }
    }
    CopySides sides{hop_.dst_param, v.fmt, hop_.src_param, src_.fmt, fd.name};
    CopyLoopProof proof;
    std::string why = prove_copy_loop(loop, sides, proof);
    if (!why.empty()) return why;
    // Each copied element field must forward: S.B has storage and S.B[].y
    // was written by S.B's own producing loop.
    const std::string& src_array = proof.src_array->name;
    const Binding& sa = src_.at(src_array);
    if (sa.home != Home::kForward) return no_storage(src_, src_array);
    for (const ElementCopy& c : proof.copies) {
      auto it = sa.elems.find(c.src_field);
      if (it == sa.elems.end()) {
        return "reads element field " + src_.where(src_array) + "[]." + c.src_field +
               " that its producing loop never wrote";
      }
      b.elems.emplace(c.dst_field, it->second);
    }
    // Count fields are scalars, so the source count always has a text.
    const Binding& dc = v.at(fd.length_field);
    if (dc.home != Home::kForward || dc.text != src_.at(sa.fd->length_field).text) {
      return "count field " + v.where(fd.length_field) +
             " is not forwarded from the source array's length field";
    }
    b.text = sa.text;
    dropped_.insert(&loop);
    return "";
  }

  const Program& prog_;
  const FuseHop& hop_;
  const View& src_;
  const std::string& no_forward_;
  std::unordered_set<const Stmt*>& dropped_;
  std::vector<Access> accesses_;
};

// --- printing -------------------------------------------------------------

/// Pretty-printer for one hop's AST with intermediate records replaced by
/// locals or forwarded reads and hop locals renamed into a per-hop
/// namespace.
class HopPrinter {
 public:
  HopPrinter(const HopCtx& ctx, std::string& out) : c_(ctx), out_(out) {}

  void stmt(const Stmt& s, int depth) {
    if (c_.dropped->count(&s) != 0) return;
    switch (s.kind) {
      case StmtKind::kDecl:
        line(depth, decl_text(s) + ";");
        return;
      case StmtKind::kAssign: {
        if (dead_write(*s.lvalue)) return;
        auto [text, fixup] = assign_text(s);
        line(depth, text + ";");
        if (!fixup.empty()) line(depth, fixup);
        return;
      }
      case StmtKind::kIncDec: {
        if (dead_write(*s.lvalue)) return;
        auto [text, fixup] = incdec_text(s);
        line(depth, text + ";");
        if (!fixup.empty()) line(depth, fixup);
        return;
      }
      case StmtKind::kExpr:
        line(depth, expr(*s.expr) + ";");
        return;
      case StmtKind::kIf:
        line(depth, "if (" + expr(*s.expr) + ")");
        branch(*s.then_branch, depth);
        if (s.else_branch) {
          line(depth, "else");
          branch(*s.else_branch, depth);
        }
        return;
      case StmtKind::kWhile:
        line(depth, "while (" + expr(*s.expr) + ")");
        branch(*s.body, depth);
        return;
      case StmtKind::kDoWhile:
        line(depth, "do");
        branch(*s.body, depth);
        line(depth, "while (" + expr(*s.expr) + ");");
        return;
      case StmtKind::kFor:
        print_for(s, depth);
        return;
      case StmtKind::kBlock:
        line(depth, "{");
        for (const auto& inner : s.stmts) stmt(*inner, depth + 1);
        line(depth, "}");
        return;
      case StmtKind::kReturn:
        if (!c_.final_hop) throw Bail{"'return' in a non-final hop"};
        line(depth, "return;");
        return;
      case StmtKind::kBreak:
        line(depth, "break;");
        return;
      case StmtKind::kContinue:
        line(depth, "continue;");
        return;
    }
    throw Bail{"unsupported statement kind"};
  }

 private:
  void line(int depth, const std::string& text) {
    out_.append(static_cast<size_t>(depth) * 2, ' ');
    out_ += text;
    out_ += '\n';
  }

  /// Print an if/loop branch as a braced block regardless of the original
  /// shape — braces never change Ecode semantics and keep fixup statements
  /// attached to their assignment.
  void branch(const Stmt& s, int depth) {
    if (s.kind == StmtKind::kBlock) {
      stmt(s, depth);
      return;
    }
    line(depth, "{");
    stmt(s, depth + 1);
    line(depth, "}");
  }

  void print_for(const Stmt& s, int depth) {
    std::string init;
    if (s.for_init) {
      switch (s.for_init->kind) {
        case StmtKind::kDecl:
          init = decl_text(*s.for_init);
          break;
        case StmtKind::kAssign: {
          if (dead_write(*s.for_init->lvalue)) throw Bail{"for-init writes a dead field"};
          auto [text, fixup] = assign_text(*s.for_init);
          if (fixup.empty()) {
            init = text;
          } else {
            // The init clause runs exactly once before the loop; hoisting
            // it keeps the fixup adjacent to the truncating write.
            line(depth, text + ";");
            line(depth, fixup);
          }
          break;
        }
        case StmtKind::kExpr:
          init = expr(*s.for_init->expr);
          break;
        default:
          throw Bail{"unsupported for-init clause"};
      }
    }
    std::string step;
    if (s.for_step) {
      switch (s.for_step->kind) {
        case StmtKind::kAssign: {
          if (dead_write(*s.for_step->lvalue)) throw Bail{"for-step writes a dead field"};
          auto [text, fixup] = assign_text(*s.for_step);
          if (!fixup.empty()) throw Bail{"for-step writes a truncating intermediate field"};
          step = text;
          break;
        }
        case StmtKind::kIncDec: {
          if (dead_write(*s.for_step->lvalue)) throw Bail{"for-step writes a dead field"};
          auto [text, fixup] = incdec_text(*s.for_step);
          if (!fixup.empty()) throw Bail{"for-step writes a truncating intermediate field"};
          step = text;
          break;
        }
        case StmtKind::kExpr:
          step = expr(*s.for_step->expr);
          break;
        default:
          throw Bail{"unsupported for-step clause"};
      }
    }
    std::string cond = s.expr ? expr(*s.expr) : std::string();
    line(depth, "for (" + init + "; " + cond + "; " + step + ")");
    loops_.push_back(loop_shape(s));
    branch(*s.body, depth);
    loops_.pop_back();
  }

  std::string decl_text(const Stmt& s) {
    std::string out;
    switch (s.decl_type) {
      case TyKind::kInt:
        out = "long ";
        break;
      case TyKind::kFloat:
        out = "double ";
        break;
      default:
        throw Bail{"unsupported declaration type"};
    }
    for (size_t i = 0; i < s.decls.size(); ++i) {
      if (i > 0) out += ", ";
      out += local_name(s.decls[i].name);
      if (s.decls[i].init) out += " = " + expr(*s.decls[i].init);
    }
    return out;
  }

  /// (statement text, fixup statement or empty).
  std::pair<std::string, std::string> assign_text(const Stmt& s) {
    static const char* kOps[] = {"=", "+=", "-=", "*=", "/=", "%="};
    const char* op = kOps[static_cast<int>(s.assign_op)];
    auto [fd, local] = local_target(*s.lvalue);
    std::string lhs = fd ? local : expr(*s.lvalue);
    std::string text = lhs + " " + op + " " + expr(*s.expr);
    return {text, fd ? trunc_fixup(*fd, local) : std::string()};
  }

  std::pair<std::string, std::string> incdec_text(const Stmt& s) {
    auto [fd, local] = local_target(*s.lvalue);
    std::string lhs = fd ? local : expr(*s.lvalue);
    std::string text = lhs + (s.inc_delta > 0 ? "++" : "--");
    return {text, fd ? trunc_fixup(*fd, local) : std::string()};
  }

  /// The intermediate view `param` names in this hop, or null.
  const View* inter_of(const std::string& param) const {
    if (param == *c_.dst_param) return c_.dst_inter;
    if (param == *c_.src_param) return c_.src_inter;
    return nullptr;
  }

  /// The binding an lvalue writes, when it writes an intermediate field.
  const Binding* inter_write(const Expr& lv) const {
    const Expr* head = lvalue_head(lv);
    if (!head) return nullptr;
    const View* in = inter_of(head->a->str_value);
    return in ? &in->at(head->str_value) : nullptr;
  }

  /// A write to a dead intermediate field is dropped. Writes to forwarded
  /// fields never reach the printer: the analysis drops them.
  bool dead_write(const Expr& lv) const {
    const Binding* b = inter_write(lv);
    if (b && b->home == Home::kForward) throw Bail{"write to a forwarded field"};
    return b && b->home == Home::kDead;
  }

  /// When `lv` writes an intermediate field kept in a local, its descriptor
  /// and the local; {nullptr, ""} otherwise.
  std::pair<const FieldDescriptor*, std::string> local_target(const Expr& lv) const {
    const Binding* b = inter_write(lv);
    if (!b) return {nullptr, std::string()};
    if (b->home != Home::kLocal || lv.kind != ExprKind::kFieldAccess) {
      throw Bail{"unsupported write to an intermediate field"};
    }
    return {b->fd, b->text};
  }

  std::string local_name(const std::string& name) const {
    return "__h" + std::to_string(c_.hop) + "_" + name;
  }

  [[noreturn]] static void bail_unreadable(const View& in, const Binding& b) {
    throw Bail{"intermediate field " + in.where(b.fd->name) +
               " is read but cannot be forwarded: " + b.why};
  }

  /// `p.A[e]` (whole element, `field` null) or `p.A[e].x` on a forwarded
  /// intermediate array: read the source array directly. Only sound when
  /// e is the index of an enclosing canonical loop bounded by p's count
  /// field, so it never reaches past the elements the copy wrote.
  std::string elem_read(const View& in, const Expr& index, const std::string* field) {
    const Expr& arr = *index.a;
    const std::string& param = arr.a->str_value;
    const Binding& b = in.at(arr.str_value);
    const std::string what = in.where(arr.str_value);
    if (b.home != Home::kForward) bail_unreadable(in, b);
    const LoopShape* loop = nullptr;
    if (index.b->kind == ExprKind::kVarRef) {
      for (auto it = loops_.rbegin(); it != loops_.rend() && !loop; ++it) {
        if (it->var == index.b->str_value) loop = &*it;
      }
    }
    if (!loop || !loop->canonical || loop->bound_param != param ||
        loop->bound_field != b.fd->length_field) {
      throw Bail{"read of " + what + " is not indexed by the variable of a canonical loop "
                 "bounded by '" + param + "." + b.fd->length_field + "'"};
    }
    auto it = b.elems.find(field ? *field : std::string());
    if (it == b.elems.end()) {
      if (!field) throw Bail{"whole-element use of " + what};
      throw Bail{"reads element field " + what + "[]." + *field +
                 " that its producing loop never wrote"};
    }
    std::string out = b.text + "[" + local_name(loop->var) + "]";
    return field ? out + "." + it->second : out;
  }

  /// `p.A` of an intermediate array under an index; null otherwise.
  const View* inter_array(const Expr& index) const {
    if (index.kind != ExprKind::kIndex || index.a->kind != ExprKind::kFieldAccess ||
        !index.a->a || index.a->a->kind != ExprKind::kVarRef) {
      return nullptr;
    }
    return inter_of(index.a->a->str_value);
  }

  std::string expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit:
        return int_literal(e.int_value);
      case ExprKind::kFloatLit:
        return float_literal(e.float_value);
      case ExprKind::kStringLit:
        return quote(e.str_value);
      case ExprKind::kVarRef:
        if (e.str_value == *c_.dst_param || e.str_value == *c_.src_param) {
          if (inter_of(e.str_value)) throw Bail{"whole-record use of an intermediate record"};
          return e.str_value;
        }
        return local_name(e.str_value);
      case ExprKind::kFieldAccess: {
        if (e.a->kind == ExprKind::kVarRef) {
          if (const View* in = inter_of(e.a->str_value)) {
            const Binding& b = in->at(e.str_value);
            if (b.home == Home::kDead) bail_unreadable(*in, b);
            if (b.fd->kind == FieldKind::kDynArray) {
              throw Bail{"whole-array use of " + in->where(e.str_value)};
            }
            return b.text;
          }
        }
        if (const View* in = inter_array(*e.a)) return elem_read(*in, *e.a, &e.str_value);
        return expr(*e.a) + "." + e.str_value;
      }
      case ExprKind::kIndex:
        if (const View* in = inter_array(e)) return elem_read(*in, e, nullptr);
        return expr(*e.a) + "[" + expr(*e.b) + "]";
      case ExprKind::kUnary: {
        const char* op = e.un_op == UnOp::kNeg ? "-" : e.un_op == UnOp::kNot ? "!" : "~";
        return std::string("(") + op + "(" + expr(*e.a) + "))";
      }
      case ExprKind::kBinary: {
        static const char* kOps[] = {"+",  "-",  "*",  "/", "%", "==", "!=", "<", "<=",
                                     ">",  ">=", "&&", "||", "&", "|",  "^",  "<<", ">>"};
        return "(" + expr(*e.a) + " " + kOps[static_cast<int>(e.bin_op)] + " " + expr(*e.b) + ")";
      }
      case ExprKind::kCond:
        return "(" + expr(*e.a) + " ? " + expr(*e.b) + " : " + expr(*e.c) + ")";
      case ExprKind::kCall: {
        std::string out = e.str_value + "(";
        for (size_t i = 0; i < e.args.size(); ++i) {
          if (i > 0) out += ", ";
          out += expr(*e.args[i]);
        }
        return out + ")";
      }
    }
    throw Bail{"unsupported expression kind"};
  }

  static std::string int_literal(int64_t v) {
    if (v == INT64_MIN) return "(-9223372036854775807 - 1)";
    return std::to_string(v);
  }

  static std::string float_literal(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    std::string t = buf;
    if (t.find_first_of(".eE") == std::string::npos) t += ".0";
    return t;
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char ch : s) {
      switch (ch) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        case '\0': out += "\\0"; break;
        default: out += ch;
      }
    }
    return out + "\"";
  }

  const HopCtx& c_;
  std::string& out_;
  std::vector<LoopShape> loops_;  // enclosing `for` statements, innermost last
};

}  // namespace

FuseResult fuse_chain(const std::vector<FuseHop>& hops, const pbio::FormatDescriptor& src_fmt) {
  FuseResult result;
  try {
    if (hops.size() < 2) throw Bail{"chain has fewer than two hops"};
    const std::string& dst_name = hops.back().dst_param;
    const std::string& src_name = hops.front().src_param;
    if (dst_name == src_name) throw Bail{"final destination and original source share a name"};
    for (const auto& h : hops) {
      if (h.dst_param == h.src_param) throw Bail{"hop parameters share a name"};
      if (!h.dst_fmt) throw Bail{"hop without a destination format"};
    }

    std::vector<std::unique_ptr<Program>> progs;
    progs.reserve(hops.size());
    for (const auto& h : hops) progs.push_back(parse(h.code));

    // A forwarded read assumes its source field keeps its value for the
    // rest of the chain, which a hop that writes its own source breaks.
    std::string no_forward;
    for (size_t k = 0; k < hops.size() && no_forward.empty(); ++k) {
      auto acc = AccessCollector(hops[k].src_param).run(*progs[k]);
      if (std::any_of(acc.begin(), acc.end(), [](const Access& a) { return a.write; })) {
        no_forward = "hop " + std::to_string(k) + " writes its source parameter '" +
                     hops[k].src_param + "'";
      }
    }

    // views[0] is the original source; views[k + 1] the record hop k writes.
    std::vector<View> views;
    views.reserve(hops.size());
    views.push_back(source_view(src_fmt, src_name));
    std::unordered_set<const Stmt*> dropped;
    for (size_t k = 0; k + 1 < hops.size(); ++k) {
      HopAnalysis analysis(*progs[k], hops[k], views[k], no_forward, dropped);
      views.push_back(analysis.run(static_cast<int>(k)));
    }

    std::string out = "/* fused " + std::to_string(hops.size()) + "-hop chain: " + src_name +
                      " -> " + dst_name + " */\n";
    for (size_t k = 1; k < views.size(); ++k) {
      for (const auto& fd : views[k].fmt->fields()) {
        const Binding& b = views[k].at(fd.name);
        if (b.home != Home::kLocal) continue;
        bool f = fd.kind == FieldKind::kFloat;
        out += std::string(f ? "double " : "long ") + b.text + (f ? " = 0.0;\n" : " = 0;\n");
      }
    }
    for (size_t k = 0; k < hops.size(); ++k) {
      HopCtx ctx;
      ctx.hop = static_cast<int>(k);
      ctx.final_hop = k + 1 == hops.size();
      ctx.dst_param = &hops[k].dst_param;
      ctx.src_param = &hops[k].src_param;
      ctx.dst_inter = ctx.final_hop ? nullptr : &views[k + 1];
      ctx.src_inter = k == 0 ? nullptr : &views[k];
      ctx.dropped = &dropped;
      out += "{\n";
      HopPrinter printer(ctx, out);
      for (const auto& st : progs[k]->stmts) printer.stmt(*st, 1);
      out += "}\n";
    }
    result.ok = true;
    result.source = std::move(out);
  } catch (const Bail& b) {
    result.bailout = b.reason;
  } catch (const EcodeError& e) {
    result.bailout = std::string("hop failed to parse: ") + e.what();
  }
  return result;
}

}  // namespace morph::ecode
