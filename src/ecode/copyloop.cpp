#include "ecode/copyloop.hpp"

#include "pbio/field_type.hpp"

namespace morph::ecode {
namespace {

using pbio::FieldDescriptor;
using pbio::FieldKind;
using pbio::FormatDescriptor;

bool is_var(const Expr* e, const std::string& name) {
  return e && e->kind == ExprKind::kVarRef && e->str_value == name;
}

/// True when `s` (or anything nested in it) assigns or declares `var`.
bool writes_var(const Stmt& s, const std::string& var) {
  switch (s.kind) {
    case StmtKind::kDecl:
      for (const auto& d : s.decls) {
        if (d.name == var) return true;
      }
      return false;
    case StmtKind::kAssign:
    case StmtKind::kIncDec:
      return is_var(s.lvalue.get(), var);
    case StmtKind::kIf:
      return writes_var(*s.then_branch, var) ||
             (s.else_branch && writes_var(*s.else_branch, var));
    case StmtKind::kWhile:
    case StmtKind::kDoWhile:
      return writes_var(*s.body, var);
    case StmtKind::kFor:
      return (s.for_init && writes_var(*s.for_init, var)) ||
             (s.for_step && writes_var(*s.for_step, var)) || writes_var(*s.body, var);
    case StmtKind::kBlock:
      for (const auto& inner : s.stmts) {
        if (writes_var(*inner, var)) return true;
      }
      return false;
    default:
      return false;
  }
}

std::string where(const FormatDescriptor& fmt, const std::string& name) {
  return "'" + fmt.name() + "." + name + "'";
}

/// `p.A[var]` or `p.A[var].x`: {A, x (empty for a whole element)}.
struct ElemRef {
  std::string array;
  std::string field;
};

bool elem_ref(const Expr& e, const std::string& param, const std::string& var, ElemRef& out) {
  const Expr* idx = &e;
  out.field.clear();
  if (e.kind == ExprKind::kFieldAccess) {
    out.field = e.str_value;
    idx = e.a.get();
  }
  if (!idx || idx->kind != ExprKind::kIndex || !is_var(idx->b.get(), var)) return false;
  const std::string* arr = param_field(*idx->a, param);
  if (!arr) return false;
  out.array = *arr;
  return true;
}

/// One statement of the loop body; appends it to `out.copies` or says why
/// it is not an element copy. `dst_array` is fixed by the first statement.
std::string element_copy(const Stmt& st, const CopySides& sides, std::string& dst_array,
                         CopyLoopProof& out) {
  const std::string& var = out.shape.var;
  ElemRef d;
  bool assigns = st.kind == StmtKind::kAssign && st.assign_op == AssignOp::kSet &&
                 elem_ref(*st.lvalue, sides.dst_param, var, d);
  if (assigns && dst_array.empty()) dst_array = d.array;
  const std::string what = dst_array.empty() ? "its destination" : where(*sides.dst_fmt, dst_array);
  if (!assigns) {
    return "loop that writes " + what +
           " does more than copy elements (per-element scratch slots are out of scope)";
  }
  if (d.array != dst_array) {
    return "loop that writes " + what + " also writes " + where(*sides.dst_fmt, d.array) +
           " (loop merging is out of scope)";
  }
  if (!out.dst_array) {
    out.dst_array = sides.dst_fmt->find_field(dst_array);
    if (!out.dst_array) return "unknown field " + what;
    if (out.dst_array->kind != FieldKind::kDynArray) return what + " is not a dynamic array";
  }
  ElemRef s;
  if (!elem_ref(*st.expr, sides.src_param, var, s)) {
    return "computed element field " + what + "[]" + (d.field.empty() ? "" : "." + d.field) +
           " (per-element scratch slots are out of scope)";
  }
  if (out.src_array && s.array != out.src_array->name) {
    return "loop that writes " + what + " copies from more than one array";
  }
  if (!out.src_array) {
    out.src_array = sides.src_fmt->find_field(s.array);
    if (!out.src_array) return "unknown field " + where(*sides.src_fmt, s.array);
    if (out.src_array->kind != FieldKind::kDynArray) return what + " copies a non-dynamic array";
  }
  const FieldDescriptor& da = *out.dst_array;
  const FieldDescriptor& sa = *out.src_array;
  const std::string mismatch = "element kind or size mismatch in " + what;
  if (d.field.empty() != s.field.empty()) return mismatch;
  ElementCopy c{d.field, s.field, nullptr, nullptr};
  bool same = false;
  if (d.field.empty()) {
    if (da.element_format || sa.element_format) {
      return "whole-element copy of struct elements into " + what;
    }
    same = da.element_kind == sa.element_kind && da.element_size == sa.element_size;
  } else {
    c.dst_leaf = da.element_format ? da.element_format->find_field(d.field) : nullptr;
    c.src_leaf = sa.element_format ? sa.element_format->find_field(s.field) : nullptr;
    if (c.dst_leaf && !pbio::is_basic(c.dst_leaf->kind)) {
      return "element field " + what + "[]." + d.field + " is not basic";
    }
    same = c.dst_leaf && c.src_leaf && c.dst_leaf->kind == c.src_leaf->kind &&
           c.dst_leaf->size == c.src_leaf->size;
  }
  if (!same) return mismatch;
  for (const ElementCopy& prev : out.copies) {
    if (prev.dst_field == c.dst_field) {
      return "element field " + what + "[]." + d.field + " written more than once";
    }
  }
  out.copies.push_back(std::move(c));
  return "";
}

}  // namespace

const std::string* param_field(const Expr& e, const std::string& param) {
  if (e.kind == ExprKind::kFieldAccess && is_var(e.a.get(), param)) return &e.str_value;
  return nullptr;
}

const Expr* lvalue_head(const Expr& lv) {
  const Expr* cur = &lv;
  while (cur) {
    if (cur->kind == ExprKind::kFieldAccess && cur->a && cur->a->kind == ExprKind::kVarRef) {
      return cur;
    }
    if (cur->kind != ExprKind::kFieldAccess && cur->kind != ExprKind::kIndex) return nullptr;
    cur = cur->a.get();
  }
  return nullptr;
}

LoopShape loop_shape(const Stmt& s) {
  LoopShape shape;
  const Stmt* init = s.for_init.get();
  const Expr* zero = nullptr;
  if (init && init->kind == StmtKind::kDecl && init->decls.size() == 1) {
    shape.var = init->decls[0].name;
    shape.declares = true;
    if (init->decl_type == TyKind::kInt) zero = init->decls[0].init.get();
  } else if (init && init->kind == StmtKind::kAssign && init->assign_op == AssignOp::kSet &&
             init->lvalue->kind == ExprKind::kVarRef) {
    shape.var = init->lvalue->str_value;
    zero = init->expr.get();
  }
  if (shape.var.empty() || !zero || zero->kind != ExprKind::kIntLit || zero->int_value != 0) {
    return shape;
  }
  const Expr* cond = s.expr.get();
  if (!cond || cond->kind != ExprKind::kBinary || cond->bin_op != BinOp::kLt ||
      !is_var(cond->a.get(), shape.var) || cond->b->kind != ExprKind::kFieldAccess ||
      !cond->b->a || cond->b->a->kind != ExprKind::kVarRef) {
    return shape;
  }
  const Stmt* step = s.for_step.get();
  bool unit_step =
      step && is_var(step->lvalue.get(), shape.var) &&
      ((step->kind == StmtKind::kIncDec && step->inc_delta == 1) ||
       (step->kind == StmtKind::kAssign && step->assign_op == AssignOp::kAdd &&
        step->expr->kind == ExprKind::kIntLit && step->expr->int_value == 1));
  if (!unit_step || writes_var(*s.body, shape.var)) return shape;
  shape.canonical = true;
  shape.bound_param = cond->b->a->str_value;
  shape.bound_field = cond->b->str_value;
  return shape;
}

std::vector<const Stmt*> body_stmts(const Stmt& body) {
  std::vector<const Stmt*> out;
  if (body.kind == StmtKind::kBlock) {
    for (const auto& s : body.stmts) out.push_back(s.get());
  } else {
    out.push_back(&body);
  }
  return out;
}

std::string prove_copy_loop(const Stmt& loop, const CopySides& sides, CopyLoopProof& out) {
  out = CopyLoopProof{};
  if (loop.kind != StmtKind::kFor) return "not a 'for' loop";
  out.shape = loop_shape(loop);
  if (!out.shape.canonical) {
    return "element writes are not in a canonical 'for (int i = 0; i < n; i++)' loop";
  }
  if (sides.dst_param == sides.src_param) return "destination and source are the same record";
  std::string dst_array = sides.dst_array;
  std::vector<const Stmt*> body = body_stmts(*loop.body);
  if (body.empty()) return "loop copies no elements";
  for (const Stmt* st : body) {
    std::string why = element_copy(*st, sides, dst_array, out);
    if (!why.empty()) return why;
  }
  if (out.shape.bound_param != sides.src_param ||
      out.shape.bound_field != out.src_array->length_field) {
    return "loop not bounded by the length field " +
           where(*sides.src_fmt, out.src_array->length_field) + " of the copied array";
  }
  return "";
}

}  // namespace morph::ecode
