// Element-copy loops: the one syntactic proof behind chain fusion's array
// forwarding (fuse.cpp) and the bytecode compiler's kCopyLoop lowering.
//
// An element-copy loop is a canonical `for (int i = 0; i < S.cnt; i++)`
// loop whose body only copies elements of one source dynamic array S.B
// into one destination dynamic array D.A: statements `D.A[i].x = S.B[i].y`
// (x a basic element field) or `D.A[i] = S.B[i]` (basic elements), each
// with the same element kind and size on both sides, where S.cnt is the
// length field of S.B, D and S are different record parameters, and the
// body never writes i. Fusion forwards the array such a loop produces; the
// compiler runs the whole loop as one runtime helper call.
#pragma once

#include <string>
#include <vector>

#include "ecode/ast.hpp"
#include "pbio/format.hpp"

namespace morph::ecode {

/// `p.f` with `p` a bare variable: the field name, else null.
const std::string* param_field(const Expr& e, const std::string& param);

/// The `p.f` node an lvalue (`p.f`, `p.f[i]`, `p.f[i].x`, ...) is rooted
/// at, or null when it is a local variable.
const Expr* lvalue_head(const Expr& lv);

/// What a `for` statement looks like from the outside.
struct LoopShape {
  std::string var;          // index variable ("" when none is recognisable)
  bool declares = false;    // the init clause declares it
  bool canonical = false;   // for (i = 0; i < p.cnt; i++), i not written in the body
  std::string bound_param;  // canonical: p
  std::string bound_field;  // canonical: cnt
};

LoopShape loop_shape(const Stmt& s);

/// The statements a loop body runs, one block deep.
std::vector<const Stmt*> body_stmts(const Stmt& body);

/// The two records an element-copy loop moves elements between.
struct CopySides {
  std::string dst_param;
  const pbio::FormatDescriptor* dst_fmt = nullptr;
  std::string src_param;
  const pbio::FormatDescriptor* src_fmt = nullptr;
  /// The destination array the loop must write; empty to take it from the
  /// loop's first statement.
  std::string dst_array;
};

/// One statement of an element-copy loop.
struct ElementCopy {
  std::string dst_field;  // element field x of D.A[i].x; empty for a whole element
  std::string src_field;  // element field y of S.B[i].y; empty for a whole element
  const pbio::FieldDescriptor* dst_leaf = nullptr;  // x's descriptor; null for a whole element
  const pbio::FieldDescriptor* src_leaf = nullptr;  // y's descriptor; null for a whole element
};

struct CopyLoopProof {
  LoopShape shape;
  const pbio::FieldDescriptor* dst_array = nullptr;  // D.A
  const pbio::FieldDescriptor* src_array = nullptr;  // S.B
  std::vector<ElementCopy> copies;                   // in body order
};

/// Empty when `loop` is an element-copy loop from `sides.src_param` into
/// `sides.dst_param` (filling `out`); otherwise why not. Purely syntactic:
/// the AST need not be analyzed.
std::string prove_copy_loop(const Stmt& loop, const CopySides& sides, CopyLoopProof& out);

}  // namespace morph::ecode
