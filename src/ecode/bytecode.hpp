// Ecode bytecode: a stack machine over 8-byte slots.
//
// Both execution backends consume this program form: the portable VM
// interprets it, and the x86-64 JIT translates each instruction into a
// short native sequence. Values on the evaluation stack are 64-bit slots
// holding either an int64, the bit pattern of a double, or a pointer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace morph::ecode {

enum class Op : uint8_t {
  kNop = 0,

  kConstI,      // imm -> push int64
  kConstF,      // imm (double bits) -> push
  kConstStr,    // a = string pool index -> push char*

  kLoadLocal,   // a = slot -> push locals[a]
  kStoreLocal,  // a = slot; pop -> locals[a]

  // integer arithmetic (pop rhs, pop lhs, push result)
  kAddI, kSubI, kMulI, kDivI, kModI,
  kNegI,        // pop, push -x
  kNotL,        // pop, push (x == 0)
  kBitNot, kBitAnd, kBitOr, kBitXor, kShl, kShr,

  // float arithmetic (slots hold double bits)
  kAddF, kSubF, kMulF, kDivF, kNegF,

  // comparisons -> int 0/1
  kEqI, kNeI, kLtI, kLeI, kGtI, kGeI,
  kEqF, kNeF, kLtF, kLeF, kGtF, kGeF,

  kI2F,         // pop int, push double bits
  kF2I,         // pop double bits, push int (truncate)

  // builtins
  kAbsI, kAbsF, kMinI, kMaxI, kMinF, kMaxF,
  kSqrtF, kFloorF, kCeilF,

  // control flow; a = absolute instruction index
  kJmp,
  kJz,          // pop; jump if zero
  kJnz,         // pop; jump if nonzero
  kDup,         // duplicate top (for short-circuit evaluation)
  kPop,

  // record access
  kParamAddr,   // a = parameter index -> push base pointer
  kFieldAddr,   // imm = byte offset; pop base, push base + imm
  kLoadPtr,     // pop addr, push *(void**)addr
  kIndex,       // imm = stride; pop idx, pop base, push base + idx*stride

  // memory loads: pop address, push value
  kLoadI8, kLoadI16, kLoadI32, kLoadI64,
  kLoadU8, kLoadU16, kLoadU32,
  kLoadF32, kLoadF64,

  // memory stores: pop address, pop value, store
  kStoreI8, kStoreI16, kStoreI32, kStoreI64,
  kStoreF32, kStoreF64,

  // runtime helpers
  kEnsure,      // imm = element stride; pop idx, pop slot_addr;
                // push address of element idx (array grown as needed)
  kStrAssign,   // pop src char*, pop dst slot addr; arena-copy the string
  kStrLen,      // pop char*, push length (0 for null)
  kStrEq,       // pop b, pop a, push equality as 0/1 (null == null)
  kStructCopy,  // imm = FormatDescriptor*; pop dst base, pop src base;
                // deep-copy the struct through the runtime arena
  kCopyLoop,    // a = Chunk::copy_loops index; pop count, pop src slot addr,
                // pop dst slot addr; run a whole element-copy loop (see
                // CopyLoop) and push the loop variable's final value

  kRet,
};

struct Instr {
  Op op = Op::kNop;
  int32_t a = 0;    // small operand: slot, param index, jump target
  int64_t imm = 0;  // large operand: constants, offsets, strides
  int32_t line = 0; // 1-based source line of the statement/expression that
                    // produced this instruction (0 = synthesized); consumed
                    // by the static verifier's diagnostics, ignored by both
                    // execution backends
};

/// An element-copy loop (ecode/copyloop.hpp) lowered to one kCopyLoop op:
/// `count` elements of the source dynamic array are copied into the
/// destination one, which first grows to exactly `count` elements if it is
/// smaller (keeping the elements already written).
struct CopyLoop {
  /// Bytes copied per element: [src_off, src_off + len) of the source
  /// element to [dst_off, dst_off + len) of the destination element.
  struct Field {
    uint32_t dst_off = 0;
    uint32_t src_off = 0;
    uint32_t len = 0;
  };
  uint32_t dst_stride = 0;
  uint32_t src_stride = 0;
  /// Scalar element fields, adjacent ones merged into one run; sorted by
  /// dst_off. Bytes no run covers stay as they were.
  std::vector<Field> runs;
  /// String element fields (len = pointer size), copied per element through
  /// the runtime arena so the output never aliases the input.
  std::vector<Field> strings;
};

struct Chunk {
  std::vector<Instr> code;
  std::vector<std::string> string_pool;
  std::vector<CopyLoop> copy_loops;  // kCopyLoop descriptors, by index
  int local_slots = 0;
  int param_count = 0;
  /// Upper bound on evaluation stack depth, computed by the compiler.
  int max_stack = 0;

  std::string disassemble() const;
};

std::string op_name(Op op);

}  // namespace morph::ecode
