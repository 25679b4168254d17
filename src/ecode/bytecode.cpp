#include "ecode/bytecode.hpp"

namespace morph::ecode {

std::string op_name(Op op) {
  switch (op) {
    case Op::kNop: return "nop";
    case Op::kConstI: return "const.i";
    case Op::kConstF: return "const.f";
    case Op::kConstStr: return "const.str";
    case Op::kLoadLocal: return "load.local";
    case Op::kStoreLocal: return "store.local";
    case Op::kAddI: return "add.i";
    case Op::kSubI: return "sub.i";
    case Op::kMulI: return "mul.i";
    case Op::kDivI: return "div.i";
    case Op::kModI: return "mod.i";
    case Op::kNegI: return "neg.i";
    case Op::kNotL: return "not";
    case Op::kBitNot: return "bitnot";
    case Op::kBitAnd: return "and";
    case Op::kBitOr: return "or";
    case Op::kBitXor: return "xor";
    case Op::kShl: return "shl";
    case Op::kShr: return "shr";
    case Op::kAddF: return "add.f";
    case Op::kSubF: return "sub.f";
    case Op::kMulF: return "mul.f";
    case Op::kDivF: return "div.f";
    case Op::kNegF: return "neg.f";
    case Op::kEqI: return "eq.i";
    case Op::kNeI: return "ne.i";
    case Op::kLtI: return "lt.i";
    case Op::kLeI: return "le.i";
    case Op::kGtI: return "gt.i";
    case Op::kGeI: return "ge.i";
    case Op::kEqF: return "eq.f";
    case Op::kNeF: return "ne.f";
    case Op::kLtF: return "lt.f";
    case Op::kLeF: return "le.f";
    case Op::kGtF: return "gt.f";
    case Op::kGeF: return "ge.f";
    case Op::kI2F: return "i2f";
    case Op::kF2I: return "f2i";
    case Op::kAbsI: return "abs.i";
    case Op::kAbsF: return "abs.f";
    case Op::kMinI: return "min.i";
    case Op::kMaxI: return "max.i";
    case Op::kMinF: return "min.f";
    case Op::kMaxF: return "max.f";
    case Op::kSqrtF: return "sqrt.f";
    case Op::kFloorF: return "floor.f";
    case Op::kCeilF: return "ceil.f";
    case Op::kJmp: return "jmp";
    case Op::kJz: return "jz";
    case Op::kJnz: return "jnz";
    case Op::kDup: return "dup";
    case Op::kPop: return "pop";
    case Op::kParamAddr: return "param.addr";
    case Op::kFieldAddr: return "field.addr";
    case Op::kLoadPtr: return "load.ptr";
    case Op::kIndex: return "index";
    case Op::kLoadI8: return "load.i8";
    case Op::kLoadI16: return "load.i16";
    case Op::kLoadI32: return "load.i32";
    case Op::kLoadI64: return "load.i64";
    case Op::kLoadU8: return "load.u8";
    case Op::kLoadU16: return "load.u16";
    case Op::kLoadU32: return "load.u32";
    case Op::kLoadF32: return "load.f32";
    case Op::kLoadF64: return "load.f64";
    case Op::kStoreI8: return "store.i8";
    case Op::kStoreI16: return "store.i16";
    case Op::kStoreI32: return "store.i32";
    case Op::kStoreI64: return "store.i64";
    case Op::kStoreF32: return "store.f32";
    case Op::kStoreF64: return "store.f64";
    case Op::kEnsure: return "ensure";
    case Op::kStrAssign: return "str.assign";
    case Op::kStrLen: return "strlen";
    case Op::kStrEq: return "streq";
    case Op::kStructCopy: return "struct.copy";
    case Op::kCopyLoop: return "copy.loop";
    case Op::kRet: return "ret";
  }
  return "?";
}

std::string Chunk::disassemble() const {
  std::string out;
  for (size_t i = 0; i < code.size(); ++i) {
    const Instr& in = code[i];
    out += std::to_string(i) + ": " + op_name(in.op);
    switch (in.op) {
      case Op::kConstI:
      case Op::kConstF:
      case Op::kFieldAddr:
      case Op::kIndex:
      case Op::kEnsure:
        out += " " + std::to_string(in.imm);
        break;
      case Op::kConstStr:
        out += " \"" + string_pool[static_cast<size_t>(in.a)] + "\"";
        break;
      case Op::kCopyLoop: {
        out += " " + std::to_string(in.a);
        if (in.a < 0 || static_cast<size_t>(in.a) >= copy_loops.size()) break;
        const CopyLoop& loop = copy_loops[static_cast<size_t>(in.a)];
        out += " (stride " + std::to_string(loop.src_stride) + " -> " +
               std::to_string(loop.dst_stride) + ";";
        for (const auto& r : loop.runs) {
          out += " " + std::to_string(r.len) + "B " + std::to_string(r.src_off) + "->" +
                 std::to_string(r.dst_off);
        }
        for (const auto& r : loop.strings) {
          out += " str " + std::to_string(r.src_off) + "->" + std::to_string(r.dst_off);
        }
        out += ")";
        break;
      }
      case Op::kLoadLocal:
      case Op::kStoreLocal:
      case Op::kParamAddr:
      case Op::kJmp:
      case Op::kJz:
      case Op::kJnz:
        out += " " + std::to_string(in.a);
        break;
      default:
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace morph::ecode
