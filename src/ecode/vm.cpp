#include "ecode/vm.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"

namespace morph::ecode {

namespace {

inline double as_f(int64_t bits) { return std::bit_cast<double>(bits); }
inline int64_t as_i(double v) { return std::bit_cast<int64_t>(v); }

}  // namespace

void vm_run(const Chunk& chunk, void* const* params, EcodeRuntime& rt) {
  std::vector<int64_t> locals(static_cast<size_t>(chunk.local_slots), 0);
  std::vector<int64_t> stack(static_cast<size_t>(chunk.max_stack) + 16, 0);
  int64_t* sp = stack.data();  // points at the next free slot

  auto push = [&](int64_t v) { *sp++ = v; };
  auto pop = [&]() -> int64_t { return *--sp; };

  size_t pc = 0;
  const Instr* code = chunk.code.data();
  const size_t n = chunk.code.size();

  while (pc < n) {
    const Instr& in = code[pc++];
    switch (in.op) {
      case Op::kNop:
        break;
      case Op::kConstI:
        push(in.imm);
        break;
      case Op::kConstF:
        push(in.imm);
        break;
      case Op::kConstStr:
        push(reinterpret_cast<int64_t>(chunk.string_pool[static_cast<size_t>(in.a)].c_str()));
        break;
      case Op::kLoadLocal:
        push(locals[static_cast<size_t>(in.a)]);
        break;
      case Op::kStoreLocal:
        locals[static_cast<size_t>(in.a)] = pop();
        break;

      // Integer arithmetic wraps (two's complement), matching the JIT's
      // hardware semantics; computed in unsigned space to avoid UB.
      case Op::kAddI: {
        auto r = static_cast<uint64_t>(pop());
        push(static_cast<int64_t>(static_cast<uint64_t>(pop()) + r));
        break;
      }
      case Op::kSubI: {
        auto r = static_cast<uint64_t>(pop());
        push(static_cast<int64_t>(static_cast<uint64_t>(pop()) - r));
        break;
      }
      case Op::kMulI: {
        auto r = static_cast<uint64_t>(pop());
        push(static_cast<int64_t>(static_cast<uint64_t>(pop()) * r));
        break;
      }
      case Op::kDivI: {
        // Division by zero is defined as 0 and INT64_MIN / -1 wraps (both
        // backends agree; a trapping transform must never take down a
        // middleware receiver).
        int64_t r = pop();
        int64_t l = pop();
        if (r == 0) {
          push(0);
        } else if (r == -1) {
          push(static_cast<int64_t>(0 - static_cast<uint64_t>(l)));
        } else {
          push(l / r);
        }
        break;
      }
      case Op::kModI: {
        int64_t r = pop();
        int64_t l = pop();
        push((r == 0 || r == -1) ? 0 : l % r);
        break;
      }
      case Op::kNegI:
        push(static_cast<int64_t>(0 - static_cast<uint64_t>(pop())));
        break;
      case Op::kNotL:
        push(pop() == 0 ? 1 : 0);
        break;
      case Op::kBitNot:
        push(~pop());
        break;
      case Op::kBitAnd: {
        int64_t r = pop();
        push(pop() & r);
        break;
      }
      case Op::kBitOr: {
        int64_t r = pop();
        push(pop() | r);
        break;
      }
      case Op::kBitXor: {
        int64_t r = pop();
        push(pop() ^ r);
        break;
      }
      case Op::kShl: {
        int64_t r = pop() & 63;
        push(static_cast<int64_t>(static_cast<uint64_t>(pop()) << r));
        break;
      }
      case Op::kShr: {
        int64_t r = pop() & 63;
        push(pop() >> r);
        break;
      }

      case Op::kAddF: {
        double r = as_f(pop());
        push(as_i(as_f(pop()) + r));
        break;
      }
      case Op::kSubF: {
        double r = as_f(pop());
        push(as_i(as_f(pop()) - r));
        break;
      }
      case Op::kMulF: {
        double r = as_f(pop());
        push(as_i(as_f(pop()) * r));
        break;
      }
      case Op::kDivF: {
        double r = as_f(pop());
        push(as_i(as_f(pop()) / r));
        break;
      }
      case Op::kNegF:
        push(as_i(-as_f(pop())));
        break;

      case Op::kEqI: {
        int64_t r = pop();
        push(pop() == r ? 1 : 0);
        break;
      }
      case Op::kNeI: {
        int64_t r = pop();
        push(pop() != r ? 1 : 0);
        break;
      }
      case Op::kLtI: {
        int64_t r = pop();
        push(pop() < r ? 1 : 0);
        break;
      }
      case Op::kLeI: {
        int64_t r = pop();
        push(pop() <= r ? 1 : 0);
        break;
      }
      case Op::kGtI: {
        int64_t r = pop();
        push(pop() > r ? 1 : 0);
        break;
      }
      case Op::kGeI: {
        int64_t r = pop();
        push(pop() >= r ? 1 : 0);
        break;
      }
      case Op::kEqF: {
        double r = as_f(pop());
        push(as_f(pop()) == r ? 1 : 0);
        break;
      }
      case Op::kNeF: {
        double r = as_f(pop());
        push(as_f(pop()) != r ? 1 : 0);
        break;
      }
      case Op::kLtF: {
        double r = as_f(pop());
        push(as_f(pop()) < r ? 1 : 0);
        break;
      }
      case Op::kLeF: {
        double r = as_f(pop());
        push(as_f(pop()) <= r ? 1 : 0);
        break;
      }
      case Op::kGtF: {
        double r = as_f(pop());
        push(as_f(pop()) > r ? 1 : 0);
        break;
      }
      case Op::kGeF: {
        double r = as_f(pop());
        push(as_f(pop()) >= r ? 1 : 0);
        break;
      }

      case Op::kI2F:
        push(as_i(static_cast<double>(pop())));
        break;
      case Op::kF2I: {
        // Match cvttsd2si: NaN and out-of-range inputs produce INT64_MIN
        // (the "integer indefinite" value), so the VM stays bit-identical
        // with the JIT and the cast is never UB. 2^63 is exactly
        // representable as a double; values truncating into [-2^63, 2^63)
        // are safe to cast directly.
        double f = as_f(pop());
        push(f >= -9223372036854775808.0 && f < 9223372036854775808.0
                 ? static_cast<int64_t>(f)
                 : INT64_MIN);
        break;
      }

      case Op::kAbsI: {
        int64_t v = pop();
        push(v < 0 ? static_cast<int64_t>(0 - static_cast<uint64_t>(v)) : v);
        break;
      }
      case Op::kAbsF:
        push(as_i(std::fabs(as_f(pop()))));
        break;
      case Op::kMinI: {
        int64_t r = pop();
        int64_t l = pop();
        push(l < r ? l : r);
        break;
      }
      case Op::kMaxI: {
        int64_t r = pop();
        int64_t l = pop();
        push(l > r ? l : r);
        break;
      }
      case Op::kMinF: {
        double r = as_f(pop());
        double l = as_f(pop());
        push(as_i(l < r ? l : r));
        break;
      }
      case Op::kMaxF: {
        double r = as_f(pop());
        double l = as_f(pop());
        push(as_i(l > r ? l : r));
        break;
      }
      case Op::kSqrtF:
        push(as_i(std::sqrt(as_f(pop()))));
        break;
      case Op::kFloorF:
        push(as_i(std::floor(as_f(pop()))));
        break;
      case Op::kCeilF:
        push(as_i(std::ceil(as_f(pop()))));
        break;

      case Op::kJmp:
        pc = static_cast<size_t>(in.a);
        break;
      case Op::kJz:
        if (pop() == 0) pc = static_cast<size_t>(in.a);
        break;
      case Op::kJnz:
        if (pop() != 0) pc = static_cast<size_t>(in.a);
        break;
      case Op::kDup: {
        int64_t v = pop();
        push(v);
        push(v);
        break;
      }
      case Op::kPop:
        (void)pop();
        break;

      case Op::kParamAddr:
        push(reinterpret_cast<int64_t>(params[in.a]));
        break;
      case Op::kFieldAddr:
        push(pop() + in.imm);
        break;
      case Op::kLoadPtr: {
        void* p;
        std::memcpy(&p, reinterpret_cast<void*>(pop()), sizeof(void*));
        push(reinterpret_cast<int64_t>(p));
        break;
      }
      case Op::kIndex: {
        int64_t idx = pop();
        push(pop() + idx * in.imm);
        break;
      }

      case Op::kLoadI8: {
        int8_t v;
        std::memcpy(&v, reinterpret_cast<void*>(pop()), 1);
        push(v);
        break;
      }
      case Op::kLoadI16: {
        int16_t v;
        std::memcpy(&v, reinterpret_cast<void*>(pop()), 2);
        push(v);
        break;
      }
      case Op::kLoadI32: {
        int32_t v;
        std::memcpy(&v, reinterpret_cast<void*>(pop()), 4);
        push(v);
        break;
      }
      case Op::kLoadI64: {
        int64_t v;
        std::memcpy(&v, reinterpret_cast<void*>(pop()), 8);
        push(v);
        break;
      }
      case Op::kLoadU8: {
        uint8_t v;
        std::memcpy(&v, reinterpret_cast<void*>(pop()), 1);
        push(v);
        break;
      }
      case Op::kLoadU16: {
        uint16_t v;
        std::memcpy(&v, reinterpret_cast<void*>(pop()), 2);
        push(v);
        break;
      }
      case Op::kLoadU32: {
        uint32_t v;
        std::memcpy(&v, reinterpret_cast<void*>(pop()), 4);
        push(v);
        break;
      }
      case Op::kLoadF32: {
        float v;
        std::memcpy(&v, reinterpret_cast<void*>(pop()), 4);
        push(as_i(static_cast<double>(v)));
        break;
      }
      case Op::kLoadF64: {
        double v;
        std::memcpy(&v, reinterpret_cast<void*>(pop()), 8);
        push(as_i(v));
        break;
      }

      case Op::kStoreI8: {
        void* addr = reinterpret_cast<void*>(pop());
        auto v = static_cast<int8_t>(pop());
        std::memcpy(addr, &v, 1);
        break;
      }
      case Op::kStoreI16: {
        void* addr = reinterpret_cast<void*>(pop());
        auto v = static_cast<int16_t>(pop());
        std::memcpy(addr, &v, 2);
        break;
      }
      case Op::kStoreI32: {
        void* addr = reinterpret_cast<void*>(pop());
        auto v = static_cast<int32_t>(pop());
        std::memcpy(addr, &v, 4);
        break;
      }
      case Op::kStoreI64: {
        void* addr = reinterpret_cast<void*>(pop());
        int64_t v = pop();
        std::memcpy(addr, &v, 8);
        break;
      }
      case Op::kStoreF32: {
        void* addr = reinterpret_cast<void*>(pop());
        auto v = static_cast<float>(as_f(pop()));
        std::memcpy(addr, &v, 4);
        break;
      }
      case Op::kStoreF64: {
        void* addr = reinterpret_cast<void*>(pop());
        double v = as_f(pop());
        std::memcpy(addr, &v, 8);
        break;
      }

      case Op::kEnsure: {
        int64_t idx = pop();
        void* slot = reinterpret_cast<void*>(pop());
        push(reinterpret_cast<int64_t>(morph_ecode_ensure(&rt, slot, idx, in.imm)));
        break;
      }
      case Op::kStrAssign: {
        void* slot = reinterpret_cast<void*>(pop());
        const char* src = reinterpret_cast<const char*>(pop());
        morph_ecode_str_assign(&rt, slot, src);
        break;
      }
      case Op::kStrLen:
        push(morph_ecode_strlen(reinterpret_cast<const char*>(pop())));
        break;
      case Op::kStrEq: {
        const char* b = reinterpret_cast<const char*>(pop());
        const char* a = reinterpret_cast<const char*>(pop());
        push(morph_ecode_streq(a, b));
        break;
      }
      case Op::kStructCopy: {
        void* dst = reinterpret_cast<void*>(pop());
        const void* src = reinterpret_cast<const void*>(pop());
        morph_ecode_struct_copy(
            &rt, dst, src,
            reinterpret_cast<const pbio::FormatDescriptor*>(static_cast<intptr_t>(in.imm)));
        break;
      }

      case Op::kCopyLoop: {
        int64_t count = pop();
        const void* src = reinterpret_cast<const void*>(pop());
        void* dst = reinterpret_cast<void*>(pop());
        push(morph_ecode_copy_loop(&rt, dst, src, count,
                                   &chunk.copy_loops[static_cast<size_t>(in.a)]));
        break;
      }

      case Op::kRet:
        return;
    }
  }
}

}  // namespace morph::ecode
