#include "ecode/jit_x64.hpp"

#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"

#if defined(__x86_64__) && defined(__unix__)
#include <sys/mman.h>
#include <unistd.h>
#define MORPH_JIT_X64 1
#else
#define MORPH_JIT_X64 0
#endif

namespace morph::ecode {

#if MORPH_JIT_X64

namespace {

/// Raw x86-64 instruction emitter. Register conventions inside generated
/// code:
///   r12 = record parameter array, r13 = locals array, r14 = runtime ctx,
///   r15 = string table; rax/rcx/rdx/rsi/rdi = scratch; rbx = saved rsp
///   around aligned calls. The evaluation stack is the hardware stack.
class Emitter {
 public:
  std::vector<uint8_t> buf;

  void u8(uint8_t b) { buf.push_back(b); }
  void bytes(std::initializer_list<uint8_t> bs) {
    for (uint8_t b : bs) buf.push_back(b);
  }
  void u32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf.push_back(static_cast<uint8_t>(v >> (i * 8)));
  }
  void u64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf.push_back(static_cast<uint8_t>(v >> (i * 8)));
  }
  size_t pos() const { return buf.size(); }
  void patch32(size_t at, uint32_t v) {
    for (int i = 0; i < 4; ++i) buf[at + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (i * 8));
  }

  // -- common sequences --
  void push_rax() { u8(0x50); }
  void push_rcx() { u8(0x51); }
  void push_rdx() { u8(0x52); }
  void pop_rax() { u8(0x58); }
  void pop_rcx() { u8(0x59); }
  void pop_rdx() { u8(0x5A); }
  void pop_rsi() { u8(0x5E); }
  void pop_rdi() { u8(0x5F); }

  void mov_rax_imm64(uint64_t v) {
    bytes({0x48, 0xB8});
    u64(v);
  }
  void mov_rcx_imm64(uint64_t v) {
    bytes({0x48, 0xB9});
    u64(v);
  }

  /// mov rax, [base + disp] for base in {r12(params), r13(locals),
  /// r15(strings)}.
  void load_rax_r12(int32_t disp) { mem_op_rax({0x49, 0x8B}, 0x04, true, disp); }
  void load_rax_r13(int32_t disp) { mem_op_rax({0x49, 0x8B}, 0x05, false, disp); }
  void store_rax_r13(int32_t disp) { mem_op_rax({0x49, 0x89}, 0x05, false, disp); }
  void load_rax_r15(int32_t disp) { mem_op_rax({0x49, 0x8B}, 0x07, false, disp); }

  /// Aligned absolute call; clobbers rax and rbx.
  void call_abs(const void* fn) {
    mov_rax_imm64(reinterpret_cast<uint64_t>(fn));
    bytes({0x48, 0x89, 0xE3});        // mov rbx, rsp
    bytes({0x48, 0x83, 0xE4, 0xF0});  // and rsp, -16
    bytes({0xFF, 0xD0});              // call rax
    bytes({0x48, 0x89, 0xDC});        // mov rsp, rbx
  }

  // float helpers: lhs at [rsp+8], rhs at [rsp]
  void load_xmm01_pair() {
    bytes({0xF2, 0x0F, 0x10, 0x44, 0x24, 0x08});  // movsd xmm0, [rsp+8]
    bytes({0xF2, 0x0F, 0x10, 0x0C, 0x24});        // movsd xmm1, [rsp]
    bytes({0x48, 0x83, 0xC4, 0x10});              // add rsp, 16
  }
  void load_xmm01_pair_swapped() {
    bytes({0xF2, 0x0F, 0x10, 0x04, 0x24});        // movsd xmm0, [rsp]   (rhs)
    bytes({0xF2, 0x0F, 0x10, 0x4C, 0x24, 0x08});  // movsd xmm1, [rsp+8] (lhs)
    bytes({0x48, 0x83, 0xC4, 0x10});              // add rsp, 16
  }
  void push_xmm0() {
    bytes({0x48, 0x83, 0xEC, 0x08});              // sub rsp, 8
    bytes({0xF2, 0x0F, 0x11, 0x04, 0x24});        // movsd [rsp], xmm0
  }
  void cmp_result_from_xmm0() {
    bytes({0x66, 0x48, 0x0F, 0x7E, 0xC0});  // movq rax, xmm0
    bytes({0x83, 0xE0, 0x01});              // and eax, 1
    push_rax();
  }
  void int_compare(uint8_t setcc) {
    pop_rcx();
    pop_rax();
    bytes({0x48, 0x39, 0xC8});        // cmp rax, rcx
    bytes({0x0F, setcc, 0xC0});       // setcc al
    bytes({0x0F, 0xB6, 0xC0});        // movzx eax, al
    push_rax();
  }

 private:
  void mem_op_rax(std::initializer_list<uint8_t> prefix, uint8_t rm, bool needs_sib,
                  int32_t disp) {
    for (uint8_t b : prefix) u8(b);
    bool small = disp >= -128 && disp <= 127;
    u8(static_cast<uint8_t>((small ? 0x40 : 0x80) | rm));
    if (needs_sib) u8(0x24);
    if (small) {
      u8(static_cast<uint8_t>(disp));
    } else {
      u32(static_cast<uint32_t>(disp));
    }
  }
};

constexpr uint8_t kSete = 0x94, kSetne = 0x95, kSetl = 0x9C, kSetle = 0x9E, kSetg = 0x9F,
                  kSetge = 0x9D;

}  // namespace

std::unique_ptr<const JitCode> JitCode::build(const Chunk& chunk) {
  Emitter e;
  std::vector<size_t> bc_to_native(chunk.code.size() + 1, 0);
  struct Fixup {
    size_t at;       // position of the rel32 field
    int32_t target;  // bytecode index
  };
  std::vector<Fixup> fixups;

  // Stable string table (addresses baked into nothing; passed via r15).
  auto storage = std::make_unique<std::string[]>(chunk.string_pool.size());
  auto table = std::make_unique<const char*[]>(chunk.string_pool.size());
  for (size_t i = 0; i < chunk.string_pool.size(); ++i) {
    storage[i] = chunk.string_pool[i];
    table[i] = storage[i].c_str();
  }

  // Descriptors the kCopyLoop calls point at, owned by the JitCode.
  auto copy_loops = std::make_unique<const std::vector<CopyLoop>>(chunk.copy_loops);

  // Prologue.
  e.bytes({0x55});                    // push rbp
  e.bytes({0x48, 0x89, 0xE5});        // mov rbp, rsp
  e.bytes({0x53});                    // push rbx
  e.bytes({0x41, 0x54});              // push r12
  e.bytes({0x41, 0x55});              // push r13
  e.bytes({0x41, 0x56});              // push r14
  e.bytes({0x41, 0x57});              // push r15
  e.bytes({0x49, 0x89, 0xFC});        // mov r12, rdi  (params)
  e.bytes({0x49, 0x89, 0xF5});        // mov r13, rsi  (locals)
  e.bytes({0x49, 0x89, 0xD6});        // mov r14, rdx  (rt)
  e.bytes({0x49, 0x89, 0xCF});        // mov r15, rcx  (strings)

  auto emit_epilogue = [&] {
    e.bytes({0x48, 0x8D, 0x65, 0xD8});  // lea rsp, [rbp-40] (pop point)
    e.bytes({0x41, 0x5F});              // pop r15
    e.bytes({0x41, 0x5E});              // pop r14
    e.bytes({0x41, 0x5D});              // pop r13
    e.bytes({0x41, 0x5C});              // pop r12
    e.bytes({0x5B});                    // pop rbx
    e.bytes({0x5D});                    // pop rbp
    e.bytes({0xC3});                    // ret
  };

  auto int_binop = [&](std::initializer_list<uint8_t> op) {
    e.pop_rcx();
    e.pop_rax();
    e.bytes(op);
    e.push_rax();
  };

  auto float_binop = [&](uint8_t op_byte) {
    e.load_xmm01_pair();
    e.bytes({0xF2, 0x0F, op_byte, 0xC1});  // opsd xmm0, xmm1
    e.push_xmm0();
  };

  auto float_compare = [&](bool swapped, uint8_t predicate) {
    if (swapped) {
      e.load_xmm01_pair_swapped();
    } else {
      e.load_xmm01_pair();
    }
    e.bytes({0xF2, 0x0F, 0xC2, 0xC1, predicate});  // cmpsd xmm0, xmm1, pred
    e.cmp_result_from_xmm0();
  };

  for (size_t i = 0; i < chunk.code.size(); ++i) {
    bc_to_native[i] = e.pos();
    const Instr& in = chunk.code[i];
    switch (in.op) {
      case Op::kNop:
        break;
      case Op::kConstI:
      case Op::kConstF:
        e.mov_rax_imm64(static_cast<uint64_t>(in.imm));
        e.push_rax();
        break;
      case Op::kConstStr:
        e.load_rax_r15(in.a * 8);
        e.push_rax();
        break;
      case Op::kLoadLocal:
        e.load_rax_r13(in.a * 8);
        e.push_rax();
        break;
      case Op::kStoreLocal:
        e.pop_rax();
        e.store_rax_r13(in.a * 8);
        break;

      case Op::kAddI:
        int_binop({0x48, 0x01, 0xC8});
        break;
      case Op::kSubI:
        int_binop({0x48, 0x29, 0xC8});
        break;
      case Op::kMulI:
        int_binop({0x48, 0x0F, 0xAF, 0xC1});
        break;
      case Op::kDivI:
        e.pop_rcx();
        e.pop_rax();
        e.bytes({0x48, 0x85, 0xC9});        // test rcx, rcx
        e.bytes({0x75, 0x04});              // jne +4
        e.bytes({0x31, 0xC0});              // xor eax, eax
        e.bytes({0xEB, 0x10});              // jmp done (+16)
        e.bytes({0x48, 0x83, 0xF9, 0xFF});  // cmp rcx, -1
        e.bytes({0x75, 0x05});              // jne +5
        e.bytes({0x48, 0xF7, 0xD8});        // neg rax
        e.bytes({0xEB, 0x05});              // jmp done (+5)
        e.bytes({0x48, 0x99});              // cqo
        e.bytes({0x48, 0xF7, 0xF9});        // idiv rcx
        e.push_rax();                       // done:
        break;
      case Op::kModI:
        e.pop_rcx();
        e.pop_rax();
        e.bytes({0x48, 0x85, 0xC9});        // test rcx, rcx
        e.bytes({0x74, 0x06});              // je zero
        e.bytes({0x48, 0x83, 0xF9, 0xFF});  // cmp rcx, -1
        e.bytes({0x75, 0x04});              // jne div
        e.bytes({0x31, 0xD2});              // zero: xor edx, edx
        e.bytes({0xEB, 0x05});              // jmp done (+5)
        e.bytes({0x48, 0x99});              // div: cqo
        e.bytes({0x48, 0xF7, 0xF9});        // idiv rcx
        e.push_rdx();                       // done:
        break;
      case Op::kNegI:
        e.pop_rax();
        e.bytes({0x48, 0xF7, 0xD8});
        e.push_rax();
        break;
      case Op::kNotL:
        e.pop_rax();
        e.bytes({0x48, 0x85, 0xC0});   // test rax, rax
        e.bytes({0x0F, kSete, 0xC0});  // sete al
        e.bytes({0x0F, 0xB6, 0xC0});   // movzx eax, al
        e.push_rax();
        break;
      case Op::kBitNot:
        e.pop_rax();
        e.bytes({0x48, 0xF7, 0xD0});
        e.push_rax();
        break;
      case Op::kBitAnd:
        int_binop({0x48, 0x21, 0xC8});
        break;
      case Op::kBitOr:
        int_binop({0x48, 0x09, 0xC8});
        break;
      case Op::kBitXor:
        int_binop({0x48, 0x31, 0xC8});
        break;
      case Op::kShl:
        int_binop({0x48, 0xD3, 0xE0});  // shl rax, cl
        break;
      case Op::kShr:
        int_binop({0x48, 0xD3, 0xF8});  // sar rax, cl
        break;

      case Op::kAddF:
        float_binop(0x58);
        break;
      case Op::kSubF:
        float_binop(0x5C);
        break;
      case Op::kMulF:
        float_binop(0x59);
        break;
      case Op::kDivF:
        float_binop(0x5E);
        break;
      case Op::kNegF:
        e.pop_rax();
        e.mov_rcx_imm64(0x8000000000000000ull);
        e.bytes({0x48, 0x31, 0xC8});  // xor rax, rcx
        e.push_rax();
        break;

      case Op::kEqI:
        e.int_compare(kSete);
        break;
      case Op::kNeI:
        e.int_compare(kSetne);
        break;
      case Op::kLtI:
        e.int_compare(kSetl);
        break;
      case Op::kLeI:
        e.int_compare(kSetle);
        break;
      case Op::kGtI:
        e.int_compare(kSetg);
        break;
      case Op::kGeI:
        e.int_compare(kSetge);
        break;

      case Op::kEqF:
        float_compare(false, 0);
        break;
      case Op::kNeF:
        float_compare(false, 4);
        break;
      case Op::kLtF:
        float_compare(false, 1);
        break;
      case Op::kLeF:
        float_compare(false, 2);
        break;
      case Op::kGtF:
        float_compare(true, 1);  // rhs < lhs
        break;
      case Op::kGeF:
        float_compare(true, 2);  // rhs <= lhs
        break;

      case Op::kI2F:
        e.pop_rax();
        e.bytes({0xF2, 0x48, 0x0F, 0x2A, 0xC0});  // cvtsi2sd xmm0, rax
        e.push_xmm0();
        break;
      case Op::kF2I:
        e.bytes({0xF2, 0x0F, 0x10, 0x04, 0x24});  // movsd xmm0, [rsp]
        e.bytes({0xF2, 0x48, 0x0F, 0x2C, 0xC0});  // cvttsd2si rax, xmm0
        e.bytes({0x48, 0x89, 0x04, 0x24});        // mov [rsp], rax
        break;

      case Op::kAbsI:
        e.pop_rax();
        e.bytes({0x48, 0x89, 0xC1});        // mov rcx, rax
        e.bytes({0x48, 0xC1, 0xF9, 0x3F});  // sar rcx, 63
        e.bytes({0x48, 0x31, 0xC8});        // xor rax, rcx
        e.bytes({0x48, 0x29, 0xC8});        // sub rax, rcx
        e.push_rax();
        break;
      case Op::kAbsF:
        e.pop_rax();
        e.bytes({0x48, 0x0F, 0xBA, 0xF0, 0x3F});  // btr rax, 63
        e.push_rax();
        break;
      case Op::kMinI:
        e.pop_rcx();
        e.pop_rax();
        e.bytes({0x48, 0x39, 0xC8});        // cmp rax, rcx
        e.bytes({0x48, 0x0F, 0x4D, 0xC1});  // cmovge rax, rcx
        e.push_rax();
        break;
      case Op::kMaxI:
        e.pop_rcx();
        e.pop_rax();
        e.bytes({0x48, 0x39, 0xC8});        // cmp rax, rcx
        e.bytes({0x48, 0x0F, 0x4E, 0xC1});  // cmovle rax, rcx
        e.push_rax();
        break;
      case Op::kMinF:
        e.load_xmm01_pair();
        e.bytes({0xF2, 0x0F, 0x5D, 0xC1});  // minsd xmm0, xmm1
        e.push_xmm0();
        break;
      case Op::kMaxF:
        e.load_xmm01_pair();
        e.bytes({0xF2, 0x0F, 0x5F, 0xC1});  // maxsd xmm0, xmm1
        e.push_xmm0();
        break;
      case Op::kSqrtF:
        e.bytes({0xF2, 0x0F, 0x10, 0x04, 0x24});        // movsd xmm0, [rsp]
        e.bytes({0xF2, 0x0F, 0x51, 0xC0});              // sqrtsd xmm0, xmm0
        e.bytes({0xF2, 0x0F, 0x11, 0x04, 0x24});        // movsd [rsp], xmm0
        break;
      case Op::kFloorF:
        e.bytes({0xF2, 0x0F, 0x10, 0x04, 0x24});        // movsd xmm0, [rsp]
        e.bytes({0x66, 0x0F, 0x3A, 0x0B, 0xC0, 0x01});  // roundsd xmm0, xmm0, 1
        e.bytes({0xF2, 0x0F, 0x11, 0x04, 0x24});        // movsd [rsp], xmm0
        break;
      case Op::kCeilF:
        e.bytes({0xF2, 0x0F, 0x10, 0x04, 0x24});        // movsd xmm0, [rsp]
        e.bytes({0x66, 0x0F, 0x3A, 0x0B, 0xC0, 0x02});  // roundsd xmm0, xmm0, 2
        e.bytes({0xF2, 0x0F, 0x11, 0x04, 0x24});        // movsd [rsp], xmm0
        break;

      case Op::kJmp:
        e.u8(0xE9);
        fixups.push_back({e.pos(), in.a});
        e.u32(0);
        break;
      case Op::kJz:
        e.pop_rax();
        e.bytes({0x48, 0x85, 0xC0});  // test rax, rax
        e.bytes({0x0F, 0x84});        // jz rel32
        fixups.push_back({e.pos(), in.a});
        e.u32(0);
        break;
      case Op::kJnz:
        e.pop_rax();
        e.bytes({0x48, 0x85, 0xC0});
        e.bytes({0x0F, 0x85});  // jnz rel32
        fixups.push_back({e.pos(), in.a});
        e.u32(0);
        break;
      case Op::kDup:
        e.bytes({0x48, 0x8B, 0x04, 0x24});  // mov rax, [rsp]
        e.push_rax();
        break;
      case Op::kPop:
        e.bytes({0x48, 0x83, 0xC4, 0x08});  // add rsp, 8
        break;

      case Op::kParamAddr:
        e.load_rax_r12(in.a * 8);
        e.push_rax();
        break;
      case Op::kFieldAddr:
        e.pop_rax();
        e.bytes({0x48, 0x05});  // add rax, imm32
        e.u32(static_cast<uint32_t>(in.imm));
        e.push_rax();
        break;
      case Op::kLoadPtr:
        e.pop_rax();
        e.bytes({0x48, 0x8B, 0x00});  // mov rax, [rax]
        e.push_rax();
        break;
      case Op::kIndex:
        e.pop_rcx();
        e.bytes({0x48, 0x69, 0xC9});  // imul rcx, rcx, imm32
        e.u32(static_cast<uint32_t>(in.imm));
        e.pop_rax();
        e.bytes({0x48, 0x01, 0xC8});  // add rax, rcx
        e.push_rax();
        break;

      case Op::kLoadI8:
        e.pop_rax();
        e.bytes({0x48, 0x0F, 0xBE, 0x00});  // movsx rax, byte [rax]
        e.push_rax();
        break;
      case Op::kLoadI16:
        e.pop_rax();
        e.bytes({0x48, 0x0F, 0xBF, 0x00});
        e.push_rax();
        break;
      case Op::kLoadI32:
        e.pop_rax();
        e.bytes({0x48, 0x63, 0x00});  // movsxd rax, dword [rax]
        e.push_rax();
        break;
      case Op::kLoadI64:
        e.pop_rax();
        e.bytes({0x48, 0x8B, 0x00});
        e.push_rax();
        break;
      case Op::kLoadU8:
        e.pop_rax();
        e.bytes({0x0F, 0xB6, 0x00});  // movzx eax, byte [rax]
        e.push_rax();
        break;
      case Op::kLoadU16:
        e.pop_rax();
        e.bytes({0x0F, 0xB7, 0x00});
        e.push_rax();
        break;
      case Op::kLoadU32:
        e.pop_rax();
        e.bytes({0x8B, 0x00});  // mov eax, [rax]
        e.push_rax();
        break;
      case Op::kLoadF32:
        e.pop_rax();
        e.bytes({0xF3, 0x0F, 0x10, 0x00});  // movss xmm0, [rax]
        e.bytes({0xF3, 0x0F, 0x5A, 0xC0});  // cvtss2sd xmm0, xmm0
        e.push_xmm0();
        break;
      case Op::kLoadF64:
        e.pop_rax();
        e.bytes({0x48, 0x8B, 0x00});
        e.push_rax();
        break;

      case Op::kStoreI8:
        e.pop_rax();
        e.pop_rcx();
        e.bytes({0x88, 0x08});  // mov [rax], cl
        break;
      case Op::kStoreI16:
        e.pop_rax();
        e.pop_rcx();
        e.bytes({0x66, 0x89, 0x08});
        break;
      case Op::kStoreI32:
        e.pop_rax();
        e.pop_rcx();
        e.bytes({0x89, 0x08});
        break;
      case Op::kStoreI64:
        e.pop_rax();
        e.pop_rcx();
        e.bytes({0x48, 0x89, 0x08});
        break;
      case Op::kStoreF32:
        e.pop_rax();
        e.pop_rcx();
        e.bytes({0x66, 0x48, 0x0F, 0x6E, 0xC1});  // movq xmm0, rcx
        e.bytes({0xF2, 0x0F, 0x5A, 0xC0});        // cvtsd2ss xmm0, xmm0
        e.bytes({0xF3, 0x0F, 0x11, 0x00});        // movss [rax], xmm0
        break;
      case Op::kStoreF64:
        e.pop_rax();
        e.pop_rcx();
        e.bytes({0x48, 0x89, 0x08});
        break;

      case Op::kEnsure:
        e.pop_rdx();                  // index
        e.pop_rsi();                  // slot
        e.bytes({0x4C, 0x89, 0xF7});  // mov rdi, r14
        e.bytes({0x48, 0xC7, 0xC1});  // mov rcx, imm32
        e.u32(static_cast<uint32_t>(in.imm));
        e.call_abs(reinterpret_cast<const void*>(&morph_ecode_ensure));
        e.push_rax();
        break;
      case Op::kStrAssign:
        e.pop_rsi();                  // slot
        e.pop_rdx();                  // src string
        e.bytes({0x4C, 0x89, 0xF7});  // mov rdi, r14
        e.call_abs(reinterpret_cast<const void*>(&morph_ecode_str_assign));
        break;
      case Op::kStrLen:
        e.pop_rdi();
        e.call_abs(reinterpret_cast<const void*>(&morph_ecode_strlen));
        e.push_rax();
        break;
      case Op::kStrEq:
        e.pop_rsi();
        e.pop_rdi();
        e.call_abs(reinterpret_cast<const void*>(&morph_ecode_streq));
        e.push_rax();
        break;
      case Op::kStructCopy:
        e.pop_rsi();                  // dst
        e.pop_rdx();                  // src
        e.bytes({0x4C, 0x89, 0xF7});  // mov rdi, r14 (runtime)
        e.mov_rcx_imm64(static_cast<uint64_t>(in.imm));  // format descriptor
        e.call_abs(reinterpret_cast<const void*>(&morph_ecode_struct_copy));
        break;

      case Op::kCopyLoop:
        e.pop_rcx();                  // count
        e.pop_rdx();                  // src slot
        e.pop_rsi();                  // dst slot
        e.bytes({0x4C, 0x89, 0xF7});  // mov rdi, r14 (runtime)
        e.bytes({0x49, 0xB8});        // mov r8, imm64 (descriptor)
        e.u64(reinterpret_cast<uint64_t>(&(*copy_loops)[static_cast<size_t>(in.a)]));
        e.call_abs(reinterpret_cast<const void*>(&morph_ecode_copy_loop));
        e.push_rax();
        break;

      case Op::kRet:
        emit_epilogue();
        break;
    }
  }
  bc_to_native[chunk.code.size()] = e.pos();
  emit_epilogue();  // safety net if the chunk lacks a trailing kRet

  for (const auto& f : fixups) {
    size_t target = bc_to_native[static_cast<size_t>(f.target)];
    auto rel = static_cast<int64_t>(target) - static_cast<int64_t>(f.at + 4);
    e.patch32(f.at, static_cast<uint32_t>(rel));
  }

  // Map W, copy, then flip to RX (W^X).
  size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  size_t size = (e.buf.size() + page - 1) & ~(page - 1);
  void* mem = mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw Error("ecode jit: mmap failed");
  std::memcpy(mem, e.buf.data(), e.buf.size());
  if (mprotect(mem, size, PROT_READ | PROT_EXEC) != 0) {
    munmap(mem, size);
    throw Error("ecode jit: mprotect failed");
  }

  auto code = std::unique_ptr<JitCode>(new JitCode());
  code->mem_ = mem;
  code->mem_size_ = size;
  code->code_size_ = e.buf.size();
  code->entry_ = reinterpret_cast<Fn>(mem);
  code->string_table_ = std::move(table);
  code->string_storage_ = std::move(storage);
  code->copy_loops_ = std::move(copy_loops);
  return code;
}

JitCode::~JitCode() {
  if (mem_ != nullptr) munmap(mem_, mem_size_);
}

void JitCode::run(void* const* params, int64_t* locals, EcodeRuntime& rt) const {
  entry_(params, locals, &rt, string_table_.get());
}

#else  // !MORPH_JIT_X64

std::unique_ptr<const JitCode> JitCode::build(const Chunk&) { return nullptr; }
JitCode::~JitCode() = default;
void JitCode::run(void* const*, int64_t*, EcodeRuntime&) const {
  throw Error("ecode jit: unsupported platform");
}

#endif

}  // namespace morph::ecode
