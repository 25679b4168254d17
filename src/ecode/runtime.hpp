// Ecode runtime context and the helpers both execution backends call for
// operations that need allocation or a loop of their own: growing
// destination dynamic arrays, copying strings and structs, and running
// whole element-copy loops. The helpers are exported with C linkage so the
// JIT can call them through plain absolute addresses.
#pragma once

#include <cstdint>

#include "common/arena.hpp"

namespace morph::pbio {
class FormatDescriptor;
}

namespace morph::ecode {

struct CopyLoop;

/// Per-invocation execution context. Not thread-safe; create one per call
/// (it is a single pointer + arena reference, construction is free).
struct EcodeRuntime {
  RecordArena* arena = nullptr;
};

}  // namespace morph::ecode

extern "C" {

/// Ensure the dynamic array whose pointer lives at `slot` can hold element
/// `index` (elements of `stride` bytes), growing through the runtime arena
/// if needed. Returns the address of element `index`.
void* morph_ecode_ensure(morph::ecode::EcodeRuntime* rt, void* slot, int64_t index,
                         int64_t stride);

/// Copy the NUL-terminated string `src` (may be null) into the runtime
/// arena and store the copy's address at `slot`.
void morph_ecode_str_assign(morph::ecode::EcodeRuntime* rt, void* slot, const char* src);

/// strlen that tolerates null (returns 0).
int64_t morph_ecode_strlen(const char* s);

/// String equality that tolerates nulls (null equals null and "").
int64_t morph_ecode_streq(const char* a, const char* b);

/// Run a lowered element-copy loop (bytecode.hpp CopyLoop) over `count`
/// elements: grow the destination array whose pointer lives at `dst_slot`
/// to exactly `count` elements if it is smaller, copy `loop`'s runs and
/// strings of each element from the array whose pointer lives at
/// `src_slot`, and return the value the loop variable ends with (`count`,
/// or 0 when `count` is not positive). A null source array copies nothing.
int64_t morph_ecode_copy_loop(morph::ecode::EcodeRuntime* rt, void* dst_slot,
                              const void* src_slot, int64_t count,
                              const morph::ecode::CopyLoop* loop);

/// Deep-copy a struct of format `fmt` from `src` to `dst` (same format on
/// both sides; enforced by sema). Strings and dynamic arrays are duplicated
/// through the runtime arena so the destination owns its own data.
void morph_ecode_struct_copy(morph::ecode::EcodeRuntime* rt, void* dst, const void* src,
                             const morph::pbio::FormatDescriptor* fmt);

}  // extern "C"
