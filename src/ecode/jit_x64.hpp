// x86-64 dynamic code generation for Ecode bytecode.
//
// A template JIT: every bytecode instruction becomes a short fixed native
// sequence; the evaluation stack is the hardware stack; runtime helpers are
// reached through absolute calls with dynamic 16-byte re-alignment. Code
// buffers are W^X: mapped writable, filled, then re-protected executable.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "ecode/bytecode.hpp"
#include "ecode/runtime.hpp"

namespace morph::ecode {

class JitCode {
 public:
  /// Translate a chunk. Returns nullptr when the host is unsupported.
  static std::unique_ptr<const JitCode> build(const Chunk& chunk);

  ~JitCode();
  JitCode(const JitCode&) = delete;
  JitCode& operator=(const JitCode&) = delete;

  void run(void* const* params, int64_t* locals, EcodeRuntime& rt) const;

  size_t code_size() const { return code_size_; }

 private:
  JitCode() = default;

  using Fn = void (*)(void* const* params, int64_t* locals, EcodeRuntime* rt,
                      const char* const* strings);

  void* mem_ = nullptr;        // mmap'd region
  size_t mem_size_ = 0;
  size_t code_size_ = 0;
  Fn entry_ = nullptr;
  std::unique_ptr<const char*[]> string_table_;  // stable char* per pooled literal
  std::unique_ptr<std::string[]> string_storage_;
  std::unique_ptr<const std::vector<CopyLoop>> copy_loops_;  // kCopyLoop targets
};

}  // namespace morph::ecode
