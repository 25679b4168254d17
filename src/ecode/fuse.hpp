// Chain fusion: compose an N-hop transform chain into one Ecode program.
//
// A MorphChain normally materializes one intermediate record per hop.
// fuse_chain rewrites the chain source-to-source into a single program in
// which no intermediate record exists: only the final hop touches a real
// destination record. Each intermediate field gets one of three homes:
//
//  * Forwarded (no storage, no code). The hop writes it exactly once, at
//    its top level, as a verbatim copy `D.f = S.g` of a source field of
//    the same kind and size, before any read of D.f. Every later read of
//    D.f is rewritten to read S.g (resolved recursively down to the
//    original source or an earlier local). Strings forward the source
//    pointer; the final hop's string assignment still copies it, so the
//    output never aliases the input. A dynamic array D.A forwards from
//    S.B when its count field forwards from S.B's length field and every
//    element write sits in one top-level `for (int i = 0; i < S.cnt; i++)`
//    loop (S.cnt the length field of S.B, i not written in the body)
//    whose body only copies `D.A[i].x = S.B[i].x` or `D.A[i] = S.B[i]` with
//    identical element kind and size (the element-copy loop proof of
//    ecode/copyloop.hpp, which the bytecode compiler also uses to run such
//    a loop as one copy op). Later reads `m.A[e].x` must sit in a
//    canonical loop bounded by `m.cnt` with `e` that loop's variable; they
//    read the source array directly.
//  * Local. A scalar that is not a verbatim copy becomes an i64/f64 local.
//    A store to an int4 field truncates to 32 bits and a later read
//    sign-extends, so every assignment to a narrow local is followed by an
//    arithmetic truncation fixup that makes it bit-identical to a real
//    field round-trip.
//  * Dead. A string or array that cannot be forwarded: its writes are
//    dropped, and any read of it makes fusion bail with the reason the
//    forwarding proof failed (conditional write, computed element field,
//    loop not bounded by the length field, element kind or size mismatch,
//    a hop that writes its own source, ...).
//
// The proof is syntactic, on the hops' ASTs. Fusion is best-effort: any
// construct whose single-pass semantics cannot be proven identical to the
// hop-wise execution (struct, static-array or unforwarded float4
// intermediate fields, `return` in a non-final hop, whole-record or
// whole-array uses, truncating writes in a `for` step clause, reads of a
// forwarded array outside its canonical loop) makes fuse_chain bail with a
// reason, and the caller keeps the hop-wise path. Per-element scratch slots
// and merging loops over the same count are out of scope.
#pragma once

#include <string>
#include <vector>

#include "pbio/format.hpp"

namespace morph::ecode {

/// One hop of the chain, in execution order. `dst_fmt` must be the
/// host-native relayout the hop was (or will be) compiled against; for
/// every hop but the last it is the intermediate format that fusion
/// replaces with forwarded reads and locals.
struct FuseHop {
  std::string code;
  std::string dst_param;
  std::string src_param;
  pbio::FormatPtr dst_fmt;
};

struct FuseResult {
  bool ok = false;
  std::string source;   // fused Ecode program (valid only when ok)
  std::string bailout;  // reason fusion was abandoned (valid only when !ok)
};

/// Fuse `hops` into a single two-parameter program: parameter 0 is the
/// final hop's destination (named hops.back().dst_param) and parameter 1
/// the first hop's source (named hops.front().src_param), whose host-native
/// layout is `src_fmt`. Requires at least two hops. Never throws; failures
/// are reported via the result.
FuseResult fuse_chain(const std::vector<FuseHop>& hops, const pbio::FormatDescriptor& src_fmt);

}  // namespace morph::ecode
