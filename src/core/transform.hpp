// Transform specifications and retro-transformation chains (Figure 1).
//
// A sender associates each new format revision with Ecode that converts a
// record of that revision into the previous one. Transform specs travel
// out-of-band with the format meta-data; the receiver composes chains
// (Rev2 -> Rev1 -> Rev0) and compiles them with dynamic code generation the
// first time a message of a given format arrives (Algorithm 2 line 22).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "ecode/ecode.hpp"
#include "pbio/format.hpp"

namespace morph::core {

/// One retro-transformation: Ecode converting a `src`-format record into a
/// `dst`-format record. Inside the code the destination record is named
/// `dst_param` and the source record `src_param` — "old" and "new" by
/// default, matching the paper's Figure 5.
struct TransformSpec {
  pbio::FormatPtr src;
  pbio::FormatPtr dst;
  std::string code;
  std::string dst_param = "old";
  std::string src_param = "new";

  void serialize(ByteBuffer& out) const;
  static TransformSpec deserialize(ByteReader& in);
};

/// Receiver-side knowledge of available transforms, indexed by source
/// format fingerprint.
class TransformCatalog {
 public:
  void add(TransformSpec spec);
  size_t size() const { return specs_.size(); }

  /// Ft: every format reachable from `from` through transforms, including
  /// `from` itself (Algorithm 2 line 5). Breadth-first, so nearer revisions
  /// come first.
  std::vector<pbio::FormatPtr> closure(const pbio::FormatPtr& from) const;

  /// Shortest transform chain from -> to (by fingerprints). Empty vector
  /// when from == to; nullopt when unreachable.
  std::optional<std::vector<const TransformSpec*>> chain(uint64_t from_fp, uint64_t to_fp) const;

 private:
  std::vector<std::unique_ptr<TransformSpec>> specs_;
  std::unordered_map<uint64_t, std::vector<const TransformSpec*>> by_src_;
};

/// A compiled retro-transformation chain. Each hop is compiled against
/// host-native relayouts of the spec formats (the specs themselves may
/// carry a foreign sender's layouts), so the chain maps a native record of
/// src_format() into a fresh native record of dst_format().
///
/// Chains of two or more hops additionally attempt *fusion* (ecode/fuse.hpp):
/// the hops are rewritten into one Ecode program with the intermediate
/// records replaced by locals, compiled under the same options, and used by
/// apply() so a morph touches no intermediate record at all. Fusion is
/// strictly an optimization — when it bails (fusion_bailout() says why) the
/// hop-wise path runs instead, and apply_hopwise() always remains available
/// as the correctness oracle.
class MorphChain {
 public:
  /// Compile every hop under `options`. With options.verify each hop is
  /// verified (its destination record is always verify parameter 0), and a
  /// hop that fails throws ecode::VerifyError before any native code for the
  /// chain is installed. `fuse` gates the fused-execution attempt; a fused
  /// program that fails to compile or verify silently falls back to hop-wise
  /// execution.
  explicit MorphChain(const std::vector<const TransformSpec*>& specs,
                      const ecode::CompileOptions& options = {}, bool fuse = true);

  const pbio::FormatPtr& src_format() const { return src_fmt_; }
  const pbio::FormatPtr& dst_format() const { return dst_fmt_; }
  size_t hops() const { return steps_.size(); }
  bool jitted() const;

  /// Run the chain — single fused pass when available, hop-wise otherwise.
  /// The returned record (and everything it points to) is allocated from
  /// `arena`.
  void* apply(void* src_record, RecordArena& arena) const;

  /// Run the chain hop by hop, materializing every intermediate record.
  /// This is the reference execution fused output is compared against.
  void* apply_hopwise(void* src_record, RecordArena& arena) const;

  /// True when apply() runs the single fused transform.
  bool fused() const { return fused_.has_value(); }

  /// Why fusion was not used (empty when fused() is true).
  const std::string& fusion_bailout() const { return fusion_bailout_; }

  /// The fused Ecode program (empty unless fused()); diagnostics only.
  const std::string& fused_source() const { return fused_source_; }

  /// Verifier warnings across all hops, in hop order (empty when compiled
  /// without verification). Collected once at compile time.
  const std::vector<ecode::VerifyFinding>& verify_findings() const { return verify_findings_; }

  /// True when any hop had an uncertifiable loop rewritten with a fuel guard.
  bool fuel_instrumented() const;

 private:
  struct Step {
    ecode::Transform transform;
    pbio::FormatPtr dst_fmt;  // host layout
  };
  void attempt_fusion(const std::vector<const TransformSpec*>& specs,
                      const ecode::CompileOptions& options);

  pbio::FormatPtr src_fmt_;  // host layout
  pbio::FormatPtr dst_fmt_;  // host layout
  std::vector<Step> steps_;
  std::optional<ecode::Transform> fused_;
  std::string fused_source_;
  std::string fusion_bailout_;
  std::vector<ecode::VerifyFinding> verify_findings_;
};

}  // namespace morph::core
