#include "core/transform.hpp"

#include <algorithm>
#include <deque>

#include "common/error.hpp"
#include "ecode/fuse.hpp"
#include "pbio/record.hpp"

namespace morph::core {

using pbio::FormatPtr;

void TransformSpec::serialize(ByteBuffer& out) const {
  if (!src || !dst) throw FormatError("TransformSpec: null formats");
  src->serialize(out);
  dst->serialize(out);
  out.append_string(code);
  out.append_string(dst_param);
  out.append_string(src_param);
}

TransformSpec TransformSpec::deserialize(ByteReader& in) {
  TransformSpec spec;
  spec.src = pbio::FormatDescriptor::deserialize(in);
  spec.dst = pbio::FormatDescriptor::deserialize(in);
  spec.code = in.read_string();
  spec.dst_param = in.read_string();
  spec.src_param = in.read_string();
  if (spec.dst_param.empty() || spec.src_param.empty()) {
    throw DecodeError("TransformSpec: empty parameter names");
  }
  return spec;
}

void TransformCatalog::add(TransformSpec spec) {
  if (!spec.src || !spec.dst) throw FormatError("TransformCatalog: null formats");
  auto owned = std::make_unique<TransformSpec>(std::move(spec));
  by_src_[owned->src->fingerprint()].push_back(owned.get());
  specs_.push_back(std::move(owned));
}

std::vector<FormatPtr> TransformCatalog::closure(const FormatPtr& from) const {
  std::vector<FormatPtr> out;
  std::vector<uint64_t> seen;
  std::deque<FormatPtr> frontier;
  auto visit = [&](const FormatPtr& f) {
    for (uint64_t fp : seen) {
      if (fp == f->fingerprint()) return;
    }
    seen.push_back(f->fingerprint());
    out.push_back(f);
    frontier.push_back(f);
  };
  visit(from);
  while (!frontier.empty()) {
    FormatPtr cur = frontier.front();
    frontier.pop_front();
    auto it = by_src_.find(cur->fingerprint());
    if (it == by_src_.end()) continue;
    for (const TransformSpec* spec : it->second) visit(spec->dst);
  }
  return out;
}

std::optional<std::vector<const TransformSpec*>> TransformCatalog::chain(uint64_t from_fp,
                                                                         uint64_t to_fp) const {
  if (from_fp == to_fp) return std::vector<const TransformSpec*>{};
  // BFS storing the inbound edge per discovered node.
  std::unordered_map<uint64_t, const TransformSpec*> via;
  std::deque<uint64_t> frontier{from_fp};
  via[from_fp] = nullptr;
  while (!frontier.empty()) {
    uint64_t cur = frontier.front();
    frontier.pop_front();
    auto it = by_src_.find(cur);
    if (it == by_src_.end()) continue;
    for (const TransformSpec* spec : it->second) {
      uint64_t next = spec->dst->fingerprint();
      if (via.count(next) != 0) continue;
      via[next] = spec;
      if (next == to_fp) {
        std::vector<const TransformSpec*> path;
        uint64_t walk = to_fp;
        while (walk != from_fp) {
          const TransformSpec* edge = via[walk];
          path.push_back(edge);
          walk = edge->src->fingerprint();
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push_back(next);
    }
  }
  return std::nullopt;
}

MorphChain::MorphChain(const std::vector<const TransformSpec*>& specs,
                       const ecode::CompileOptions& options, bool fuse) {
  if (specs.empty()) throw Error("MorphChain: empty spec list");
  // Every hop writes its destination record (parameter 0) from its source;
  // the caller's dst_params choice does not apply hop-wise.
  ecode::CompileOptions hop_options = options;
  hop_options.dst_params = {0};
  src_fmt_ = pbio::relayout(*specs.front()->src);
  FormatPtr cur = src_fmt_;
  for (size_t i = 0; i < specs.size(); ++i) {
    const TransformSpec* spec = specs[i];
    if (i > 0 && spec->src->fingerprint() != specs[i - 1]->dst->fingerprint()) {
      throw Error("MorphChain: specs do not chain");
    }
    FormatPtr dst = pbio::relayout(*spec->dst);
    Step step{ecode::Transform::compile(
                  spec->code, {{spec->dst_param, dst}, {spec->src_param, cur}}, hop_options),
              dst};
    steps_.push_back(std::move(step));
    cur = dst;
  }
  dst_fmt_ = cur;
  // Findings are immutable once the hops exist; collect them once so
  // verify_findings() can hand out a reference on the hot inspection paths.
  for (const auto& s : steps_) {
    verify_findings_.insert(verify_findings_.end(), s.transform.verify_findings().begin(),
                            s.transform.verify_findings().end());
  }
  if (fuse) {
    attempt_fusion(specs, hop_options);
  } else {
    fusion_bailout_ = "fusion disabled";
  }
}

void MorphChain::attempt_fusion(const std::vector<const TransformSpec*>& specs,
                                const ecode::CompileOptions& options) {
  if (specs.size() < 2) {
    fusion_bailout_ = "single-hop chain";
    return;
  }
  if (fuel_instrumented()) {
    // A fuel-guarded hop has its own per-hop budget; a fused program would
    // share one budget across all hops and give up at a different point.
    fusion_bailout_ = "fuel-instrumented hop";
    return;
  }
  std::vector<ecode::FuseHop> hops;
  hops.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    hops.push_back(ecode::FuseHop{specs[i]->code, specs[i]->dst_param, specs[i]->src_param,
                                  steps_[i].dst_fmt});
  }
  ecode::FuseResult fused = ecode::fuse_chain(hops, *src_fmt_);
  if (!fused.ok) {
    fusion_bailout_ = fused.bailout;
    return;
  }
  try {
    ecode::Transform t = ecode::Transform::compile(
        fused.source,
        {{specs.back()->dst_param, dst_fmt_}, {specs.front()->src_param, src_fmt_}}, options);
    if (t.fuel_instrumented()) {
      // The hops all certified but the fused program did not: running it
      // would introduce a fuel cliff the hop-wise path does not have.
      fusion_bailout_ = "fused program required fuel instrumentation";
      return;
    }
    fused_ = std::move(t);
    fused_source_ = std::move(fused.source);
  } catch (const ecode::VerifyError&) {
    fusion_bailout_ = "fused program failed verification";
  } catch (const EcodeError& e) {
    fusion_bailout_ = std::string("fused program failed to compile: ") + e.what();
  }
}

bool MorphChain::fuel_instrumented() const {
  for (const auto& s : steps_) {
    if (s.transform.fuel_instrumented()) return true;
  }
  return false;
}

bool MorphChain::jitted() const {
  for (const auto& s : steps_) {
    if (!s.transform.jitted()) return false;
  }
  return true;
}

void* MorphChain::apply(void* src_record, RecordArena& arena) const {
  if (fused_) {
    void* dst = pbio::alloc_record(*dst_fmt_, arena);
    fused_->run2(dst, src_record, arena);
    return dst;
  }
  return apply_hopwise(src_record, arena);
}

void* MorphChain::apply_hopwise(void* src_record, RecordArena& arena) const {
  void* cur = src_record;
  for (const auto& step : steps_) {
    void* dst = pbio::alloc_record(*step.dst_fmt, arena);
    step.transform.run2(dst, cur, arena);
    cur = dst;
  }
  return cur;
}

}  // namespace morph::core
