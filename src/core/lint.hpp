// Morph-plan linter: data-quality audit of transform specs and chains.
//
// The Ecode verifier (ecode/verify.hpp) proves safety — a transform cannot
// read out of bounds, leak uninitialized bytes, or loop forever. This layer
// answers the softer question an operator evolving a format cares about:
// does the morph *lose information*? It compiles each spec's code, runs the
// same abstract interpretation the verifier uses, and audits the store/read
// summaries for lossy narrowing, float truncation, signedness changes,
// source fields the transform silently drops, and destination fields it
// never assigns. Chains are additionally checked for fingerprint gaps and
// cycles.
//
// Lint findings are advisory by design (a morph that drops a field the new
// revision added is often exactly what the operator wants); only specs the
// safety verifier rejects outright produce error-severity findings.
#pragma once

#include <string>
#include <vector>

#include "core/transform.hpp"

namespace morph::core {

enum class LintSeverity : uint8_t { kNote, kWarning, kError };

enum class LintCheck : uint8_t {
  kVerifyError,      // the safety verifier rejected the program
  kUnassignedField,  // destination field never definitely assigned
  kLossyNarrowing,   // wider source value stored into a narrower field
  kFloatTruncation,  // float-derived value stored into an integer field
  kSignChange,       // signedness differs between source load and dest field
  kDroppedField,     // source field never read by the transform
  kChainGap,         // adjacent specs do not connect by fingerprint
  kChainCycle,       // a chain revisits a format revision
  kEmptyFormat,      // format descriptor declares no fields
  kDuplicateField,   // two sibling fields share a name
  kFieldOverlap,     // two sibling fields' byte ranges intersect
  kMissingDefault,   // field has no default for reconciliation to fill
};

const char* lint_check_name(LintCheck c);
const char* lint_severity_name(LintSeverity s);

struct LintFinding {
  LintCheck check = LintCheck::kVerifyError;
  LintSeverity severity = LintSeverity::kNote;
  std::string message;
  std::string field;  // dotted path when the finding names a field
  int line = 0;       // 1-based Ecode source line, 0 = not tied to a line

  std::string to_string() const;
};

struct LintReport {
  std::vector<LintFinding> findings;

  /// True when nothing at or above `fail_at` was found.
  bool ok(LintSeverity fail_at = LintSeverity::kError) const;
  std::string to_string() const;
};

/// Lint one spec. The code is compiled against host-native relayouts of the
/// spec's formats; a spec whose code does not compile (or fails the safety
/// verifier) yields error findings rather than throwing.
LintReport lint_spec(const TransformSpec& spec);

/// Lint a chain: per-hop spec findings (messages prefixed with the hop) plus
/// fingerprint gap/cycle checks across the sequence.
LintReport lint_chain(const std::vector<const TransformSpec*>& specs);

/// Lint a format descriptor that arrived from outside the process (the
/// format service's REGISTER path and the resolver's FETCH path run this
/// before a foreign descriptor enters a registry). The wire deserializer
/// already proves memory safety; this audits data quality: duplicate or
/// overlapping sibling fields (error/warning — a decoder would silently
/// favor one), empty formats, and fields reconciliation could only
/// zero-fill. Nested struct formats are audited recursively with dotted
/// field paths.
LintReport lint_format(const pbio::FormatDescriptor& fmt);

/// Lint the transforms attached to a fetched format against it.
LintReport lint_resolved(const pbio::FormatDescriptor& fmt,
                         const std::vector<TransformSpec>& transforms);

/// What an ingest point does with lint findings: kOff skips the audit, kWarn
/// logs findings and accepts, kEnforce rejects descriptors with
/// error-severity findings (counted in a lint_rejected stat at each ingest
/// point). Lint is advisory data-quality checking; the safety verifier on
/// transform code has no such policy and always runs where peer code is
/// compiled (core/receiver.hpp).
enum class LintPolicy : uint8_t { kOff, kWarn, kEnforce };

const char* lint_policy_name(LintPolicy p);

}  // namespace morph::core
