// Internal: precomputed walk over the pointer-bearing fields of a format.
//
// Both the encoder (flatten + patch offsets) and the in-place decoder
// (offsets back to pointers) visit exactly the string / dynamic-array /
// nested-pointer fields of a format, in declaration order. Building that
// walk once per format keeps both hot paths free of name lookups.
#pragma once

#include <memory>
#include <vector>

#include "pbio/format.hpp"

namespace morph::pbio {

struct VarWalk {
  enum class Action : uint8_t {
    kString,        // char* slot
    kDynArray,      // element pointer slot + out-of-line elements
    kInlineSub,     // nested struct or static struct array with pointers
    kStaticStrings  // static array of char* slots
  };

  struct Var {
    Action action;
    const FieldDescriptor* fd = nullptr;
    const FieldDescriptor* len_fd = nullptr;  // kDynArray only
    bool len_shared = false;                  // len_fd counts another dyn array too
    std::unique_ptr<VarWalk> elem;            // element fix-ups (structs)
    bool elem_is_string = false;              // dyn array of strings
  };

  std::vector<Var> vars;

  /// Build the walk for `fmt`. The walk holds raw FieldDescriptor pointers,
  /// so the caller must keep the FormatDescriptor alive (they always live
  /// in shared_ptr-held descriptors).
  static std::unique_ptr<VarWalk> build(const FormatDescriptor& fmt) {
    auto w = std::make_unique<VarWalk>();
    for (const auto& fd : fmt.fields()) {
      switch (fd.kind) {
        case FieldKind::kString: {
          Var v;
          v.action = Action::kString;
          v.fd = &fd;
          w->vars.push_back(std::move(v));
          break;
        }
        case FieldKind::kDynArray: {
          Var v;
          v.action = Action::kDynArray;
          v.fd = &fd;
          v.len_fd = fmt.find_field(fd.length_field);
          for (const auto& other : fmt.fields()) {
            if (&other != &fd && other.kind == FieldKind::kDynArray &&
                other.length_field == fd.length_field) {
              v.len_shared = true;
            }
          }
          if (fd.element_format && fd.element_format->has_pointers()) {
            v.elem = build(*fd.element_format);
          }
          v.elem_is_string = !fd.element_format && fd.element_kind == FieldKind::kString;
          w->vars.push_back(std::move(v));
          break;
        }
        case FieldKind::kStruct: {
          if (fd.element_format->has_pointers()) {
            Var v;
            v.action = Action::kInlineSub;
            v.fd = &fd;
            v.elem = build(*fd.element_format);
            w->vars.push_back(std::move(v));
          }
          break;
        }
        case FieldKind::kStaticArray: {
          if (fd.element_format && fd.element_format->has_pointers()) {
            Var v;
            v.action = Action::kInlineSub;
            v.fd = &fd;
            v.elem = build(*fd.element_format);
            w->vars.push_back(std::move(v));
          } else if (!fd.element_format && fd.element_kind == FieldKind::kString) {
            Var v;
            v.action = Action::kStaticStrings;
            v.fd = &fd;
            w->vars.push_back(std::move(v));
          }
          break;
        }
        default:
          break;
      }
    }
    return w;
  }
};

}  // namespace morph::pbio
