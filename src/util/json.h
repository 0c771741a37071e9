// A minimal streaming JSON writer.
//
// One serialization helper shared by every machine-readable surface (the
// whatif --json report, the query service's wire responses), so the formats
// cannot drift apart. The writer tracks nesting and comma placement; callers
// just emit keys and values in order:
//
//   JsonWriter json;
//   json.begin_object();
//   json.key("name").value("sweep");
//   json.key("results").begin_array();
//   ...
//   json.end_array().end_object();
//   std::string text = json.str();
//
// Output is compact (no whitespace) and deterministic: identical call
// sequences produce identical bytes. Strings are escaped per RFC 8259;
// doubles use shortest round-trip formatting.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dna::util {

/// Escapes `text` for inclusion inside a JSON string literal (quotes not
/// added). Control characters become \uXXXX.
std::string json_escape(std::string_view text);

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits an object key; must be inside an object, and must be followed by
  /// exactly one value (or container).
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(bool b);
  // One exact overload per standard integer width, so size_t/uint64_t pick
  // a unique best match on every LP64/LLP64 platform (they are different
  // types on some and the same type on others — a single overload is
  // either ambiguous or redundant somewhere).
  JsonWriter& value(unsigned long long n);
  JsonWriter& value(long long n);
  JsonWriter& value(unsigned long n) { return value((unsigned long long)n); }
  JsonWriter& value(long n) { return value((long long)n); }
  JsonWriter& value(unsigned n) { return value((unsigned long long)n); }
  JsonWriter& value(int n) { return value((long long)n); }
  JsonWriter& value(double d);

  /// The serialized document. Valid once every container has been closed.
  const std::string& str() const { return out_; }

 private:
  /// Inserts a comma if the current container already holds a member.
  void separate();

  std::string out_;
  /// Per open container: true once the first member has been written.
  std::vector<bool> has_member_;
  bool after_key_ = false;
};

}  // namespace dna::util
