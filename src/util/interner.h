// String interning: maps strings to dense 32-bit symbols and back.
//
// Datalog tuples store symbols instead of strings so that tuples stay
// fixed-width and hashing/equality are O(1).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dna {

using Symbol = uint32_t;

/// A bidirectional string <-> Symbol table. Symbols are dense, starting at 0.
/// Not thread-safe; each engine owns its own interner.
class Interner {
 public:
  /// Returns the symbol for `text`, creating one on first sight.
  Symbol intern(std::string_view text);

  /// Returns the symbol for `text` if already interned, else `kNoSymbol`.
  Symbol find(std::string_view text) const;

  /// The string for a previously returned symbol.
  const std::string& str(Symbol sym) const;

  size_t size() const { return strings_.size(); }

  static constexpr Symbol kNoSymbol = ~Symbol{0};

 private:
  std::unordered_map<std::string, Symbol> index_;
  std::vector<std::string> strings_;
};

}  // namespace dna
