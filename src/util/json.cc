#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/error.h"

namespace dna::util {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;  // the key already emitted its comma and colon
  }
  if (!has_member_.empty()) {
    if (has_member_.back()) out_ += ',';
    has_member_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ += '{';
  has_member_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  DNA_CHECK(!has_member_.empty() && !after_key_);
  has_member_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ += '[';
  has_member_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  DNA_CHECK(!has_member_.empty() && !after_key_);
  has_member_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  DNA_CHECK(!has_member_.empty() && !after_key_);
  if (has_member_.back()) out_ += ',';
  has_member_.back() = true;
  out_ += '"';
  out_ += json_escape(name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  separate();
  out_ += '"';
  out_ += json_escape(text);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  separate();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(unsigned long long n) {
  separate();
  out_ += std::to_string(n);
  return *this;
}

JsonWriter& JsonWriter::value(long long n) {
  separate();
  out_ += std::to_string(n);
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  separate();
  if (!std::isfinite(d)) {  // JSON has no inf/nan; null is the convention
    out_ += "null";
    return *this;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), d);
  DNA_CHECK(ec == std::errc());
  out_.append(buf, end);
  return *this;
}

}  // namespace dna::util
