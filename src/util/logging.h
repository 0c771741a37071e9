// Logging to stderr, one line per message: "[dna WARN] ..." for problems a
// caller can work around, "[dna ERROR] ..." for failures. Every message is
// printed; there is no level to set.
#pragma once

#include <sstream>
#include <string>

namespace dna::detail {
void log_line(const char* level, const std::string& message);
}  // namespace dna::detail

#define DNA_LOG(level, expr)                                \
  do {                                                      \
    std::ostringstream dna_log_stream;                      \
    dna_log_stream << expr;                                 \
    ::dna::detail::log_line(level, dna_log_stream.str());   \
  } while (0)

#define DNA_WARN(expr) DNA_LOG("WARN", expr)
#define DNA_ERROR(expr) DNA_LOG("ERROR", expr)
