#include "util/logging.h"

#include <cstdio>

namespace dna::detail {

void log_line(const char* level, const std::string& message) {
  std::fprintf(stderr, "[dna %s] %s\n", level, message.c_str());
}

}  // namespace dna::detail
