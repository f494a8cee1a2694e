#include "common/env.h"

#include <cstdlib>

namespace monsoon {

std::optional<std::string> EnvString(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  return std::string(value);
}

bool HasEnv(const char* name) { return std::getenv(name) != nullptr; }

uint64_t EnvUint64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  uint64_t parsed = std::strtoull(value, &end, 10);
  if (end == value) return fallback;
  return parsed;
}

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  long parsed = std::strtol(value, &end, 10);
  if (end == value) return fallback;
  return static_cast<int>(parsed);
}

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  double parsed = std::strtod(value, &end);
  if (end == value) return fallback;
  return parsed;
}

}  // namespace monsoon
