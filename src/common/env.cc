#include "common/env.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>

namespace monsoon {

/// What a rejected value should have been, before its range.
template <typename T>
constexpr const char* kKind = std::is_integral_v<T> ? "an integer" : "a number";

template <typename T>
std::optional<T> ParseNumber(std::string_view text, Range<T> range) {
  const char* end = text.data() + text.size();
  T value{};
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  // Written so a NaN fails the range test.
  if (error != std::errc() || stop != end ||
      !(value >= range.lo && value <= range.hi)) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::string> EnvString(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  return std::string(value);
}

template <typename T>
T EnvNumber(const char* name, std::type_identity_t<T> fallback,
            Range<T> range) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  if (std::optional<T> parsed = ParseNumber(value, range)) return *parsed;
  std::cerr << "ignoring " << name << "='" << value << "': expects "
            << kKind<T> << " in [" << range.lo << ", " << range.hi
            << "]; using " << fallback << "\n";
  return fallback;
}

bool FlagValue(const char* arg, const char* name, std::string* value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  *value = arg + len;
  return true;
}

template <typename T>
bool NumericFlag(const char* arg, const char* name, Range<T> range, T* out) {
  std::string value;
  if (!FlagValue(arg, name, &value)) return false;
  std::optional<T> parsed = ParseNumber(value, range);
  if (!parsed.has_value()) {
    // `name` ends in '='.
    std::cerr << std::string_view(name, std::strlen(name) - 1) << " expects "
              << kKind<T> << " in [" << range.lo << ", " << range.hi
              << "], got '" << value << "'\n";
    std::exit(2);
  }
  *out = *parsed;
  return true;
}

#define MONSOON_ENV_INSTANTIATE(T)                                      \
  template std::optional<T> ParseNumber(std::string_view, Range<T>); \
  template T EnvNumber<T>(const char*, T, Range<T>);                 \
  template bool NumericFlag(const char*, const char*, Range<T>, T*);
MONSOON_ENV_INSTANTIATE(int)
MONSOON_ENV_INSTANTIATE(uint16_t)
MONSOON_ENV_INSTANTIATE(int64_t)
MONSOON_ENV_INSTANTIATE(uint64_t)
MONSOON_ENV_INSTANTIATE(double)
#undef MONSOON_ENV_INSTANTIATE

}  // namespace monsoon
