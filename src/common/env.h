#ifndef MONSOON_COMMON_ENV_H_
#define MONSOON_COMMON_ENV_H_

#include <cstdint>
#include <optional>
#include <string>

namespace monsoon {

/// Environment-knob helpers. Every MONSOON_* knob follows the same
/// precedence rule: an explicit option (constructor argument or --flag)
/// wins, then the environment variable, then the compiled-in default.
/// Call sites encode that as `value != sentinel ? value : EnvX(...)`.

/// The raw value of `name`, or nullopt when unset.
std::optional<std::string> EnvString(const char* name);

/// True when `name` is set (even to the empty string).
bool HasEnv(const char* name);

/// Parses `name` as a base-10 unsigned integer; `fallback` when unset or
/// unparseable.
uint64_t EnvUint64(const char* name, uint64_t fallback);

/// Parses `name` as a base-10 signed integer; `fallback` when unset or
/// unparseable.
int EnvInt(const char* name, int fallback);

/// Parses `name` as a floating-point number; `fallback` when unset or
/// unparseable.
double EnvDouble(const char* name, double fallback);

}  // namespace monsoon

#endif  // MONSOON_COMMON_ENV_H_
