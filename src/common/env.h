#ifndef MONSOON_COMMON_ENV_H_
#define MONSOON_COMMON_ENV_H_

#include <climits>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace monsoon {

/// Numbers from outside the process (command-line flags, MONSOON_*
/// environment variables, fault specs) all go through ParseNumber: the
/// whole text in base 10 (a decimal for double) inside the caller's
/// inclusive range, with no '+', whitespace or trailing characters, and
/// overflow counted as out of range.
///
/// Every knob has the same precedence: an explicit option (constructor
/// argument or --flag), then the environment variable, then the default.
/// A bad flag exits the binary with code 2 before it does any work; a bad
/// variable is reported on stderr and its default used.

/// An inclusive range [lo, hi].
template <typename T>
struct Range {
  T lo;
  T hi;
};

/// The ranges the knobs accept; a variable and its flag twin share one.
/// Threads, shards, server sessions and bench client/thread counts: each
/// unit may become an OS thread.
inline constexpr Range<int> kCountRange{1, 1024};
/// Ports to listen on (0 asks for an ephemeral one) and to connect to.
inline constexpr Range<uint16_t> kListenPortRange{0, 65535};
inline constexpr Range<uint16_t> kConnectPortRange{1, 65535};
inline constexpr Range<int> kNonNegativeIntRange{0, INT_MAX};
inline constexpr Range<int> kPositiveIntRange{1, INT_MAX};
/// Milliseconds and work budgets: at most INT64_MAX / 1000, so a value
/// scales to microseconds without overflow.
inline constexpr Range<uint64_t> kWideRange{0, INT64_MAX / 1000};
inline constexpr Range<uint64_t> kUint64Range{0, UINT64_MAX};
/// SQL numeric literals: every int64 and every finite double.
inline constexpr Range<int64_t> kInt64Range{INT64_MIN, INT64_MAX};
inline constexpr Range<double> kFiniteDoubleRange{
    std::numeric_limits<double>::lowest(), std::numeric_limits<double>::max()};

/// All of `text` as a number in `range`; nullopt otherwise. This and the
/// templates below are defined for int, uint16_t, int64_t, uint64_t and
/// double.
template <typename T>
std::optional<T> ParseNumber(std::string_view text, Range<T> range);

/// The raw value of `name`, or nullopt when unset.
std::optional<std::string> EnvString(const char* name);

/// `name` read by ParseNumber; `fallback` when it is unset or empty. A
/// value ParseNumber rejects is reported on stderr (one line naming the
/// variable, its value and the range) and also gives `fallback`.
template <typename T>
T EnvNumber(const char* name, std::type_identity_t<T> fallback,
            Range<T> range);

/// For main()'s flag loop: true when `arg` is `name` followed by a value
/// ("--port=" matches "--port=80"), which is stored in `*value`.
bool FlagValue(const char* arg, const char* name, std::string* value);

/// FlagValue for a numeric flag, whose value is stored in `*out`. A value
/// ParseNumber rejects prints "--name expects an integer in [lo, hi], got
/// 'v'" and exits the process with code 2.
template <typename T>
bool NumericFlag(const char* arg, const char* name, Range<T> range, T* out);

}  // namespace monsoon

#endif  // MONSOON_COMMON_ENV_H_
