#ifndef MONSOON_FAULT_INJECTOR_H_
#define MONSOON_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace monsoon::fault {

/// What an armed fault point does when its per-coordinate draw fires.
enum class FaultKind {
  kTransient,  // returns Unavailable; the injector retries with backoff
  kPermanent,  // returns Unavailable immediately, no retry
  kDelay,      // burns `param_ms` of wall clock; trips the per-UDF timeout
  kThrow,      // throws std::runtime_error (exercises exception capture)
};

/// One armed pattern from a fault spec. `pattern` matches a point name
/// exactly, or as a prefix when it ends in '*'.
struct PointSpec {
  std::string pattern;
  double probability = 0.0;
  FaultKind kind = FaultKind::kTransient;
  uint64_t param_ms = 0;  // kDelay only
};

/// Parsed + installed fault configuration. Immutable once installed.
struct FaultConfig {
  uint64_t seed = 0;
  uint32_t max_retries = 3;
  uint32_t backoff_base_us = 20;
  uint64_t udf_timeout_ms = 0;  // 0 = no per-call timeout
  std::vector<PointSpec> points;
};

/// Parses a fault spec string into `out`. Grammar (whitespace-free):
///
///   spec   := entry (';' entry)* | entry (',' entry)*
///   entry  := pattern '=' prob [':' kind [':' param_ms]]
///   kind   := 'transient' | 'permanent' | 'delay' | 'throw'
///
/// e.g. "exec.udf_eval*=0.01" or
///      "exec.sigma.pass=1:permanent;exec.udf_eval.filter=0.5:delay:40".
/// Probabilities are in [0, 1]. Unknown kinds / malformed entries are
/// InvalidArgument.
Status ParseFaultSpec(const std::string& spec, std::vector<PointSpec>* out);

/// The base config every entry point installs a spec with: defaults, with
/// the seed from MONSOON_FAULT_SEED and the per-UDF-call timeout from
/// MONSOON_UDF_TIMEOUT_MS when they are set.
FaultConfig BaseConfigFromEnv();

/// Parses `spec` and installs it process-wide with the given seed;
/// subsequent MONSOON_FAULT_POINT hits consult it. An empty spec disables
/// injection (same as Clear()). Not thread-safe against concurrent Fire
/// racing the install of the *first* config; install before running
/// queries.
Status InstallSpec(const std::string& spec, const FaultConfig& base);

/// Disables fault injection; MONSOON_FAULT_POINT reverts to a single
/// relaxed load + not-taken branch.
void Clear();

/// True when a non-empty fault config is installed. Single relaxed load —
/// this is the only cost on the disabled path.
bool Enabled();

/// Returns the installed config, or nullptr when disabled.
const FaultConfig* InstalledConfig();

/// Slow path behind MONSOON_FAULT_POINT: looks up `name` in the installed
/// config and, if an armed pattern matches, makes the deterministic
/// per-(seed, point, coord, attempt) firing draw. Transient faults are
/// retried internally with deterministic exponential backoff; the caller
/// only sees the final verdict. `coord` must be a logical coordinate
/// (global row index, MCTS iteration, ...) — never a lane id — so the
/// firing site is identical at every thread count.
Status FirePoint(const char* name, uint64_t coord);

/// Single-draw variant for callers that own their OWN retry schedule (the
/// shard supervisor): makes exactly one firing decision for `attempt` and
/// returns the verdict without retrying or backing off internally. A
/// kTransient point draws at the given attempt, so a kill at attempt 0 can
/// recover on re-execution when the attempt-1 draw misses. A kPermanent
/// point draws at attempt 0 and, once armed, fires on EVERY attempt — a
/// dead shard stays dead until the caller's retry budget exhausts. kDelay
/// and kThrow behave like FirePoint but only on attempt 0. Bumps only the
/// faults.fired counter (and faults.delays/udf_timeouts for kDelay);
/// retry/failure accounting belongs to the caller.
Status FireAttempt(const char* name, uint64_t coord, uint32_t attempt);

/// Pure function of (seed, point, coord, attempt): whether the fault at
/// `point` fires on this attempt. Exposed for the determinism tests.
bool ShouldFire(uint64_t seed, const char* point, uint64_t coord,
                uint32_t attempt, double probability);

/// Deterministic backoff before retry `attempt` (1-based): base << (a-1)
/// plus Pcg32(seed ^ point, coord*kAttempts+a) jitter in [0, base).
/// Exposed for the determinism tests.
uint64_t BackoffUs(uint64_t seed, const char* point, uint64_t coord,
                   uint32_t attempt, uint32_t base_us);

/// Checks a fault point. Zero-cost when injection is disabled (one relaxed
/// load, branch not taken). On a fired, retry-exhausted or permanent
/// fault, returns the error Status from the enclosing function. Use inside
/// functions returning Status (or convertible).
#define MONSOON_FAULT_POINT(name, coord)                                  \
  do {                                                                    \
    if (::monsoon::fault::Enabled()) {                                    \
      ::monsoon::Status _fault_st =                                       \
          ::monsoon::fault::FirePoint(name, (coord));                     \
      if (!_fault_st.ok()) return _fault_st;                              \
    }                                                                     \
  } while (0)

}  // namespace monsoon::fault

#endif  // MONSOON_FAULT_INJECTOR_H_
