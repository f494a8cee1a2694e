#include "fault/injector.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/random.h"
#include "common/sync.h"
#include "obs/metrics.h"

namespace monsoon::fault {

namespace {

// FNV-1a over the point name: stable across platforms, cheap for the short
// dotted names used at fault points.
uint64_t HashName(const char* s) {
  uint64_t h = 1469598103934665603ULL;
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 1099511628211ULL;
  }
  return h;
}

// splitmix64 finalizer — decorrelates the combined (seed, point, coord,
// attempt) key so firing decisions behave like independent coin flips.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Installed configs are immutable and deliberately leaked (a handful per
// process, installed by tests / the harness): a Fire() racing a re-install
// may read the previous config but never a freed one.
Mutex& InstallMutex() {
  static Mutex mu;
  return mu;
}

std::atomic<const FaultConfig*> g_config{nullptr};
std::atomic<bool> g_enabled{false};

bool Matches(const std::string& pattern, const char* name) {
  if (!pattern.empty() && pattern.back() == '*') {
    size_t n = pattern.size() - 1;
    return std::string_view(name).substr(0, n) ==
           std::string_view(pattern).substr(0, n);
  }
  return pattern == name;
}

obs::Counter* FiredCounter() {
  static obs::Counter* const c =
      obs::Registry::Global().GetCounter("faults.fired");
  return c;
}
obs::Counter* RetryCounter() {
  static obs::Counter* const c =
      obs::Registry::Global().GetCounter("faults.retries");
  return c;
}
obs::Counter* FailureCounter() {
  static obs::Counter* const c =
      obs::Registry::Global().GetCounter("faults.failures");
  return c;
}
obs::Counter* BackoffCounter() {
  static obs::Counter* const c =
      obs::Registry::Global().GetCounter("faults.backoff_us");
  return c;
}
obs::Counter* DelayCounter() {
  static obs::Counter* const c =
      obs::Registry::Global().GetCounter("faults.delays");
  return c;
}
obs::Counter* TimeoutCounter() {
  static obs::Counter* const c =
      obs::Registry::Global().GetCounter("faults.udf_timeouts");
  return c;
}

}  // namespace

Status ParseFaultSpec(const std::string& spec, std::vector<PointSpec>* out) {
  out->clear();
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find_first_of(";,", pos);
    if (end == std::string::npos) end = spec.size();
    std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;

    size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("fault spec entry '" + entry +
                                     "' is not pattern=prob[:kind[:param]]");
    }
    PointSpec point;
    point.pattern = entry.substr(0, eq);
    std::string rest = entry.substr(eq + 1);
    std::string prob_str = rest;
    size_t colon = rest.find(':');
    std::string kind_str;
    std::string param_str;
    if (colon != std::string::npos) {
      prob_str = rest.substr(0, colon);
      std::string tail = rest.substr(colon + 1);
      size_t colon2 = tail.find(':');
      if (colon2 != std::string::npos) {
        kind_str = tail.substr(0, colon2);
        param_str = tail.substr(colon2 + 1);
      } else {
        kind_str = tail;
      }
    }
    char* parse_end = nullptr;
    point.probability = std::strtod(prob_str.c_str(), &parse_end);
    if (parse_end == prob_str.c_str() || *parse_end != '\0' ||
        point.probability < 0.0 || point.probability > 1.0) {
      return Status::InvalidArgument("fault spec entry '" + entry +
                                     "': probability must be in [0,1]");
    }
    if (kind_str.empty() || kind_str == "transient") {
      point.kind = FaultKind::kTransient;
    } else if (kind_str == "permanent") {
      point.kind = FaultKind::kPermanent;
    } else if (kind_str == "delay") {
      point.kind = FaultKind::kDelay;
    } else if (kind_str == "throw") {
      point.kind = FaultKind::kThrow;
    } else {
      return Status::InvalidArgument("fault spec entry '" + entry +
                                     "': unknown kind '" + kind_str + "'");
    }
    if (!param_str.empty()) {
      char* param_end = nullptr;
      point.param_ms =
          static_cast<uint64_t>(std::strtoull(param_str.c_str(), &param_end, 10));
      if (param_end == param_str.c_str() || *param_end != '\0') {
        return Status::InvalidArgument("fault spec entry '" + entry +
                                       "': bad param '" + param_str + "'");
      }
    }
    out->push_back(std::move(point));
  }
  return Status::OK();
}

// Every config ever installed, kept reachable for the process lifetime:
// in-flight Fire() calls may still hold a superseded pointer, configs are
// tiny, installs are rare — and parking them here (instead of leaking
// unreachable) keeps LeakSanitizer quiet in the CI fault soak.
std::vector<std::unique_ptr<FaultConfig>>& RetiredConfigs() {
  static auto* retired =
      new std::vector<std::unique_ptr<FaultConfig>>();  // NOLINT(monsoon-raw-new)
  return *retired;
}

FaultConfig BaseConfigFromEnv() {
  FaultConfig base;
  base.seed = EnvUint64("MONSOON_FAULT_SEED", base.seed);
  base.udf_timeout_ms = EnvUint64("MONSOON_UDF_TIMEOUT_MS", base.udf_timeout_ms);
  return base;
}

Status InstallSpec(const std::string& spec, const FaultConfig& base) {
  std::vector<PointSpec> points;
  MONSOON_RETURN_IF_ERROR(ParseFaultSpec(spec, &points));
  MutexLock lock(InstallMutex());
  if (points.empty()) {
    g_enabled.store(false, std::memory_order_release);
    g_config.store(nullptr, std::memory_order_release);
    return Status::OK();
  }
  auto config = std::make_unique<FaultConfig>(base);
  config->points = std::move(points);
  g_config.store(config.get(), std::memory_order_release);
  g_enabled.store(true, std::memory_order_release);
  RetiredConfigs().push_back(std::move(config));
  return Status::OK();
}

void Clear() {
  MutexLock lock(InstallMutex());
  g_enabled.store(false, std::memory_order_release);
  g_config.store(nullptr, std::memory_order_release);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

const FaultConfig* InstalledConfig() {
  return g_config.load(std::memory_order_acquire);
}

bool ShouldFire(uint64_t seed, const char* point, uint64_t coord,
                uint32_t attempt, double probability) {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  uint64_t key = Mix(seed ^ Mix(HashName(point) + coord * 0x9e3779b97f4a7c15ULL +
                                attempt));
  // Top 53 bits → uniform double in [0, 1).
  double draw = static_cast<double>(key >> 11) * 0x1.0p-53;
  return draw < probability;
}

uint64_t BackoffUs(uint64_t seed, const char* point, uint64_t coord,
                   uint32_t attempt, uint32_t base_us) {
  if (base_us == 0 || attempt == 0) return 0;
  // Pcg32 streamed by (point, coord, attempt): per-retry jitter is a pure
  // function of the logical coordinate, never of the executing lane, so
  // the schedule reproduces at any thread count.
  Pcg32 rng(seed ^ HashName(point), coord * 16 + attempt);
  uint64_t backoff = static_cast<uint64_t>(base_us) << (attempt - 1);
  return backoff + rng.NextBounded(base_us);
}

namespace {

// Burns approximately `us` of wall clock without releasing the thread:
// fault-injected delays must keep the lane busy the way a slow UDF would.
void BusyWaitUs(uint64_t us) {
  auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

Status FireMatched(const FaultConfig& config, const PointSpec& point,
                   const char* name, uint64_t coord) {
  switch (point.kind) {
    case FaultKind::kTransient: {
      uint32_t attempt = 0;
      for (;; ++attempt) {
        if (!ShouldFire(config.seed, name, coord, attempt,
                        point.probability)) {
          return Status::OK();
        }
        FiredCounter()->Add(1);
        if (attempt >= config.max_retries) {
          FailureCounter()->Add(1);
          return Status::Unavailable(
              std::string("injected transient fault at ") + name + " coord=" +
              std::to_string(coord) + " persisted after " +
              std::to_string(config.max_retries) + " retries");
        }
        uint64_t backoff =
            BackoffUs(config.seed, name, coord, attempt + 1,
                      config.backoff_base_us);
        RetryCounter()->Add(1);
        BackoffCounter()->Add(backoff);
        if (backoff > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(backoff));
        }
      }
    }
    case FaultKind::kPermanent: {
      if (!ShouldFire(config.seed, name, coord, 0, point.probability)) {
        return Status::OK();
      }
      FiredCounter()->Add(1);
      FailureCounter()->Add(1);
      return Status::Unavailable(std::string("injected permanent fault at ") +
                                 name + " coord=" + std::to_string(coord));
    }
    case FaultKind::kDelay: {
      if (!ShouldFire(config.seed, name, coord, 0, point.probability)) {
        return Status::OK();
      }
      FiredCounter()->Add(1);
      DelayCounter()->Add(1);
      // The timeout verdict is a deterministic comparison of the armed
      // delay against the configured per-call budget — never a measured
      // wall-clock race — so the failure site reproduces across runs and
      // thread counts. Only the allowed portion of the delay is burned.
      if (config.udf_timeout_ms > 0 && point.param_ms >= config.udf_timeout_ms) {
        BusyWaitUs(config.udf_timeout_ms * 1000);
        TimeoutCounter()->Add(1);
        return Status::DeadlineExceeded(
            std::string("injected delay at ") + name + " coord=" +
            std::to_string(coord) + " (" + std::to_string(point.param_ms) +
            "ms) exceeded per-UDF timeout of " +
            std::to_string(config.udf_timeout_ms) + "ms");
      }
      BusyWaitUs(point.param_ms * 1000);
      return Status::OK();
    }
    case FaultKind::kThrow: {
      if (!ShouldFire(config.seed, name, coord, 0, point.probability)) {
        return Status::OK();
      }
      FiredCounter()->Add(1);
      FailureCounter()->Add(1);
      throw std::runtime_error(std::string("injected exception at ") + name +
                               " coord=" + std::to_string(coord));
    }
  }
  return Status::OK();
}

}  // namespace

Status FirePoint(const char* name, uint64_t coord) {
  const FaultConfig* config = InstalledConfig();
  if (config == nullptr) return Status::OK();
  for (const PointSpec& point : config->points) {
    if (!Matches(point.pattern, name)) continue;
    MONSOON_RETURN_IF_ERROR(FireMatched(*config, point, name, coord));
  }
  return Status::OK();
}

Status FireAttempt(const char* name, uint64_t coord, uint32_t attempt) {
  const FaultConfig* config = InstalledConfig();
  if (config == nullptr) return Status::OK();
  for (const PointSpec& point : config->points) {
    if (!Matches(point.pattern, name)) continue;
    switch (point.kind) {
      case FaultKind::kTransient:
        if (ShouldFire(config->seed, name, coord, attempt,
                       point.probability)) {
          FiredCounter()->Add(1);
          return Status::Unavailable(
              std::string("injected transient fault at ") + name + " coord=" +
              std::to_string(coord) + " attempt=" + std::to_string(attempt));
        }
        break;
      case FaultKind::kPermanent:
        // Armed by the attempt-0 draw; once armed it fires on every
        // attempt, so the caller's retry budget exhausts deterministically.
        if (ShouldFire(config->seed, name, coord, 0, point.probability)) {
          FiredCounter()->Add(1);
          return Status::Unavailable(
              std::string("injected permanent fault at ") + name +
              " coord=" + std::to_string(coord));
        }
        break;
      case FaultKind::kDelay:
        if (attempt == 0 &&
            ShouldFire(config->seed, name, coord, 0, point.probability)) {
          FiredCounter()->Add(1);
          DelayCounter()->Add(1);
          if (config->udf_timeout_ms > 0 &&
              point.param_ms >= config->udf_timeout_ms) {
            BusyWaitUs(config->udf_timeout_ms * 1000);
            TimeoutCounter()->Add(1);
            return Status::DeadlineExceeded(
                std::string("injected delay at ") + name + " coord=" +
                std::to_string(coord) + " (" + std::to_string(point.param_ms) +
                "ms) exceeded per-UDF timeout of " +
                std::to_string(config->udf_timeout_ms) + "ms");
          }
          BusyWaitUs(point.param_ms * 1000);
        }
        break;
      case FaultKind::kThrow:
        if (attempt == 0 &&
            ShouldFire(config->seed, name, coord, 0, point.probability)) {
          FiredCounter()->Add(1);
          throw std::runtime_error(std::string("injected exception at ") +
                                   name + " coord=" + std::to_string(coord));
        }
        break;
    }
  }
  return Status::OK();
}

}  // namespace monsoon::fault
