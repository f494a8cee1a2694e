#include "expr/udf.h"

#include <algorithm>
#include <string_view>

#include "common/hash.h"
#include "common/string_util.h"

namespace monsoon {

UdfRegistry& UdfRegistry::Global() {
  static UdfRegistry* registry = [] {
    auto* r = new UdfRegistry();  // NOLINT(monsoon-raw-new): leaked singleton
    RegisterBuiltinUdfs(*r);
    return r;
  }();
  return *registry;
}

Status UdfRegistry::Register(UdfFunction fn) {
  if (fn.name.empty()) return Status::InvalidArgument("UDF name must be non-empty");
  auto [it, inserted] = fns_.emplace(fn.name, std::move(fn));
  if (!inserted) return Status::AlreadyExists("UDF '" + it->first + "' already registered");
  return Status::OK();
}

void UdfRegistry::RegisterOrReplace(UdfFunction fn) {
  fns_[fn.name] = std::move(fn);
}

StatusOr<const UdfFunction*> UdfRegistry::Lookup(const std::string& name) const {
  auto it = fns_.find(name);
  if (it == fns_.end()) return Status::NotFound("no UDF named '" + name + "'");
  return &it->second;
}

bool UdfRegistry::Contains(const std::string& name) const {
  return fns_.count(name) > 0;
}

std::vector<std::string> UdfRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(fns_.size());
  for (const auto& [name, fn] : fns_) names.push_back(name);
  return names;
}

namespace {

// Extracts the substring between `tag="` and the following '"'.
std::string ExtractField(const std::string& text, const std::string& tag) {
  std::string marker = tag + "=\"";
  size_t pos = text.find(marker);
  if (pos == std::string::npos) return "";
  size_t begin = pos + marker.size();
  size_t end = text.find('"', begin);
  if (end == std::string::npos) return text.substr(begin);
  return text.substr(begin, end - begin);
}

// Canonical form of a comma-separated set: sorted, deduplicated.
std::string CanonicalSet(const std::string& items) {
  std::vector<std::string> parts = SplitString(items, ',');
  for (auto& p : parts) p = std::string(TrimString(p));
  std::sort(parts.begin(), parts.end());
  parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ",";
    out += parts[i];
  }
  return out;
}

}  // namespace

void RegisterBuiltinUdfs(UdfRegistry& registry) {
  registry.RegisterOrReplace(Int64Udf("identity", [](int64_t x) { return x; }));

  registry.RegisterOrReplace(StringUdf(
      "identity_str", [](const std::string& s) -> const std::string& { return s; }));

  for (int64_t buckets : {10, 100, 1000, 10000}) {
    registry.RegisterOrReplace(
        Int64Udf("bucket" + std::to_string(buckets), [buckets](int64_t x) {
          uint64_t h = Mix64(static_cast<uint64_t>(x));
          return static_cast<int64_t>(h % static_cast<uint64_t>(buckets));
        }));
  }

  registry.RegisterOrReplace(StringUdf(
      "extract_id", [](const std::string& doc) { return ExtractField(doc, "id"); }));

  registry.RegisterOrReplace(StringUdf("extract_author", [](const std::string& doc) {
    return ExtractField(doc, "author");
  }));

  registry.RegisterOrReplace(StringUdf("extract_date", [](const std::string& ts) {
    return ts.substr(0, std::min<size_t>(10, ts.size()));
  }));

  registry.RegisterOrReplace(Int64Udf("city_from_ip", [](const std::string& ip) {
    // Deterministic "geo lookup": the first two octets pick the city.
    size_t first_dot = ip.find('.');
    size_t second_dot =
        first_dot == std::string::npos ? std::string::npos : ip.find('.', first_dot + 1);
    std::string_view prefix(ip);
    if (second_dot != std::string::npos) prefix = prefix.substr(0, second_dot);
    return static_cast<int64_t>(HashString(prefix) % 4096);
  }));

  registry.RegisterOrReplace(StringUdf(
      "canonical_set", [](const std::string& items) { return CanonicalSet(items); }));

  registry.RegisterOrReplace(Int64Udf("pair_key", [](int64_t a, int64_t b) {
    uint64_t h = Mix64(static_cast<uint64_t>(a));
    h = HashCombine(h, Mix64(static_cast<uint64_t>(b)));
    return static_cast<int64_t>(h & 0x7fffffffffffffffULL);
  }));

  registry.RegisterOrReplace(
      StringUdf("concat2", [](const std::string& a, const std::string& b) {
        return a + "|" + b;
      }));
}

}  // namespace monsoon
