#include "workloads/by_name.h"

#include "workloads/imdb.h"
#include "workloads/ott.h"
#include "workloads/tpch.h"
#include "workloads/udfbench.h"

namespace monsoon {

StatusOr<Workload> LoadWorkload(const std::string& name) {
  if (name == "tpch") {
    TpchOptions options;
    options.scale = 0.25;
    return MakeTpchWorkload(options);
  }
  if (name == "imdb") {
    ImdbOptions options;
    options.scale = 0.5;
    return MakeImdbWorkload(options);
  }
  if (name == "ott") return MakeOttWorkload(OttOptions{});
  if (name == "udf") return MakeUdfBenchWorkload(UdfBenchOptions{});
  return Status::InvalidArgument("unknown workload '" + name +
                                 "' (expected tpch|imdb|ott|udf)");
}

}  // namespace monsoon
