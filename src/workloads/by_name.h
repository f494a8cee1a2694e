#ifndef MONSOON_WORKLOADS_BY_NAME_H_
#define MONSOON_WORKLOADS_BY_NAME_H_

#include <string>

#include "common/status.h"
#include "workloads/workload.h"

namespace monsoon {

/// One of the four benchmark databases by name (tpch|imdb|ott|udf), at the
/// interactive sizes the SQL shell and the query server load: TPC-H at
/// scale 0.25, IMDB at 0.5, OTT and the UDF benchmark at their defaults.
/// Any other name is InvalidArgument.
StatusOr<Workload> LoadWorkload(const std::string& name);

}  // namespace monsoon

#endif  // MONSOON_WORKLOADS_BY_NAME_H_
