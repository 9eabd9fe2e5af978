// Factories of the workloads, one per driver module.
#ifndef REPOBENCH_WORKLOADS_H_
#define REPOBENCH_WORKLOADS_H_

#include <memory>
#include <string>

#include "bench.h"

namespace repobench {

/// cli_warm, suite_hot or cold_start; null for any other name.
std::unique_ptr<Workload> MakeBatchWorkload(const std::string& name,
                                            const BenchContext& context,
                                            WorkloadInfo* info);

/// serve_mixed; null for any other name.
std::unique_ptr<Workload> MakeServeWorkload(const std::string& name,
                                            const BenchContext& context,
                                            WorkloadInfo* info);

}  // namespace repobench

#endif  // REPOBENCH_WORKLOADS_H_
