// The data every workload runs on, shared by the benchmark and the tool
// that mined its query pool: the pool is only valid for this exact graph.

#ifndef WIREFRAME_PERFBENCH_DATASET_H_
#define WIREFRAME_PERFBENCH_DATASET_H_

#include <cstdint>

#include "datagen/yago_like.h"

namespace wireframe {
namespace perfbench {

/// YAGO-like graph at scale 0.5, seed 42.
inline YagoLikeConfig BenchDataConfig() {
  YagoLikeConfig config;
  config.scale = 0.5;
  config.seed = 42;
  return config;
}

}  // namespace perfbench
}  // namespace wireframe

#endif  // WIREFRAME_PERFBENCH_DATASET_H_
