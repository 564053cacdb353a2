// Seeded input generators for the benchmark workloads. Everything here is
// input making: it runs untimed, and the program under test only ever sees
// the generated datasets and embedding tables.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "tensor/matrix.h"

namespace perfbench {

/// Mixes the benchmark seed with a stream id into a nonzero 64-bit seed
/// (the library's generators treat seed 0 as "use the preset default").
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Training set of a training workload: "gib-gowalla" is the gowalla-sim
/// preset; "lightgcn-large" is the gowalla-sim generator config scaled to
/// 9000 users x 10000 items. Returns false for other workload names.
bool MakeTrainingDataset(const std::string& workload, uint64_t seed,
                         graphaug::Dataset* out);

/// Inputs of the serving workload: community-clustered user and item
/// embeddings with popularity-skewed item norms, popularity-drawn
/// per-user exclusion lists (the dataset's train edges) and a few held-out
/// items per user from the user's own community (its test edges).
struct ServeInputs {
  graphaug::Dataset dataset;
  graphaug::Matrix user_emb;  ///< num_users x dim
  graphaug::Matrix item_emb;  ///< num_items x dim
  std::vector<std::vector<int32_t>> exclude;  ///< per user, sorted
};

/// 20000 users x 50000 items x 32 dims: the 6.4 MB item table is larger
/// than a core's L2 cache.
ServeInputs MakeServeInputs(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
