#ifndef DISC_PERFBENCH_ORACLE_H_
#define DISC_PERFBENCH_ORACLE_H_

// Reference DBSCAN for the benchmark's correctness checks, written apart
// from the program: it shares only the Point and snapshot value types.
// Neighbourhoods come from an exact all-pairs distance test (pairs are
// visited in a sweep along the first coordinate, which skips only pairs
// whose first coordinates already differ by more than eps). Cores hold at
// least tau points within eps, themselves included; clusters are the
// connected components of the core eps-graph; a border is a non-core with
// an adjacent core and must carry the cluster of one such core.

#include <cstdint>
#include <string>
#include <vector>

#include "common/point.h"
#include "stream/stream_clusterer.h"

namespace perfbench {

// Empty when `snapshot` is a correct DBSCAN labeling of `window` (cluster
// ids compared up to renaming), else a description of the first
// disagreement found.
std::string CheckDbscan(const std::vector<disc::Point>& window, double eps,
                        std::uint32_t tau,
                        const disc::ClusteringSnapshot& snapshot);

// Feeds the oracle three corrupted copies of a labeling it accepts: one
// core moved to another cluster, one window point dropped, one border
// given a cluster none of its adjacent cores carries. Empty when the
// oracle accepts the original and rejects every corruption.
std::string SelfTestOracle(const std::vector<disc::Point>& window, double eps,
                           std::uint32_t tau,
                           const disc::ClusteringSnapshot& snapshot);

// True when both snapshots hold the same ids and categories and their
// cluster ids induce the same partition.
bool ClusteringEqual(const disc::ClusteringSnapshot& a,
                     const disc::ClusteringSnapshot& b);

}  // namespace perfbench

#endif  // DISC_PERFBENCH_ORACLE_H_
