#ifndef REDOOP_MAPREDUCE_MAP_OUTPUT_H_
#define REDOOP_MAPREDUCE_MAP_OUTPUT_H_

#include <cstdint>
#include <vector>

#include "mapreduce/kv_arena.h"
#include "mapreduce/partitioner.h"
#include "mapreduce/reducer.h"

namespace redoop {

/// One map task's output in the layout of Hadoop's spill file and its
/// index: every pair in one FlatKvBuffer sorted by (partition, key,
/// value), plus one index entry per reduce partition naming its slice. A
/// reduce task reads its partition as a KvRange of this buffer; nothing is
/// copied or sorted again on the way to the merge.
struct MapOutput {
  struct Partition {
    uint32_t begin = 0;  // Slice [begin, end) of `pairs`.
    uint32_t end = 0;
    int64_t logical_bytes = 0;  // Simulated size of the slice.
  };

  FlatKvBuffer pairs;
  std::vector<Partition> partitions;  // One per reduce partition.

  KvRange Range(int32_t partition) const {
    const Partition& p = partitions[static_cast<size_t>(partition)];
    return KvRange(pairs, p.begin, p.end);
  }
};

/// Lays out a map task's emitted pairs (`emitted`, in emission order) as a
/// MapOutput. Each partition's pairs are sorted by (key, value), equal
/// pairs in emission order, over one index array whose partition slices
/// are sorted in turn (SortSliceIndices). With a `combiner`, key groups
/// collapse first via a hash table over the raw pairs and only the
/// combined pairs are sorted; partitions are appended in partition order.
MapOutput BuildMapOutput(const FlatKvBuffer& emitted,
                         const Partitioner& partitioner,
                         int32_t num_partitions, const Reducer* combiner);

}  // namespace redoop

#endif  // REDOOP_MAPREDUCE_MAP_OUTPUT_H_
