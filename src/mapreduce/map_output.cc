#include "mapreduce/map_output.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <string_view>

namespace redoop {

namespace {

/// FNV-1a over key bytes — the hash-combine table hash. Any hash works:
/// group *iteration* order is first-occurrence order, never table order,
/// so the hash choice is unobservable in the output.
uint64_t HashKeyBytes(std::string_view key) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr uint32_t kNoSlot = static_cast<uint32_t>(-1);

/// A combine-group member: its buffer index plus its value's normalized
/// 8-byte prefix and length, read while the pair's bytes are hot, so
/// ordering a group by (value, index) rarely goes back to the arena.
struct Member {
  uint64_t value_prefix = 0;
  uint32_t value_len = 0;
  uint32_t index = 0;
};

/// (value bytes, buffer index) order. Equal prefixes of values no longer
/// than 8 bytes mean one value is the other zero-padded, so the shorter
/// (a proper prefix) sorts first; longer values compare their bytes.
bool MemberLess(const FlatKvBuffer& flat, const Member& a, const Member& b) {
  if (a.value_prefix != b.value_prefix) return a.value_prefix < b.value_prefix;
  if (a.value_len > 8 || b.value_len > 8) {
    const int c = flat.value(a.index).compare(flat.value(b.index));
    if (c != 0) return c < 0;
  } else if (a.value_len != b.value_len) {
    return a.value_len < b.value_len;
  }
  return a.index < b.index;
}

/// A combine group: the positions of one key's pairs, chained through
/// CombineScratch::next in arrival order.
struct Group {
  uint64_t hash = 0;
  uint32_t head = 0;  // First position in idx (defines the group key).
  uint32_t tail = 0;
};

/// CombinePartition's working memory, reused across a map task's
/// partitions: a partition allocates only when it outgrows the largest
/// one before it.
struct CombineScratch {
  std::vector<uint32_t> table;  // slot -> group id
  std::vector<Group> groups;
  std::vector<uint32_t> next;   // Intrusive chain of each group's positions.
  std::vector<Member> by_pos;
  std::vector<Member> sorted;
  std::vector<uint32_t> members;
};

/// Map-side combine over one partition's pairs (`idx`, in emission order)
/// without sorting the raw pairs first: an open-addressing hash table
/// groups equal keys and the combiner runs per group, appending to `out`
/// in group order; the caller sorts only the (smaller) combined output.
/// Determinism does not depend on the hash: groups are visited in
/// first-occurrence order and each group's members are ordered by (value,
/// emission index) — exactly the sequence a sort-then-scan combine would
/// present.
void CombinePartition(const FlatKvBuffer& flat, std::span<const uint32_t> idx,
                      const Reducer* combiner, CombineScratch* scratch,
                      ReduceContext* out) {
  if (idx.empty()) return;
  // Table capacity: power of two, load factor <= 0.5.
  size_t cap = 16;
  while (cap < idx.size() * 2) cap <<= 1;
  std::vector<uint32_t>& table = scratch->table;
  std::vector<Group>& groups = scratch->groups;
  std::vector<uint32_t>& next = scratch->next;
  std::vector<Member>& by_pos = scratch->by_pos;
  table.assign(cap, kNoSlot);
  groups.clear();
  next.assign(idx.size(), kNoSlot);
  by_pos.resize(idx.size());
  for (uint32_t pos = 0; pos < static_cast<uint32_t>(idx.size()); ++pos) {
    const std::string_view key = flat.key(idx[pos]);
    const std::string_view value = flat.value(idx[pos]);
    by_pos[pos].value_prefix = FlatKvBuffer::NormalizedPrefix(value);
    by_pos[pos].value_len = static_cast<uint32_t>(value.size());
    by_pos[pos].index = idx[pos];
    const uint64_t h = HashKeyBytes(key);
    size_t slot = h & (cap - 1);
    while (true) {
      if (table[slot] == kNoSlot) {
        table[slot] = static_cast<uint32_t>(groups.size());
        Group g;
        g.hash = h;
        g.head = g.tail = pos;
        groups.push_back(g);
        break;
      }
      Group& g = groups[table[slot]];
      if (g.hash == h && flat.key(idx[g.head]) == key) {
        next[g.tail] = pos;
        g.tail = pos;
        break;
      }
      slot = (slot + 1) & (cap - 1);
    }
  }
  std::vector<Member>& sorted = scratch->sorted;
  std::vector<uint32_t>& members = scratch->members;
  for (const Group& g : groups) {
    sorted.clear();
    for (uint32_t pos = g.head;; pos = next[pos]) {
      sorted.push_back(by_pos[pos]);
      if (pos == g.tail) break;
    }
    // Members share the key; order them by (value, emission index) so the
    // combiner sees the same sequence a scan of the sorted partition would.
    std::sort(sorted.begin(), sorted.end(),
              [&flat](const Member& a, const Member& b) {
                return MemberLess(flat, a, b);
              });
    members.clear();
    for (const Member& m : sorted) members.push_back(m.index);
    combiner->ReduceFlat(flat.key(members.front()), KvRange(flat, members),
                         out);
  }
}

}  // namespace

MapOutput BuildMapOutput(const FlatKvBuffer& emitted,
                         const Partitioner& partitioner,
                         int32_t num_partitions, const Reducer* combiner) {
  MapOutput out;
  out.partitions.resize(static_cast<size_t>(num_partitions));
  // Partition by slice, straight off the arena: one counting pass sizes
  // the partitions, a stable scatter groups the pair indices by partition
  // in emission order, and the bytes are copied exactly once — into their
  // sorted (or combined) place in the output.
  std::vector<uint32_t> pair_partition(emitted.size());
  size_t data_bytes = 0;
  for (size_t i = 0; i < emitted.size(); ++i) {
    const std::string_view key = emitted.key(i);
    const int32_t p = partitioner.Partition(key, num_partitions);
    pair_partition[i] = static_cast<uint32_t>(p);
    MapOutput::Partition& part = out.partitions[static_cast<size_t>(p)];
    ++part.end;  // Count for now; becomes the slice end below.
    part.logical_bytes += emitted.logical_bytes(i);
    data_bytes += key.size() + emitted.value(i).size();
  }
  uint32_t offset = 0;
  for (MapOutput::Partition& part : out.partitions) {
    part.begin = offset;
    offset += part.end;
    part.end = part.begin;  // The scatter's fill cursor.
  }
  std::vector<uint32_t> order(emitted.size());
  for (size_t i = 0; i < emitted.size(); ++i) {
    order[out.partitions[pair_partition[i]].end++] = static_cast<uint32_t>(i);
  }

  // The pairs the output is laid out from: the emitted ones, or with a
  // combiner their combined groups.
  const FlatKvBuffer* source = &emitted;
  ReduceContext combined;
  if (combiner != nullptr) {
    // Map-side combine: key groups collapse before the spill/shuffle, each
    // partition's groups appended to `combined` in partition order, and
    // every index entry is re-pointed at its combined run.
    CombineScratch scratch;
    for (MapOutput::Partition& part : out.partitions) {
      const std::span<const uint32_t> slice(order.data() + part.begin,
                                            part.end - part.begin);
      const int64_t bytes_before = combined.flat().total_logical_bytes();
      part.begin = static_cast<uint32_t>(combined.flat().size());
      CombinePartition(emitted, slice, combiner, &scratch, &combined);
      part.end = static_cast<uint32_t>(combined.flat().size());
      part.logical_bytes = combined.flat().total_logical_bytes() - bytes_before;
    }
    source = &combined.flat();
    order.resize(source->size());
    std::iota(order.begin(), order.end(), uint32_t{0});
    data_bytes = source->data_bytes();
  }
  std::vector<KvSortEntry> sort_scratch;
  for (const MapOutput::Partition& part : out.partitions) {
    if (part.end - part.begin > 1) {
      SortSliceIndices(*source,
                       std::span<uint32_t>(order.data() + part.begin,
                                           part.end - part.begin),
                       &sort_scratch);
    }
  }
  out.pairs.Reserve(order.size(), data_bytes);
  for (const uint32_t i : order) out.pairs.AppendFrom(*source, i);
  return out;
}

}  // namespace redoop
