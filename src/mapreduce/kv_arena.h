#ifndef REDOOP_MAPREDUCE_KV_ARENA_H_
#define REDOOP_MAPREDUCE_KV_ARENA_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mapreduce/kv.h"

namespace redoop {

namespace exec {
class TaskExecutor;
}  // namespace exec

/// One pair inside a FlatKvBuffer: a packed arena address plus lengths.
/// 24 bytes, no per-pair heap allocation — versus sizeof(KeyValue) == 72
/// plus up to two string heap blocks. The address packs (chunk index <<
/// 32 | byte offset inside the chunk); key bytes start at the address,
/// value bytes follow immediately.
struct KvSlice {
  uint64_t addr = 0;
  uint32_t key_len = 0;
  uint32_t value_len = 0;
  int32_t logical_bytes = 0;
};

/// Compact 16-byte sort entry: the pair's 8-byte big-endian normalized key
/// prefix plus its index in the buffer. Sorting a buffer sorts these —
/// most comparisons are one uint64 compare that never touches the arena;
/// only prefix ties fall back to full byte comparison.
///
/// The normalized prefix is the first 8 key bytes, zero-padded on the
/// right for shorter keys and loaded big-endian so that integer `<` equals
/// lexicographic byte order. Zero padding is order-safe: if key A is a
/// proper prefix of key B, every padded byte of A is 0x00 <= B's real
/// byte, so prefix(A) <= prefix(B) with equality only when the first 8
/// bytes coincide — exactly the ties the fallback resolves. Keys with
/// embedded NULs work for the same reason: a real 0x00 byte and padding
/// compare equal, making the entries tie, and the length-aware fallback
/// then orders "a" before "a\0".
struct KvSortEntry {
  uint64_t prefix = 0;
  uint32_t index = 0;
};

/// Flat, arena-backed KV storage: key/value bytes live contiguously in
/// chunked slabs, pairs are described by KvSlice views. This is the
/// intermediate-pair representation of the execution engine — map output,
/// partition buckets, shuffle runs, merged reduce input, and cache
/// payloads — replacing std::vector<KeyValue> and its two heap strings
/// per pair.
///
/// Mutation model: append-only while building, then published immutably
/// (shared_ptr<const FlatKvBuffer>). Chunk storage never relocates on
/// append, so string_views handed out by key()/value() stay valid for the
/// buffer's lifetime.
class FlatKvBuffer {
 public:
  FlatKvBuffer() = default;
  FlatKvBuffer(FlatKvBuffer&&) noexcept = default;
  FlatKvBuffer& operator=(FlatKvBuffer&&) noexcept = default;
  FlatKvBuffer(const FlatKvBuffer&) = delete;
  FlatKvBuffer& operator=(const FlatKvBuffer&) = delete;

  /// Pre-sizes the slice index (one entry per expected pair) and, when
  /// `bytes` > 0, opens one chunk of exactly `bytes` key+value bytes — a
  /// copy of known size then lands in a single right-sized chunk. Without
  /// a byte reservation chunks grow on demand (see kMinChunkSize).
  void Reserve(size_t pairs, size_t bytes = 0);

  void Append(std::string_view key, std::string_view value,
              int32_t logical_bytes);
  /// Convenience mirroring KeyValue's framing-sized constructor.
  void Append(std::string_view key, std::string_view value) {
    Append(key, value,
           static_cast<int32_t>(key.size() + value.size() + 8));
  }
  /// Copies pair `index` of `other` (bytes and logical size).
  void AppendFrom(const FlatKvBuffer& other, size_t index) {
    Append(other.key(index), other.value(index),
           other.logical_bytes(index));
  }

  size_t size() const { return slices_.size(); }
  bool empty() const { return slices_.empty(); }

  std::string_view key(size_t i) const {
    const KvSlice& s = slices_[i];
    return {ChunkData(s.addr), s.key_len};
  }
  std::string_view value(size_t i) const {
    const KvSlice& s = slices_[i];
    return {ChunkData(s.addr) + s.key_len, s.value_len};
  }
  int32_t logical_bytes(size_t i) const { return slices_[i].logical_bytes; }
  int64_t total_logical_bytes() const { return total_logical_bytes_; }
  /// Key+value bytes held: the sum of every pair's key and value lengths,
  /// i.e. what a copy of this buffer reserves.
  size_t data_bytes() const;

  /// The pair's 8-byte big-endian normalized key prefix (see KvSortEntry).
  uint64_t prefix(size_t i) const { return NormalizedPrefix(key(i)); }

  /// Three-way (key, value) comparison of pair `i` with `other`'s pair
  /// `j` — the byte order every sort/merge in the engine agrees on
  /// (KeyValueLess lifted to slices).
  int Compare(size_t i, const FlatKvBuffer& other, size_t j) const;

  /// True when pairs are non-decreasing under (key, value) — the flat twin
  /// of IsSortedByKey.
  bool IsSorted() const;

  /// Indices of all pairs ordered by (key, value), equal pairs in index
  /// order (stable). Runs the prefix-accelerated sort: entries are 16
  /// bytes, and only prefix ties dereference the arena.
  std::vector<uint32_t> SortedOrder() const;

  /// A new buffer holding this one's pairs in SortedOrder() — bytes are
  /// laid out contiguously in output order, so downstream scans (merge,
  /// grouping) are sequential.
  FlatKvBuffer SortedCopy() const;

  void Clear();

  /// Materialization to the string representation (job results, the
  /// user-facing Reduce adapter, tests).
  KeyValue Get(size_t i) const {
    return KeyValue(std::string(key(i)), std::string(value(i)),
                    logical_bytes(i));
  }
  std::vector<KeyValue> ToKeyValues() const;
  /// Does not reserve: a caller filling one vector from many buffers
  /// reserves the total once (per-call reserves regrow it quadratically).
  void AppendToKeyValues(std::vector<KeyValue>* out) const;
  static FlatKvBuffer FromKeyValues(std::span<const KeyValue> kvs);

  /// Normalized prefix of an arbitrary key (exposed for sort entries built
  /// outside the buffer, e.g. per-run head caches in the merge).
  static uint64_t NormalizedPrefix(std::string_view key) {
    uint64_t p = 0;
    const size_t n = key.size() < 8 ? key.size() : 8;
    for (size_t i = 0; i < n; ++i) {
      p |= static_cast<uint64_t>(static_cast<unsigned char>(key[i]))
           << (56 - 8 * i);
    }
    return p;
  }

  /// Approximate host memory footprint (arena bytes + slice index), for
  /// benchmarks and capacity accounting.
  int64_t HostBytes() const;

 private:
  /// Open-ended growth: the first chunk holds 4 KiB and each new one
  /// doubles its predecessor up to 256 KiB, so a buffer of two pairs pays
  /// for 4 KiB while a large one still amortizes to 256 KiB slabs. A pair
  /// larger than the next chunk gets its own exactly-sized chunk. Chunk
  /// storage is not zero-initialized: nothing may read past `used`.
  static constexpr size_t kMinChunkSize = 4 * 1024;
  static constexpr size_t kMaxChunkSize = 256 * 1024;

  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t capacity = 0;
    size_t used = 0;
  };

  const char* ChunkData(uint64_t addr) const {
    return chunks_[static_cast<size_t>(addr >> 32)].data.get() +
           static_cast<uint32_t>(addr);
  }
  /// Returns the address of `n` fresh bytes, opening a chunk if needed.
  uint64_t Allocate(size_t n);
  void OpenChunk(size_t capacity);

  std::vector<Chunk> chunks_;
  std::vector<KvSlice> slices_;
  int64_t total_logical_bytes_ = 0;
};

/// Sorts `indices` (pairs of `buf`) by (key, value), equal pairs staying
/// in index order — SortedOrder() restricted to a subset. Used by the map
/// path to order one partition's pairs without touching the others.
///
/// Adaptive: large runs go through an LSD radix sort over the 16-byte sort
/// entries (8 histogram+scatter passes on the normalized prefix, then a
/// comparison finish of equal-prefix runs); tiny runs keep the comparison
/// sort, whose constant factor wins below ~1k entries. Both paths order by
/// the same strict total order (prefix, key bytes, value bytes, index), so
/// the output permutation is identical whichever path runs.
void SortSliceIndices(const FlatKvBuffer& buf, std::vector<uint32_t>* indices);

/// Forced sort strategy for SortSliceIndicesWith. kAuto is what
/// SortSliceIndices uses: radix at >= kKvRadixSortMinEntries, comparison
/// below. The forced modes exist for benchmarks and equivalence tests.
enum class KvSortMode { kAuto, kComparison, kRadix };

/// Entry count at which kAuto switches from the comparison sort to radix.
inline constexpr size_t kKvRadixSortMinEntries = 1024;

/// SortSliceIndices with an explicit strategy and an optional executor.
/// With an executor, the radix path builds its byte histograms in parallel
/// (per-thread histograms over disjoint slices, merged additively in slice
/// order) — the scatter passes stay sequential. The executor never changes
/// the output permutation, only wall-clock.
void SortSliceIndicesWith(const FlatKvBuffer& buf,
                          std::vector<uint32_t>* indices, KvSortMode mode,
                          exec::TaskExecutor* executor = nullptr);

/// A lightweight view of a key group inside a FlatKvBuffer: either a
/// contiguous slice [begin, end) (merged reduce input) or an arbitrary
/// index subset (hash-combine groups). This is what flat-aware reducers
/// consume instead of std::span<const KeyValue>.
class KvRange {
 public:
  KvRange(const FlatKvBuffer& buf, size_t begin, size_t end)
      : buf_(&buf), begin_(begin), count_(end - begin) {}
  KvRange(const FlatKvBuffer& buf, std::span<const uint32_t> indices)
      : buf_(&buf), indices_(indices.data()), count_(indices.size()) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::string_view key(size_t k) const { return buf_->key(Index(k)); }
  std::string_view value(size_t k) const { return buf_->value(Index(k)); }
  int32_t logical_bytes(size_t k) const {
    return buf_->logical_bytes(Index(k));
  }
  const FlatKvBuffer& buffer() const { return *buf_; }
  size_t Index(size_t k) const {
    return indices_ == nullptr ? begin_ + k : indices_[k];
  }

 private:
  const FlatKvBuffer* buf_;
  const uint32_t* indices_ = nullptr;  // Null: contiguous from begin_.
  size_t begin_ = 0;
  size_t count_ = 0;
};

/// K-way merge of sorted flat runs into one sorted flat buffer — the
/// loser-tree kernel of MergeSortedRuns ported to slices, with the run
/// heads' normalized key prefixes cached so most matches are decided by
/// one integer compare. Ties (equal key and value) are emitted in run
/// order, then within-run order: the merge is stable with respect to the
/// concatenation order of `runs`, keeping reduce groups deterministic.
FlatKvBuffer MergeFlatRuns(std::span<const FlatKvBuffer* const> runs);

/// Reusable scratch that materializes flat pairs as KeyValue strings for
/// the user-facing Reduce interface. String capacity is recycled across
/// Fill calls, so steady-state grouping does one assign per pair instead
/// of two heap allocations.
class KvGroupScratch {
 public:
  /// Views the group as a KeyValue span (valid until the next Fill or
  /// destruction).
  std::span<const KeyValue> Fill(const KvRange& range);

  /// Reusable key string for the Reduce(const std::string&, ...) call.
  const std::string& KeyFor(std::string_view key) {
    key_.assign(key);
    return key_;
  }

 private:
  KeyValue& Slot(size_t k);

  std::vector<KeyValue> storage_;
  std::string key_;
};

}  // namespace redoop

#endif  // REDOOP_MAPREDUCE_KV_ARENA_H_
