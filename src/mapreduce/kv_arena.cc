#include "mapreduce/kv_arena.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/task_executor.h"

namespace redoop {

namespace {

/// Three-way lexicographic compare of raw byte ranges (memcmp + length
/// tie-break) — what std::string::compare does, without the strings.
int CompareBytes(std::string_view a, std::string_view b) {
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  const int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
  if (c != 0) return c;
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

}  // namespace

void FlatKvBuffer::Reserve(size_t pairs, size_t bytes) {
  slices_.reserve(pairs);
  if (bytes == 0) return;
  if (chunks_.empty() ||
      chunks_.back().capacity - chunks_.back().used < bytes) {
    OpenChunk(bytes);
  }
}

void FlatKvBuffer::OpenChunk(size_t capacity) {
  Chunk chunk;
  chunk.capacity = capacity;
  chunk.data = std::make_unique_for_overwrite<char[]>(capacity);
  chunks_.push_back(std::move(chunk));
  REDOOP_CHECK(chunks_.size() <= (1ull << 32))
      << "FlatKvBuffer chunk index overflow";
}

uint64_t FlatKvBuffer::Allocate(size_t n) {
  if (chunks_.empty() || chunks_.back().capacity - chunks_.back().used < n) {
    const size_t next =
        chunks_.empty()
            ? kMinChunkSize
            : std::clamp(2 * chunks_.back().capacity, kMinChunkSize,
                         kMaxChunkSize);
    OpenChunk(std::max(n, next));
  }
  Chunk& chunk = chunks_.back();
  REDOOP_CHECK(chunk.used <= (1ull << 32) - n)
      << "FlatKvBuffer intra-chunk offset overflow";
  const uint64_t addr =
      (static_cast<uint64_t>(chunks_.size() - 1) << 32) | chunk.used;
  chunk.used += n;
  return addr;
}

void FlatKvBuffer::Append(std::string_view key, std::string_view value,
                          int32_t logical_bytes) {
  KvSlice slice;
  slice.key_len = static_cast<uint32_t>(key.size());
  slice.value_len = static_cast<uint32_t>(value.size());
  slice.logical_bytes = logical_bytes;
  slice.addr = Allocate(key.size() + value.size());
  char* dst = chunks_[static_cast<size_t>(slice.addr >> 32)].data.get() +
              static_cast<uint32_t>(slice.addr);
  if (!key.empty()) std::memcpy(dst, key.data(), key.size());
  if (!value.empty()) std::memcpy(dst + key.size(), value.data(), value.size());
  slices_.push_back(slice);
  total_logical_bytes_ += logical_bytes;
}

int FlatKvBuffer::Compare(size_t i, const FlatKvBuffer& other,
                          size_t j) const {
  const int c = CompareBytes(key(i), other.key(j));
  if (c != 0) return c;
  return CompareBytes(value(i), other.value(j));
}

bool FlatKvBuffer::IsSorted() const {
  for (size_t i = 1; i < slices_.size(); ++i) {
    if (Compare(i - 1, *this, i) > 0) return false;
  }
  return true;
}

std::vector<uint32_t> FlatKvBuffer::SortedOrder() const {
  std::vector<uint32_t> order(slices_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  SortSliceIndices(*this, order);
  return order;
}

namespace {

/// The strict total order both sort paths realize: prefix, then full
/// (key, value) bytes, then buffer index. Index uniqueness makes this a
/// total order, so any correct sort yields the same permutation.
struct KvEntryLess {
  const FlatKvBuffer* buf;
  bool operator()(const KvSortEntry& a, const KvSortEntry& b) const {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    const int c = buf->Compare(a.index, *buf, b.index);
    if (c != 0) return c < 0;
    return a.index < b.index;  // Stable for equal (key, value).
  }
};

/// Byte histograms for all eight radix passes, filled in one sweep over
/// the entries. counts[b][v] = entries whose prefix byte `b` (b = 0 is the
/// least significant) equals `v`.
struct RadixHistograms {
  uint64_t counts[8][256];
};

/// Builds entries[begin, end) from the index slice and accumulates their
/// prefix bytes into `hist`. Slices are disjoint, so parallel calls touch
/// disjoint entry ranges and private histograms — merging is an addition.
void BuildEntriesAndHistogram(const FlatKvBuffer& buf, const uint32_t* src,
                              KvSortEntry* entries, size_t begin, size_t end,
                              RadixHistograms* hist) {
  std::memset(hist->counts, 0, sizeof(hist->counts));
  for (size_t k = begin; k < end; ++k) {
    const uint32_t index = src[k];
    const uint64_t prefix = buf.prefix(index);
    entries[k].prefix = prefix;
    entries[k].index = index;
    for (int b = 0; b < 8; ++b) {
      ++hist->counts[b][(prefix >> (8 * b)) & 0xFF];
    }
  }
}

/// LSD radix sort of `entries` by prefix: least-significant byte first,
/// stable scatter per pass, passes where every prefix shares the byte are
/// skipped. Afterwards entries are prefix-ordered with equal-prefix runs
/// still in input order; the caller finishes those runs by comparison.
void RadixScatterPasses(std::vector<KvSortEntry>* entries,
                        const RadixHistograms& hist) {
  const size_t n = entries->size();
  std::vector<KvSortEntry> scratch(n);
  KvSortEntry* from = entries->data();
  KvSortEntry* to = scratch.data();
  for (int b = 0; b < 8; ++b) {
    const uint64_t* counts = hist.counts[b];
    uint64_t offsets[256];
    uint64_t sum = 0;
    bool trivial = false;
    for (int v = 0; v < 256; ++v) {
      if (counts[v] == n) trivial = true;
      offsets[v] = sum;
      sum += counts[v];
    }
    if (trivial) continue;  // All prefixes share this byte: identity pass.
    const int shift = 8 * b;
    for (size_t k = 0; k < n; ++k) {
      const KvSortEntry e = from[k];
      to[offsets[(e.prefix >> shift) & 0xFF]++] = e;
    }
    std::swap(from, to);
  }
  if (from != entries->data()) {
    std::memcpy(entries->data(), from, n * sizeof(KvSortEntry));
  }
}

/// Sorts `entries` in place by the full KvEntryLess order via LSD radix on
/// the prefix plus a comparison finish of equal-prefix runs. When
/// `executor` is non-null the entry-build/histogram sweep fans out over
/// worker threads; the per-slice histograms merge by addition in slice
/// order, so the merged counts — and therefore the scatter — are
/// independent of scheduling.
void RadixSortEntries(const FlatKvBuffer& buf, const uint32_t* src,
                      std::vector<KvSortEntry>* entries,
                      exec::TaskExecutor* executor) {
  const size_t n = entries->size();
  RadixHistograms hist;
  // Entries below this per-slice size are not worth a task round-trip.
  constexpr size_t kMinEntriesPerTask = 64 * 1024;
  const size_t max_tasks =
      executor == nullptr
          ? 1
          : std::min<size_t>(
                static_cast<size_t>(executor->thread_count()),
                (n + kMinEntriesPerTask - 1) / kMinEntriesPerTask);
  if (max_tasks <= 1) {
    BuildEntriesAndHistogram(buf, src, entries->data(), 0, n, &hist);
  } else {
    std::vector<RadixHistograms> parts(max_tasks);
    std::vector<exec::TaskFuture<int>> futures;
    futures.reserve(max_tasks);
    const size_t per_task = (n + max_tasks - 1) / max_tasks;
    for (size_t t = 0; t < max_tasks; ++t) {
      const size_t begin = t * per_task;
      const size_t end = std::min(n, begin + per_task);
      KvSortEntry* data = entries->data();
      RadixHistograms* part = &parts[t];
      futures.push_back(executor->Submit([&buf, src, data, begin, end, part] {
        BuildEntriesAndHistogram(buf, src, data, begin, end, part);
        return 0;
      }));
    }
    for (auto& f : futures) f.Wait();
    std::memset(hist.counts, 0, sizeof(hist.counts));
    for (const RadixHistograms& part : parts) {
      for (int b = 0; b < 8; ++b) {
        for (int v = 0; v < 256; ++v) hist.counts[b][v] += part.counts[b][v];
      }
    }
  }
  RadixScatterPasses(entries, hist);
  // Comparison finish: each equal-prefix run is contiguous now; full-byte
  // order and the index tie-break are decided here. The full comparator
  // (not just the tail) keeps this line-for-line the comparison path's
  // order, so outputs match it byte for byte.
  KvSortEntry* data = entries->data();
  size_t i = 0;
  while (i < n) {
    size_t j = i + 1;
    while (j < n && data[j].prefix == data[i].prefix) ++j;
    if (j - i > 1) std::sort(data + i, data + j, KvEntryLess{&buf});
    i = j;
  }
}

}  // namespace

namespace {

void SortSliceEntries(const FlatKvBuffer& buf, std::span<uint32_t> indices,
                      KvSortMode mode, exec::TaskExecutor* executor,
                      std::vector<KvSortEntry>* entries) {
  const size_t n = indices.size();
  const bool radix =
      mode == KvSortMode::kRadix ||
      (mode == KvSortMode::kAuto && n >= kKvRadixSortMinEntries);
  entries->resize(n);
  if (radix) {
    RadixSortEntries(buf, indices.data(), entries, executor);
  } else {
    for (size_t k = 0; k < n; ++k) {
      (*entries)[k].index = indices[k];
      (*entries)[k].prefix = buf.prefix(indices[k]);
    }
    std::sort(entries->begin(), entries->end(), KvEntryLess{&buf});
  }
  for (size_t k = 0; k < n; ++k) indices[k] = (*entries)[k].index;
}

}  // namespace

void SortSliceIndices(const FlatKvBuffer& buf, std::span<uint32_t> indices,
                      std::vector<KvSortEntry>* scratch) {
  std::vector<KvSortEntry> entries;
  SortSliceEntries(buf, indices, KvSortMode::kAuto, nullptr,
                   scratch != nullptr ? scratch : &entries);
}

void SortSliceIndicesWith(const FlatKvBuffer& buf,
                          std::span<uint32_t> indices, KvSortMode mode,
                          exec::TaskExecutor* executor) {
  std::vector<KvSortEntry> entries;
  SortSliceEntries(buf, indices, mode, executor, &entries);
}

FlatKvBuffer FlatKvBuffer::SortedCopy() const {
  const std::vector<uint32_t> order = SortedOrder();
  FlatKvBuffer sorted;
  sorted.Reserve(order.size(), data_bytes());
  for (uint32_t i : order) sorted.AppendFrom(*this, i);
  return sorted;
}

size_t FlatKvBuffer::data_bytes() const {
  size_t total = 0;
  for (const Chunk& chunk : chunks_) total += chunk.used;
  return total;
}

size_t FlatKvBuffer::data_bytes(size_t begin, size_t end) const {
  if (begin == 0 && end == slices_.size()) return data_bytes();
  size_t total = 0;
  for (size_t i = begin; i < end; ++i) {
    total += slices_[i].key_len + slices_[i].value_len;
  }
  return total;
}

void FlatKvBuffer::Clear() {
  chunks_.clear();
  slices_.clear();
  total_logical_bytes_ = 0;
}

std::vector<KeyValue> FlatKvBuffer::ToKeyValues() const {
  std::vector<KeyValue> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) {
    out.emplace_back(std::string(key(i)), std::string(value(i)),
                     logical_bytes(i));
  }
  return out;
}

FlatKvBuffer FlatKvBuffer::FromKeyValues(std::span<const KeyValue> kvs) {
  size_t bytes = 0;
  for (const KeyValue& kv : kvs) bytes += kv.key.size() + kv.value.size();
  FlatKvBuffer buf;
  buf.Reserve(kvs.size(), bytes);
  for (const KeyValue& kv : kvs) buf.Append(kv.key, kv.value, kv.logical_bytes);
  return buf;
}

int64_t FlatKvBuffer::HostBytes() const {
  int64_t total = static_cast<int64_t>(slices_.capacity() * sizeof(KvSlice));
  for (const Chunk& chunk : chunks_) {
    total += static_cast<int64_t>(chunk.capacity);
  }
  return total;
}

namespace {

/// Length of the common prefix of `a` and `b`.
size_t CommonPrefixLength(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

/// Loser tree over flat run heads — the MergeSortedRuns kernel operating
/// on slices. Each run's current head caches the normalized prefix of its
/// key past the `skip_` bytes all keys share, in one dense array, so a
/// match is usually one uint64 compare; a prefix tie compares the head's
/// cached key and value bytes without going back through the buffer.
class FlatLoserTree {
 public:
  explicit FlatLoserTree(std::span<const KvRange> runs)
      : runs_(runs),
        skip_(SharedKeyPrefix(runs)),
        prefixes_(runs.size(), 0),
        heads_(runs.size()) {
    for (size_t r = 0; r < runs_.size(); ++r) {
      if (!runs_[r].empty()) Load(r);
    }
    size_ = 1;
    while (size_ < runs_.size()) size_ <<= 1;
    tree_.assign(2 * size_, kSentinel);
    std::vector<size_t> winner(2 * size_, kSentinel);
    for (size_t i = 0; i < size_; ++i) {
      winner[size_ + i] =
          (i < runs_.size() && !runs_[i].empty()) ? i : kSentinel;
    }
    for (size_t n = size_ - 1; n >= 1; --n) {
      const size_t a = winner[2 * n];
      const size_t b = winner[2 * n + 1];
      if (Beats(a, b)) {
        winner[n] = a;
        tree_[n] = b;
      } else {
        winner[n] = b;
        tree_[n] = a;
      }
      if (n == 1) tree_[0] = winner[1];
    }
    if (size_ == 1) tree_[0] = winner[1];
  }

  bool Done() const { return tree_[0] == kSentinel; }

  /// Appends the smallest head to `out` and advances its run.
  void PopInto(FlatKvBuffer* out) {
    const size_t run = tree_[0];
    const KvRange& range = runs_[run];
    Head& head = heads_[run];
    out->Append(head.key, head.value, range.logical_bytes(head.pos));
    ++head.pos;
    size_t winner = kSentinel;
    if (head.pos < range.size()) {
      Load(run);
      winner = run;
    }
    for (size_t n = (size_ + run) / 2; n >= 1; n /= 2) {
      if (Beats(tree_[n], winner)) std::swap(tree_[n], winner);
    }
    tree_[0] = winner;
  }

 private:
  static constexpr size_t kSentinel = static_cast<size_t>(-1);

  struct Head {
    std::string_view key;
    std::string_view value;
    size_t pos = 0;  // Position in the run.
  };

  /// Caches run `run`'s pair at its head position. Every key is at least
  /// `skip_` bytes long (it starts with the shared prefix), so the cut is
  /// always in range.
  void Load(size_t run) {
    Head& head = heads_[run];
    head.key = runs_[run].key(head.pos);
    head.value = runs_[run].value(head.pos);
    prefixes_[run] = FlatKvBuffer::NormalizedPrefix(head.key.substr(skip_));
  }

  /// True when run `a`'s head wins (strictly smaller (key, value), or
  /// equal with the lower run index — the stability tie-break).
  bool Beats(size_t a, size_t b) const {
    if (a == kSentinel) return false;
    if (b == kSentinel) return true;
    if (prefixes_[a] != prefixes_[b]) return prefixes_[a] < prefixes_[b];
    const Head& ha = heads_[a];
    const Head& hb = heads_[b];
    int c = CompareBytes(ha.key, hb.key);
    if (c == 0) c = CompareBytes(ha.value, hb.value);
    if (c != 0) return c < 0;
    return a < b;
  }

  std::span<const KvRange> runs_;
  size_t skip_ = 0;                 // Key bytes every run shares.
  std::vector<uint64_t> prefixes_;  // Per run: head key prefix past skip_.
  std::vector<Head> heads_;         // Per run: head pair and position.
  std::vector<size_t> tree_;        // [0] = winner; [1..) = losers.
  size_t size_ = 1;                 // Leaf count (power of two).
};

}  // namespace

size_t KvRange::data_bytes() const {
  if (indices_ == nullptr) return buf_->data_bytes(begin_, begin_ + count_);
  size_t total = 0;
  for (size_t k = 0; k < count_; ++k) {
    total += key(k).size() + value(k).size();
  }
  return total;
}

size_t SharedKeyPrefix(std::span<const KvRange> runs) {
  std::string_view anchor;  // The first non-empty run's first key.
  bool any = false;
  size_t shared = 0;
  for (const KvRange& run : runs) {
    if (run.empty()) continue;
    const std::string_view first = run.key(0);
    if (!any) {
      any = true;
      anchor = first;
      shared = first.size();
    }
    const std::string_view last = run.key(run.size() - 1);
    shared = std::min({shared, CommonPrefixLength(first, last),
                       CommonPrefixLength(first, anchor)});
  }
  return shared;
}

FlatKvBuffer MergeFlatRuns(std::span<const KvRange> runs) {
  size_t total = 0;
  size_t total_bytes = 0;
  size_t non_empty = 0;
  const KvRange* last = nullptr;
  for (const KvRange& run : runs) {
    total += run.size();
    total_bytes += run.data_bytes();
    if (!run.empty()) {
      ++non_empty;
      last = &run;
    }
  }
  FlatKvBuffer merged;
  merged.Reserve(total, total_bytes);
  if (non_empty == 0) return merged;
  if (non_empty == 1) {  // Single run: a straight byte copy, no compares.
    for (size_t k = 0; k < last->size(); ++k) {
      merged.AppendFrom(last->buffer(), last->Index(k));
    }
    return merged;
  }
  FlatLoserTree tree(runs);
  while (!tree.Done()) tree.PopInto(&merged);
  return merged;
}

}  // namespace redoop
