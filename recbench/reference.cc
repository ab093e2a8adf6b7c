#include "reference.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "mapreduce/mapper.h"
#include "mapreduce/reducer.h"

namespace recbench {
namespace {

static_assert(kSlide % kBatchInterval == 0 && kWin % kSlide == 0,
              "a window must be a union of whole slides of whole batches");

using Pairs = std::vector<redoop::KeyValue>;

bool KeyLess(const redoop::KeyValue& a, const redoop::KeyValue& b) {
  return a.key < b.key;
}

uint64_t RecordHash(std::string_view key, std::string_view value) {
  uint64_t h = 14695981039346656037ULL;  // FNV-1a over key \0 value.
  for (unsigned char c : key) h = (h ^ c) * 1099511628211ULL;
  h *= 1099511628211ULL;
  for (unsigned char c : value) h = (h ^ c) * 1099511628211ULL;
  h ^= h >> 33;  // Final avalanche so that summed hashes stay spread.
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

Digest DigestOfUnsorted(const Pairs& pairs) {
  Digest digest;
  digest.records = static_cast<int64_t>(pairs.size());
  for (const redoop::KeyValue& kv : pairs) {
    digest.hash += RecordHash(kv.key, kv.value);
  }
  return digest;
}

void AddTo(Digest* total, const Digest& part) {
  total->records += part.records;
  total->hash += part.hash;
}

/// Runs `reducer` on each key group of `pairs`, which must be sorted by
/// key. One context collects every group's output.
Pairs ReduceGroups(const Pairs& pairs, const redoop::Reducer& reducer) {
  redoop::ReduceContext context;
  const std::span<const redoop::KeyValue> all(pairs);
  for (size_t begin = 0; begin < pairs.size();) {
    size_t end = begin + 1;
    while (end < pairs.size() && pairs[end].key == pairs[begin].key) ++end;
    reducer.Reduce(pairs[begin].key, all.subspan(begin, end - begin),
                   &context);
    begin = end;
  }
  return context.TakeOutput();
}

/// The map output of one slide of one source, sorted by key.
Pairs MapSlide(const redoop::Mapper& mapper,
               const std::vector<redoop::RecordBatch>& batches,
               int64_t slide) {
  constexpr int64_t kBatchesPerSlide = kSlide / kBatchInterval;
  redoop::MapContext context;
  for (int64_t b = slide * kBatchesPerSlide;
       b < (slide + 1) * kBatchesPerSlide; ++b) {
    for (const redoop::Record& record :
         batches.at(static_cast<size_t>(b)).records) {
      mapper.Map(record, &context);
    }
  }
  Pairs pairs = context.TakeFlat().ToKeyValues();
  std::sort(pairs.begin(), pairs.end(), KeyLess);
  return pairs;
}

/// Equi-join of two key-sorted slides: the reducer runs on every key both
/// sides share, over the left values followed by the right values. A key
/// seen on one side only joins nothing.
Digest JoinSlides(const Pairs& left, const Pairs& right,
                  const redoop::Reducer& reducer) {
  Digest digest;
  redoop::ReduceContext context;
  Pairs group;
  size_t l = 0;
  size_t r = 0;
  while (l < left.size() && r < right.size()) {
    if (left[l].key < right[r].key) {
      ++l;
    } else if (right[r].key < left[l].key) {
      ++r;
    } else {
      const std::string& key = left[l].key;
      group.clear();
      for (; l < left.size() && left[l].key == key; ++l) group.push_back(left[l]);
      for (; r < right.size() && right[r].key == key; ++r) {
        group.push_back(right[r]);
      }
      reducer.Reduce(key, group, &context);
    }
  }
  const redoop::FlatKvBuffer& out = context.flat();
  digest.records = static_cast<int64_t>(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    digest.hash += RecordHash(out.key(i), out.value(i));
  }
  return digest;
}

[[noreturn]] void Unsupported(const char* why) {
  std::fprintf(stderr, "recbench: no reference for this query: %s\n", why);
  std::exit(3);
}

}  // namespace

Digest DigestOf(const std::vector<redoop::KeyValue>& sorted_output) {
  const bool sorted = std::is_sorted(
      sorted_output.begin(), sorted_output.end(),
      [](const redoop::KeyValue& a, const redoop::KeyValue& b) {
        return a.key != b.key ? a.key < b.key : a.value < b.value;
      });
  if (!sorted) return Digest{-1, 0};
  return DigestOfUnsorted(sorted_output);
}

std::vector<Digest> ReferenceDigests(const redoop::RecurringQuery& query,
                                     const Inputs& inputs, int64_t n) {
  constexpr int64_t kSlidesPerWindow = kWin / kSlide;
  const int64_t slides = n - 1 + kSlidesPerWindow;
  std::vector<Digest> digests;
  digests.reserve(static_cast<size_t>(n));

  if (query.pattern == redoop::IncrementalPattern::kPerPaneMerge) {
    // The pattern declares the reducer a semigroup: each slide is reduced
    // once, and a window merges its slides' partials with the finalizer
    // (the reducer when none is set).
    const redoop::Reducer& merge =
        query.finalizer != nullptr ? *query.finalizer : *query.config.reducer;
    const redoop::QuerySource& source = query.sources.at(0);
    std::deque<Pairs> partials;
    for (int64_t slide = 0; slide < slides; ++slide) {
      partials.push_back(ReduceGroups(
          MapSlide(*query.MapperFor(source.id), inputs.batches.at(source.id),
                   slide),
          *query.config.reducer));
      if (static_cast<int64_t>(partials.size()) < kSlidesPerWindow) continue;
      Pairs window;
      for (const Pairs& p : partials) window.insert(window.end(), p.begin(), p.end());
      std::stable_sort(window.begin(), window.end(), KeyLess);
      digests.push_back(DigestOfUnsorted(ReduceGroups(window, merge)));
      partials.pop_front();
    }
    return digests;
  }

  if (query.pattern != redoop::IncrementalPattern::kPanePairJoin ||
      query.sources.size() != 2 || query.finalizer != nullptr) {
    Unsupported("expected a two-source pane-pair join without finalizer");
  }
  // The pattern declares the window join the union of its slide pairs'
  // joins, so each (left slide, right slide) pair is joined once.
  const redoop::QuerySource& left = query.sources[0];
  const redoop::QuerySource& right = query.sources[1];
  std::map<int64_t, Pairs> left_slides;
  std::map<int64_t, Pairs> right_slides;
  std::map<std::pair<int64_t, int64_t>, Digest> pair_digests;
  for (int64_t slide = 0; slide < slides; ++slide) {
    left_slides[slide] = MapSlide(*query.MapperFor(left.id),
                                  inputs.batches.at(left.id), slide);
    right_slides[slide] = MapSlide(*query.MapperFor(right.id),
                                   inputs.batches.at(right.id), slide);
    const int64_t first = slide + 1 - kSlidesPerWindow;
    if (first < 0) continue;
    Digest window;
    for (int64_t i = first; i <= slide; ++i) {
      for (int64_t j = first; j <= slide; ++j) {
        auto [it, fresh] = pair_digests.try_emplace({i, j});
        if (fresh) {
          it->second = JoinSlides(left_slides[i], right_slides[j],
                                  *query.config.reducer);
        }
        AddTo(&window, it->second);
      }
    }
    digests.push_back(window);
    left_slides.erase(first);
    right_slides.erase(first);
    std::erase_if(pair_digests, [first](const auto& entry) {
      return entry.first.first == first || entry.first.second == first;
    });
  }
  return digests;
}

}  // namespace recbench
