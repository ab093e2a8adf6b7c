#ifndef RECBENCH_REFERENCE_H_
#define RECBENCH_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "core/recurring_query.h"
#include "mapreduce/kv.h"
#include "workloads.h"

namespace recbench {

/// Fingerprint of a window result as a multiset of (key, value) records:
/// the record count and the wrapping sum of per-record hashes, so results
/// computed piecewise add up to the fingerprint of their union.
struct Digest {
  int64_t records = 0;
  uint64_t hash = 0;

  friend bool operator==(const Digest& a, const Digest& b) {
    return a.records == b.records && a.hash == b.hash;
  }
};

/// The digest of a driver's window result, which must be sorted by
/// (key, value); an unsorted result gets a digest no reference has.
Digest DigestOf(const std::vector<redoop::KeyValue>& sorted_output);

/// The expected results of recurrences [0, n) over `inputs`, computed
/// single-threaded from the query's own map and reduce functions and the
/// algebra its incremental pattern declares, with no engine code: a
/// per-pane-merge query reduces each slide once and merges the window's
/// slide partials; a pane-pair join joins each pair of slides once and
/// takes the window as the union of its slide pairs.
std::vector<Digest> ReferenceDigests(const redoop::RecurringQuery& query,
                                     const Inputs& inputs, int64_t n);

}  // namespace recbench

#endif  // RECBENCH_REFERENCE_H_
