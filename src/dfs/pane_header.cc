#include "dfs/pane_header.h"

#include <algorithm>

#include "common/logging.h"

namespace redoop {

namespace {
// Nominal serialized footprint of one header entry: pane id + offsets.
constexpr int64_t kEntryBytes = 40;
constexpr int64_t kHeaderFixedBytes = 16;
}  // namespace

void PaneHeader::Add(const PaneHeaderEntry& entry) {
  REDOOP_CHECK(entry.record_count >= 0);
  REDOOP_CHECK(entry.byte_size >= 0);
  if (!entries_.empty()) {
    REDOOP_CHECK(entry.pane_id > entries_.back().pane_id)
        << "pane header entries must be added in increasing pane order";
  }
  entries_.push_back(entry);
}

std::optional<PaneHeaderEntry> PaneHeader::Find(int64_t pane_id) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), pane_id,
      [](const PaneHeaderEntry& e, int64_t id) { return e.pane_id < id; });
  if (it == entries_.end() || it->pane_id != pane_id) return std::nullopt;
  return *it;
}

int64_t PaneHeader::first_pane_id() const {
  REDOOP_CHECK(!entries_.empty());
  return entries_.front().pane_id;
}

int64_t PaneHeader::last_pane_id() const {
  REDOOP_CHECK(!entries_.empty());
  return entries_.back().pane_id;
}

int64_t PaneHeader::logical_bytes() const {
  if (entries_.empty()) return 0;  // Plain files carry no header.
  return kHeaderFixedBytes +
         static_cast<int64_t>(entries_.size()) * kEntryBytes;
}

}  // namespace redoop
