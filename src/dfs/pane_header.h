#ifndef REDOOP_DFS_PANE_HEADER_H_
#define REDOOP_DFS_PANE_HEADER_H_

#include <cstdint>
#include <optional>
#include <vector>

namespace redoop {

/// Locator for one logical pane inside a multi-pane file (paper §3.2,
/// "undersized" case: several panes share one physical file, e.g. S1P1_4).
struct PaneHeaderEntry {
  int64_t pane_id = 0;
  /// Index of the pane's first record within the file.
  int64_t record_offset = 0;
  int64_t record_count = 0;
  /// Logical byte offset/size of the pane within the file.
  int64_t byte_offset = 0;
  int64_t byte_size = 0;
};

/// The special file header Redoop prepends to multi-pane files so an
/// operation needing only some panes can seek directly to them instead of
/// scanning the whole file.
class PaneHeader {
 public:
  PaneHeader() = default;

  /// Appends an entry; pane ids must be added in strictly increasing order.
  void Add(const PaneHeaderEntry& entry);

  /// Binary-searches for `pane_id`; nullopt when the file lacks that pane.
  std::optional<PaneHeaderEntry> Find(int64_t pane_id) const;

  bool Contains(int64_t pane_id) const { return Find(pane_id).has_value(); }

  const std::vector<PaneHeaderEntry>& entries() const { return entries_; }
  size_t pane_count() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Smallest/largest pane id in the header. Requires !empty().
  int64_t first_pane_id() const;
  int64_t last_pane_id() const;

  /// Serialized size of the header itself in logical bytes (counted as
  /// extra I/O when the file is opened).
  int64_t logical_bytes() const;

 private:
  std::vector<PaneHeaderEntry> entries_;
};

}  // namespace redoop

#endif  // REDOOP_DFS_PANE_HEADER_H_
