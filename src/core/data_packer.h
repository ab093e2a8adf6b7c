#ifndef REDOOP_CORE_DATA_PACKER_H_
#define REDOOP_CORE_DATA_PACKER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "core/semantic_analyzer.h"
#include "dfs/dfs.h"
#include "dfs/record.h"

namespace redoop {

/// One pane (or sub-pane, or multi-pane) file the packer materialized in
/// DFS. `file_name` is empty for a pane that completed with zero records
/// (time passed but no data) — no physical file is created for it.
struct PaneFileInfo {
  std::string file_name;
  SourceId source = 0;
  /// Inclusive pane range carried by the file (first == last except for
  /// multi-pane files).
  PaneId first_pane = 0;
  PaneId last_pane = 0;
  bool is_subpane = false;
  int32_t subpane_index = 0;
  int32_t subpane_count = 1;
  int64_t bytes = 0;
  int64_t records = 0;
  Timestamp time_begin = 0;
  Timestamp time_end = 0;
};

/// The Dynamic Data Packer (paper §3.2): consumes ordered batches from one
/// data source as they land and packs their records into pane files in DFS
/// following the Semantic Analyzer's partition plan — one file per pane in
/// the oversize case, several panes per file (with a pane header) in the
/// undersized case, and early sub-pane slices when the adaptive planner has
/// split panes. Pane creation piggybacks on loading: records are routed to
/// pane buffers while the batch is being ingested.
class DynamicDataPacker {
 public:
  /// `dfs` must outlive the packer. `plan.pane_size` fixes this source's
  /// pane grid for the packer's lifetime. `file_namespace` (optional)
  /// prefixes every created DFS file name, so several packers can consume
  /// the same source without name collisions (multi-query operation).
  DynamicDataPacker(Dfs* dfs, SourceId source, PartitionPlan plan,
                    std::string file_namespace = "");

  DynamicDataPacker(const DynamicDataPacker&) = delete;
  DynamicDataPacker& operator=(const DynamicDataPacker&) = delete;

  /// Ingests one batch. Batches must arrive in order with non-overlapping,
  /// contiguous-from-zero time ranges (paper §2.1). Returns every pane /
  /// sub-pane / multi-pane file that became complete and was written. A
  /// rejected batch (out of order, or a record outside its range) buffers
  /// none of its records. Taken by value: a caller done with the batch
  /// moves it in, and its records move into the pane buffers uncopied.
  StatusOr<std::vector<PaneFileInfo>> Ingest(RecordBatch batch);

  /// Declares that no data with timestamp < t is outstanding and emits
  /// everything emittable up to t (window-trigger flush). Also flushes a
  /// partially filled multi-pane buffer whose panes all ended before t.
  std::vector<PaneFileInfo> FlushUpTo(Timestamp t);

  /// Adopts a new plan (adaptive re-partitioning). The pane grid is
  /// immutable: only panes_per_file and subpanes_per_pane may change, and
  /// they affect panes whose emission has not started yet.
  void UpdatePlan(const PartitionPlan& plan);

  const PartitionPlan& plan() const { return plan_; }
  SourceId source() const { return source_; }
  /// All data with timestamp < watermark has been ingested.
  Timestamp watermark() const { return watermark_; }
  /// Panes [0, next) have been fully emitted.
  PaneId next_unemitted_pane() const { return next_pane_; }
  int64_t files_created() const { return files_created_; }

 private:
  struct PendingPane {
    std::vector<Record> records;
    /// Sub-pane slices already emitted (0 = none; pane still whole).
    int32_t subpanes_emitted = 0;
    /// Sub-pane factor latched when the pane's first slice is emitted.
    int32_t subpane_count = 0;
  };

  Timestamp PaneBegin(PaneId p) const { return p * plan_.pane_size; }
  Timestamp PaneEnd(PaneId p) const { return (p + 1) * plan_.pane_size; }

  /// Emits everything allowed by `up_to` into `out`.
  void EmitReady(Timestamp up_to, std::vector<PaneFileInfo>* out);
  /// Writes buffered complete panes as a multi-pane (or single) file.
  void FlushMultiPaneBuffer(std::vector<PaneFileInfo>* out);
  void EmitSubpanes(PaneId pane, Timestamp up_to,
                    std::vector<PaneFileInfo>* out);
  void WritePaneFile(PaneId pane, std::vector<Record> records,
                     std::vector<PaneFileInfo>* out);

  Dfs* dfs_;
  SourceId source_;
  PartitionPlan plan_;
  std::string file_namespace_;
  Timestamp watermark_ = 0;
  PaneId next_pane_ = 0;
  std::map<PaneId, PendingPane> pending_;
  /// Complete panes waiting to be grouped into one multi-pane file
  /// (undersized case).
  std::vector<std::pair<PaneId, std::vector<Record>>> multi_pane_buffer_;
  int64_t files_created_ = 0;
};

}  // namespace redoop

#endif  // REDOOP_CORE_DATA_PACKER_H_
