#include "core/data_packer.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/string_utils.h"
#include "core/pane_naming.h"
#include "dfs/pane_header.h"

namespace redoop {

DynamicDataPacker::DynamicDataPacker(Dfs* dfs, SourceId source,
                                     PartitionPlan plan,
                                     std::string file_namespace)
    : dfs_(dfs),
      source_(source),
      plan_(plan),
      file_namespace_(std::move(file_namespace)) {
  REDOOP_CHECK(dfs_ != nullptr);
  REDOOP_CHECK(plan_.pane_size > 0);
  REDOOP_CHECK(plan_.panes_per_file >= 1);
  REDOOP_CHECK(plan_.subpanes_per_pane >= 1);
}

StatusOr<std::vector<PaneFileInfo>> DynamicDataPacker::Ingest(
    RecordBatch batch) {
  if (batch.start != watermark_) {
    return Status::InvalidArgument(StringPrintf(
        "batch time range [%ld,%ld) does not continue watermark %ld",
        batch.start, batch.end, watermark_));
  }
  if (batch.end < batch.start) {
    return Status::InvalidArgument("batch end precedes start");
  }
  // Tuples within a batch are unordered, but must lie inside the batch
  // range. The whole batch is checked before any record is buffered, so a
  // rejected batch leaves nothing behind for its retry to duplicate.
  for (const Record& r : batch.records) {
    if (r.timestamp < batch.start || r.timestamp >= batch.end) {
      return Status::InvalidArgument(StringPrintf(
          "record timestamp %ld outside batch range [%ld,%ld)", r.timestamp,
          batch.start, batch.end));
    }
  }
  // Route records to pane buffers (piggybacked on loading, §3.2).
  for (Record& r : batch.records) {
    const PaneId p = r.timestamp / plan_.pane_size;
    REDOOP_CHECK(p >= next_pane_);
    pending_[p].records.push_back(std::move(r));
  }
  watermark_ = batch.end;

  std::vector<PaneFileInfo> emitted;
  EmitReady(watermark_, &emitted);
  return emitted;
}

std::vector<PaneFileInfo> DynamicDataPacker::FlushUpTo(Timestamp t) {
  std::vector<PaneFileInfo> emitted;
  if (t > watermark_) watermark_ = t;
  EmitReady(t, &emitted);
  // A window trigger must not leave complete panes stranded in the
  // multi-pane buffer: flush it if anything is pending.
  if (!multi_pane_buffer_.empty()) FlushMultiPaneBuffer(&emitted);
  return emitted;
}

void DynamicDataPacker::UpdatePlan(const PartitionPlan& plan) {
  REDOOP_CHECK(plan.pane_size == plan_.pane_size)
      << "the pane grid is immutable; adaptive plans change only "
         "panes_per_file / subpanes_per_pane";
  REDOOP_CHECK(plan.panes_per_file >= 1);
  REDOOP_CHECK(plan.subpanes_per_pane >= 1);
  plan_ = plan;
}

void DynamicDataPacker::EmitReady(Timestamp up_to,
                                  std::vector<PaneFileInfo>* out) {
  while (true) {
    const PaneId p = next_pane_;
    const Timestamp pane_end = PaneEnd(p);
    auto it = pending_.find(p);
    PendingPane* pane = it == pending_.end() ? nullptr : &it->second;

    // Determine/latch the sub-pane factor for this pane.
    const bool subpane_started = pane != nullptr && pane->subpanes_emitted > 0;
    const int32_t factor =
        subpane_started ? pane->subpane_count : plan_.subpanes_per_pane;

    if (factor > 1 && up_to < pane_end) {
      // Adaptive mode: emit early sub-slices of the still-open pane.
      EmitSubpanes(p, up_to, out);
      return;  // Pane not complete yet; nothing further can be emitted.
    }
    if (up_to < pane_end) return;  // Head pane still open.

    // Pane p is complete.
    if (factor > 1) {
      // Finish any remaining sub-slices, then the pane is done (sub-pane
      // emission bypasses multi-pane packing: fine granularity wins).
      EmitSubpanes(p, pane_end, out);
      if (pane != nullptr) pending_.erase(p);
      ++next_pane_;
      continue;
    }

    std::vector<Record> records;
    if (pane != nullptr) {
      records = std::move(pane->records);
      pending_.erase(it);
    }
    ++next_pane_;
    if (records.empty()) {
      // Empty pane: report completion without a physical file.
      PaneFileInfo info;
      info.source = source_;
      info.first_pane = p;
      info.last_pane = p;
      info.time_begin = PaneBegin(p);
      info.time_end = pane_end;
      out->push_back(std::move(info));
      continue;
    }
    if (plan_.panes_per_file <= 1) {
      WritePaneFile(p, std::move(records), out);
    } else {
      multi_pane_buffer_.emplace_back(p, std::move(records));
      if (static_cast<int64_t>(multi_pane_buffer_.size()) >=
          plan_.panes_per_file) {
        FlushMultiPaneBuffer(out);
      }
    }
  }
}

void DynamicDataPacker::EmitSubpanes(PaneId pane_id, Timestamp up_to,
                                     std::vector<PaneFileInfo>* out) {
  PendingPane& pane = pending_[pane_id];
  if (pane.subpane_count == 0) pane.subpane_count = plan_.subpanes_per_pane;
  const int32_t k = pane.subpane_count;
  const Timestamp begin = PaneBegin(pane_id);
  const Timestamp slice = plan_.pane_size / k;  // k <= pane_size by CHECK.
  REDOOP_CHECK(slice > 0) << "subpane factor exceeds pane resolution";

  while (pane.subpanes_emitted < k) {
    const int32_t j = pane.subpanes_emitted;
    const Timestamp sub_begin = begin + j * slice;
    const Timestamp sub_end =
        j == k - 1 ? PaneEnd(pane_id) : sub_begin + slice;
    if (up_to < sub_end) return;  // Slice still open.

    std::vector<Record> slice_records;
    auto& records = pane.records;
    auto mid = std::partition(records.begin(), records.end(),
                              [sub_end](const Record& r) {
                                return r.timestamp >= sub_end;
                              });
    slice_records.assign(std::make_move_iterator(mid),
                         std::make_move_iterator(records.end()));
    records.erase(mid, records.end());
    ++pane.subpanes_emitted;

    PaneFileInfo info;
    info.source = source_;
    info.first_pane = pane_id;
    info.last_pane = pane_id;
    info.is_subpane = true;
    info.subpane_index = j;
    info.subpane_count = k;
    info.time_begin = sub_begin;
    info.time_end = sub_end;
    info.records = static_cast<int64_t>(slice_records.size());
    info.bytes = TotalLogicalBytes(slice_records);
    if (!slice_records.empty()) {
      info.file_name = file_namespace_ + SubPaneFileName(source_, pane_id, j);
      auto created = dfs_->CreateFile(info.file_name, std::move(slice_records),
                                      sub_begin, sub_end);
      REDOOP_CHECK(created.ok()) << created.status().ToString();
      ++files_created_;
    }
    out->push_back(std::move(info));
  }
}

void DynamicDataPacker::WritePaneFile(PaneId pane,
                                      std::vector<Record> records,
                                      std::vector<PaneFileInfo>* out) {
  PaneFileInfo info;
  info.source = source_;
  info.first_pane = pane;
  info.last_pane = pane;
  info.time_begin = PaneBegin(pane);
  info.time_end = PaneEnd(pane);
  info.records = static_cast<int64_t>(records.size());
  info.bytes = TotalLogicalBytes(records);
  info.file_name = file_namespace_ + PaneFileName(source_, pane);
  auto created = dfs_->CreateFile(info.file_name, std::move(records),
                                  info.time_begin, info.time_end);
  REDOOP_CHECK(created.ok()) << created.status().ToString();
  ++files_created_;
  out->push_back(std::move(info));
}

void DynamicDataPacker::FlushMultiPaneBuffer(std::vector<PaneFileInfo>* out) {
  REDOOP_CHECK(!multi_pane_buffer_.empty());
  if (multi_pane_buffer_.size() == 1) {
    // A single buffered pane degrades to the plain one-pane file.
    auto [pane, records] = std::move(multi_pane_buffer_.front());
    multi_pane_buffer_.clear();
    WritePaneFile(pane, std::move(records), out);
    return;
  }
  const PaneId first = multi_pane_buffer_.front().first;
  const PaneId last = multi_pane_buffer_.back().first;

  PaneHeader header;
  std::vector<Record> all_records;
  int64_t record_offset = 0;
  int64_t byte_offset = 0;
  for (auto& [pane, records] : multi_pane_buffer_) {
    PaneHeaderEntry entry;
    entry.pane_id = pane;
    entry.record_offset = record_offset;
    entry.record_count = static_cast<int64_t>(records.size());
    entry.byte_offset = byte_offset;
    entry.byte_size = TotalLogicalBytes(records);
    header.Add(entry);
    record_offset += entry.record_count;
    byte_offset += entry.byte_size;
    std::move(records.begin(), records.end(), std::back_inserter(all_records));
  }

  PaneFileInfo info;
  info.source = source_;
  info.first_pane = first;
  info.last_pane = last;
  info.time_begin = PaneBegin(first);
  info.time_end = PaneEnd(last);
  info.records = record_offset;
  info.bytes = byte_offset + header.logical_bytes();
  info.file_name = file_namespace_ + MultiPaneFileName(source_, first, last);
  auto created = dfs_->CreateFileWithHeader(
      info.file_name, std::move(all_records), info.time_begin, info.time_end,
      std::move(header));
  REDOOP_CHECK(created.ok()) << created.status().ToString();
  ++files_created_;
  multi_pane_buffer_.clear();
  out->push_back(std::move(info));
}

}  // namespace redoop
