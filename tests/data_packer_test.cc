// Unit tests for the Dynamic Data Packer: pane emission, multi-pane files
// with headers, sub-pane (adaptive) emission, flushes, and error handling.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/cluster.h"
#include "core/data_packer.h"
#include "core/pane_naming.h"

namespace redoop {
namespace {

class DataPackerTest : public ::testing::Test {
 protected:
  DataPackerTest() : dfs_(4) {}

  PartitionPlan Plan(Timestamp pane_size, int64_t panes_per_file = 1,
                     int32_t subpanes = 1) {
    PartitionPlan plan;
    plan.pane_size = pane_size;
    plan.panes_per_file = panes_per_file;
    plan.subpanes_per_pane = subpanes;
    return plan;
  }

  RecordBatch Batch(Timestamp begin, Timestamp end, int64_t records_per_sec) {
    RecordBatch batch;
    batch.start = begin;
    batch.end = end;
    for (Timestamp t = begin; t < end; ++t) {
      for (int64_t i = 0; i < records_per_sec; ++i) {
        batch.records.emplace_back(t, "k", "v", 100);
      }
    }
    return batch;
  }

  Dfs dfs_;
};

TEST_F(DataPackerTest, EmitsCompletePaneAsSingleFile) {
  DynamicDataPacker packer(&dfs_, 1, Plan(60));
  auto partial = packer.Ingest(Batch(0, 50, 2));
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(partial->empty()) << "pane 0 open until the watermark hits 60";

  // The batch ending exactly at the pane boundary completes the pane.
  auto files = packer.Ingest(Batch(50, 60, 2));
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 1u);
  const PaneFileInfo& f = files->front();
  EXPECT_EQ(f.file_name, PaneFileName(1, 0));
  EXPECT_EQ(f.first_pane, 0);
  EXPECT_EQ(f.last_pane, 0);
  EXPECT_EQ(f.records, 120);
  EXPECT_FALSE(f.is_subpane);
  EXPECT_TRUE(dfs_.Exists("S1P0"));
  EXPECT_EQ(packer.next_unemitted_pane(), 1);
}

TEST_F(DataPackerTest, RoutesUnorderedRecordsWithinBatch) {
  DynamicDataPacker packer(&dfs_, 1, Plan(10));
  RecordBatch batch;
  batch.start = 0;
  batch.end = 30;
  // Unordered timestamps across three panes.
  for (Timestamp t : {25, 3, 17, 9, 29, 11, 0}) {
    batch.records.emplace_back(t, "k", "v", 10);
  }
  auto files = packer.Ingest(batch);
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 3u) << "watermark 30 completes panes 0..2";
  EXPECT_EQ((*files)[0].records, 3);  // t = 3, 9, 0.
  EXPECT_EQ((*files)[1].records, 2);  // t = 17, 11.
  EXPECT_EQ((*files)[2].records, 2);  // t = 25, 29.
}

TEST_F(DataPackerTest, EmptyPaneReportedWithoutFile) {
  DynamicDataPacker packer(&dfs_, 1, Plan(10));
  RecordBatch batch;
  batch.start = 0;
  batch.end = 25;  // Panes 0,1 complete; no records at all.
  auto files = packer.Ingest(batch);
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 2u);
  EXPECT_TRUE((*files)[0].file_name.empty());
  EXPECT_EQ((*files)[0].first_pane, 0);
  EXPECT_EQ((*files)[1].first_pane, 1);
  EXPECT_EQ(dfs_.file_count(), 0);
}

TEST_F(DataPackerTest, MultiPaneFileCarriesHeader) {
  DynamicDataPacker packer(&dfs_, 2, Plan(10, /*panes_per_file=*/3));
  auto files = packer.Ingest(Batch(0, 40, 1));
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 1u) << "3 complete panes -> one multi-pane file";
  const PaneFileInfo& f = files->front();
  EXPECT_EQ(f.file_name, MultiPaneFileName(2, 0, 2));
  EXPECT_EQ(f.first_pane, 0);
  EXPECT_EQ(f.last_pane, 2);
  const DfsFile* file = *dfs_.GetFile(f.file_name);
  ASSERT_EQ(file->pane_header.pane_count(), 3u);
  // Each pane holds 10 records of 100 bytes.
  for (PaneId p = 0; p < 3; ++p) {
    auto entry = file->pane_header.Find(p);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->record_count, 10);
    EXPECT_EQ(entry->record_offset, p * 10);
    EXPECT_EQ(entry->byte_size, 1000);
  }
  // Header bytes are accounted in the file size.
  EXPECT_GT(file->size_bytes, 3000);
}

TEST_F(DataPackerTest, FlushWritesPartialMultiPaneBuffer) {
  DynamicDataPacker packer(&dfs_, 1, Plan(10, /*panes_per_file=*/4));
  ASSERT_TRUE(packer.Ingest(Batch(0, 20, 1)).ok());  // 2 complete panes.
  EXPECT_EQ(dfs_.file_count(), 0) << "buffer waits for 4 panes";
  auto files = packer.FlushUpTo(20);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files.front().file_name, MultiPaneFileName(1, 0, 1));
}

TEST_F(DataPackerTest, FlushOfSingleBufferedPaneUsesPlainName) {
  DynamicDataPacker packer(&dfs_, 1, Plan(10, /*panes_per_file=*/4));
  ASSERT_TRUE(packer.Ingest(Batch(0, 10, 1)).ok());
  auto files = packer.FlushUpTo(10);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files.front().file_name, PaneFileName(1, 0));
}

TEST_F(DataPackerTest, SubpaneEmission) {
  DynamicDataPacker packer(&dfs_, 1, Plan(60, 1, /*subpanes=*/3));
  // Data arrives in 20-second batches: each completes one sub-slice.
  auto files = packer.Ingest(Batch(0, 20, 1));
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 1u);
  EXPECT_TRUE(files->front().is_subpane);
  EXPECT_EQ(files->front().subpane_index, 0);
  EXPECT_EQ(files->front().subpane_count, 3);
  EXPECT_EQ(files->front().file_name, SubPaneFileName(1, 0, 0));
  EXPECT_EQ(files->front().records, 20);

  files = packer.Ingest(Batch(20, 40, 1));
  ASSERT_EQ(files->size(), 1u);
  EXPECT_EQ(files->front().subpane_index, 1);

  files = packer.Ingest(Batch(40, 60, 1));
  ASSERT_EQ(files->size(), 1u);
  EXPECT_EQ(files->front().subpane_index, 2);
  EXPECT_EQ(packer.next_unemitted_pane(), 1) << "pane complete after last slice";
}

TEST_F(DataPackerTest, SubpaneFactorLatchedPerPane) {
  DynamicDataPacker packer(&dfs_, 1, Plan(60, 1, /*subpanes=*/2));
  ASSERT_TRUE(packer.Ingest(Batch(0, 30, 1)).ok());  // Slice 0 of pane 0.
  // Plan changes mid-pane: pane 0 keeps factor 2; pane 1 uses factor 1.
  packer.UpdatePlan(Plan(60, 1, /*subpanes=*/1));
  auto files = packer.Ingest(Batch(30, 70, 1));
  ASSERT_TRUE(files.ok());
  // Pane 0's second (final) slice was emitted with the latched factor.
  ASSERT_EQ(files->size(), 1u);
  EXPECT_TRUE(files->front().is_subpane);
  EXPECT_EQ(files->front().subpane_index, 1);
  EXPECT_EQ(files->front().subpane_count, 2);

  files = packer.Ingest(Batch(70, 130, 1));
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 1u);
  EXPECT_FALSE(files->front().is_subpane) << "new plan: whole panes";
}

TEST_F(DataPackerTest, RejectsNonContiguousBatch) {
  DynamicDataPacker packer(&dfs_, 1, Plan(10));
  ASSERT_TRUE(packer.Ingest(Batch(0, 10, 1)).ok());
  auto result = packer.Ingest(Batch(20, 30, 1));  // Gap at [10, 20).
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(DataPackerTest, RejectsRecordOutsideBatchRange) {
  DynamicDataPacker packer(&dfs_, 1, Plan(10));
  RecordBatch batch;
  batch.start = 0;
  batch.end = 10;
  batch.records.emplace_back(15, "k", "v", 10);  // Beyond batch end.
  EXPECT_TRUE(packer.Ingest(batch).status().IsInvalidArgument());
}

TEST_F(DataPackerTest, RejectedBatchBuffersNothingSoItsRetryCountsOnce) {
  DynamicDataPacker packer(&dfs_, 1, Plan(10));
  RecordBatch bad = Batch(0, 10, 1);  // One record per second of [0, 10)...
  bad.records.emplace_back(15, "k", "v", 100);  // ...then one beyond it.
  EXPECT_TRUE(packer.Ingest(bad).status().IsInvalidArgument());
  EXPECT_EQ(packer.watermark(), 0);

  auto files = packer.Ingest(Batch(0, 10, 1));  // The corrected retry.
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 1u);
  EXPECT_EQ(files->front().records, 10);
  auto file = dfs_.GetFile(files->front().file_name);
  ASSERT_TRUE(file.ok());
  std::vector<Timestamp> seen;
  for (const Record& r : (*file)->rows()) seen.push_back(r.timestamp);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<Timestamp>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST_F(DataPackerTest, PaneGridIsImmutable) {
  DynamicDataPacker packer(&dfs_, 1, Plan(10));
  EXPECT_DEATH(packer.UpdatePlan(Plan(20)), "immutable");
}

TEST_F(DataPackerTest, FilesCreatedCounterTracks) {
  DynamicDataPacker packer(&dfs_, 1, Plan(10));
  ASSERT_TRUE(packer.Ingest(Batch(0, 35, 1)).ok());
  EXPECT_EQ(packer.files_created(), 3);
}

// ------------------- Pane naming parse round-trips --------------------------

TEST(PaneNamingTest, RoundTrips) {
  auto p1 = ParsePaneFileName(PaneFileName(3, 42));
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->source, 3);
  EXPECT_EQ(p1->first_pane, 42);
  EXPECT_EQ(p1->last_pane, 42);
  EXPECT_FALSE(p1->is_subpane);

  auto p2 = ParsePaneFileName(MultiPaneFileName(1, 5, 9));
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->first_pane, 5);
  EXPECT_EQ(p2->last_pane, 9);

  auto p3 = ParsePaneFileName(SubPaneFileName(2, 7, 3));
  ASSERT_TRUE(p3.has_value());
  EXPECT_TRUE(p3->is_subpane);
  EXPECT_EQ(p3->subpane, 3);
  EXPECT_EQ(p3->first_pane, 7);
}

TEST(PaneNamingTest, RejectsGarbage) {
  EXPECT_FALSE(ParsePaneFileName("hello").has_value());
  EXPECT_FALSE(ParsePaneFileName("S1").has_value());
  EXPECT_FALSE(ParsePaneFileName("S1P2x").has_value());
  EXPECT_FALSE(ParsePaneFileName("").has_value());
}

TEST(PaneNamingTest, CacheNamesAreDistinct) {
  EXPECT_NE(ReduceInputCacheName(1, 1, 2, 3), ReduceOutputCacheName(1, 1, 2, 3));
  EXPECT_NE(JoinOutputCacheName(1, 2, 3, 0), JoinOutputCacheName(1, 3, 2, 0));
}

}  // namespace
}  // namespace redoop
