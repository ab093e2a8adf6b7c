// Unit tests for the simulated HDFS: namespace, block splitting, replica
// placement, failures, re-replication, and pane headers.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/random.h"
#include "dfs/dfs.h"
#include "dfs/pane_header.h"

namespace redoop {
namespace {

std::vector<Record> MakeRecords(int64_t count, int32_t bytes_each,
                                Timestamp t0 = 0) {
  std::vector<Record> records;
  for (int64_t i = 0; i < count; ++i) {
    records.emplace_back(t0 + i, "k" + std::to_string(i), "v", bytes_each);
  }
  return records;
}

// The file keeps exactly the records it was created from, in order.
void ExpectRowsEqual(const DfsFile& file, const std::vector<Record>& want) {
  const std::vector<Record>& rows = file.rows();
  ASSERT_EQ(rows.size(), want.size());
  EXPECT_EQ(file.record_count(), static_cast<int64_t>(want.size()));
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(rows[i], want[i]) << "row " << i;
  }
}

DfsOptions SmallBlocks() {
  DfsOptions o;
  o.block_size_bytes = 1024;
  o.replication = 3;
  return o;
}

TEST(DfsTest, CreateAndGet) {
  Dfs dfs(4, SmallBlocks());
  const std::vector<Record> records = MakeRecords(10, 100);
  auto id = dfs.CreateFile("f1", records, 0, 10);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(dfs.Exists("f1"));
  auto file = dfs.GetFile("f1");
  ASSERT_TRUE(file.ok());
  ExpectRowsEqual(**file, records);
  EXPECT_EQ((*file)->size_bytes, 1000) << "empty header adds no bytes";
  EXPECT_EQ((*file)->time_begin, 0);
  EXPECT_EQ((*file)->time_end, 10);
  auto by_id = dfs.GetFileById(*id);
  ASSERT_TRUE(by_id.ok());
  EXPECT_EQ((*by_id)->name, "f1");
}

TEST(DfsTest, RoundTripsRecordsExactly) {
  // Empty fields, out-of-order timestamps, shared key prefixes and the
  // full byte range all come back unchanged.
  Random rng(43);
  auto random_bytes = [&rng](size_t max_len) {
    std::string out(rng.Uniform(max_len + 1), '\0');
    for (char& c : out) c = static_cast<char>(rng.Uniform(256));
    return out;
  };
  std::vector<Record> records;
  records.emplace_back(0, "", "", 0);
  records.emplace_back(100, "sensor-001", "a", 15);
  records.emplace_back(40, "sensor-002", "b", 15);
  records.emplace_back(40, std::string("\xff\x00z", 3), "c", 8);
  for (int i = 0; i < 800; ++i) {
    records.emplace_back(static_cast<Timestamp>(rng.Uniform(100000)),
                         random_bytes(20), random_bytes(30),
                         static_cast<int32_t>(rng.Uniform(1 << 24)));
  }
  Dfs dfs(4, SmallBlocks());
  ASSERT_TRUE(dfs.CreateFile("mixed", records, 0, 100000).ok());
  auto file = dfs.GetFile("mixed");
  ASSERT_TRUE(file.ok());
  ExpectRowsEqual(**file, records);
}

TEST(DfsTest, DuplicateNameRejected) {
  Dfs dfs(4, SmallBlocks());
  ASSERT_TRUE(dfs.CreateFile("f", MakeRecords(1, 10), 0, 1).ok());
  EXPECT_TRUE(dfs.CreateFile("f", MakeRecords(1, 10), 0, 1)
                  .status()
                  .IsAlreadyExists());
}

TEST(DfsTest, MissingFileIsNotFound) {
  Dfs dfs(4, SmallBlocks());
  EXPECT_TRUE(dfs.GetFile("nope").status().IsNotFound());
  EXPECT_TRUE(dfs.DeleteFile("nope").IsNotFound());
}

TEST(DfsTest, BlockSplitting) {
  Dfs dfs(4, SmallBlocks());
  // 10 records x 300 bytes = 3000 bytes over 1024-byte blocks -> records
  // are grouped until each block reaches >= 1024 bytes (4 records each).
  ASSERT_TRUE(dfs.CreateFile("f", MakeRecords(10, 300), 0, 10).ok());
  const DfsFile* file = *dfs.GetFile("f");
  ASSERT_GE(file->blocks.size(), 2u);
  // Blocks tile the record range exactly.
  int64_t expected_begin = 0;
  for (const Block& b : file->blocks) {
    EXPECT_EQ(b.record_begin, expected_begin);
    expected_begin = b.record_end;
    EXPECT_GT(b.size_bytes, 0);
  }
  EXPECT_EQ(expected_begin, 10);
}

TEST(DfsTest, EmptyFileGetsOneEmptyBlock) {
  Dfs dfs(4, SmallBlocks());
  ASSERT_TRUE(dfs.CreateFile("empty", {}, 0, 0).ok());
  const DfsFile* file = *dfs.GetFile("empty");
  EXPECT_EQ(file->blocks.size(), 1u);
  EXPECT_EQ(file->blocks[0].size_bytes, 0);
}

TEST(DfsTest, ReplicationFactorHonored) {
  Dfs dfs(5, SmallBlocks());
  ASSERT_TRUE(dfs.CreateFile("f", MakeRecords(20, 300), 0, 20).ok());
  const DfsFile* file = *dfs.GetFile("f");
  for (const Block& b : file->blocks) {
    EXPECT_EQ(b.replicas.size(), 3u);
    std::set<NodeId> unique(b.replicas.begin(), b.replicas.end());
    EXPECT_EQ(unique.size(), 3u) << "replicas must be on distinct nodes";
  }
}

TEST(DfsTest, ReplicationCappedByClusterSize) {
  Dfs dfs(2, SmallBlocks());
  ASSERT_TRUE(dfs.CreateFile("f", MakeRecords(4, 300), 0, 4).ok());
  for (const Block& b : (*dfs.GetFile("f"))->blocks) {
    EXPECT_EQ(b.replicas.size(), 2u);
  }
}

TEST(DfsTest, DeleteReleasesBytes) {
  Dfs dfs(4, SmallBlocks());
  ASSERT_TRUE(dfs.CreateFile("f", MakeRecords(10, 300), 0, 10).ok());
  EXPECT_GT(dfs.TotalStoredBytes(), 0);
  ASSERT_TRUE(dfs.DeleteFile("f").ok());
  EXPECT_EQ(dfs.TotalStoredBytes(), 0);
  EXPECT_FALSE(dfs.Exists("f"));
}

TEST(DfsTest, ListFilesByPrefix) {
  Dfs dfs(4, SmallBlocks());
  ASSERT_TRUE(dfs.CreateFile("S1P1", MakeRecords(1, 10), 0, 1).ok());
  ASSERT_TRUE(dfs.CreateFile("S1P2", MakeRecords(1, 10), 1, 2).ok());
  ASSERT_TRUE(dfs.CreateFile("S2P1", MakeRecords(1, 10), 0, 1).ok());
  EXPECT_EQ(dfs.ListFiles("S1").size(), 2u);
  EXPECT_EQ(dfs.ListFiles().size(), 3u);
  EXPECT_EQ(dfs.ListFiles("S3").size(), 0u);
}

TEST(DfsTest, NodeFailureDropsReplicasButDataSurvives) {
  Dfs dfs(5, SmallBlocks());
  ASSERT_TRUE(dfs.CreateFile("f", MakeRecords(20, 300), 0, 20).ok());
  dfs.OnNodeFailed(0);
  const DfsFile* file = *dfs.GetFile("f");
  for (const Block& b : file->blocks) {
    for (NodeId n : b.replicas) EXPECT_NE(n, 0);
    EXPECT_GE(b.replicas.size(), 2u);
  }
  EXPECT_TRUE(dfs.IsReadable(*file));
  EXPECT_EQ(dfs.StoredBytesOnNode(0), 0);
}

TEST(DfsTest, ReplicateMissingRestoresFactor) {
  Dfs dfs(5, SmallBlocks());
  ASSERT_TRUE(dfs.CreateFile("f", MakeRecords(20, 300), 0, 20).ok());
  dfs.OnNodeFailed(0);
  const int64_t created = dfs.ReplicateMissing();
  EXPECT_GT(created, 0);
  for (const Block& b : (*dfs.GetFile("f"))->blocks) {
    EXPECT_EQ(b.replicas.size(), 3u);
  }
}

TEST(DfsTest, LosingAllReplicasMakesFileUnreadable) {
  DfsOptions o = SmallBlocks();
  o.replication = 1;
  Dfs dfs(3, o);
  ASSERT_TRUE(dfs.CreateFile("f", MakeRecords(4, 300), 0, 4).ok());
  dfs.OnNodeFailed(0);
  dfs.OnNodeFailed(1);
  dfs.OnNodeFailed(2);
  EXPECT_DEATH(dfs.CreateFile("g", MakeRecords(1, 1), 0, 1).ok(),
               "no live DFS nodes");
}

TEST(DfsTest, RecoveredNodeStartsEmpty) {
  Dfs dfs(3, SmallBlocks());
  ASSERT_TRUE(dfs.CreateFile("f", MakeRecords(10, 300), 0, 10).ok());
  dfs.OnNodeFailed(1);
  dfs.OnNodeRecovered(1);
  EXPECT_EQ(dfs.StoredBytesOnNode(1), 0);
  // New files may again place replicas there.
  ASSERT_TRUE(dfs.CreateFile("g", MakeRecords(10, 300), 0, 10).ok());
}

TEST(DfsTest, BlockLocationsReflectLiveReplicas) {
  Dfs dfs(4, SmallBlocks());
  ASSERT_TRUE(dfs.CreateFile("f", MakeRecords(4, 300), 0, 4).ok());
  const Block& b = (*dfs.GetFile("f"))->blocks[0];
  EXPECT_EQ(dfs.BlockLocations(b.id).size(), 3u);
  dfs.OnNodeFailed(b.replicas[0]);
  EXPECT_EQ(dfs.BlockLocations(b.id).size(), 2u);
  EXPECT_TRUE(dfs.BlockLocations(999999).empty());
}

// --------------------------- PaneHeader ------------------------------------

TEST(PaneHeaderTest, FindByBinarySearch) {
  PaneHeader h;
  h.Add({10, 0, 5, 0, 500});
  h.Add({11, 5, 3, 500, 300});
  h.Add({13, 8, 2, 800, 200});
  ASSERT_TRUE(h.Contains(11));
  EXPECT_EQ(h.Find(11)->record_offset, 5);
  EXPECT_EQ(h.Find(13)->byte_size, 200);
  EXPECT_FALSE(h.Find(12).has_value());
  EXPECT_EQ(h.first_pane_id(), 10);
  EXPECT_EQ(h.last_pane_id(), 13);
  EXPECT_EQ(h.pane_count(), 3u);
}

TEST(PaneHeaderTest, RequiresIncreasingPaneIds) {
  PaneHeader h;
  h.Add({5, 0, 1, 0, 10});
  EXPECT_DEATH(h.Add({5, 1, 1, 10, 10}), "increasing");
}

TEST(PaneHeaderTest, LogicalBytesGrowWithEntries) {
  PaneHeader small, large;
  small.Add({1, 0, 1, 0, 1});
  for (int64_t i = 0; i < 10; ++i) large.Add({i, 0, 1, 0, 1});
  EXPECT_GT(large.logical_bytes(), small.logical_bytes());
}

TEST(DfsTest, FileWithHeaderKeepsIt) {
  Dfs dfs(4, SmallBlocks());
  PaneHeader header;
  header.Add({0, 0, 5, 0, 500});
  header.Add({1, 5, 5, 500, 500});
  const std::vector<Record> records = MakeRecords(10, 100);
  ASSERT_TRUE(
      dfs.CreateFileWithHeader("multi", records, 0, 2, std::move(header))
          .ok());
  const DfsFile* file = *dfs.GetFile("multi");
  EXPECT_EQ(file->pane_header.pane_count(), 2u);
  EXPECT_EQ(file->pane_header.Find(1)->record_offset, 5);
  // Both panes' records, whole and in order behind the header.
  ExpectRowsEqual(*file, records);
}

}  // namespace
}  // namespace redoop
