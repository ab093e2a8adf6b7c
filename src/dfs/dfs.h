#ifndef REDOOP_DFS_DFS_H_
#define REDOOP_DFS_DFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.h"
#include "common/ids.h"
#include "common/random.h"
#include "common/status.h"
#include "dfs/pane_header.h"
#include "dfs/record.h"
#include "obs/observability.h"

namespace redoop {

/// One replicated HDFS block: a contiguous span of a file's records.
struct Block {
  BlockId id = 0;
  FileId file = 0;
  /// Half-open record-index range [record_begin, record_end) into the file.
  int64_t record_begin = 0;
  int64_t record_end = 0;
  int64_t size_bytes = 0;
  /// Nodes holding a replica (first is the "primary" written replica).
  std::vector<NodeId> replicas;
};

/// A file in the simulated HDFS: block/replica metadata, an optional pane
/// header for multi-pane files, and the records themselves, kept exactly
/// as the writer handed them over.
struct DfsFile {
  FileId id = 0;
  std::string name;
  int64_t size_bytes = 0;
  std::vector<Block> blocks;
  /// Present for multi-pane files created by the Dynamic Data Packer.
  PaneHeader pane_header;
  /// Covered record-timestamp range [time_begin, time_end).
  Timestamp time_begin = 0;
  Timestamp time_end = 0;

  /// The file's records. Never modified after creation: map tasks read
  /// payload files concurrently on executor worker threads.
  const std::vector<Record>& rows() const { return rows_; }

  int64_t record_count() const { return static_cast<int64_t>(rows_.size()); }

 private:
  friend class Dfs;
  std::vector<Record> rows_;
};

struct DfsOptions {
  int64_t block_size_bytes = 64 * kBytesPerMB;
  int32_t replication = 3;
  uint64_t placement_seed = 7;

  /// Keys: dfs.block_size, dfs.replication, dfs.placement_seed.
  static DfsOptions FromConfig(const Config& config);
};

/// Simulated HDFS namenode + datanodes: a flat namespace of replicated
/// block files spread over `num_nodes` storage nodes. Placement follows
/// HDFS's default policy shape (first replica on a rotating "writer" node,
/// remaining replicas on distinct random nodes).
class Dfs {
 public:
  Dfs(int32_t num_nodes, DfsOptions options = DfsOptions());

  Dfs(const Dfs&) = delete;
  Dfs& operator=(const Dfs&) = delete;

  int32_t num_nodes() const { return num_nodes_; }
  const DfsOptions& options() const { return options_; }

  /// Creates a file from `records`, splitting it into blocks and placing
  /// replicas. Fails with AlreadyExists if the name is taken.
  StatusOr<FileId> CreateFile(std::string_view name,
                              std::vector<Record> records,
                              Timestamp time_begin, Timestamp time_end);

  /// As CreateFile, but attaches a pane header (multi-pane files).
  StatusOr<FileId> CreateFileWithHeader(std::string_view name,
                                        std::vector<Record> records,
                                        Timestamp time_begin,
                                        Timestamp time_end,
                                        PaneHeader header);

  bool Exists(std::string_view name) const;

  /// Looks up by name. The pointer stays valid until the file is deleted.
  StatusOr<const DfsFile*> GetFile(std::string_view name) const;
  StatusOr<const DfsFile*> GetFileById(FileId id) const;

  Status DeleteFile(std::string_view name);

  /// All file names with the given prefix, sorted lexicographically.
  std::vector<std::string> ListFiles(std::string_view prefix = "") const;

  /// Nodes currently holding a live replica of `block`.
  std::vector<NodeId> BlockLocations(BlockId block) const;

  /// Marks a node dead: its replicas disappear. Blocks that lose all
  /// replicas become unreadable until ReplicateMissing() or node recovery.
  void OnNodeFailed(NodeId node);

  /// Brings a failed node back (empty: its old replicas are gone).
  void OnNodeRecovered(NodeId node);

  /// Re-replicates under-replicated blocks onto live nodes. Returns the
  /// number of new replicas created.
  int64_t ReplicateMissing();

  /// True if every block of the file has at least one live replica.
  bool IsReadable(const DfsFile& file) const;

  int64_t TotalStoredBytes() const;
  int64_t StoredBytesOnNode(NodeId node) const;
  int64_t file_count() const { return static_cast<int64_t>(by_name_.size()); }

  /// Journal/metrics sink for namespace activity (file create/delete,
  /// node failures, re-replication); null disables emission.
  void set_observability(obs::ObservabilityContext* obs) { obs_ = obs; }

 private:
  void PlaceBlocks(DfsFile* file);
  std::vector<NodeId> ChooseReplicaNodes();
  bool IsAlive(NodeId node) const;

  int32_t num_nodes_;
  DfsOptions options_;
  obs::ObservabilityContext* obs_ = nullptr;
  Random random_;
  NodeId next_writer_ = 0;  // Rotating first-replica target.
  FileId next_file_id_ = 1;
  BlockId next_block_id_ = 1;
  std::map<std::string, FileId> by_name_;
  std::map<FileId, std::unique_ptr<DfsFile>> files_;
  std::vector<bool> node_alive_;
  std::vector<int64_t> node_bytes_;
};

}  // namespace redoop

#endif  // REDOOP_DFS_DFS_H_
