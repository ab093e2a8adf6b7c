#include "dfs/dfs.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/string_utils.h"

namespace redoop {

DfsOptions DfsOptions::FromConfig(const Config& config) {
  DfsOptions o;
  o.block_size_bytes = config.GetInt("dfs.block_size", o.block_size_bytes);
  o.replication = static_cast<int32_t>(
      config.GetInt("dfs.replication", o.replication));
  o.placement_seed = static_cast<uint64_t>(
      config.GetInt("dfs.placement_seed", static_cast<int64_t>(o.placement_seed)));
  return o;
}

Dfs::Dfs(int32_t num_nodes, DfsOptions options)
    : num_nodes_(num_nodes),
      options_(options),
      random_(options.placement_seed),
      node_alive_(static_cast<size_t>(num_nodes), true),
      node_bytes_(static_cast<size_t>(num_nodes), 0) {
  REDOOP_CHECK(num_nodes > 0);
  REDOOP_CHECK(options_.block_size_bytes > 0);
  REDOOP_CHECK(options_.replication > 0);
}

StatusOr<FileId> Dfs::CreateFile(std::string_view name,
                                 std::vector<Record> records,
                                 Timestamp time_begin, Timestamp time_end) {
  return CreateFileWithHeader(name, std::move(records), time_begin, time_end,
                              PaneHeader());
}

StatusOr<FileId> Dfs::CreateFileWithHeader(std::string_view name,
                                           std::vector<Record> records,
                                           Timestamp time_begin,
                                           Timestamp time_end,
                                           PaneHeader header) {
  if (by_name_.count(std::string(name)) > 0) {
    return Status::AlreadyExists(StringPrintf(
        "dfs file already exists: %.*s", static_cast<int>(name.size()),
        name.data()));
  }
  auto file = std::make_unique<DfsFile>();
  file->id = next_file_id_++;
  file->name = std::string(name);
  file->size_bytes = TotalLogicalBytes(records) + header.logical_bytes();
  file->pane_header = std::move(header);
  file->time_begin = time_begin;
  file->time_end = time_end;
  file->rows_ = std::move(records);
  PlaceBlocks(file.get());

  const FileId id = file->id;
  by_name_[file->name] = id;
  DfsFile* stored = file.get();
  files_[id] = std::move(file);
  if (obs_ != nullptr) {
    obs_->metrics().Increment(obs::metric::kDfsFilesCreated);
    obs_->metrics().Increment(obs::metric::kDfsBytesWritten,
                              stored->size_bytes);
    obs_->Emit(obs::event::kDfsFileCreate)
        .With("file", stored->name)
        .With("bytes", stored->size_bytes)
        .With("blocks", static_cast<int64_t>(stored->blocks.size()))
        .With("records", stored->record_count());
  }
  return id;
}

void Dfs::PlaceBlocks(DfsFile* file) {
  const std::vector<Record>& records = file->rows_;
  const int64_t block_size = options_.block_size_bytes;
  const int64_t record_count = static_cast<int64_t>(records.size());
  int64_t begin = 0;
  int64_t bytes_in_block = 0;
  int64_t index = 0;
  auto flush_block = [&](int64_t end) {
    Block block;
    block.id = next_block_id_++;
    block.file = file->id;
    block.record_begin = begin;
    block.record_end = end;
    block.size_bytes = bytes_in_block;
    block.replicas = ChooseReplicaNodes();
    for (NodeId n : block.replicas) node_bytes_[static_cast<size_t>(n)] += bytes_in_block;
    file->blocks.push_back(std::move(block));
    begin = end;
    bytes_in_block = 0;
  };

  for (; index < record_count; ++index) {
    bytes_in_block += records[static_cast<size_t>(index)].logical_bytes;
    if (bytes_in_block >= block_size) flush_block(index + 1);
  }
  if (bytes_in_block > 0 || file->blocks.empty()) {
    // Final partial block; empty files still get one (empty) block so that
    // metadata paths have something to point at.
    flush_block(record_count);
  }
}

std::vector<NodeId> Dfs::ChooseReplicaNodes() {
  const int32_t want =
      std::min<int32_t>(options_.replication, num_nodes_);
  std::vector<NodeId> chosen;
  chosen.reserve(static_cast<size_t>(want));

  // First replica: rotating writer node (approximates HDFS putting replica 1
  // on the writer; rotation spreads load like multiple concurrent writers).
  NodeId first = next_writer_;
  for (int32_t tries = 0; tries < num_nodes_; ++tries) {
    if (IsAlive(first)) break;
    first = static_cast<NodeId>((first + 1) % num_nodes_);
  }
  REDOOP_CHECK(IsAlive(first)) << "no live DFS nodes";
  next_writer_ = static_cast<NodeId>((first + 1) % num_nodes_);
  chosen.push_back(first);

  // Remaining replicas: distinct random live nodes.
  int guard = 0;
  while (static_cast<int32_t>(chosen.size()) < want && guard < 10000) {
    ++guard;
    NodeId candidate =
        static_cast<NodeId>(random_.Uniform(static_cast<uint64_t>(num_nodes_)));
    if (!IsAlive(candidate)) continue;
    if (std::find(chosen.begin(), chosen.end(), candidate) != chosen.end())
      continue;
    chosen.push_back(candidate);
  }
  return chosen;
}

bool Dfs::Exists(std::string_view name) const {
  return by_name_.count(std::string(name)) > 0;
}

StatusOr<const DfsFile*> Dfs::GetFile(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return Status::NotFound(StringPrintf("no such dfs file: %.*s",
                                         static_cast<int>(name.size()),
                                         name.data()));
  }
  return GetFileById(it->second);
}

StatusOr<const DfsFile*> Dfs::GetFileById(FileId id) const {
  auto it = files_.find(id);
  if (it == files_.end()) {
    return Status::NotFound(StringPrintf("no such dfs file id: %ld", id));
  }
  return const_cast<const DfsFile*>(it->second.get());
}

Status Dfs::DeleteFile(std::string_view name) {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return Status::NotFound(StringPrintf("no such dfs file: %.*s",
                                         static_cast<int>(name.size()),
                                         name.data()));
  }
  auto fit = files_.find(it->second);
  REDOOP_CHECK(fit != files_.end());
  for (const Block& b : fit->second->blocks) {
    for (NodeId n : b.replicas) {
      node_bytes_[static_cast<size_t>(n)] -= b.size_bytes;
    }
  }
  if (obs_ != nullptr) {
    obs_->metrics().Increment(obs::metric::kDfsFilesDeleted);
    obs_->Emit(obs::event::kDfsFileDelete)
        .With("file", fit->second->name)
        .With("bytes", fit->second->size_bytes);
  }
  files_.erase(fit);
  by_name_.erase(it);
  return Status::OK();
}

std::vector<std::string> Dfs::ListFiles(std::string_view prefix) const {
  std::vector<std::string> out;
  for (const auto& [name, id] : by_name_) {
    (void)id;
    if (StartsWith(name, prefix)) out.push_back(name);
  }
  return out;
}

std::vector<NodeId> Dfs::BlockLocations(BlockId block) const {
  for (const auto& [id, file] : files_) {
    (void)id;
    for (const Block& b : file->blocks) {
      if (b.id == block) {
        std::vector<NodeId> live;
        for (NodeId n : b.replicas) {
          if (IsAlive(n)) live.push_back(n);
        }
        return live;
      }
    }
  }
  return {};
}

void Dfs::OnNodeFailed(NodeId node) {
  REDOOP_CHECK(node >= 0 && node < num_nodes_);
  if (!node_alive_[static_cast<size_t>(node)]) return;
  node_alive_[static_cast<size_t>(node)] = false;
  // Replicas on the node are lost.
  for (auto& [id, file] : files_) {
    (void)id;
    for (Block& b : file->blocks) {
      auto it = std::find(b.replicas.begin(), b.replicas.end(), node);
      if (it != b.replicas.end()) {
        b.replicas.erase(it);
        node_bytes_[static_cast<size_t>(node)] -= b.size_bytes;
      }
    }
  }
  if (node_bytes_[static_cast<size_t>(node)] < 0) {
    node_bytes_[static_cast<size_t>(node)] = 0;
  }
  if (obs_ != nullptr) {
    obs_->Emit(obs::event::kDfsNodeFailed).With("node", node);
  }
}

void Dfs::OnNodeRecovered(NodeId node) {
  REDOOP_CHECK(node >= 0 && node < num_nodes_);
  node_alive_[static_cast<size_t>(node)] = true;
  node_bytes_[static_cast<size_t>(node)] = 0;
}

int64_t Dfs::ReplicateMissing() {
  int64_t created = 0;
  for (auto& [id, file] : files_) {
    (void)id;
    for (Block& b : file->blocks) {
      const int32_t want = std::min<int32_t>(options_.replication, [this] {
        int32_t alive = 0;
        for (bool a : node_alive_) alive += a ? 1 : 0;
        return alive;
      }());
      int guard = 0;
      while (static_cast<int32_t>(b.replicas.size()) < want &&
             guard < 10000) {
        ++guard;
        NodeId candidate = static_cast<NodeId>(
            random_.Uniform(static_cast<uint64_t>(num_nodes_)));
        if (!IsAlive(candidate)) continue;
        if (std::find(b.replicas.begin(), b.replicas.end(), candidate) !=
            b.replicas.end())
          continue;
        b.replicas.push_back(candidate);
        node_bytes_[static_cast<size_t>(candidate)] += b.size_bytes;
        ++created;
      }
    }
  }
  if (obs_ != nullptr && created > 0) {
    obs_->metrics().Increment(obs::metric::kDfsReplicasRestored, created);
  }
  return created;
}

bool Dfs::IsReadable(const DfsFile& file) const {
  for (const Block& b : file.blocks) {
    bool any = false;
    for (NodeId n : b.replicas) {
      if (IsAlive(n)) {
        any = true;
        break;
      }
    }
    if (!any && b.size_bytes > 0) return false;
  }
  return true;
}

int64_t Dfs::TotalStoredBytes() const {
  int64_t total = 0;
  for (int64_t b : node_bytes_) total += b;
  return total;
}

int64_t Dfs::StoredBytesOnNode(NodeId node) const {
  REDOOP_CHECK(node >= 0 && node < num_nodes_);
  return node_bytes_[static_cast<size_t>(node)];
}

bool Dfs::IsAlive(NodeId node) const {
  return node >= 0 && node < num_nodes_ &&
         node_alive_[static_cast<size_t>(node)];
}

}  // namespace redoop
