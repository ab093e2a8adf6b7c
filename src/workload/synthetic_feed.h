#ifndef REDOOP_WORKLOAD_SYNTHETIC_FEED_H_
#define REDOOP_WORKLOAD_SYNTHETIC_FEED_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "core/batch_feed.h"
#include "workload/rate_profile.h"

namespace redoop {

/// Records rendered flat: every record's key and value bytes back to back
/// in one buffer, plus one fixed-size row per record. Generators render
/// into an image on any thread; Materialize builds the Records. Clear keeps
/// the capacity, so an image reused for batch after batch stops allocating.
class RecordImage {
 public:
  void Add(Timestamp timestamp, std::string_view key, std::string_view value,
           int32_t logical_bytes);
  void Clear();
  /// Makes room for `records` records of `bytes` key and value bytes.
  void Reserve(size_t records, size_t bytes);
  size_t size() const { return rows_.size(); }
  /// Key and value bytes held.
  size_t byte_size() const { return bytes_.size(); }

  /// The rendered records in order, in a vector whose capacity is exactly
  /// size() and whose strings are allocated at their exact lengths.
  std::vector<Record> Materialize() const;

 private:
  struct Row {
    Timestamp timestamp = 0;
    uint32_t key_len = 0;
    uint32_t value_len = 0;
    int32_t logical_bytes = 0;
  };
  std::vector<Row> rows_;
  std::string bytes_;
};

/// Produces the records of one data source for one second of data time.
/// Must be a pure function of (source, second) given the construction-time
/// seed — both drivers must observe identical data — and safe to call from
/// several threads at once: SyntheticFeed renders seconds in parallel.
class RecordGenerator {
 public:
  virtual ~RecordGenerator() = default;

  /// Appends the records of `second`, in order, to `image`.
  virtual void RenderSecond(SourceId source, Timestamp second,
                            RecordImage* image) const = 0;

  /// RenderSecond's records as Records.
  std::vector<Record> RecordsForSecond(SourceId source,
                                       Timestamp second) const;
};

/// BatchFeed assembling generator output into batch files on a fixed
/// arrival interval (the paper's model: the system collects log files
/// periodically and uploads each as a new HDFS batch).
///
/// A request of several batches renders them on `threads` workers, each
/// batch into a RecordImage; the calling thread builds every Record from
/// the images, in batch order. Batches are identical at any thread count.
class SyntheticFeed : public BatchFeed {
 public:
  /// Batches cover `batch_interval`-second spans aligned to the global
  /// time grid. Requested ranges must align to batch boundaries.
  /// `threads` renders batches (0 = all hardware threads, as
  /// JobRunnerOptions::threads; 1 = on the calling thread only).
  explicit SyntheticFeed(Timestamp batch_interval, int32_t threads = 0);
  ~SyntheticFeed() override;

  /// Registers a source. Both pointers are shared with the caller.
  void AddSource(SourceId source, std::shared_ptr<const RecordGenerator> gen);

  std::vector<RecordBatch> BatchesFor(SourceId source, Timestamp begin,
                                      Timestamp end) override;

  bool HasSource(SourceId source) const override {
    return generators_.find(source) != generators_.end();
  }

  Timestamp batch_interval() const { return batch_interval_; }

 private:
  class RenderPool;

  Timestamp batch_interval_;
  int32_t threads_;
  std::map<SourceId, std::shared_ptr<const RecordGenerator>> generators_;
  /// Started by the first request of more than one batch when threads_ > 1.
  std::unique_ptr<RenderPool> pool_;
};

}  // namespace redoop

#endif  // REDOOP_WORKLOAD_SYNTHETIC_FEED_H_
