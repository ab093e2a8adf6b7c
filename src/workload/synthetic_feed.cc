#include "workload/synthetic_feed.h"

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "exec/task_executor.h"

namespace redoop {

void RecordImage::Add(Timestamp timestamp, std::string_view key,
                      std::string_view value, int32_t logical_bytes) {
  Row row;
  row.timestamp = timestamp;
  row.key_len = static_cast<uint32_t>(key.size());
  row.value_len = static_cast<uint32_t>(value.size());
  row.logical_bytes = logical_bytes;
  rows_.push_back(row);
  bytes_.append(key);
  bytes_.append(value);
}

void RecordImage::Clear() {
  rows_.clear();
  bytes_.clear();
}

void RecordImage::Reserve(size_t records, size_t bytes) {
  rows_.reserve(records);
  bytes_.reserve(bytes);
}

std::vector<Record> RecordImage::Materialize() const {
  std::vector<Record> records;
  records.reserve(rows_.size());
  const char* p = bytes_.data();
  for (const Row& row : rows_) {
    std::string key(p, row.key_len);
    p += row.key_len;
    std::string value(p, row.value_len);
    p += row.value_len;
    records.emplace_back(row.timestamp, std::move(key), std::move(value),
                         row.logical_bytes);
  }
  return records;
}

std::vector<Record> RecordGenerator::RecordsForSecond(SourceId source,
                                                      Timestamp second) const {
  RecordImage image;
  RenderSecond(source, second, &image);
  return image.Materialize();
}

namespace {

/// Images in flight per render thread: one being rendered and one ready
/// for the calling thread.
constexpr size_t kImagesPerThread = 2;

/// Renders the batch of `interval` seconds from `start` into `image`.
void RenderBatch(const RecordGenerator& gen, SourceId source, Timestamp start,
                 Timestamp interval, RecordImage* image) {
  image->Clear();
  for (Timestamp s = start; s < start + interval; ++s) {
    gen.RenderSecond(source, s, image);
  }
}

}  // namespace

/// The render workers of BatchesFor. A worker only renders into an image
/// the calling thread reserved, so with enough room it never calls malloc
/// or free. That matters to glibc: a thread that does borrows a malloc
/// arena, a new one when none is free, and engine threads started later
/// take those arenas first and grow them while the arenas they used before
/// sit idle holding memory (DESIGN §10, "Parallel feed").
class SyntheticFeed::RenderPool {
 public:
  /// One request's batches: batch b renders into images[b % images.size()].
  struct Job {
    const RecordGenerator* gen = nullptr;
    SourceId source = 0;
    Timestamp interval = 0;
    const std::vector<RecordBatch>* batches = nullptr;
    std::vector<RecordImage>* images = nullptr;
  };

  explicit RenderPool(int32_t threads) {
    workers_.reserve(static_cast<size_t>(threads));
    for (size_t i = 0; i < static_cast<size_t>(threads); ++i) {
      workers_.emplace_back([this, i] { Work(i); });
    }
  }

  RenderPool(const RenderPool&) = delete;
  RenderPool& operator=(const RenderPool&) = delete;

  ~RenderPool() {
    // One worker at a time: a std::thread frees its start state on its own
    // thread as it ends, which borrows an arena from glibc's free list.
    // Ending in turn, every worker borrows and returns the same one.
    for (size_t i = 0; i < workers_.size(); ++i) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ended_ = i + 1;
      }
      work_cv_.notify_all();
      workers_[i].join();
    }
  }

  /// Renders batches [first, n) of `job` on the workers, at most
  /// images.size() ahead of the calling thread, and calls `consume(b)` here
  /// for each of them in batch order once batch b is rendered.
  void Run(const Job& job, size_t first,
           const std::function<void(size_t)>& consume) {
    const size_t n = job.batches->size();
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = job;
      ring_ = job.images->size();
      rendered_.assign(ring_, 0);
      next_ = first;
      consumed_ = first;
      end_ = n;
    }
    work_cv_.notify_all();
    // Renders write into the caller's images: on any exit, stop claims and
    // wait out the renders in flight.
    struct Drain {
      RenderPool* pool;
      ~Drain() {
        std::unique_lock<std::mutex> lock(pool->mu_);
        pool->end_ = pool->next_;
        pool->done_cv_.wait(lock, [this] { return pool->busy_ == 0; });
      }
    } drain{this};
    for (size_t b = first; b < n; ++b) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        done_cv_.wait(lock, [&] { return rendered_[b % ring_] != 0; });
        rendered_[b % ring_] = 0;
      }
      consume(b);
      {
        std::lock_guard<std::mutex> lock(mu_);
        consumed_ = b + 1;
      }
      work_cv_.notify_all();
    }
  }

 private:
  void Work(size_t index) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      // A batch may be claimed once the one `ring_` before it, whose image
      // it reuses, has been consumed.
      work_cv_.wait(lock, [&] {
        return index < ended_ || (next_ < end_ && next_ < consumed_ + ring_);
      });
      if (index < ended_) return;
      const size_t b = next_++;
      const Job job = job_;
      const size_t slot = b % ring_;
      ++busy_;
      lock.unlock();
      RenderBatch(*job.gen, job.source, (*job.batches)[b].start, job.interval,
                  &(*job.images)[slot]);
      lock.lock();
      --busy_;
      rendered_[slot] = 1;
      done_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;  // Workers: a batch to claim, or end.
  std::condition_variable done_cv_;  // Caller: a batch rendered, or drained.
  Job job_;
  size_t ring_ = 0;
  std::vector<char> rendered_;  // Per image: holds a batch not yet consumed.
  size_t next_ = 0;             // Next batch to claim.
  size_t end_ = 0;              // Claims stop here.
  size_t consumed_ = 0;         // Batches below this are consumed.
  size_t busy_ = 0;             // Renders in progress.
  size_t ended_ = 0;            // Workers below this index end.
  std::vector<std::thread> workers_;
};

SyntheticFeed::SyntheticFeed(Timestamp batch_interval, int32_t threads)
    : batch_interval_(batch_interval),
      threads_(threads == 0 ? exec::TaskExecutor::DefaultThreadCount()
                            : threads) {
  REDOOP_CHECK(batch_interval_ > 0);
}

SyntheticFeed::~SyntheticFeed() = default;

void SyntheticFeed::AddSource(SourceId source,
                              std::shared_ptr<const RecordGenerator> gen) {
  REDOOP_CHECK(gen != nullptr);
  generators_[source] = std::move(gen);
}

std::vector<RecordBatch> SyntheticFeed::BatchesFor(SourceId source,
                                                   Timestamp begin,
                                                   Timestamp end) {
  auto it = generators_.find(source);
  REDOOP_CHECK(it != generators_.end()) << "unknown source " << source;
  REDOOP_CHECK(begin % batch_interval_ == 0 && end % batch_interval_ == 0)
      << "requested range [" << begin << "," << end
      << ") not aligned to batch interval " << batch_interval_;
  const RecordGenerator& gen = *it->second;

  const size_t n =
      end > begin ? static_cast<size_t>((end - begin) / batch_interval_) : 0;
  std::vector<RecordBatch> batches(n);
  for (size_t b = 0; b < n; ++b) {
    batches[b].start = begin + static_cast<Timestamp>(b) * batch_interval_;
    batches[b].end = batches[b].start + batch_interval_;
  }
  if (n == 0) return batches;

  // Batch 0 renders here. Workers render into images this thread reserved
  // from its size plus a quarter, and every Record is built here too.
  const size_t ring =
      threads_ <= 1
          ? 1
          : std::min(n, kImagesPerThread * static_cast<size_t>(threads_));
  std::vector<RecordImage> images(ring);
  RenderBatch(gen, source, batches[0].start, batch_interval_, &images[0]);
  batches[0].records = images[0].Materialize();
  if (ring == 1) {
    for (size_t b = 1; b < n; ++b) {
      RenderBatch(gen, source, batches[b].start, batch_interval_, &images[0]);
      batches[b].records = images[0].Materialize();
    }
    return batches;
  }
  const size_t rows = images[0].size() + images[0].size() / 4;
  const size_t bytes = images[0].byte_size() + images[0].byte_size() / 4;
  for (RecordImage& image : images) image.Reserve(rows, bytes);
  if (pool_ == nullptr) pool_ = std::make_unique<RenderPool>(threads_);
  RenderPool::Job job;
  job.gen = &gen;
  job.source = source;
  job.interval = batch_interval_;
  job.batches = &batches;
  job.images = &images;
  pool_->Run(job, 1, [&](size_t b) {
    batches[b].records = images[b % ring].Materialize();
  });
  return batches;
}

}  // namespace redoop
