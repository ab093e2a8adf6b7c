#ifndef REDOOP_WORKLOAD_WCC_GENERATOR_H_
#define REDOOP_WORKLOAD_WCC_GENERATOR_H_

#include <cstdint>

#include "common/random.h"
#include "workload/rate_profile.h"
#include "workload/synthetic_feed.h"

namespace redoop {

/// Synthetic stand-in for the 1998 WorldCup Click dataset (paper §6.1,
/// 236 GB / 1.35 B HTTP requests): timestamped click records with Zipfian
/// client and object popularity, region, method, HTTP status, and response
/// size — the schema of the original trace. The key is the client id (the
/// aggregation query groups per client).
struct WccGeneratorOptions {
  int64_t num_clients = 5000;
  int64_t num_objects = 20000;
  int32_t num_regions = 33;       // The trace's region count.
  double client_skew = 0.9;       // Zipf skew of client activity.
  double object_skew = 1.0;       // Zipf skew of object popularity.
  /// Simulated on-disk record size. The real trace stores ~20 B/request;
  /// we default higher so modest record counts model GB-scale inputs.
  int32_t record_logical_bytes = 4096;
  uint64_t seed = 1998;
};

class WccGenerator : public RecordGenerator {
 public:
  /// `rate` is shared with the caller and must outlive the generator.
  WccGenerator(std::shared_ptr<const RateProfile> rate,
               WccGeneratorOptions options = {});

  void RenderSecond(SourceId source, Timestamp second,
                    RecordImage* image) const override;

  const WccGeneratorOptions& options() const { return options_; }

 private:
  std::shared_ptr<const RateProfile> rate_;
  WccGeneratorOptions options_;
  ZipfSampler clients_;
  ZipfSampler objects_;
};

}  // namespace redoop

#endif  // REDOOP_WORKLOAD_WCC_GENERATOR_H_
