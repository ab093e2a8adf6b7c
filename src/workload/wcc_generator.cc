#include "workload/wcc_generator.h"

#include <cmath>
#include <string_view>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/string_utils.h"

namespace redoop {

namespace {

/// A checked population size for a ZipfSampler.
uint64_t Population(int64_t n) {
  REDOOP_CHECK(n > 0) << "population " << n;
  return static_cast<uint64_t>(n);
}

}  // namespace

WccGenerator::WccGenerator(std::shared_ptr<const RateProfile> rate,
                           WccGeneratorOptions options)
    : rate_(std::move(rate)),
      options_(options),
      clients_(Population(options_.num_clients), options_.client_skew),
      objects_(Population(options_.num_objects), options_.object_skew) {
  REDOOP_CHECK(rate_ != nullptr);
}

void WccGenerator::RenderSecond(SourceId source, Timestamp second,
                                RecordImage* image) const {
  // Seed from (seed, source, second): a pure function of time, so replays
  // are identical across drivers and runs.
  Random rng(HashCombine(HashCombine(options_.seed, Mix64(
                 static_cast<uint64_t>(source))),
                         static_cast<uint64_t>(second)));

  const double rps = rate_->RecordsPerSecond(second);
  // Deterministic fractional rounding: carry the fraction via the seed.
  int64_t count = static_cast<int64_t>(rps);
  if (rng.NextDouble() < rps - std::floor(rps)) ++count;

  static constexpr std::string_view kMethods[] = {"GET", "POST", "HEAD"};
  static constexpr int kStatuses[] = {200, 200, 200, 200, 304, 404, 500};

  for (int64_t i = 0; i < count; ++i) {
    const uint64_t client = clients_.Next(&rng);
    const uint64_t object = objects_.Next(&rng);
    const int32_t region =
        static_cast<int32_t>(rng.Uniform(static_cast<uint64_t>(
            options_.num_regions)));
    const std::string_view method = kMethods[rng.Uniform(3)];
    const int status = kStatuses[rng.Uniform(7)];
    const int64_t bytes = 64 + static_cast<int64_t>(rng.Uniform(32768));
    // "client-%lu" and "obj-%lu,%s,%d,reg-%d,%ld", rendered on the stack.
    char key[32];
    char value[128];
    image->Add(second,
               CharWriter(key).Append("client-").AppendInt(client).view(),
               CharWriter(value)
                   .Append("obj-").AppendInt(object)
                   .Append(",").Append(method)
                   .Append(",").AppendInt(status)
                   .Append(",reg-").AppendInt(region)
                   .Append(",").AppendInt(bytes)
                   .view(),
               options_.record_logical_bytes);
  }
}

}  // namespace redoop
