#ifndef REDOOP_WORKLOAD_FFG_GENERATOR_H_
#define REDOOP_WORKLOAD_FFG_GENERATOR_H_

#include <cstdint>

#include "workload/rate_profile.h"
#include "workload/synthetic_feed.h"

namespace redoop {

/// Synthetic stand-in for the football-field sensor dataset (paper §6.1:
/// the RedFIR real-time tracking system of the Nuremberg stadium, 26 GB):
/// high-velocity sensor readings with position/velocity per player or ball
/// sensor. Records are keyed by the field grid cell of the reading, which
/// is what the paper-style proximity join matches on; the value carries
/// the sensor identity and kinematics.
struct FfgGeneratorOptions {
  int32_t num_sensors = 32;      // Sensors per source (players / balls).
  int32_t grid_cells_x = 16;     // Field is grid_x * grid_y join cells.
  int32_t grid_cells_y = 10;
  /// Simulated on-disk record size.
  int32_t record_logical_bytes = 2048;
  uint64_t seed = 2013;
};

class FfgGenerator : public RecordGenerator {
 public:
  FfgGenerator(std::shared_ptr<const RateProfile> rate,
               FfgGeneratorOptions options = {});

  void RenderSecond(SourceId source, Timestamp second,
                    RecordImage* image) const override;

  const FfgGeneratorOptions& options() const { return options_; }

 private:
  std::shared_ptr<const RateProfile> rate_;
  FfgGeneratorOptions options_;
};

}  // namespace redoop

#endif  // REDOOP_WORKLOAD_FFG_GENERATOR_H_
