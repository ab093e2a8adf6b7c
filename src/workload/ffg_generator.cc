#include "workload/ffg_generator.h"

#include <cmath>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/string_utils.h"

namespace redoop {

FfgGenerator::FfgGenerator(std::shared_ptr<const RateProfile> rate,
                           FfgGeneratorOptions options)
    : rate_(std::move(rate)), options_(options) {
  REDOOP_CHECK(rate_ != nullptr);
  REDOOP_CHECK(options_.num_sensors > 0);
  REDOOP_CHECK(options_.grid_cells_x > 0 && options_.grid_cells_y > 0);
}

std::vector<Record> FfgGenerator::RecordsForSecond(SourceId source,
                                                   Timestamp second) const {
  Random rng(HashCombine(HashCombine(options_.seed, Mix64(
                 static_cast<uint64_t>(source))),
                         static_cast<uint64_t>(second)));

  const double rps = rate_->RecordsPerSecond(second);
  int64_t count = static_cast<int64_t>(rps);
  if (rng.NextDouble() < rps - std::floor(rps)) ++count;

  std::vector<Record> records;
  records.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    const uint64_t sensor =
        rng.Uniform(static_cast<uint64_t>(options_.num_sensors));
    // Positions are uniform over the field: across a multi-hour window
    // every sensor covers most of the pitch, and uniformity keeps the
    // equi-join's per-cell multiplicity at L/C — so join output volume is
    // directly controlled by the grid resolution instead of exploding on
    // hot cells.
    const double cx = static_cast<double>(options_.grid_cells_x);
    const double cy = static_cast<double>(options_.grid_cells_y);
    const double x = rng.NextDouble() * cx;
    const double y = rng.NextDouble() * cy;
    const int32_t cell_x = static_cast<int32_t>(
        std::fmin(cx - 1, std::fmax(0.0, x)));
    const int32_t cell_y = static_cast<int32_t>(
        std::fmin(cy - 1, std::fmax(0.0, y)));
    const double vx = rng.NextGaussian() * 3.0;
    const double vy = rng.NextGaussian() * 3.0;
    // "cell-%d-%d" and "s%d-%lu,%.1f,%.1f,%.2f,%.2f", rendered on the
    // stack and assigned once.
    char key[32];
    char value[128];
    Record r;
    r.timestamp = second;
    r.key = CharWriter(key)
                .Append("cell-").AppendInt(cell_x)
                .Append("-").AppendInt(cell_y)
                .view();
    r.value = CharWriter(value)
                  .Append("s").AppendInt(source)
                  .Append("-").AppendInt(sensor)
                  .Append(",").AppendFixed(x, 1)
                  .Append(",").AppendFixed(y, 1)
                  .Append(",").AppendFixed(vx, 2)
                  .Append(",").AppendFixed(vy, 2)
                  .view();
    r.logical_bytes = options_.record_logical_bytes;
    records.push_back(std::move(r));
  }
  return records;
}

}  // namespace redoop
