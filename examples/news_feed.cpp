// News feed updates (paper Example 2): a recurring analysis over member
// activity runs every half hour over the last 5 hours, and members receive
// *updates* — only what changed since the previous delivery. The query
// sets `emit_deltas`, so every window report carries the added/removed
// rows alongside the full result; Redoop computes the windows
// incrementally from its pane caches.

#include <cstdio>
#include <string>
#include <string_view>

#include "core/redoop_driver.h"
#include "queries/aggregation_query.h"
#include "workload/wcc_generator.h"

using namespace redoop;

namespace {

// User-defined finalization (paper §5): buckets each member's windowed
// activity into coarse tiers. A member's feed row only changes when they
// cross a tier boundary, so the per-window deltas stay sparse.
class ActivityTierFinalizer : public Reducer {
 public:
  void ReduceFlat(std::string_view key, const KvRange& values,
                  ReduceContext* context) const override {
    AggregateValue total;
    for (size_t i = 0; i < values.size(); ++i) {
      total.Merge(AggregateValue::Parse(values.value(i)));
    }
    context->Emit(key, "tier-" + std::to_string(total.count / 40));
  }
};

}  // namespace

int main() {
  RecurringQuery query = MakeAggregationQuery(
      /*id=*/1, "member-activity", /*source=*/1, /*win=*/18000,
      /*slide=*/1800, /*num_reducers=*/8);
  query.finalizer = std::make_shared<const ActivityTierFinalizer>();
  query.emit_deltas = true;

  Cluster cluster(16, Config());
  auto feed = std::make_unique<SyntheticFeed>(/*batch_interval=*/600);
  WccGeneratorOptions options;
  options.record_logical_bytes = 2 * kBytesPerMB;
  options.num_clients = 800;  // "Members".
  feed->AddSource(1, std::make_shared<WccGenerator>(
                         std::make_shared<ConstantRate>(5.0), options));

  RedoopDriver driver(&cluster, feed.get(), query);

  std::printf("%-8s %12s %10s %10s %10s %12s\n", "window", "response",
              "feed rows", "added", "removed", "delivered");
  for (int64_t i = 0; i < 6; ++i) {
    WindowReport w = driver.RunRecurrence(i).value();
    const size_t delivered = w.delta.added.size() + w.delta.removed.size();
    std::printf("%-8ld %11.1fs %10zu %10zu %10zu %11zu\n", i + 1,
                w.response_time, w.output.size(), w.delta.added.size(),
                w.delta.removed.size(), delivered);
  }

  std::printf("\nAfter the first delivery, members receive only the changed "
              "rows —\na small fraction of the full feed, computed from "
              "cached panes.\n");
  return 0;
}
