#include "baseline/hadoop_driver.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/math_utils.h"
#include "common/string_utils.h"

namespace redoop {

namespace {
JobRunnerOptions WithTelemetry(JobRunnerOptions options,
                               obs::ObservabilityContext* obs,
                               const obs::TelemetryScope* scope) {
  options.obs = obs;
  options.telemetry = scope;
  return options;
}
}  // namespace

HadoopRecurringDriver::HadoopRecurringDriver(Cluster* cluster, BatchFeed* feed,
                                             RecurringQuery query,
                                             JobRunnerOptions runner_options)
    : cluster_(cluster),
      feed_(feed),
      query_(std::move(query)),
      geometry_(query_.window(),
                Gcd(query_.window().win, query_.window().slide)),
      owned_obs_(runner_options.obs == nullptr
                     ? std::make_unique<obs::ObservabilityContext>()
                     : nullptr),
      obs_(runner_options.obs != nullptr ? runner_options.obs
                                         : owned_obs_.get()),
      scope_(obs_, query_.name, &telemetry_window_),
      runner_(cluster, &scheduler_,
              WithTelemetry(runner_options, obs_, &scope_)) {
  REDOOP_CHECK(cluster_ != nullptr);
  REDOOP_CHECK(feed_ != nullptr);
  query_.CheckValid();
  obs_->SetTimeSource(
      [cluster = cluster_] { return cluster->simulator().Now(); });
  scheduler_.set_telemetry(scope_);
  cluster_->dfs().set_observability(obs_);
  ingested_until_.assign(query_.sources.size(), 0);
}

void HadoopRecurringDriver::IngestUpTo(Timestamp t) {
  for (size_t si = 0; si < query_.sources.size(); ++si) {
    const SourceId source = query_.sources[si].id;
    if (ingested_until_[si] >= t) continue;
    const std::vector<RecordBatch> batches =
        feed_->BatchesFor(source, ingested_until_[si], t);
    for (const RecordBatch& batch : batches) {
      REDOOP_CHECK(batch.start == ingested_until_[si])
          << "feed returned a non-contiguous batch";
      ingested_until_[si] = batch.end;
      if (batch.records.empty()) continue;
      StoredBatch stored;
      stored.file_name =
          StringPrintf("hadoop/%s/S%d/batch-%ld", query_.name.c_str(), source,
                       batch_counter_++);
      stored.source = source;
      stored.begin = batch.start;
      stored.end = batch.end;
      stored.bytes = batch.logical_bytes();
      auto created = cluster_->dfs().CreateFile(
          stored.file_name, batch.records, batch.start, batch.end);
      REDOOP_CHECK(created.ok()) << created.status().ToString();
      batches_.push_back(std::move(stored));
    }
    REDOOP_CHECK(ingested_until_[si] == t)
        << "feed under-delivered: got to " << ingested_until_[si]
        << ", wanted " << t;
  }
}

void HadoopRecurringDriver::DropExpiredBatches(Timestamp window_begin) {
  while (!batches_.empty() && batches_.front().end <= window_begin) {
    REDOOP_CHECK_OK(cluster_->dfs().DeleteFile(batches_.front().file_name));
    batches_.pop_front();
  }
  // Batches are stored in arrival order interleaved across sources, so the
  // simple front-drop above may strand an expired batch behind a live one;
  // sweep the rest too.
  for (auto it = batches_.begin(); it != batches_.end();) {
    if (it->end <= window_begin) {
      REDOOP_CHECK_OK(cluster_->dfs().DeleteFile(it->file_name));
      it = batches_.erase(it);
    } else {
      ++it;
    }
  }
}

WindowReport HadoopRecurringDriver::RunRecurrence(int64_t recurrence) {
  REDOOP_CHECK(recurrence == next_recurrence_)
      << "recurrences must run consecutively";
  ++next_recurrence_;

  const Timestamp begin = geometry_.WindowBegin(recurrence);
  const Timestamp end = geometry_.WindowEnd(recurrence);
  const Timestamp trigger = geometry_.TriggerTime(recurrence);

  telemetry_window_ = recurrence;
  obs::Event& open =
      scope_.EmitAt(cluster_->simulator().Now(), obs::event::kWindowOpen)
          .With("recurrence", recurrence)
          .With("trigger", trigger)
          .With("window_begin", begin)
          .With("window_end", end);
  const double deadline = query_.EffectiveDeadline();
  if (deadline > 0) open.With("deadline", deadline);

  // Data for the window lands in HDFS as it arrives (not charged to the
  // query's response time, same as Redoop's packer ingest).
  IngestUpTo(end);
  DropExpiredBatches(begin);

  // Wait for the trigger; a late previous window delays this one.
  Simulator& sim = cluster_->simulator();
  if (sim.Now() < static_cast<SimTime>(trigger)) {
    sim.RunUntil(static_cast<SimTime>(trigger));
  }
  scope_.EmitAt(sim.Now(), obs::event::kWindowTrigger)
      .With("recurrence", recurrence)
      .With("trigger", trigger);

  // One full job over every batch overlapping the window, with a window
  // filter wrapped around the user mapper.
  JobSpec spec;
  spec.config = query_.config;
  spec.config.name = StringPrintf("%s-hadoop-rec%ld", query_.name.c_str(),
                                  recurrence);
  spec.config.mapper = std::make_shared<const WindowFilterMapper>(
      query_.config.mapper, begin, end);
  if (query_.finalizer != nullptr &&
      query_.pattern == IncrementalPattern::kPerPaneMerge) {
    // A single-job baseline folds the window finalization into its reduce:
    // each key's whole window is one group, so reduce-then-finalize per
    // group equals Redoop's per-pane reduce + window finalize.
    spec.config.reducer = std::make_shared<const ComposedReducer>(
        query_.config.reducer, query_.finalizer);
  }
  for (const QuerySource& qs : query_.sources) {
    // Per-source mapper overrides also get the window filter.
    spec.per_source_mappers[qs.id] = std::make_shared<const WindowFilterMapper>(
        query_.MapperFor(qs.id), begin, end);
  }
  int64_t window_bytes = 0;
  for (const StoredBatch& batch : batches_) {
    if (batch.end <= begin || batch.begin >= end) continue;
    MapInput input;
    input.file_name = batch.file_name;
    input.source = batch.source;
    input.pane = kInvalidPane;
    spec.map_inputs.push_back(std::move(input));
    window_bytes += batch.bytes;
  }
  spec.output_prefix = query_.OutputPathForRecurrence(recurrence);

  JobResult result = runner_.Run(spec);
  REDOOP_CHECK(result.status.ok()) << result.status.ToString();

  WindowReport report;
  report.recurrence = recurrence;
  report.trigger_time = trigger;
  report.finished_at = sim.Now();
  report.response_time = sim.Now() - static_cast<SimTime>(trigger);
  report.shuffle_time = result.shuffle_time_total;
  report.reduce_time = result.reduce_time_total;
  report.map_phase_time = result.map_phase_time;
  report.window_input_bytes = window_bytes;
  report.fresh_input_bytes = window_bytes;  // Hadoop reprocesses everything.
  report.output = result.MergedOutput();
  report.output_records = static_cast<int64_t>(report.output.size());
  report.counters = result.counters;
  report.task_reports = std::move(result.task_reports);
  if (query_.emit_deltas) {
    report.delta = ComputeWindowDelta(previous_output_, report.output);
    previous_output_ = report.output;
  }

  scope_.EmitAt(report.finished_at, obs::event::kWindowComplete)
      .With("recurrence", recurrence)
      .With("trigger", trigger)
      .With("response_time", report.response_time)
      .With("output_records", report.output_records)
      .With("fresh_bytes", report.fresh_input_bytes);
  telemetry_window_ = -1;
  return report;
}

RunReport HadoopRecurringDriver::Run(int64_t n) {
  RunReport report;
  report.system = "hadoop";
  for (int64_t i = 0; i < n; ++i) {
    report.windows.push_back(RunRecurrence(i));
  }
  report.observability = RunObservability(*obs_);
  return report;
}

}  // namespace redoop
