#include "stream/pipeline.h"

#include <limits>
#include <string>

#include "common/check.h"

namespace scuba {

Result<StreamPipeline> StreamPipeline::Create(ObjectSimulator* simulator,
                                              QueryProcessor* engine,
                                              Timestamp delta,
                                              double update_fraction,
                                              UpdateValidator* validator,
                                              DurabilitySink* durability) {
  if (simulator == nullptr || engine == nullptr) {
    return Status::InvalidArgument("simulator and engine must be non-null");
  }
  // Negated containment so NaN (which fails every comparison) is rejected
  // rather than slipping past a `< 0 || > 1` range test.
  if (!(update_fraction >= 0.0 && update_fraction <= 1.0)) {
    return Status::InvalidArgument("update_fraction must be in [0, 1]");
  }
  Result<SimulationClock> clock = SimulationClock::Create(delta);
  if (!clock.ok()) return clock.status();
  return StreamPipeline(simulator, engine, std::move(clock).value(),
                        update_fraction, validator, durability);
}

StreamPipeline::StreamPipeline(ObjectSimulator* simulator,
                               QueryProcessor* engine, SimulationClock clock,
                               double update_fraction,
                               UpdateValidator* validator,
                               DurabilitySink* durability)
    : simulator_(simulator),
      engine_(engine),
      clock_(clock),
      update_fraction_(update_fraction),
      validator_(validator),
      durability_(durability) {}

Status StreamPipeline::RunTicks(int ticks, const ResultSink& sink) {
  ResultSet results;
  for (int i = 0; i < ticks; ++i) {
    simulator_->Step();
    bool evaluate = clock_.Advance();
    SCUBA_CHECK_MSG(simulator_->now() == clock_.now(),
                    "simulator and clock diverged");
    object_buffer_.clear();
    query_buffer_.clear();
    simulator_->EmitUpdates(update_fraction_, &object_buffer_, &query_buffer_);
    if (validator_ != nullptr) {
      SCUBA_RETURN_IF_ERROR(validator_->ScreenBatch(
          clock_.now(), &object_buffer_, &query_buffer_));
    }
    if (durability_ != nullptr) {
      // Write-ahead: the batch becomes durable before it mutates the engine.
      SCUBA_RETURN_IF_ERROR(durability_->LogBatch(
          clock_.now(), evaluate, object_buffer_, query_buffer_));
    }
    // One tick = one batch: the SCUBA engines screen the whole tick up front
    // before ingesting any of it; the default implementation loops per
    // update.
    SCUBA_RETURN_IF_ERROR(engine_->IngestBatch(object_buffer_, query_buffer_));
    if (evaluate) {
      SCUBA_RETURN_IF_ERROR(engine_->Evaluate(clock_.now(), &results));
      ++evaluations_;
      if (sink) sink(clock_.now(), results);
      if (durability_ != nullptr) {
        SCUBA_RETURN_IF_ERROR(durability_->OnRoundComplete());
      }
    }
  }
  return Status::OK();
}

Status ReplayTrace(const Trace& trace, QueryProcessor* engine, Timestamp delta,
                   const ResultSink& sink, UpdateValidator* validator,
                   DurabilitySink* durability, size_t start_index) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must be non-null");
  }
  if (delta <= 0) {
    return Status::InvalidArgument("delta must be positive");
  }
  if (start_index > trace.TickCount()) {
    return Status::OutOfRange("start_index " + std::to_string(start_index) +
                              " exceeds the trace's " +
                              std::to_string(trace.TickCount()) + " batches");
  }
  const bool resync =
      validator != nullptr &&
      validator->config().policy == BadUpdatePolicy::kRepair;
  // Resuming mid-trace keeps the monotonicity floor anchored at the last
  // batch the engine already saw (as recorded in the trace; a recovery resume
  // implies a clean, strictly increasing prefix).
  Timestamp prev_time = start_index == 0
                            ? std::numeric_limits<Timestamp>::min()
                            : trace.batch(start_index - 1).time;
  ResultSet results;
  std::vector<LocationUpdate> objects;
  std::vector<QueryUpdate> queries;
  for (size_t i = start_index; i < trace.TickCount(); ++i) {
    const TickBatch& batch = trace.batch(i);
    // Batches are defined as consecutive ticks, so their stamps must strictly
    // increase; a regressed batch either fails the replay or — under kRepair —
    // is resynced to the tick after its predecessor.
    Timestamp batch_time = batch.time;
    if (batch_time <= prev_time) {
      if (!resync) {
        return Status::FailedPrecondition(
            "trace batch " + std::to_string(i) + " time " +
            std::to_string(batch_time) + " does not advance past " +
            std::to_string(prev_time));
      }
      batch_time = prev_time + 1;
    }
    prev_time = batch_time;
    // Round boundaries follow the global batch index so a resumed replay
    // evaluates at exactly the ticks the uninterrupted run did.
    const bool evaluate = (i + 1) % static_cast<size_t>(delta) == 0;
    if (validator != nullptr) {
      objects = batch.object_updates;
      queries = batch.query_updates;
      SCUBA_RETURN_IF_ERROR(
          validator->ScreenBatch(batch_time, &objects, &queries));
      if (durability != nullptr) {
        SCUBA_RETURN_IF_ERROR(
            durability->LogBatch(batch_time, evaluate, objects, queries));
      }
      SCUBA_RETURN_IF_ERROR(engine->IngestBatch(objects, queries));
    } else {
      if (durability != nullptr) {
        SCUBA_RETURN_IF_ERROR(durability->LogBatch(batch_time, evaluate,
                                                   batch.object_updates,
                                                   batch.query_updates));
      }
      SCUBA_RETURN_IF_ERROR(
          engine->IngestBatch(batch.object_updates, batch.query_updates));
    }
    if (evaluate) {
      SCUBA_RETURN_IF_ERROR(engine->Evaluate(batch_time, &results));
      if (sink) sink(batch_time, results);
      if (durability != nullptr) {
        SCUBA_RETURN_IF_ERROR(durability->OnRoundComplete());
      }
    }
  }
  return Status::OK();
}

}  // namespace scuba
