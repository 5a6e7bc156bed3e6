#include "core/scuba_options.h"

namespace scuba {

std::string_view BadUpdatePolicyName(BadUpdatePolicy policy) {
  switch (policy) {
    case BadUpdatePolicy::kStrict:
      return "strict";
    case BadUpdatePolicy::kQuarantine:
      return "quarantine";
    case BadUpdatePolicy::kRepair:
      return "repair";
  }
  return "unknown";
}

Result<BadUpdatePolicy> ParseBadUpdatePolicy(std::string_view name) {
  if (name == "strict") return BadUpdatePolicy::kStrict;
  if (name == "quarantine") return BadUpdatePolicy::kQuarantine;
  if (name == "repair") return BadUpdatePolicy::kRepair;
  return Status::InvalidArgument("unknown bad-update policy: " +
                                 std::string(name) +
                                 " (strict|quarantine|repair)");
}

namespace {

/// ScreenEngineBatch for one span. A clean span keeps `*view` on the caller's
/// updates; otherwise kStrict returns the first error and the other policies
/// copy the valid updates into `*kept` and point `*view` at them.
template <typename Update>
Status ScreenSpan(std::span<const Update> in, BadUpdatePolicy policy,
                  std::vector<Update>* kept, std::span<const Update>* view,
                  uint64_t* dropped) {
  size_t first_bad = 0;
  while (first_bad < in.size() && ValidateUpdate(in[first_bad]).ok()) {
    ++first_bad;
  }
  if (first_bad == in.size()) return Status::OK();
  if (policy == BadUpdatePolicy::kStrict) return ValidateUpdate(in[first_bad]);
  kept->reserve(in.size());
  kept->assign(in.begin(), in.begin() + first_bad);
  for (size_t i = first_bad; i < in.size(); ++i) {
    if (ValidateUpdate(in[i]).ok()) {
      kept->push_back(in[i]);
    } else {
      ++*dropped;
    }
  }
  *view = *kept;
  return Status::OK();
}

}  // namespace

Status ScreenEngineBatch(std::span<const LocationUpdate> objects,
                         std::span<const QueryUpdate> queries,
                         BadUpdatePolicy policy, ScreenedBatch* out) {
  out->objects = objects;
  out->queries = queries;
  SCUBA_RETURN_IF_ERROR(ScreenSpan(objects, policy, &out->kept_objects,
                                   &out->objects, &out->dropped));
  return ScreenSpan(queries, policy, &out->kept_queries, &out->queries,
                    &out->dropped);
}

std::string_view ShardFailurePolicyName(ShardFailurePolicy policy) {
  switch (policy) {
    case ShardFailurePolicy::kFail:
      return "fail";
    case ShardFailurePolicy::kDegrade:
      return "degrade";
    case ShardFailurePolicy::kReassign:
      return "reassign";
  }
  return "unknown";
}

Result<ShardFailurePolicy> ParseShardFailurePolicy(std::string_view name) {
  if (name == "fail") return ShardFailurePolicy::kFail;
  if (name == "degrade") return ShardFailurePolicy::kDegrade;
  if (name == "reassign") return ShardFailurePolicy::kReassign;
  return Status::InvalidArgument("unknown shard-failure policy: " +
                                 std::string(name) +
                                 " (fail|degrade|reassign)");
}

std::string_view RebalanceModeName(RebalanceMode mode) {
  switch (mode) {
    case RebalanceMode::kOff:
      return "off";
    case RebalanceMode::kObserve:
      return "observe";
  }
  return "unknown";
}

Result<RebalanceMode> ParseRebalanceMode(std::string_view name) {
  if (name == "off") return RebalanceMode::kOff;
  if (name == "observe") return RebalanceMode::kObserve;
  return Status::InvalidArgument("unknown rebalance mode: " +
                                 std::string(name) + " (off|observe)");
}

Status ScubaOptions::Validate() const {
  if (theta_d < 0.0) {
    return Status::InvalidArgument("theta_d must be non-negative");
  }
  if (theta_s < 0.0) {
    return Status::InvalidArgument("theta_s must be non-negative");
  }
  if (grid_cells == 0) {
    return Status::InvalidArgument("grid_cells must be positive");
  }
  if (region.Empty() || region.Width() <= 0.0 || region.Height() <= 0.0) {
    return Status::InvalidArgument("region must have positive area");
  }
  if (delta <= 0) {
    return Status::InvalidArgument("delta must be positive");
  }
  if (grid_sync_padding < 0.0) {
    return Status::InvalidArgument("grid_sync_padding must be non-negative");
  }
  if (enable_cluster_splitting && split_radius_factor <= 0.0) {
    return Status::InvalidArgument("split_radius_factor must be positive");
  }
  // 0 means hardware concurrency; the cap catches garbage values (threads
  // beyond any plausible core count would only add scheduling overhead).
  if (join_threads > 1024) {
    return Status::InvalidArgument("join_threads must be in [0, 1024]");
  }
  // Stripes beyond the row count are zero-area and legal (they simply own no
  // cells); the cap catches garbage values like the thread counts above.
  if (shards == 0 || shards > 1024) {
    return Status::InvalidArgument("shards must be in [1, 1024]");
  }
  if (supervision.max_recovery_attempts == 0) {
    return Status::InvalidArgument(
        "supervision.max_recovery_attempts must be >= 1");
  }
  if (supervision.backoff_base_rounds == 0) {
    return Status::InvalidArgument(
        "supervision.backoff_base_rounds must be >= 1");
  }
  if (supervision.round_deadline_seconds < 0.0) {
    return Status::InvalidArgument(
        "supervision.round_deadline_seconds must be non-negative");
  }
  if (supervision.fault_rate < 0.0 || supervision.fault_rate > 1.0) {
    return Status::InvalidArgument("supervision.fault_rate must be in [0, 1]");
  }
  if (checkpoint.keep_last_k == 0) {
    return Status::InvalidArgument("checkpoint.keep_last_k must be >= 1");
  }
  if (checkpoint.wal_segment_bytes < 4096) {
    return Status::InvalidArgument(
        "checkpoint.wal_segment_bytes must be >= 4096");
  }
  if (shedding.eta < 0.0 || shedding.eta > 1.0) {
    return Status::InvalidArgument("shedding eta must be in [0, 1]");
  }
  if (shedding.mode == LoadSheddingMode::kAdaptive) {
    if (shedding.memory_budget_bytes == 0) {
      return Status::InvalidArgument(
          "adaptive shedding needs a memory budget");
    }
    if (shedding.eta_step <= 0.0 || shedding.eta_step > 1.0) {
      return Status::InvalidArgument("eta_step must be in (0, 1]");
    }
    if (shedding.relax_fraction <= 0.0 || shedding.relax_fraction >= 1.0) {
      return Status::InvalidArgument("relax_fraction must be in (0, 1)");
    }
  }
  return Status::OK();
}

}  // namespace scuba
