#include "domino/runtime/supervisor.h"

#include "domino/runtime/checkpoint.h"

namespace domino::runtime {

bool LoadProgressFromState(const std::string& state_dir, LiveSummary* out,
                           std::int64_t* checkpointed_to_us) {
  // An empty expected fingerprint accepts any config's checkpoint: this is
  // a read-only progress probe, not a resume, so mixing schedules is not a
  // risk. The checksum still rejects torn/corrupt files.
  LiveCheckpoint cp;
  std::string error;
  CheckpointFailure failure = CheckpointFailure::kNone;
  if (!LoadCheckpoint(state_dir + "/live.ckpt", /*expected_fingerprint=*/"",
                      &cp, &error, &failure, InputLimits{})) {
    return false;
  }
  LiveSummary sum;
  sum.polls = cp.poll_count;
  sum.windows = cp.windows;
  sum.chains = cp.chains;
  sum.insufficient_chains = cp.insufficient;
  sum.resets = cp.resets;
  sum.checkpoints = cp.checkpoints_written;
  for (const ShedRange& s : cp.shed) sum.shed_windows += s.windows;
  for (const StallState& s : cp.stalls) {
    if (s.stalled) ++sum.stalled_streams;
  }
  sum.chains_path = state_dir + "/chains.jsonl";
  *out = sum;
  if (checkpointed_to_us != nullptr) {
    *checkpointed_to_us = cp.next_begin.micros();
  }
  return true;
}

}  // namespace domino::runtime
