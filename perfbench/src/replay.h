// Solo replay of one request through TinyModelSession's split-phase API
// (project_and_append, LayerBackend::attend, finish_layer) and the batched
// LM head, timing each phase. It serves twice: its tokens are the
// same-chunk-schedule reference the engine's tokens must equal, and its
// timings are the model.* and attention.attend_* per-layer metrics that the
// engine's fused path hides.
#pragma once

#include <memory>
#include <vector>

#include "probe.h"
#include "serving/request.h"

namespace perfbench {

struct ReplayTimes {
  double qkv_s = 0.0;      // project_and_append minus its KV append
  double ffn_s = 0.0;      // finish_layer: Wo, residual, SwiGLU
  double lm_head_s = 0.0;  // logits_batch
  std::size_t layer_rows = 0;  // rows x layers through the dense phases
  std::size_t lm_rows = 0;

  // Handoff blob of the session right after prefill, timed both ways.
  std::vector<double> serialize_s;
  std::vector<double> deserialize_s;
  std::size_t wire_bytes = 0;
  std::size_t fp16_kv_bytes = 0;
  std::size_t prompt_tokens = 0;

  // Decode attends: KV context summed over decode steps, and one layer's
  // stored KV bytes and token count at the end of each replay.
  std::size_t decode_steps = 0;
  std::size_t decode_context_sum = 0;
  std::size_t layer_stored_bytes = 0;
  std::size_t stored_tokens = 0;
};

// Replays `request` alone with prompt chunks of at most `chunk` rows under
// the serving scheduler's chunk rule (0 or >= prompt: whole prompt). Appends
// and attends report to `probe` through the timed backend decorator.
// Returns the greedy tokens, with the engine's eos and max_new rules.
std::vector<int> replay_request(
    const std::shared_ptr<const hack::TinyModelWeights>& weights,
    const hack::ServingRequest& request, std::size_t chunk, Probe& probe,
    std::int64_t parent_span, ReplayTimes& times);

}  // namespace perfbench
