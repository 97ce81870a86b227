#include "replay.h"

#include <algorithm>

#include "kvcache/kv_wire.h"
#include "serving/scheduler.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hack::Matrix;
using hack::TinyModelSession;

constexpr int kWireRepeats = 3;

struct Stepper {
  const hack::TinyModelWeights& weights;
  TinyModelSession& session;
  Probe& probe;
  ReplayTimes& times;
  std::int64_t request;
  std::int64_t parent;

  // Runs `tokens` through every layer at the session's position, commits
  // them, and returns the greedy token after the last row.
  int step(const std::vector<int>& tokens, const char* name) {
    const std::int64_t step_span = probe.open(name, parent, request);
    const std::size_t start = session.position();
    Matrix x = weights.embed(tokens);
    for (std::size_t layer = 0; layer < session.layers(); ++layer) {
      probe.set_kernel_parent(step_span);
      const double append_before = probe.total(Probe::kAppend).seconds;
      const double t0 = now_s();
      const Matrix q = session.project_and_append(layer, x, start);
      const double t1 = now_s();
      times.qkv_s +=
          (t1 - t0) - (probe.total(Probe::kAppend).seconds - append_before);
      const Matrix attn = session.backend(layer).attend(q, start);
      const double t2 = now_s();
      x = session.finish_layer(layer, std::move(x), attn);
      const double t3 = now_s();
      times.ffn_s += t3 - t2;
      times.layer_rows += tokens.size();
      add_span("model.qkv", t0, t1, step_span, layer, tokens.size());
      add_span("model.ffn", t2, t3, step_span, layer, tokens.size());
    }
    session.advance(tokens.size());

    Matrix hidden(1, x.cols());
    const auto last = x.row(x.rows() - 1);
    std::copy(last.begin(), last.end(), hidden.row(0).begin());
    const double t0 = now_s();
    const Matrix logits = weights.logits_batch(hidden);
    const double t1 = now_s();
    times.lm_head_s += t1 - t0;
    ++times.lm_rows;
    add_span("model.lm_head", t0, t1, step_span, -1, 1);
    probe.close(step_span);
    return hack::argmax_logits(logits.row(0));
  }

  void add_span(const char* name, double t0, double t1, std::int64_t p,
                std::int64_t layer, std::size_t rows) {
    probe.add({.name = name, .start_s = t0, .end_s = t1, .parent = p,
               .request = request, .layer = layer,
               .rows = static_cast<std::int64_t>(rows)});
  }
};

// Times the prefill handoff both ways: serialize the live session, rehydrate
// the blob into a fresh one, a few times over.
void time_wire(const std::shared_ptr<const hack::TinyModelWeights>& weights,
               TinyModelSession& session, Probe& probe, std::int64_t request,
               std::int64_t parent, ReplayTimes& times) {
  const hack::TinyConfig& c = weights->config();
  for (int rep = 0; rep < kWireRepeats; ++rep) {
    const std::int64_t ser = probe.open("kvcache.serialize", parent, request);
    const double t0 = now_s();
    const std::vector<std::uint8_t> blob = hack::serialize_session_kv(session);
    const double t1 = now_s();
    probe.close(ser);
    TinyModelSession fresh(
        weights, hack::make_hack_layer_backend(attention_config(),
                                               kBackendSeed));
    const std::int64_t de = probe.open("kvcache.deserialize", parent, request);
    const double t2 = now_s();
    hack::deserialize_session_kv(blob, fresh);
    const double t3 = now_s();
    probe.close(de);
    times.serialize_s.push_back(t1 - t0);
    times.deserialize_s.push_back(t3 - t2);
    if (rep == 0) {
      times.wire_bytes += blob.size();
      times.fp16_kv_bytes +=
          session.position() * c.kv_heads * c.d_head * 2 * 2 * c.layers;
      times.prompt_tokens += session.position();
    }
  }
}

}  // namespace

std::vector<int> replay_request(
    const std::shared_ptr<const hack::TinyModelWeights>& weights,
    const hack::ServingRequest& request, std::size_t chunk, Probe& probe,
    std::int64_t parent_span, ReplayTimes& times) {
  const auto id = static_cast<std::int64_t>(request.id);
  const std::int64_t span = probe.open("replay", parent_span, id);
  TinyModelSession session(
      weights, timed_factory(hack::make_hack_layer_backend(attention_config(),
                                                           kBackendSeed),
                             probe));
  Stepper stepper{*weights, session, probe, times, id, span};

  const std::size_t prompt = request.prompt.size();
  hack::SchedulerConfig sc;
  sc.prefill_chunk_tokens = chunk == 0 ? prompt : chunk;
  const hack::Scheduler chunker(sc);
  int token = -1;
  for (std::size_t begin = 0; begin < prompt;) {
    const std::size_t end = chunker.chunk_end(begin, prompt);
    token = stepper.step({request.prompt.begin() + begin,
                          request.prompt.begin() + end},
                         "replay.prefill_chunk");
    begin = end;
  }
  time_wire(weights, session, probe, id, span, times);

  std::vector<int> generated;
  while (generated.size() < request.max_new_tokens && token != request.eos) {
    generated.push_back(token);
    if (generated.size() == request.max_new_tokens) break;
    times.decode_context_sum += session.position() + 1;
    ++times.decode_steps;
    token = stepper.step({token}, "replay.decode_step");
  }
  times.layer_stored_bytes += session.backend(0).stored_bytes();
  times.stored_tokens += session.position();
  probe.close(span);
  return generated;
}

}  // namespace perfbench
