// Continuous-batching engine: scheduling determinism, shared weights,
// admission control, and lifecycle metrics.
//
// The load-bearing property is determinism: a request's generated tokens
// must not depend on what it was batched with, the thread count, or the
// prefill chunking — the engine is a scheduler, not a sampler. The contract
// (docs/serving.md) comes in two strengths:
//   - any backend, any rounding: continuous batching with whole-prompt
//     prefill is bit-identical to a solo TinyTransformer::generate(), and
//     chunked prefill is bit-identical to a solo run of the same chunk
//     schedule (tested as max_active=1 vs max_active=N);
//   - deterministic rounding (and RNG-free backends): chunked prefill is
//     bit-identical to generate() for every chunk size.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/check.h"
#include "model/tiny_transformer.h"
#include "serving/engine.h"
#include "serving/scheduler.h"
#include "tensor/ops.h"
#include "workload/corpus.h"

namespace hack {
namespace {

TinyConfig small_config(std::size_t heads = 4, std::size_t kv_heads = 2) {
  TinyConfig c;
  c.vocab = 64;
  c.layers = 2;
  c.heads = heads;
  c.kv_heads = kv_heads;
  c.d_head = 32;
  c.d_ff = 128;
  return c;
}

HackAttentionConfig hack_config(Rounding rounding = Rounding::kStochastic) {
  HackAttentionConfig hc;
  hc.pi = 32;  // must divide d_head = 32
  hc.rounding = rounding;
  return hc;
}

std::vector<int> make_prompt(std::size_t len, std::size_t vocab,
                             std::uint64_t seed) {
  SyntheticCorpus corpus({.vocab = vocab}, seed);
  return corpus.prompt(0, len);
}

struct TestRequest {
  std::size_t prompt_len;
  std::size_t max_new;
};

std::vector<ServingRequest> make_requests(
    const std::vector<TestRequest>& shapes, std::size_t vocab) {
  std::vector<ServingRequest> reqs;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    ServingRequest r;
    r.id = i;
    r.prompt = make_prompt(shapes[i].prompt_len, vocab, 100 + i);
    r.max_new_tokens = shapes[i].max_new;
    reqs.push_back(std::move(r));
  }
  return reqs;
}

using FactoryMaker = std::function<LayerBackendFactory()>;

// Solo baseline: a fresh TinyTransformer over the same shared weights and an
// identically seeded backend factory.
std::vector<int> solo_generate(
    const std::shared_ptr<const TinyModelWeights>& weights,
    const FactoryMaker& maker, const ServingRequest& req) {
  TinyTransformer model(weights, maker());
  return model.generate(req.prompt, req.max_new_tokens, req.eos);
}

std::map<std::uint64_t, std::vector<int>> run_engine(
    const std::shared_ptr<const TinyModelWeights>& weights,
    const FactoryMaker& maker, const std::vector<ServingRequest>& reqs,
    const ServingEngineConfig& config, BlockAllocator* allocator = nullptr,
    ServingReport* report_out = nullptr) {
  ServingEngine engine(weights, maker, config, allocator);
  for (const ServingRequest& r : reqs) engine.submit(r);
  ServingReport report = engine.run();
  std::map<std::uint64_t, std::vector<int>> out;
  for (const ServingRecord& rec : report.requests) {
    out[rec.request.id] = rec.generated;
  }
  if (report_out != nullptr) *report_out = std::move(report);
  return out;
}

// ------------------------------------------------------------- scheduler

TEST(Scheduler, ChunkPolicyNeverMakesSingleRowLaunches) {
  SchedulerConfig cfg;
  cfg.prefill_chunk_tokens = 4;
  const Scheduler sched(cfg);
  for (std::size_t prompt = 2; prompt <= 23; ++prompt) {
    std::size_t begin = 0;
    while (begin < prompt) {
      const std::size_t end = sched.chunk_end(begin, prompt);
      ASSERT_GT(end, begin);
      ASSERT_LE(end, prompt);
      // No single-row chunk of a multi-row prompt, no single-row remainder.
      EXPECT_GE(end - begin, 2u) << "prompt " << prompt << " at " << begin;
      EXPECT_NE(prompt - end, 1u) << "prompt " << prompt << " at " << begin;
      begin = end;
    }
  }
  // A one-token prompt is a single 1-row chunk (the solo path is flat too).
  EXPECT_EQ(sched.chunk_end(0, 1), 1u);
}

TEST(Scheduler, ChunkSizeOneStillProgresses) {
  SchedulerConfig cfg;
  cfg.prefill_chunk_tokens = 1;
  const Scheduler sched(cfg);
  EXPECT_EQ(sched.chunk_end(0, 5), 2u);  // floored to 2 rows
  EXPECT_EQ(sched.chunk_end(2, 5), 5u);  // 2 rows, then absorb the 1-row tail
}

TEST(Scheduler, PlanTakesAllDecodesAndOnePrefill) {
  SchedulerConfig cfg;
  cfg.prefill_chunk_tokens = 8;
  const Scheduler sched(cfg);
  const std::vector<Scheduler::SeqView> running = {
      {RequestState::kDecoding, 10, 10},
      {RequestState::kPrefill, 20, 4},
      {RequestState::kDecoding, 6, 6},
      {RequestState::kPrefill, 30, 0},  // second prefill waits its turn
  };
  const StepPlan plan = sched.plan(running);
  EXPECT_EQ(plan.decode, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(plan.prefill, 1u);
  EXPECT_EQ(plan.prefill_begin, 4u);
  EXPECT_EQ(plan.prefill_end, 12u);
}

TEST(Scheduler, AdmissionAgainstBlocks) {
  SchedulerConfig cfg;
  cfg.max_active = 4;
  cfg.block_tokens = 8;
  cfg.free_block_floor = 1;
  const Scheduler sched(cfg);
  BlockAllocator alloc(6, 64);
  ServingRequest req;
  req.prompt.assign(17, 0);   // 17 + 14 = 31 tokens -> 4 blocks
  req.max_new_tokens = 14;
  EXPECT_EQ(sched.blocks_needed(req), 4u);
  EXPECT_TRUE(sched.can_admit(req, 0, &alloc));
  (void)alloc.allocate();
  (void)alloc.allocate();  // 4 free left; 4 needed but floor=1 blocks it
  EXPECT_FALSE(sched.can_admit(req, 0, &alloc));
  EXPECT_TRUE(sched.can_ever_admit(req, &alloc));
  req.max_new_tokens = 60;  // 77 tokens -> 10 blocks > 6-block pool
  EXPECT_FALSE(sched.can_ever_admit(req, &alloc));
}

// ----------------------------------------------------- determinism sweeps

// Whole-prompt prefill: continuous batching must reproduce solo generate()
// bit-identically for every backend, including stochastic HACK, at any
// thread count and any batch composition.
TEST(ServingEngine, MatchesSoloGenerateAcrossBackends) {
  const TinyConfig cfg = small_config();
  const auto weights = make_tiny_weights(cfg);
  const std::shared_ptr<const KvCodec> codec = make_codec("cachegen");
  const std::vector<std::pair<std::string, FactoryMaker>> backends = {
      {"hack-layer",
       [] { return make_hack_layer_backend(hack_config(), 7); }},
      {"hack-per-head",
       [] { return per_head_layer_factory(make_hack_backend(hack_config(), 7)); }},
      {"fp16", [] { return per_head_layer_factory(make_fp16_backend()); }},
      {"codec",
       [codec] {
         return per_head_layer_factory(make_codec_backend(codec, 11));
       }},
      {"minifloat",
       [] {
         return per_head_layer_factory(
             make_minifloat_backend(MiniFloatFormat::kFp8E4M3));
       }},
  };
  const auto reqs = make_requests(
      {{24, 10}, {17, 8}, {31, 12}, {1, 6}}, cfg.vocab);

  for (const auto& [name, maker] : backends) {
    for (const int threads : {0, 1}) {
      ServingEngineConfig ec;
      ec.scheduler.prefill_chunk_tokens = 256;  // whole-prompt prefill
      ec.scheduler.max_active = 8;
      ec.threads = threads;
      const auto got = run_engine(weights, maker, reqs, ec);
      for (const ServingRequest& r : reqs) {
        EXPECT_EQ(got.at(r.id), solo_generate(weights, maker, r))
            << name << " request " << r.id << " threads " << threads;
      }
    }
  }
}

// Forwards every call to a batched HACK layer backend but hides its
// HackLayerKvState, so the engine takes the per-sequence attend path over
// the very same kernels and state.
class HiddenStateBackend : public LayerBackend {
 public:
  explicit HiddenStateBackend(std::unique_ptr<LayerBackend> inner)
      : inner_(std::move(inner)) {}
  void append(const Matrix& k_all, const Matrix& v_all) override {
    inner_->append(k_all, v_all);
  }
  Matrix attend(const Matrix& q_all, std::size_t key_offset) override {
    return inner_->attend(q_all, key_offset);
  }
  std::size_t stored_bytes() const override { return inner_->stored_bytes(); }

 private:
  std::unique_ptr<LayerBackend> inner_;
};

// The fused cross-sequence attention launch must not change any sequence's
// tokens relative to per-sequence attends.
TEST(ServingEngine, FusedAttentionMatchesUnfused) {
  const TinyConfig cfg = small_config();
  const auto weights = make_tiny_weights(cfg);
  const FactoryMaker maker = [] {
    return make_hack_layer_backend(hack_config(), 7);
  };
  const FactoryMaker hidden_maker = [] {
    const LayerBackendFactory inner = make_hack_layer_backend(hack_config(), 7);
    return LayerBackendFactory(
        [inner](std::size_t d_head, std::size_t kv_heads,
                std::size_t query_heads) -> std::unique_ptr<LayerBackend> {
          return std::make_unique<HiddenStateBackend>(
              inner(d_head, kv_heads, query_heads));
        });
  };
  const auto reqs = make_requests({{24, 10}, {17, 8}, {9, 12}}, cfg.vocab);
  ServingEngineConfig ec;
  ec.scheduler.prefill_chunk_tokens = 256;
  ServingReport fused_report, unfused_report;
  const auto a = run_engine(weights, maker, reqs, ec, nullptr, &fused_report);
  const auto b =
      run_engine(weights, hidden_maker, reqs, ec, nullptr, &unfused_report);
  EXPECT_EQ(a, b);
  EXPECT_GT(fused_report.engine.fused_attend_launches, 0u);
  EXPECT_EQ(unfused_report.engine.fused_attend_launches, 0u);
}

// Deterministic rounding: chunked prefill is bit-identical to generate()
// for every chunk size — the scheduler's chunk policy keeps every prompt row
// on the same kernel (streaming vs flat) a whole-prompt prefill uses.
TEST(ServingEngine, ChunkedPrefillMatchesGenerateUnderNearestRounding) {
  for (const auto& [heads, kv_heads] : std::vector<std::pair<std::size_t,
                                                             std::size_t>>{
           {4, 2}, {2, 2}}) {
    const TinyConfig cfg = small_config(heads, kv_heads);
    const auto weights = make_tiny_weights(cfg);
    const std::vector<std::pair<std::string, FactoryMaker>> backends = {
        {"hack-layer-nearest",
         [] {
           return make_hack_layer_backend(hack_config(Rounding::kNearest), 7);
         }},
        {"fp16", [] { return per_head_layer_factory(make_fp16_backend()); }},
    };
    const auto reqs = make_requests({{23, 8}, {17, 6}, {8, 5}}, cfg.vocab);
    for (const auto& [name, maker] : backends) {
      std::map<std::uint64_t, std::vector<int>> solo;
      for (const ServingRequest& r : reqs) {
        solo[r.id] = solo_generate(weights, maker, r);
      }
      for (const std::size_t chunk : {1u, 2u, 3u, 5u, 7u, 16u, 64u}) {
        ServingEngineConfig ec;
        ec.scheduler.prefill_chunk_tokens = chunk;
        const auto got = run_engine(weights, maker, reqs, ec);
        for (const ServingRequest& r : reqs) {
          EXPECT_EQ(got.at(r.id), solo.at(r.id))
              << name << " request " << r.id << " chunk " << chunk
              << " heads " << heads << "/" << kv_heads;
        }
      }
    }
  }
}

// Stochastic rounding with chunked prefill: the chunk schedule changes the
// RNG consumption (so generate() is not the baseline), but scheduling and
// batching still must not — a request interleaved with three others decodes
// the exact tokens of the same request running through the engine alone.
TEST(ServingEngine, ChunkedSchedulingInvariantUnderStochasticRounding) {
  const TinyConfig cfg = small_config();
  const auto weights = make_tiny_weights(cfg);
  const std::shared_ptr<const KvCodec> codec = make_codec("kvquant");
  const std::vector<std::pair<std::string, FactoryMaker>> backends = {
      {"hack-layer",
       [] { return make_hack_layer_backend(hack_config(), 7); }},
      {"codec",
       [codec] {
         return per_head_layer_factory(make_codec_backend(codec, 11));
       }},
  };
  const auto reqs = make_requests(
      {{23, 8}, {17, 6}, {31, 7}, {12, 5}}, cfg.vocab);
  for (const auto& [name, maker] : backends) {
    ServingEngineConfig batched, alone;
    batched.scheduler.prefill_chunk_tokens = 5;
    batched.scheduler.max_active = 4;
    alone.scheduler.prefill_chunk_tokens = 5;
    alone.scheduler.max_active = 1;  // solo run of the same chunk schedule
    const auto together = run_engine(weights, maker, reqs, batched);
    const auto sequential = run_engine(weights, maker, reqs, alone);
    EXPECT_EQ(together, sequential) << name;
  }
}

// ------------------------------------------------- stacked dense rows

bool rows_bitwise_equal(const Matrix& a, std::size_t a_row, const Matrix& b,
                        std::size_t b_row, std::size_t count) {
  return a.cols() == b.cols() && a_row + count <= a.rows() &&
         b_row + count <= b.rows() &&
         std::memcmp(a.flat().data() + a_row * a.cols(),
                     b.flat().data() + b_row * b.cols(),
                     count * a.cols() * sizeof(float)) == 0;
}

// The engine's layer step, driven through the public row-wise API: the rows
// of several sessions — decode lanes at different positions plus one
// prefill chunk — share one project_qkv and one finish_rows per layer, and
// each session RoPEs and appends its own rows. Every hidden row, and the KV
// state the step leaves behind, must equal each session's solo
// forward_rows bit for bit.
TEST(StackedLayer, MatchesPerLaneBitwiseOverGqaShapes) {
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {4, 2}, {8, 2}, {4, 4}, {4, 1}};
  for (const auto& [heads, kv_heads] : shapes) {
    const TinyConfig cfg = small_config(heads, kv_heads);
    const auto weights = make_tiny_weights(cfg);
    const FactoryMaker maker = [] {
      return make_hack_layer_backend(hack_config(), 7);
    };
    // Prefixes already in each lane's KV; the last lane is a prefill chunk.
    const std::vector<std::size_t> history = {5, 12, 20, 8};
    const std::vector<std::size_t> step_rows = {1, 1, 1, 6};
    std::vector<std::unique_ptr<TinyModelSession>> solo, stacked;
    std::vector<std::vector<int>> step_tokens;
    std::vector<int> all_tokens;
    for (std::size_t i = 0; i < history.size(); ++i) {
      const auto prompt =
          make_prompt(history[i] + step_rows[i], cfg.vocab, 300 + i);
      const std::vector<int> prefix(prompt.begin(),
                                    prompt.begin() + history[i]);
      step_tokens.emplace_back(prompt.begin() + history[i], prompt.end());
      all_tokens.insert(all_tokens.end(), step_tokens[i].begin(),
                        step_tokens[i].end());
      for (auto* set : {&solo, &stacked}) {
        set->push_back(std::make_unique<TinyModelSession>(weights, maker()));
        set->back()->forward_rows(prefix);
      }
    }

    Matrix x = weights->embed(all_tokens);
    for (std::size_t layer = 0; layer < cfg.layers; ++layer) {
      const TinyModelWeights::QkvRows qkv = weights->project_qkv(layer, x);
      Matrix attn_all(x.rows(), x.cols());
      std::size_t row = 0;
      for (std::size_t i = 0; i < stacked.size(); ++i) {
        const std::size_t end = row + step_rows[i];
        TinyModelSession& s = *stacked[i];
        const Matrix q = s.append_rows(
            layer,
            {take_rows(qkv.q, row, end), take_rows(qkv.k, row, end),
             take_rows(qkv.v, row, end)},
            history[i]);
        const Matrix attn = s.backend(layer).attend(q, history[i]);
        std::copy(attn.flat().begin(), attn.flat().end(),
                  attn_all.flat().begin() +
                      static_cast<std::ptrdiff_t>(row * attn_all.cols()));
        row = end;
      }
      x = weights->finish_rows(layer, std::move(x), attn_all);
    }

    std::size_t row = 0;
    for (std::size_t i = 0; i < stacked.size(); ++i) {
      stacked[i]->advance(step_rows[i]);
      const Matrix want = solo[i]->forward_rows(step_tokens[i]);
      EXPECT_TRUE(rows_bitwise_equal(x, row, want, 0, step_rows[i]))
          << "heads " << heads << "/" << kv_heads << " lane " << i;
      row += step_rows[i];
      // The appended K/V must match too: one more solo step on each side.
      const Matrix next_stacked = stacked[i]->forward_rows({3});
      const Matrix next_solo = solo[i]->forward_rows({3});
      EXPECT_TRUE(rows_bitwise_equal(next_stacked, 0, next_solo, 0, 1))
          << "heads " << heads << "/" << kv_heads << " lane " << i;
    }
  }
}

// The same property end to end: with 5-token chunks and four slots, steps
// mix a prefill chunk with decode lanes at different positions, and every
// request still decodes the tokens of its solo run of the same chunk
// schedule, over GQA shapes.
TEST(ServingEngine, MixedStackedStepsMatchSoloAcrossGqaShapes) {
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {8, 2}, {4, 4}, {4, 1}};
  for (const auto& [heads, kv_heads] : shapes) {
    const TinyConfig cfg = small_config(heads, kv_heads);
    const auto weights = make_tiny_weights(cfg);
    const FactoryMaker maker = [] {
      return make_hack_layer_backend(hack_config(), 7);
    };
    const auto reqs = make_requests(
        {{23, 8}, {4, 9}, {17, 6}, {31, 7}, {12, 5}}, cfg.vocab);
    ServingEngineConfig batched, alone;
    batched.scheduler.prefill_chunk_tokens = 5;
    batched.scheduler.max_active = 4;
    alone.scheduler.prefill_chunk_tokens = 5;
    alone.scheduler.max_active = 1;
    ServingReport report;
    const auto together =
        run_engine(weights, maker, reqs, batched, nullptr, &report);
    EXPECT_EQ(together, run_engine(weights, maker, reqs, alone))
        << "heads " << heads << "/" << kv_heads;
    // Non-vacuous: some decode steps also carried a prefill chunk.
    EXPECT_GT(report.decode_time_s, report.pure_decode_time_s);
  }
}

TEST(ServingEngine, EosStopsGenerationLikeGenerate) {
  const TinyConfig cfg = small_config();
  const auto weights = make_tiny_weights(cfg);
  const FactoryMaker maker = [] {
    return per_head_layer_factory(make_exact_backend());
  };
  ServingRequest probe;
  probe.prompt = make_prompt(16, cfg.vocab, 200);
  probe.max_new_tokens = 12;
  const auto unbounded = solo_generate(weights, maker, probe);
  ASSERT_GE(unbounded.size(), 2u);
  ServingRequest stopped = probe;
  stopped.eos = unbounded[1];
  const auto got = run_engine(weights, maker, {stopped},
                              ServingEngineConfig{});
  EXPECT_EQ(got.at(0), solo_generate(weights, maker, stopped));
  EXPECT_LT(got.at(0).size(), unbounded.size());
}

// ------------------------------------------------- shared weights / memory

TEST(ServingEngine, SessionsShareOneWeightInstance) {
  const TinyConfig cfg = small_config();
  const auto weights = make_tiny_weights(cfg);
  const long base_count = weights.use_count();
  TinyModelSession a(weights, per_head_layer_factory(make_exact_backend()));
  TinyModelSession b(weights, per_head_layer_factory(make_exact_backend()));
  // Pointer identity: both sessions read the same parameter object.
  EXPECT_EQ(&a.weights(), weights.get());
  EXPECT_EQ(&a.weights(), &b.weights());
  EXPECT_EQ(weights.use_count(), base_count + 2);  // refs, not copies
  EXPECT_GT(weights->weight_bytes(), 0u);

  // TinyTransformer wrappers built from the same pointer share it too.
  TinyTransformer t1(weights, per_head_layer_factory(make_exact_backend()));
  TinyTransformer t2(weights, per_head_layer_factory(make_exact_backend()));
  EXPECT_EQ(&t1.session().weights(), &t2.session().weights());

  // And the engine's sessions all hang off the caller's instance: after a
  // run with 4 concurrent requests, no copy survives.
  ServingEngine engine(
      weights, [] { return per_head_layer_factory(make_exact_backend()); },
      ServingEngineConfig{});
  for (auto& r : make_requests({{8, 4}, {9, 4}, {10, 4}, {11, 4}},
                               cfg.vocab)) {
    engine.submit(std::move(r));
  }
  const ServingReport report = engine.run();
  EXPECT_EQ(report.engine.peak_running, 4u);
  EXPECT_EQ(weights.use_count(), base_count + 2 + 2 + 1);  // a,b,t1,t2,engine
}

// --------------------------------------------------- admission + metrics

TEST(ServingEngine, AdmissionRespectsBlockPoolAndReleasesEverything) {
  const TinyConfig cfg = small_config();
  const auto weights = make_tiny_weights(cfg);
  const FactoryMaker maker = [] {
    return make_hack_layer_backend(hack_config(), 7);
  };
  // Each request: 16 + 8 = 24 tokens over 8-token blocks -> 3 blocks. A
  // 7-block pool runs at most 2 requests at once.
  ServingEngineConfig ec;
  ec.scheduler.block_tokens = 8;
  ec.scheduler.max_active = 8;
  ec.scheduler.prefill_chunk_tokens = 256;
  BlockAllocator alloc(7, 1024);
  const auto reqs = make_requests(
      {{16, 8}, {16, 8}, {16, 8}, {16, 8}}, cfg.vocab);
  ServingReport report;
  const auto got = run_engine(weights, maker, reqs, ec, &alloc, &report);
  for (const ServingRequest& r : reqs) {
    EXPECT_EQ(got.at(r.id), solo_generate(weights, maker, r)) << r.id;
  }
  EXPECT_LE(report.engine.peak_running, 2u);
  EXPECT_EQ(report.engine.kv_bytes_admitted, 4u * 3u * 1024u);
  EXPECT_EQ(report.engine.kv_bytes_released,
            report.engine.kv_bytes_admitted);
  EXPECT_EQ(alloc.blocks_in_use(), 0u);
  EXPECT_LE(alloc.min_free_watermark(), 1u);  // two residents = 6 of 7 blocks
}

TEST(ServingEngine, OversizedRequestIsRejectedNotWedged) {
  const TinyConfig cfg = small_config();
  const auto weights = make_tiny_weights(cfg);
  const FactoryMaker maker = [] {
    return per_head_layer_factory(make_fp16_backend());
  };
  ServingEngineConfig ec;
  ec.scheduler.block_tokens = 8;
  BlockAllocator alloc(4, 256);  // 32-token capacity
  auto reqs = make_requests({{16, 8}, {40, 30}}, cfg.vocab);  // 2nd: 9 blocks
  ServingReport report;
  const auto got = run_engine(weights, maker, reqs, ec, &alloc, &report);
  EXPECT_EQ(got.at(0), solo_generate(weights, maker, reqs[0]));
  EXPECT_TRUE(got.at(1).empty());
  EXPECT_EQ(report.engine.rejected, 1u);
  EXPECT_EQ(report.requests[1].state, RequestState::kRejected);
  EXPECT_EQ(alloc.blocks_in_use(), 0u);
}

TEST(ServingEngine, LifecycleTimestampsAndRollups) {
  const TinyConfig cfg = small_config();
  const auto weights = make_tiny_weights(cfg);
  const FactoryMaker maker = [] {
    return make_hack_layer_backend(hack_config(), 7);
  };
  ServingEngineConfig ec;
  ec.scheduler.prefill_chunk_tokens = 8;
  const auto reqs = make_requests({{20, 6}, {13, 5}, {9, 4}}, cfg.vocab);
  ServingReport report;
  (void)run_engine(weights, maker, reqs, ec, nullptr, &report);

  std::size_t tbt_count = 0;
  for (const ServingRecord& rec : report.requests) {
    ASSERT_EQ(rec.state, RequestState::kFinished);
    EXPECT_EQ(rec.generated.size(), rec.request.max_new_tokens);
    EXPECT_EQ(rec.token_times_s.size(), rec.generated.size());
    EXPECT_GE(rec.admit_time_s, rec.request.arrival_time_s);
    EXPECT_GE(rec.first_token_time_s, rec.admit_time_s);
    EXPECT_GE(rec.finish_time_s, rec.first_token_time_s);
    EXPECT_GE(rec.ttft_s(), 0.0);
    EXPECT_GE(rec.jct_s(), rec.ttft_s());
    for (const double gap : rec.tbt_s()) EXPECT_GE(gap, 0.0);
    tbt_count += rec.tbt_s().size();
  }
  EXPECT_EQ(report.ttft_s.count, reqs.size());
  EXPECT_EQ(report.jct_s.count, reqs.size());
  EXPECT_EQ(report.tbt_s.count, tbt_count);
  EXPECT_EQ(report.total_generated, 6u + 5u + 4u);
  EXPECT_GT(report.tokens_per_s, 0.0);
  EXPECT_GT(report.decode_tokens_per_s, 0.0);
  EXPECT_GT(report.goodput_rps, 0.0);
  EXPECT_GT(report.engine.prefill_chunks, reqs.size());  // chunked prompts
  EXPECT_GT(report.makespan_s, 0.0);
}

TEST(ServingEngine, StaggeredArrivalsAreHonored) {
  const TinyConfig cfg = small_config();
  const auto weights = make_tiny_weights(cfg);
  const FactoryMaker maker = [] {
    return per_head_layer_factory(make_fp16_backend());
  };
  auto reqs = make_requests({{12, 4}, {12, 4}}, cfg.vocab);
  reqs[1].arrival_time_s = 0.05;
  ServingReport report;
  const auto got = run_engine(weights, maker, reqs, ServingEngineConfig{},
                              nullptr, &report);
  for (const ServingRequest& r : reqs) {
    EXPECT_EQ(got.at(r.id), solo_generate(weights, maker, r));
  }
  EXPECT_GE(report.requests[1].admit_time_s, 0.05);
}

}  // namespace
}  // namespace hack
