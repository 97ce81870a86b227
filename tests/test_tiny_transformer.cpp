#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "base/check.h"
#include "base/rng.h"
#include "model/tiny_transformer.h"
#include "tensor/packed_matrix.h"
#include "workload/corpus.h"

namespace hack {
namespace {

TinyConfig small_config() {
  TinyConfig c;
  c.vocab = 64;
  c.layers = 2;
  c.heads = 2;
  c.kv_heads = 2;
  c.d_head = 32;
  c.d_ff = 128;
  return c;
}

std::vector<int> make_prompt(std::size_t len, std::size_t vocab,
                             std::uint64_t seed) {
  SyntheticCorpus corpus({.vocab = vocab}, seed);
  return corpus.prompt(0, len);
}

TEST(TinyTransformer, DeterministicGeneration) {
  const TinyConfig cfg = small_config();
  const auto prompt = make_prompt(24, cfg.vocab, 1);
  TinyTransformer a(cfg, make_exact_backend());
  TinyTransformer b(cfg, make_exact_backend());
  EXPECT_EQ(a.generate(prompt, 16), b.generate(prompt, 16));
}

TEST(TinyTransformer, DifferentSeedsDifferentWeights) {
  TinyConfig c1 = small_config(), c2 = small_config();
  c2.weight_seed = 999;
  const auto prompt = make_prompt(24, c1.vocab, 2);
  TinyTransformer a(c1, make_exact_backend());
  TinyTransformer b(c2, make_exact_backend());
  EXPECT_NE(a.generate(prompt, 16), b.generate(prompt, 16));
}

TEST(TinyTransformer, LogitsFiniteAndVocabSized) {
  const TinyConfig cfg = small_config();
  TinyTransformer model(cfg, make_exact_backend());
  const auto logits = model.prefill(make_prompt(16, cfg.vocab, 3));
  ASSERT_EQ(logits.size(), cfg.vocab);
  for (const float l : logits) EXPECT_TRUE(std::isfinite(l));
}

TEST(TinyTransformer, PrefillThenDecodeAdvancesPosition) {
  const TinyConfig cfg = small_config();
  TinyTransformer model(cfg, make_exact_backend());
  (void)model.prefill(make_prompt(10, cfg.vocab, 4));
  EXPECT_EQ(model.tokens_processed(), 10u);
  (void)model.decode_step(5);
  EXPECT_EQ(model.tokens_processed(), 11u);
}

TEST(TinyTransformer, DecodeBeforePrefillThrows) {
  TinyTransformer model(small_config(), make_exact_backend());
  EXPECT_THROW(model.decode_step(0), CheckError);
}

TEST(TinyTransformer, TokenOutOfVocabThrows) {
  TinyTransformer model(small_config(), make_exact_backend());
  EXPECT_THROW(model.prefill({0, 1, 64}), CheckError);
}

TEST(TinyTransformer, GqaGrouping) {
  TinyConfig cfg = small_config();
  cfg.heads = 4;
  cfg.kv_heads = 2;  // 2 query heads per KV head
  TinyTransformer model(cfg, make_exact_backend());
  const auto out = model.generate(make_prompt(16, cfg.vocab, 5), 8);
  EXPECT_EQ(out.size(), 8u);
}

TEST(TinyTransformer, InvalidGqaThrows) {
  TinyConfig cfg = small_config();
  cfg.heads = 3;
  cfg.kv_heads = 2;
  EXPECT_THROW(TinyTransformer(cfg, make_exact_backend()), CheckError);
}

TEST(TinyTransformer, Fp16BackendMatchesExactClosely) {
  const TinyConfig cfg = small_config();
  const auto prompt = make_prompt(32, cfg.vocab, 6);
  TinyTransformer exact(cfg, make_exact_backend());
  TinyTransformer fp16(cfg, make_fp16_backend());
  const auto ref = exact.generate(prompt, 24);
  const auto out = fp16.generate(prompt, 24);
  // FP16 KV rounding rarely flips tokens at this scale.
  std::size_t agree = 0;
  for (std::size_t i = 0; i < ref.size() && i < out.size(); ++i) {
    if (ref[i] == out[i]) ++agree;
  }
  EXPECT_GT(agree * 10, ref.size() * 7);  // >= 70% agreement
}

TEST(TinyTransformer, HackBackendGeneratesPlausibly) {
  TinyConfig cfg = small_config();
  const auto prompt = make_prompt(48, cfg.vocab, 7);
  HackAttentionConfig hc;
  hc.pi = 32;  // must divide d_head = 32
  TinyTransformer exact(cfg, make_exact_backend());
  TinyTransformer hacked(cfg, make_hack_backend(hc, 42));
  const auto ref = exact.generate(prompt, 16);
  const auto out = hacked.generate(prompt, 16);
  EXPECT_EQ(out.size(), 16u);
  for (const int tok : out) {
    EXPECT_GE(tok, 0);
    EXPECT_LT(tok, static_cast<int>(cfg.vocab));
  }
  (void)ref;
}

TEST(TinyTransformer, HackBackendDeterministicForSeed) {
  TinyConfig cfg = small_config();
  const auto prompt = make_prompt(32, cfg.vocab, 8);
  HackAttentionConfig hc;
  hc.pi = 32;
  TinyTransformer a(cfg, make_hack_backend(hc, 7));
  TinyTransformer b(cfg, make_hack_backend(hc, 7));
  EXPECT_EQ(a.generate(prompt, 12), b.generate(prompt, 12));
}

TEST(TinyTransformer, HackLayerBackendMatchesPerHeadGeneration) {
  // The batched layer backend must generate exactly the tokens of the
  // per-head backend: same seeds, same RNG stream discipline, wider launch.
  TinyConfig cfg = small_config();
  cfg.heads = 4;
  cfg.kv_heads = 2;  // GQA so the batched path shares KV heads
  const auto prompt = make_prompt(40, cfg.vocab, 13);
  HackAttentionConfig hc;
  hc.pi = 32;
  TinyTransformer per_head(cfg, make_hack_backend(hc, 7));
  TinyTransformer batched(cfg, make_hack_layer_backend(hc, 7));
  EXPECT_EQ(per_head.generate(prompt, 16), batched.generate(prompt, 16));
  EXPECT_EQ(per_head.kv_stored_bytes(), batched.kv_stored_bytes());
}

TEST(TinyTransformer, CodecBackendRuns) {
  const TinyConfig cfg = small_config();
  const auto prompt = make_prompt(24, cfg.vocab, 9);
  TinyTransformer model(
      cfg, make_codec_backend(make_codec("cachegen"), 11));
  const auto out = model.generate(prompt, 8);
  EXPECT_EQ(out.size(), 8u);
}

TEST(TinyTransformer, MiniFloatBackendRuns) {
  const TinyConfig cfg = small_config();
  const auto prompt = make_prompt(24, cfg.vocab, 10);
  TinyTransformer model(cfg,
                        make_minifloat_backend(MiniFloatFormat::kFp8E4M3));
  EXPECT_EQ(model.generate(prompt, 8).size(), 8u);
}

TEST(TinyTransformer, KvBytesReflectBackendCompression) {
  const TinyConfig cfg = small_config();
  const auto prompt = make_prompt(64, cfg.vocab, 11);
  HackAttentionConfig hc;
  hc.pi = 32;

  TinyTransformer fp16(cfg, make_fp16_backend());
  TinyTransformer hacked(cfg, make_hack_backend(hc, 13));
  (void)fp16.prefill(prompt);
  (void)hacked.prefill(prompt);
  // HACK's quantized cache is far below the FP16 cache (≈ 6x smaller).
  EXPECT_LT(hacked.kv_stored_bytes() * 3, fp16.kv_stored_bytes());
}

TEST(TinyTransformer, Fp8CacheIsHalfOfFp16) {
  const TinyConfig cfg = small_config();
  const auto prompt = make_prompt(64, cfg.vocab, 12);
  TinyTransformer fp16(cfg, make_fp16_backend());
  TinyTransformer fp8(cfg, make_minifloat_backend(MiniFloatFormat::kFp8E4M3));
  (void)fp16.prefill(prompt);
  (void)fp8.prefill(prompt);
  EXPECT_EQ(fp8.kv_stored_bytes() * 2, fp16.kv_stored_bytes());
}

TEST(TinyTransformer, EosStopsGeneration) {
  const TinyConfig cfg = small_config();
  TinyTransformer probe(cfg, make_exact_backend());
  const auto prompt = make_prompt(16, cfg.vocab, 13);
  const auto unbounded = probe.generate(prompt, 12);
  ASSERT_GE(unbounded.size(), 2u);
  // Re-run with eos = the second generated token: generation must stop there.
  TinyTransformer model(cfg, make_exact_backend());
  const auto stopped = model.generate(prompt, 12, /*eos=*/unbounded[1]);
  EXPECT_LT(stopped.size(), unbounded.size());
}

bool bitwise_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The final RMSNorm with unit gains, as the model computes it.
std::vector<float> rms_norm_unit(std::span<const float> x) {
  double sum_sq = 0.0;
  for (const float v : x) sum_sq += static_cast<double>(v) * v;
  const float inv_rms = 1.0f / std::sqrt(static_cast<float>(
                                  sum_sq / static_cast<double>(x.size())) +
                              1e-6f);
  std::vector<float> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] * inv_rms * 1.0f;
  return out;
}

// The LM head runs on the packed GEMM. Vocab 1000 is 125 panels, so the
// AVX-512 arm also hands an odd trailing panel to the AVX2 tile, and from
// M = 9 up the product is large enough to split over the pool.
TEST(TinyModelWeights, LmHeadBitIdenticalToScalarSweepOnEveryArm) {
  TinyConfig cfg;
  cfg.vocab = 1000;
  cfg.layers = 1;
  cfg.heads = 4;
  cfg.kv_heads = 2;
  cfg.d_head = 64;
  cfg.d_ff = 64;
  const TinyModelWeights weights(cfg);
  const std::size_t d = cfg.d_model();

  // embed() returns the rows the seed's row-major draw gives.
  std::vector<int> all_tokens(cfg.vocab);
  for (std::size_t t = 0; t < cfg.vocab; ++t) {
    all_tokens[t] = static_cast<int>(t);
  }
  const Matrix table = weights.embed(all_tokens);
  Rng rng(cfg.weight_seed);
  const Matrix drawn = Matrix::random_gaussian(
      cfg.vocab, d, rng, 1.0f / std::sqrt(static_cast<float>(d)));
  ASSERT_TRUE(bitwise_equal(table.flat(), drawn.flat()));
  const Matrix some = weights.embed({7, 0, 999, 7});
  EXPECT_TRUE(bitwise_equal(some.row(2), drawn.row(999)));
  EXPECT_TRUE(bitwise_equal(some.row(3), drawn.row(7)));

  Rng hidden_rng(55);
  std::string arms;
  for (const PackedArm arm : packed_matmul_arms()) {
    arms += std::string(" ") + packed_arm_name(arm);
    packed_matmul_force_arm(arm);
    for (const std::size_t m : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 17u, 33u}) {
      Matrix hidden = Matrix::random_gaussian(m, d, hidden_rng);
      for (std::size_t r = 0; r < m; ++r) hidden(r, (r * 5) % d) = 0.0f;
      const Matrix got = weights.logits_batch(hidden);
      ASSERT_EQ(got.rows(), m);
      ASSERT_EQ(got.cols(), cfg.vocab);
      for (std::size_t r = 0; r < m; ++r) {
        const std::vector<float> normed = rms_norm_unit(hidden.row(r));
        std::vector<float> want(cfg.vocab);
        for (std::size_t t = 0; t < cfg.vocab; ++t) {
          float acc = 0.0f;
          for (std::size_t c = 0; c < d; ++c) {
            acc = acc + normed[c] * table(t, c);
          }
          want[t] = acc;
        }
        EXPECT_TRUE(bitwise_equal(got.row(r), want))
            << "m " << m << " row " << r << " arm " << packed_arm_name(arm);
      }
      EXPECT_TRUE(bitwise_equal(weights.logits(hidden.row(0)), got.row(0)))
          << "m " << m << " arm " << packed_arm_name(arm);
    }
  }
  packed_matmul_force_arm(std::nullopt);
  std::printf("packed GEMM arms exercised:%s\n", arms.c_str());
}

// RoPE as it was evaluated before its angles were hoisted: pow, cos and sin
// per (row, head, pair).
void rope_per_head(Matrix& x, std::size_t head_count, std::size_t start_pos,
                   std::size_t dh, float rope_base) {
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto pos = static_cast<float>(start_pos + r);
    for (std::size_t h = 0; h < head_count; ++h) {
      for (std::size_t i = 0; i + 1 < dh; i += 2) {
        const float theta =
            pos * std::pow(rope_base,
                           -static_cast<float>(i) / static_cast<float>(dh));
        const float c = std::cos(theta);
        const float s = std::sin(theta);
        const std::size_t base = h * dh + i;
        const float x0 = x(r, base);
        const float x1 = x(r, base + 1);
        x(r, base) = x0 * c - x1 * s;
        x(r, base + 1) = x0 * s + x1 * c;
      }
    }
  }
}

TEST(TinyModelWeights, RopeMatchesPerHeadEvaluationBitwise) {
  Rng rng(8);
  for (const std::size_t d_head : {128u, 32u, 7u}) {
    TinyConfig cfg = small_config();
    cfg.heads = 8;
    cfg.kv_heads = 2;
    cfg.d_head = d_head;
    const TinyModelWeights weights(cfg);
    for (const std::size_t heads : {1u, 2u, 8u}) {
      for (const std::size_t start : {0u, 1u, 13u, 300u, 4093u}) {
        const Matrix x = Matrix::random_gaussian(5, heads * d_head, rng);
        Matrix got = x, want = x;
        weights.apply_rope(got, heads, start);
        rope_per_head(want, heads, start, d_head, cfg.rope_base);
        EXPECT_TRUE(bitwise_equal(got.flat(), want.flat()))
            << "d_head " << d_head << " heads " << heads << " start "
            << start;
      }
    }
  }
}

}  // namespace
}  // namespace hack
