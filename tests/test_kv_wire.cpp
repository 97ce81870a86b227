// KV wire format: round-trip fidelity and the bit-identical handoff.
//
// The disaggregated contract (docs/disaggregation.md) has two halves:
//   1. serialize → deserialize reproduces every layer's HACK KV state
//      byte for byte — codes, FP16 metadata, SE sums, RQE tail, and each
//      KV head's RNG stream position;
//   2. a decode worker that rehydrates the blob continues generation
//      bit-identically to the single-node engine — the codes on the wire
//      are the codes attention consumes, so the handoff point is invisible
//      in the token stream.
// Both are swept across GQA shapes × {2,4,8}-bit PackedBits × RQE/SE ×
// rounding modes, including ragged (non-multiple-of-Π) contexts.
#include <gtest/gtest.h>

#include <algorithm>

#include "base/check.h"
#include "kvcache/kv_wire.h"
#include "model/tiny_transformer.h"
#include "quant/packed.h"
#include "serving/fleet.h"
#include "serving/engine.h"
#include "workload/corpus.h"

namespace hack {
namespace {

HackAttentionConfig wire_config(int kv_bits, bool se, bool rqe,
                                Rounding rounding = Rounding::kStochastic) {
  HackAttentionConfig cfg;
  cfg.pi = 32;
  cfg.kv_bits = kv_bits;
  cfg.summation_elimination = se;
  cfg.requant_elimination = rqe;
  cfg.rounding = rounding;
  return cfg;
}

// Builds a prefilled layer stack directly at the attention level.
std::vector<std::unique_ptr<HackLayerKvState>> make_prefilled_layers(
    std::size_t layers, std::size_t d_head, std::size_t kv_heads,
    std::size_t query_heads, std::size_t tokens,
    const HackAttentionConfig& cfg, std::uint64_t seed) {
  Rng data_rng(9000 + tokens);
  std::vector<std::unique_ptr<HackLayerKvState>> out;
  for (std::size_t l = 0; l < layers; ++l) {
    auto layer = std::make_unique<HackLayerKvState>(d_head, kv_heads,
                                                    query_heads, cfg,
                                                    seed + l * kv_heads);
    const Matrix q =
        Matrix::random_gaussian(tokens, query_heads * d_head, data_rng);
    const Matrix k =
        Matrix::random_gaussian(tokens, kv_heads * d_head, data_rng);
    const Matrix v =
        Matrix::random_gaussian(tokens, kv_heads * d_head, data_rng);
    (void)layer->prefill(q, k, v);
    out.push_back(std::move(layer));
  }
  return out;
}

std::vector<HackLayerKvState*> pointers(
    const std::vector<std::unique_ptr<HackLayerKvState>>& layers) {
  std::vector<HackLayerKvState*> ptrs;
  for (const auto& l : layers) ptrs.push_back(l.get());
  return ptrs;
}

void expect_states_equal(const HackKvState& a, const HackKvState& b) {
  ASSERT_EQ(a.tokens(), b.tokens());
  // K codes byte for byte, metadata bit for bit.
  EXPECT_EQ(a.k().codes, b.k().codes);
  EXPECT_EQ(a.k().mins, b.k().mins);
  EXPECT_EQ(a.k().scales, b.k().scales);
  EXPECT_EQ(a.k().groups, b.k().groups);
  // SE sums.
  ASSERT_EQ(a.k_sums().outer(), b.k_sums().outer());
  ASSERT_EQ(a.k_sums().groups(), b.k_sums().groups());
  for (std::size_t o = 0; o < a.k_sums().outer(); ++o) {
    for (std::size_t g = 0; g < a.k_sums().groups(); ++g) {
      ASSERT_EQ(a.k_sums().sum(o, g), b.k_sums().sum(o, g));
    }
  }
  // V store + tail.
  ASSERT_EQ(a.v_quantized_ready(), b.v_quantized_ready());
  if (a.v_quantized_ready()) {
    EXPECT_EQ(a.v_quantized().codes, b.v_quantized().codes);
    EXPECT_EQ(a.v_quantized().mins, b.v_quantized().mins);
    EXPECT_EQ(a.v_quantized().scales, b.v_quantized().scales);
  }
  EXPECT_EQ(a.v_tail_fp16(), b.v_tail_fp16());
  ASSERT_EQ(a.v_tail_quantized_ready(), b.v_tail_quantized_ready());
  if (a.v_tail_quantized_ready()) {
    EXPECT_EQ(a.v_tail_quantized().codes, b.v_tail_quantized().codes);
    EXPECT_EQ(a.v_tail_quantized().mins, b.v_tail_quantized().mins);
    EXPECT_EQ(a.v_tail_quantized().scales, b.v_tail_quantized().scales);
  }
}

// ---------------------------------------------------------- wire round-trip

TEST(KvWire, RoundTripAcrossShapesBitsAndAblations) {
  const std::size_t d_head = 64;
  struct Gqa {
    std::size_t kv_heads, query_heads;
  };
  for (const Gqa gqa : {Gqa{1, 1}, Gqa{2, 4}, Gqa{2, 6}}) {
    for (const int kv_bits : {2, 4, 8}) {
      for (const bool se : {true, false}) {
        for (const bool rqe : {true, false}) {
          // 70 tokens: two whole Π=32 partitions + a 6-row tail, so the
          // blob carries every section kind.
          const HackAttentionConfig cfg = wire_config(kv_bits, se, rqe);
          const auto layers = make_prefilled_layers(
              2, d_head, gqa.kv_heads, gqa.query_heads, 70, cfg, 40);
          KvWireSections sections;
          const auto blob = serialize_kv_wire(pointers(layers), &sections);
          EXPECT_EQ(sections.total(), blob.size());
          EXPECT_EQ(sections.sums > 0, se);
          EXPECT_EQ(sections.fp16_tail > 0, rqe);

          std::vector<std::unique_ptr<HackLayerKvState>> fresh;
          for (std::size_t l = 0; l < layers.size(); ++l) {
            fresh.push_back(std::make_unique<HackLayerKvState>(
                d_head, gqa.kv_heads, gqa.query_heads, cfg, 777));
          }
          deserialize_kv_wire(blob, pointers(fresh));

          for (std::size_t l = 0; l < layers.size(); ++l) {
            for (std::size_t h = 0; h < gqa.kv_heads; ++h) {
              SCOPED_TRACE(testing::Message()
                           << "kv_bits " << kv_bits << " se " << se << " rqe "
                           << rqe << " layer " << l << " head " << h);
              expect_states_equal(layers[l]->head_state(h),
                                  fresh[l]->head_state(h));
              EXPECT_EQ(layers[l]->head_rng(h).state(),
                        fresh[l]->head_rng(h).state());
            }
          }
        }
      }
    }
  }
}

TEST(KvWire, WholePartitionContextHasNoTail) {
  const HackAttentionConfig cfg = wire_config(2, true, true);
  const auto layers = make_prefilled_layers(1, 64, 2, 4, 64, cfg, 11);
  KvWireSections sections;
  const auto blob = serialize_kv_wire(pointers(layers), &sections);
  EXPECT_EQ(sections.fp16_tail, 0u);

  std::vector<std::unique_ptr<HackLayerKvState>> fresh;
  fresh.push_back(std::make_unique<HackLayerKvState>(64, 2, 4, cfg, 3));
  deserialize_kv_wire(blob, pointers(fresh));
  expect_states_equal(layers[0]->head_state(0), fresh[0]->head_state(0));
}

TEST(KvWire, HeaderParsesAndRejectsForeignBlobs) {
  const HackAttentionConfig cfg = wire_config(4, true, true);
  const auto layers = make_prefilled_layers(2, 64, 2, 4, 40, cfg, 5);
  auto blob = serialize_kv_wire(pointers(layers));

  const KvWireInfo info = parse_kv_wire_header(blob);
  EXPECT_EQ(info.version, kKvWireVersion);
  EXPECT_EQ(info.layers, 2u);
  EXPECT_EQ(info.kv_heads, 2u);
  EXPECT_EQ(info.query_heads, 4u);
  EXPECT_EQ(info.d_head, 64u);
  EXPECT_EQ(info.kv_bits, 4);
  EXPECT_EQ(info.tokens, 40u);
  EXPECT_EQ(info.payload_bytes, blob.size());
  EXPECT_TRUE(info.summation_elimination);
  EXPECT_TRUE(info.requant_elimination);
  EXPECT_TRUE(info.stochastic_rounding);

  // Bad magic, truncation, and trailing garbage all throw.
  auto corrupted = blob;
  corrupted[0] ^= 0xFF;
  EXPECT_THROW(parse_kv_wire_header(corrupted), CheckError);
  EXPECT_THROW(
      parse_kv_wire_header({blob.data(), blob.size() - 1}), CheckError);

  // Geometry mismatch on the decode side throws instead of corrupting.
  std::vector<std::unique_ptr<HackLayerKvState>> wrong;
  wrong.push_back(std::make_unique<HackLayerKvState>(64, 2, 4, cfg, 0));
  EXPECT_THROW(deserialize_kv_wire(blob, pointers(wrong)), CheckError);
  const HackAttentionConfig other_bits = wire_config(2, true, true);
  std::vector<std::unique_ptr<HackLayerKvState>> mismatched;
  mismatched.push_back(
      std::make_unique<HackLayerKvState>(64, 2, 4, other_bits, 0));
  mismatched.push_back(
      std::make_unique<HackLayerKvState>(64, 2, 4, other_bits, 2));
  EXPECT_THROW(deserialize_kv_wire(blob, pointers(mismatched)), CheckError);
}

// Every single-bit flip and every truncation point must surface as a typed
// KvWireError with a precise code — never UB, an untyped assert, or a
// silently corrupted rehydration. This is the integrity contract the disagg
// recovery layer retries on.
TEST(KvWire, CorruptionSweepYieldsTypedErrors) {
  const HackAttentionConfig cfg = wire_config(4, true, true);
  const auto layers = make_prefilled_layers(2, 64, 2, 4, 40, cfg, 5);
  const auto blob = serialize_kv_wire(pointers(layers));

  const auto fresh_targets = [&] {
    std::vector<std::unique_ptr<HackLayerKvState>> fresh;
    for (std::size_t l = 0; l < layers.size(); ++l) {
      fresh.push_back(std::make_unique<HackLayerKvState>(64, 2, 4, cfg, 777));
    }
    return fresh;
  };
  const auto deserialize_code =
      [&](std::span<const std::uint8_t> bytes) -> KvWireErrorCode {
    const auto fresh = fresh_targets();
    try {
      deserialize_kv_wire(bytes, pointers(fresh));
    } catch (const KvWireError& e) {
      return e.code();
    }
    ADD_FAILURE() << "corrupted blob deserialized without an error";
    return KvWireErrorCode::kBadMagic;
  };

  // Bit flips: every header byte, and the body on a stride (every record is
  // CRC-framed, so any body flip trips its record's checksum — or the bounds
  // check when the flip lands in a record_bytes length field).
  for (std::size_t byte = 0; byte < blob.size();
       byte += (byte < 52 ? 1 : 7)) {
    for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      auto corrupted = blob;
      corrupted[byte] ^= mask;
      SCOPED_TRACE(testing::Message() << "flip byte " << byte << " mask "
                                      << int(mask));
      const KvWireErrorCode code = deserialize_code(corrupted);
      if (byte < 4) {
        EXPECT_EQ(code, KvWireErrorCode::kBadMagic);
      } else if (byte < 8) {
        // Most flips yield an unsupported version number; 2→3 turns the blob
        // into an alleged v3 delta, which the (differently laid out) header
        // CRC then rejects.
        EXPECT_TRUE(code == KvWireErrorCode::kBadVersion ||
                    code == KvWireErrorCode::kBadCrc)
            << kv_wire_error_name(code);
      } else if (byte < 52) {
        // Geometry, flags, token count, payload length, or the stored CRC
        // itself: the header checksum catches all of them.
        EXPECT_EQ(code, KvWireErrorCode::kBadCrc);
      } else {
        EXPECT_TRUE(code == KvWireErrorCode::kBadCrc ||
                    code == KvWireErrorCode::kTruncated)
            << kv_wire_error_name(code);
      }
    }
  }

  // Truncation at every prefix length (strided): always kTruncated.
  for (std::size_t len = 0; len < blob.size(); len += 13) {
    SCOPED_TRACE(testing::Message() << "truncate to " << len);
    EXPECT_EQ(deserialize_code({blob.data(), len}),
              KvWireErrorCode::kTruncated);
  }

  // Trailing garbage past the framed payload.
  auto padded = blob;
  padded.push_back(0);
  EXPECT_EQ(deserialize_code(padded), KvWireErrorCode::kTrailingBytes);

  // The pristine blob still round-trips after all that.
  const auto fresh = fresh_targets();
  deserialize_kv_wire(blob, pointers(fresh));
  expect_states_equal(layers[0]->head_state(0), fresh[0]->head_state(0));
}

TEST(KvWire, PackedBitsViewRoundTripsWireSections) {
  // The packed-code sections use PackedBits' layout: adopting bytes via
  // from_bytes and unpacking reproduces the codes exactly.
  std::vector<std::uint8_t> codes(1000);
  Rng rng(3);
  for (const int bits : {1, 2, 4, 8}) {
    for (auto& c : codes) {
      c = static_cast<std::uint8_t>(rng.next_below(1u << bits));
    }
    const PackedBits packed = PackedBits::pack(codes, bits);
    const PackedBits view =
        PackedBits::from_bytes(bits, codes.size(), packed.bytes());
    EXPECT_EQ(view.unpack(), codes);
    EXPECT_THROW(PackedBits::from_bytes(bits, codes.size() + 64,
                                        packed.bytes()),
                 CheckError);
  }
}

// ------------------------------------------------------- delta checkpoints

// Appends `steps` decode tokens to every layer, drawing fresh gaussian rows —
// the attention-level mirror of the decode loop's per-token appends.
void decode_extra_tokens(
    const std::vector<std::unique_ptr<HackLayerKvState>>& layers,
    std::size_t query_heads, std::size_t kv_heads, std::size_t d_head,
    int steps, Rng& rng) {
  for (int i = 0; i < steps; ++i) {
    const Matrix q = Matrix::random_gaussian(1, query_heads * d_head, rng);
    const Matrix k = Matrix::random_gaussian(1, kv_heads * d_head, rng);
    const Matrix v = Matrix::random_gaussian(1, kv_heads * d_head, rng);
    for (const auto& layer : layers) (void)layer->decode_step(q, k, v);
  }
}

// The tentpole's core contract: base blob + delta ⇒ a state byte-identical
// to a full serialize/deserialize of the donor, across GQA × bit-width ×
// SE/RQE — including the re-interleave of V's column-outer metadata when the
// delta seals new Π partitions, and the tail replacement when it stays ragged.
TEST(KvWire, DeltaRoundTripIsBitIdenticalToFullRestore) {
  const std::size_t d_head = 64;
  struct Gqa {
    std::size_t kv_heads, query_heads;
  };
  for (const Gqa gqa : {Gqa{1, 1}, Gqa{2, 4}}) {
    for (const int kv_bits : {2, 4, 8}) {
      for (const bool se : {true, false}) {
        for (const bool rqe : {true, false}) {
          SCOPED_TRACE(testing::Message()
                       << gqa.query_heads << "Q/" << gqa.kv_heads
                       << "KV kv_bits " << kv_bits << " se " << se << " rqe "
                       << rqe);
          const HackAttentionConfig cfg = wire_config(kv_bits, se, rqe);
          // Base at 70 tokens (ragged 6-row tail), then 41 decode steps: the
          // delta seals a Π=32 partition and ends ragged again at 111.
          const auto donor = make_prefilled_layers(
              2, d_head, gqa.kv_heads, gqa.query_heads, 70, cfg, 40);
          const auto base_blob = serialize_kv_wire(pointers(donor));

          Rng step_rng(7100);
          decode_extra_tokens(donor, gqa.query_heads, gqa.kv_heads, d_head,
                              41, step_rng);
          KvDeltaSuffix suffix;
          for (int i = 0; i < 41; ++i) suffix.generated.push_back(3 + i % 7);
          suffix.next_token = 11;

          KvWireSections delta_sections;
          const auto delta =
              serialize_kv_delta(pointers(donor), 70, suffix, &delta_sections);
          EXPECT_EQ(delta_sections.total(), delta.size());
          const auto full = serialize_kv_wire(pointers(donor));
          EXPECT_LT(delta.size(), full.size());
          verify_kv_wire(delta);  // admission gate accepts a pristine delta

          const KvWireInfo info = parse_kv_wire_header(delta);
          EXPECT_EQ(info.version, kKvWireVersionDelta);
          EXPECT_EQ(info.base_tokens, 70u);
          EXPECT_EQ(info.tokens, 111u);

          std::vector<std::unique_ptr<HackLayerKvState>> replica;
          for (std::size_t l = 0; l < donor.size(); ++l) {
            replica.push_back(std::make_unique<HackLayerKvState>(
                d_head, gqa.kv_heads, gqa.query_heads, cfg, 777));
          }
          deserialize_kv_wire(base_blob, pointers(replica));
          const KvDeltaSuffix got = apply_kv_delta(delta, pointers(replica));
          EXPECT_EQ(got.generated, suffix.generated);
          EXPECT_EQ(got.next_token, suffix.next_token);

          for (std::size_t l = 0; l < donor.size(); ++l) {
            for (std::size_t h = 0; h < gqa.kv_heads; ++h) {
              SCOPED_TRACE(testing::Message() << "layer " << l << " head "
                                              << h);
              expect_states_equal(donor[l]->head_state(h),
                                  replica[l]->head_state(h));
              EXPECT_EQ(donor[l]->head_rng(h).state(),
                        replica[l]->head_rng(h).state());
            }
          }
          // Byte identity, not just field equality: a full blob of the
          // merged replica is the full blob of the donor.
          EXPECT_EQ(serialize_kv_wire(pointers(replica)), full);
        }
      }
    }
  }
}

// The economy argument that makes checkpoint cadence affordable: a K-token
// delta against a long context costs a small fraction of re-shipping the
// whole blob (here ≥10× smaller for an 8-token window over 512 tokens).
TEST(KvWire, DeltaBytesAreSmallFractionOfFullBlob) {
  const HackAttentionConfig cfg = wire_config(4, true, true);
  const auto donor = make_prefilled_layers(2, 64, 2, 4, 512, cfg, 19);
  Rng step_rng(88);
  decode_extra_tokens(donor, 4, 2, 64, 8, step_rng);
  KvDeltaSuffix suffix;
  for (int i = 0; i < 8; ++i) suffix.generated.push_back(i);
  suffix.next_token = 2;
  const auto delta = serialize_kv_delta(pointers(donor), 512, suffix);
  const auto full = serialize_kv_wire(pointers(donor));
  EXPECT_LT(delta.size() * 10, full.size());
}

TEST(KvWire, DeltaTypedErrors) {
  const HackAttentionConfig cfg = wire_config(4, true, true);
  const auto donor = make_prefilled_layers(2, 64, 2, 4, 70, cfg, 40);
  const auto base_blob = serialize_kv_wire(pointers(donor));
  Rng step_rng(5);
  decode_extra_tokens(donor, 4, 2, 64, 9, step_rng);
  KvDeltaSuffix suffix;
  for (int i = 0; i < 9; ++i) suffix.generated.push_back(i);
  suffix.next_token = 1;
  const auto delta = serialize_kv_delta(pointers(donor), 70, suffix);

  const auto fresh_targets = [&] {
    std::vector<std::unique_ptr<HackLayerKvState>> fresh;
    for (std::size_t l = 0; l < donor.size(); ++l) {
      fresh.push_back(std::make_unique<HackLayerKvState>(64, 2, 4, cfg, 777));
    }
    return fresh;
  };
  const auto code_of = [](const auto& fn) -> KvWireErrorCode {
    try {
      fn();
    } catch (const KvWireError& e) {
      return e.code();
    }
    ADD_FAILURE() << "expected a KvWireError";
    return KvWireErrorCode::kBadMagic;
  };

  // A delta blob never reaches the full-restore path, and vice versa.
  {
    const auto fresh = fresh_targets();
    EXPECT_EQ(code_of([&] { deserialize_kv_wire(delta, pointers(fresh)); }),
              KvWireErrorCode::kBadVersion);
    EXPECT_EQ(code_of([&] { apply_kv_delta(base_blob, pointers(fresh)); }),
              KvWireErrorCode::kBadVersion);
  }
  // Applying at the wrong base position is a typed geometry error: a fresh
  // (0-token) stack, and a stack that already absorbed the delta.
  {
    const auto fresh = fresh_targets();
    EXPECT_EQ(code_of([&] { apply_kv_delta(delta, pointers(fresh)); }),
              KvWireErrorCode::kBadGeometry);
    deserialize_kv_wire(base_blob, pointers(fresh));
    (void)apply_kv_delta(delta, pointers(fresh));
    EXPECT_EQ(code_of([&] { apply_kv_delta(delta, pointers(fresh)); }),
              KvWireErrorCode::kBadGeometry);
  }
  // In-flight corruption: every body byte is CRC-covered, so both the
  // admission gate (verify_kv_wire) and the apply path reject the bytes
  // before interpreting them.
  {
    auto corrupted = delta;
    corrupted[corrupted.size() / 2] ^= 0x10;
    EXPECT_EQ(code_of([&] { verify_kv_wire(corrupted); }),
              KvWireErrorCode::kBadCrc);
    const auto fresh = fresh_targets();
    deserialize_kv_wire(base_blob, pointers(fresh));
    EXPECT_EQ(code_of([&] { apply_kv_delta(corrupted, pointers(fresh)); }),
              KvWireErrorCode::kBadCrc);
  }
  // verify_kv_wire walks v2 blobs too. Version 1 (CRC-less) is retired: a
  // v2 blob whose version field reads 1 fails both readers with kBadVersion.
  verify_kv_wire(base_blob);
  auto v1 = base_blob;
  v1[4] = 1;  // version u32, little-endian, right after the magic
  EXPECT_EQ(code_of([&] { verify_kv_wire(v1); }),
            KvWireErrorCode::kBadVersion);
  const auto fresh = fresh_targets();
  EXPECT_EQ(code_of([&] { deserialize_kv_wire(v1, pointers(fresh)); }),
            KvWireErrorCode::kBadVersion);
}

// Session-level delta resume: checkpoint a mid-decode session, rehydrate a
// replica from base blob + delta, and finish generation — the combined token
// stream is bit-identical to the uninterrupted solo generate() run.
TEST(KvWire, SessionDeltaResumeMatchesSoloGenerate) {
  TinyConfig tc;
  tc.vocab = 64;
  tc.layers = 2;
  tc.heads = 4;
  tc.kv_heads = 2;
  tc.d_head = 32;
  tc.d_ff = 128;
  const auto weights = make_tiny_weights(tc);
  const HackAttentionConfig cfg = wire_config(4, true, true);
  const std::vector<int> prompt =
      SyntheticCorpus({.vocab = tc.vocab}, 123).prompt(0, 45);
  const std::size_t max_new = 12;

  TinyTransformer solo(weights, make_hack_layer_backend(cfg, 0));
  const std::vector<int> expected = solo.generate(prompt, max_new, -1);

  // Donor: prefill, serialize the base, then decode 5 tokens and checkpoint.
  TinyModelSession donor(weights, make_hack_layer_backend(cfg, 0));
  Matrix hidden = donor.forward_rows(prompt);
  int token = argmax_logits(donor.logits_for_row(hidden, hidden.rows() - 1));
  const auto base_blob = serialize_session_kv(donor);

  std::vector<int> generated;
  for (int i = 0; i < 5; ++i) {
    generated.push_back(token);
    hidden = donor.forward_rows({token});
    token = argmax_logits(donor.logits_for_row(hidden, hidden.rows() - 1));
  }
  const auto delta =
      serialize_session_kv_delta(donor, prompt.size(), {generated, token});

  // Replica: base + delta, then finish the decode loop mid-stride.
  TinyModelSession replica(weights, make_hack_layer_backend(cfg, 0));
  deserialize_session_kv(base_blob, replica);
  const KvDeltaSuffix suffix = apply_session_kv_delta(delta, replica);
  EXPECT_EQ(replica.position(), prompt.size() + 5);
  std::vector<int> resumed = suffix.generated;
  int t = suffix.next_token;
  while (resumed.size() < max_new) {
    resumed.push_back(t);
    const Matrix h = replica.forward_rows({t});
    t = argmax_logits(replica.logits_for_row(h, h.rows() - 1));
  }
  EXPECT_EQ(resumed, expected);
}

// ------------------------------------------------ bit-identical continuation

struct HandoffCase {
  std::size_t heads, kv_heads;
  int kv_bits;
  bool se, rqe;
  Rounding rounding;
};

// The single prefill→decode pair: a 1×1 fleet whose health policy never
// demotes the only worker for transfer failures and restarts a crashed one
// at once, so every failure costs exactly one retry round.
FleetConfig single_pair(const DisaggConfig& dc) {
  FleetConfig fc;
  fc.worker = dc;
  fc.health.down_after = SIZE_MAX;
  fc.health.down_cooldown_s = 0.0;
  return fc;
}

// Wire bytes over FP16 K+V bytes across the report's served requests.
double wire_vs_fp16(const FleetReport& report) {
  return static_cast<double>(report.wire_bytes_total) /
         static_cast<double>(report.fp16_kv_bytes_total);
}

std::vector<int> disagg_generate(
    const std::shared_ptr<const TinyModelWeights>& weights,
    const DisaggConfig& cfg, const ServingRequest& req,
    DisaggRecord* rec_out = nullptr) {
  FleetEngine engine(weights, single_pair(cfg));
  DisaggRecord rec = engine.run({req}).requests[0].d;
  EXPECT_FALSE(rec.rejected);
  if (rec_out != nullptr) *rec_out = rec;
  return rec.generated;
}

TEST(DisaggHandoff, DecodeContinuationMatchesSoloGenerate) {
  const std::vector<HandoffCase> cases = {
      {4, 2, 2, true, true, Rounding::kStochastic},
      {4, 2, 4, true, true, Rounding::kStochastic},
      {4, 2, 8, true, true, Rounding::kStochastic},
      {6, 2, 2, true, true, Rounding::kStochastic},   // ragged GQA group
      {4, 4, 2, true, true, Rounding::kStochastic},   // MHA
      {4, 2, 2, false, true, Rounding::kStochastic},  // SE off: sums rebuilt
      {4, 2, 2, true, false, Rounding::kStochastic},  // RQE off: ragged tail
      {4, 2, 2, false, false, Rounding::kNearest},
  };
  for (const HandoffCase& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << c.heads << "Q/" << c.kv_heads << "KV kv_bits " << c.kv_bits
                 << " se " << c.se << " rqe " << c.rqe);
    TinyConfig tc;
    tc.vocab = 64;
    tc.layers = 2;
    tc.heads = c.heads;
    tc.kv_heads = c.kv_heads;
    tc.d_head = 32;
    tc.d_ff = 128;
    const auto weights = make_tiny_weights(tc);

    DisaggConfig dc;
    dc.attn = wire_config(c.kv_bits, c.se, c.rqe, c.rounding);
    ServingRequest req;
    req.id = 1;
    req.prompt = SyntheticCorpus({.vocab = tc.vocab}, 123).prompt(0, 45);
    req.max_new_tokens = 12;

    TinyTransformer solo(
        weights, make_hack_layer_backend(dc.attn, dc.backend_seed));
    const std::vector<int> expected =
        solo.generate(req.prompt, req.max_new_tokens, req.eos);

    DisaggRecord rec;
    const std::vector<int> got = disagg_generate(weights, dc, req, &rec);
    EXPECT_EQ(got, expected);
    EXPECT_GT(rec.wire_bytes, 0u);
    EXPECT_GT(rec.transfer_s, 0.0);
    EXPECT_LT(rec.wire_bytes, rec.fp16_kv_bytes);
  }
}

TEST(DisaggHandoff, ChunkedPrefillMatchesSoloUnderNearestRounding) {
  // Chunk boundaries change which stochastic draw lands where (the same
  // caveat as the continuous-batching engine, docs/serving.md), so the
  // chunked ≡ generate() equivalence is pinned under deterministic rounding,
  // and — like the engine's own chunked test — with a prompt shorter than Π:
  // a longer prompt promotes V partitions mid-prefill, so early chunks
  // attend against a still-FP16 tail that whole-prompt prefill has already
  // quantized (a data-representation difference, not a scheduling one).
  TinyConfig tc;
  tc.vocab = 64;
  tc.layers = 2;
  tc.heads = 4;
  tc.kv_heads = 2;
  tc.d_head = 32;
  tc.d_ff = 128;
  const auto weights = make_tiny_weights(tc);

  DisaggConfig dc;
  dc.attn = wire_config(2, true, true, Rounding::kNearest);
  ServingRequest req;
  req.prompt = SyntheticCorpus({.vocab = tc.vocab}, 77).prompt(1, 23);
  req.max_new_tokens = 10;

  TinyTransformer solo(weights,
                       make_hack_layer_backend(dc.attn, dc.backend_seed));
  const std::vector<int> expected =
      solo.generate(req.prompt, req.max_new_tokens, req.eos);

  for (const std::size_t chunk : {5u, 16u, 64u}) {
    DisaggConfig chunked = dc;
    chunked.prefill_chunk_tokens = chunk;
    DisaggRecord rec;
    EXPECT_EQ(disagg_generate(weights, chunked, req, &rec), expected)
        << "chunk " << chunk;
    if (chunk < req.prompt.size()) EXPECT_GT(rec.prefill_chunks, 1u);
  }
}

// The disagg-relevant chunked property: the wire handoff is invisible. A
// local session run with the *same* chunk schedule — prefill chunks, then
// in-process decode, no serialization anywhere — produces the same tokens
// the prefill→wire→decode split does, even under stochastic rounding and a
// long prompt whose V store promotes partitions mid-prefill.
TEST(DisaggHandoff, ChunkedHandoffMatchesLocalRunOfSameSchedule) {
  TinyConfig tc;
  tc.vocab = 64;
  tc.layers = 2;
  tc.heads = 4;
  tc.kv_heads = 2;
  tc.d_head = 32;
  tc.d_ff = 128;
  const auto weights = make_tiny_weights(tc);

  DisaggConfig dc;
  dc.attn = wire_config(2, true, true, Rounding::kStochastic);
  ServingRequest req;
  req.prompt = SyntheticCorpus({.vocab = tc.vocab}, 77).prompt(1, 37);
  req.max_new_tokens = 10;

  for (const std::size_t chunk : {5u, 16u}) {
    DisaggConfig chunked = dc;
    chunked.prefill_chunk_tokens = chunk;

    // Local baseline: same chunk schedule on one session, never serialized.
    TinyModelSession local(
        weights, make_hack_layer_backend(dc.attn, dc.backend_seed));
    SchedulerConfig sc;
    sc.prefill_chunk_tokens = chunk;
    const Scheduler chunker(sc);
    std::vector<float> logits;
    std::size_t begin = 0;
    while (begin < req.prompt.size()) {
      const std::size_t end = chunker.chunk_end(begin, req.prompt.size());
      const std::vector<int> rows(req.prompt.begin() + begin,
                                  req.prompt.begin() + end);
      const Matrix x = local.forward_rows(rows);
      if (end == req.prompt.size()) {
        logits = local.logits_for_row(x, x.rows() - 1);
      }
      begin = end;
    }
    std::vector<int> expected;
    int token = argmax_logits(logits);
    for (std::size_t i = 0; i < req.max_new_tokens; ++i) {
      if (token == req.eos) break;
      expected.push_back(token);
      const Matrix x = local.forward_rows({token});
      token = argmax_logits(local.logits_for_row(x, 0));
    }

    EXPECT_EQ(disagg_generate(weights, chunked, req), expected)
        << "chunk " << chunk;
  }
}

TEST(DisaggHandoff, MatchesSingleNodeServingEngine) {
  // The same request through the single-node continuous-batching engine and
  // through the disaggregated split produces the same tokens.
  TinyConfig tc;
  tc.vocab = 64;
  tc.layers = 2;
  tc.heads = 4;
  tc.kv_heads = 2;
  tc.d_head = 32;
  tc.d_ff = 128;
  const auto weights = make_tiny_weights(tc);

  DisaggConfig dc;
  dc.attn = wire_config(2, true, true);
  ServingRequest req;
  req.id = 7;
  req.prompt = SyntheticCorpus({.vocab = tc.vocab}, 5).prompt(2, 33);
  req.max_new_tokens = 8;

  ServingEngineConfig ec;
  ec.scheduler.prefill_chunk_tokens = 256;  // whole-prompt prefill
  ServingEngine engine(
      weights,
      [&dc] { return make_hack_layer_backend(dc.attn, dc.backend_seed); }, ec);
  engine.submit(req);
  const ServingReport report = engine.run();
  ASSERT_EQ(report.requests.size(), 1u);

  EXPECT_EQ(disagg_generate(weights, dc, req),
            report.requests[0].generated);
}

TEST(DisaggHandoff, DecodePoolRejectsOversizedRequests) {
  TinyConfig tc;
  tc.vocab = 64;
  tc.layers = 2;
  tc.heads = 4;
  tc.kv_heads = 2;
  tc.d_head = 32;
  tc.d_ff = 128;
  const auto weights = make_tiny_weights(tc);

  DisaggConfig dc;
  dc.attn = wire_config(2, true, true);
  dc.block_tokens = 16;
  dc.decode_kv_blocks = 2;  // 32 tokens of decode KV — too small

  ServingRequest req;
  req.prompt = SyntheticCorpus({.vocab = tc.vocab}, 9).prompt(0, 40);
  req.max_new_tokens = 8;

  // Default policy: the rejection degrades gracefully to a local decode on
  // the prefill worker — the request still completes.
  FleetEngine engine(weights, single_pair(dc));
  const DisaggRecord rec = engine.run({req}).requests[0].d;
  EXPECT_FALSE(rec.rejected);
  EXPECT_TRUE(rec.fallback_local);
  EXPECT_FALSE(rec.generated.empty());

  // With fallback disabled, the old drop semantics hold.
  DisaggConfig strict = dc;
  strict.retry.fallback_local = false;
  FleetEngine engine_strict(weights, single_pair(strict));
  const DisaggRecord rec_strict = engine_strict.run({req}).requests[0].d;
  EXPECT_TRUE(rec_strict.rejected);
  EXPECT_TRUE(rec_strict.generated.empty());

  // A capacity that fits admits and decodes on the worst-case need.
  DisaggConfig roomy = dc;
  roomy.decode_kv_blocks = 8;
  FleetEngine engine2(weights, single_pair(roomy));
  const DisaggRecord rec2 = engine2.run({req}).requests[0].d;
  EXPECT_FALSE(rec2.rejected);
  EXPECT_FALSE(rec2.fallback_local);
  EXPECT_EQ(rec2.decode_kv_blocks, 3u);  // ceil(48 / 16)
  EXPECT_LE(rec2.decode_kv_blocks,
            engine2.decode_worker(0).kv_capacity_blocks());
  // The fallback's output matches the admitted decode bit for bit.
  EXPECT_EQ(rec.generated, rec2.generated);
}

TEST(DisaggHandoff, TimelineOverlapsTransfersWithNextPrefill) {
  TinyConfig tc;
  tc.vocab = 64;
  tc.layers = 2;
  tc.heads = 4;
  tc.kv_heads = 2;
  tc.d_head = 32;
  tc.d_ff = 128;
  const auto weights = make_tiny_weights(tc);

  DisaggConfig dc;
  dc.attn = wire_config(2, true, true);
  dc.prefill_nic_gbps = 1e-5;  // ~1.25 KB/s: transfers dominate the timeline

  std::vector<ServingRequest> reqs;
  for (std::size_t i = 0; i < 3; ++i) {
    ServingRequest r;
    r.id = i;
    r.prompt = SyntheticCorpus({.vocab = tc.vocab}, 50 + i).prompt(i, 32);
    r.max_new_tokens = 4;
    reqs.push_back(std::move(r));
  }

  FleetEngine engine(weights, single_pair(dc));
  const FleetReport report = engine.run(reqs);
  ASSERT_EQ(report.requests.size(), 3u);
  for (const FleetRecord& fleet_rec : report.requests) {
    const DisaggRecord& rec = fleet_rec.d;
    EXPECT_FALSE(rec.rejected);
    EXPECT_GT(rec.transfer_s, 0.5);  // the slow NIC really is on the path
    EXPECT_GT(rec.ttft_s, rec.transfer_s);  // TTFT charges the transfer
  }
  // Transfer overlap: with all three prompts prefilled while blobs crawl
  // the wire, the makespan is far below the sum of serialized stages.
  double serial_sum = 0.0;
  for (const FleetRecord& fleet_rec : report.requests) {
    const DisaggRecord& rec = fleet_rec.d;
    serial_sum += rec.prefill_s + rec.serialize_s + rec.transfer_s +
                  rec.deserialize_s + rec.decode_s;
  }
  EXPECT_LT(report.makespan_s, serial_sum);
  EXPECT_GT(wire_vs_fp16(report), 0.0);
  EXPECT_LT(wire_vs_fp16(report), 0.25);  // 2-bit wire vs FP16 KV
}

}  // namespace
}  // namespace hack
