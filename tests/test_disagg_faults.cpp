// Fault-tolerant disaggregated serving: the single-pair recovery contract.
//
// The single-pair deployment is a 1×1 FleetEngine. Its health policy never
// demotes the only worker for transfer failures and restarts a crashed one
// at once (HealthPolicy{down_after = SIZE_MAX, down_cooldown_s = 0}), so
// every failure costs exactly one retry round; the last test pins what the
// default health policy adds on top.
//
// The contract (docs/robustness.md): under any injected fault schedule that
// does not exhaust the retry budget, every request completes with a token
// stream bit-identical to the fault-free run, and the report's fault counters
// equal the FaultModel's injection ledger exactly. When the budget does
// exhaust (or the deadline passes, or the request exceeds the decode
// worker's block capacity), the request degrades to a local decode on the
// prefill worker — still bit-identical, because the fallback rehydrates the
// same blob the wire would have carried.
#include <gtest/gtest.h>

#include "model/tiny_transformer.h"
#include "serving/fleet.h"
#include "workload/corpus.h"

namespace hack {
namespace {

std::shared_ptr<const TinyModelWeights> small_weights() {
  TinyConfig tc;
  tc.vocab = 64;
  tc.layers = 2;
  tc.heads = 4;
  tc.kv_heads = 2;
  tc.d_head = 32;
  tc.d_ff = 128;
  return make_tiny_weights(tc);
}

DisaggConfig base_config() {
  DisaggConfig dc;
  dc.attn.pi = 32;
  dc.attn.kv_bits = 4;
  dc.attn.summation_elimination = true;
  dc.attn.requant_elimination = true;
  // Small chunks so every blob rides the wire in several pieces and a
  // scripted chunk fate is a *partial* loss.
  dc.transfer_chunk_bytes = 2048;
  return dc;
}

std::vector<ServingRequest> make_requests(std::size_t n, std::size_t vocab) {
  SyntheticCorpus corpus({.vocab = vocab}, 42);
  std::vector<ServingRequest> reqs;
  for (std::size_t i = 0; i < n; ++i) {
    ServingRequest r;
    r.prompt = corpus.prompt(i, 40 + 7 * (i % 3));
    r.max_new_tokens = 6 + (i % 4);
    r.arrival_time_s = 0.01 * static_cast<double>(i);
    reqs.push_back(std::move(r));
  }
  return reqs;
}

// The single prefill→decode pair: a 1×1 fleet whose health policy makes
// every failure cost exactly one retry round.
FleetConfig single_pair(const DisaggConfig& dc) {
  FleetConfig fc;
  fc.worker = dc;
  fc.health.down_after = SIZE_MAX;  // transfer failures never demote
  fc.health.down_cooldown_s = 0.0;  // a crashed worker restarts at once
  return fc;
}

// The fault-free reference: same engine, perfect wire.
std::vector<std::vector<int>> reference_tokens(
    const std::shared_ptr<const TinyModelWeights>& weights,
    const DisaggConfig& dc, const std::vector<ServingRequest>& reqs) {
  DisaggConfig clean = dc;
  clean.transfer_faults = {};
  FleetEngine engine(weights, single_pair(clean));
  const FleetReport report = engine.run(reqs);
  std::vector<std::vector<int>> out;
  for (const FleetRecord& rec : report.requests) {
    EXPECT_FALSE(rec.d.rejected);
    out.push_back(rec.d.generated);
  }
  return out;
}

// ------------------------------------------------------------- chaos contract

TEST(DisaggFaults, ChaosScheduleIsBitIdenticalAndLedgerExact) {
  const auto weights = small_weights();
  DisaggConfig dc = base_config();
  const auto reqs = make_requests(6, 64);
  const auto expected = reference_tokens(weights, dc, reqs);

  dc.transfer_faults.chunk_drop_prob = 0.25;
  dc.transfer_faults.chunk_corrupt_prob = 0.10;
  dc.transfer_faults.latency_spike_prob = 0.20;
  dc.transfer_faults.latency_spike_s = 0.005;
  dc.transfer_faults.seed = 0xC4A05;
  dc.retry.max_retries = 16;  // roomy: the schedule must not exhaust it
  FleetEngine engine(weights, single_pair(dc));
  const FleetReport report = engine.run(reqs);
  const FaultStats& ledger = engine.link_faults(0, 0).stats();

  // The schedule actually injected faults (otherwise this test is vacuous).
  ASSERT_GT(ledger.drops, 0u);
  ASSERT_GT(ledger.corruptions, 0u);

  // Every request completed over the wire path, bit-identical to the
  // fault-free run.
  ASSERT_EQ(report.requests.size(), reqs.size());
  std::size_t drops = 0, corruptions = 0, retries = 0;
  for (std::size_t i = 0; i < report.requests.size(); ++i) {
    const DisaggRecord& rec = report.requests[i].d;
    SCOPED_TRACE(testing::Message() << "request " << i);
    EXPECT_FALSE(rec.rejected);
    EXPECT_FALSE(rec.fallback_local);
    EXPECT_EQ(rec.generated, expected[i]);
    drops += rec.chunks_dropped;
    corruptions += rec.chunks_corrupted;
    retries += rec.retries;
  }

  // Report counters match the injection ledger exactly — nothing lost,
  // nothing double-counted.
  EXPECT_EQ(report.chunks_dropped_total, ledger.drops);
  EXPECT_EQ(report.chunks_corrupted_total, ledger.corruptions);
  EXPECT_EQ(report.chunks_dropped_total, drops);
  EXPECT_EQ(report.chunks_corrupted_total, corruptions);
  EXPECT_EQ(report.retries_total, retries);
  EXPECT_GT(report.retries_total, 0u);
  EXPECT_GT(report.retransmitted_bytes_total, 0u);
  // Corruption detection is the receiver CRC: at least one delivered-corrupt
  // blob was rejected, and never more rejections than injected corruptions.
  EXPECT_GT(report.crc_failures_total, 0u);
  EXPECT_LE(report.crc_failures_total, ledger.corruptions);
  EXPECT_EQ(report.fallbacks, 0u);
  EXPECT_EQ(report.deadline_misses, 0u);
}

TEST(DisaggFaults, SameSeedReplaysIdenticalEpisode) {
  const auto weights = small_weights();
  DisaggConfig dc = base_config();
  dc.transfer_faults.chunk_drop_prob = 0.2;
  dc.transfer_faults.chunk_corrupt_prob = 0.1;
  dc.transfer_faults.seed = 99;
  dc.retry.max_retries = 16;
  const auto reqs = make_requests(4, 64);

  FleetEngine a(weights, single_pair(dc)), b(weights, single_pair(dc));
  const FleetReport ra = a.run(reqs), rb = b.run(reqs);
  EXPECT_EQ(ra.retries_total, rb.retries_total);
  EXPECT_EQ(ra.chunks_dropped_total, rb.chunks_dropped_total);
  EXPECT_EQ(ra.chunks_corrupted_total, rb.chunks_corrupted_total);
  EXPECT_EQ(ra.crc_failures_total, rb.crc_failures_total);
  EXPECT_EQ(ra.retransmitted_bytes_total, rb.retransmitted_bytes_total);
  for (std::size_t i = 0; i < ra.requests.size(); ++i) {
    EXPECT_EQ(ra.requests[i].d.generated, rb.requests[i].d.generated);
    EXPECT_DOUBLE_EQ(ra.requests[i].d.backoff_s, rb.requests[i].d.backoff_s);
  }
}

// ------------------------------------------------------- scripted single faults

TEST(DisaggFaults, DroppedChunkRetransmitsOnlyTheMissingRange) {
  const auto weights = small_weights();
  const DisaggConfig dc = base_config();
  const auto reqs = make_requests(1, 64);
  const auto expected = reference_tokens(weights, dc, reqs);

  FleetEngine engine(weights, single_pair(dc));
  engine.link_faults(0, 0).script_fate(1, ChunkFate::kDropped);
  const DisaggRecord rec = engine.run({reqs[0]}).requests[0].d;

  EXPECT_FALSE(rec.rejected);
  EXPECT_FALSE(rec.fallback_local);
  EXPECT_EQ(rec.generated, expected[0]);
  EXPECT_EQ(rec.chunks_dropped, 1u);
  EXPECT_EQ(rec.chunks_corrupted, 0u);
  EXPECT_EQ(rec.crc_failures, 0u);
  EXPECT_EQ(rec.retries, 1u);
  EXPECT_GT(rec.backoff_s, 0.0);
  // Chunk-level recovery: only the lost range went out again.
  EXPECT_GT(rec.retransmitted_bytes, 0u);
  EXPECT_LT(rec.retransmitted_bytes, rec.wire_bytes / 2);
}

TEST(DisaggFaults, CorruptedChunkFailsCrcAndRetransmitsTheBlob) {
  const auto weights = small_weights();
  const DisaggConfig dc = base_config();
  const auto reqs = make_requests(1, 64);
  const auto expected = reference_tokens(weights, dc, reqs);

  FleetEngine engine(weights, single_pair(dc));
  engine.link_faults(0, 0).script_fate(0, ChunkFate::kCorrupted);
  const DisaggRecord rec = engine.run({reqs[0]}).requests[0].d;

  EXPECT_FALSE(rec.rejected);
  EXPECT_FALSE(rec.fallback_local);
  EXPECT_EQ(rec.generated, expected[0]);
  EXPECT_EQ(rec.chunks_corrupted, 1u);
  // The transport delivered every chunk; the receiver's CRC caught the flip
  // and the whole blob was re-sent from the pristine source.
  EXPECT_EQ(rec.chunks_dropped, 0u);
  EXPECT_EQ(rec.crc_failures, 1u);
  EXPECT_EQ(rec.retries, 1u);
  EXPECT_EQ(rec.retransmitted_bytes, rec.wire_bytes);
}

TEST(DisaggFaults, PrefillCrashReprefillsBitIdentically) {
  const auto weights = small_weights();
  const DisaggConfig dc = base_config();
  const auto reqs = make_requests(1, 64);
  const auto expected = reference_tokens(weights, dc, reqs);

  FleetEngine engine(weights, single_pair(dc));
  engine.prefill_worker(0).inject_crash(0);
  const DisaggRecord rec = engine.run({reqs[0]}).requests[0].d;

  EXPECT_FALSE(rec.rejected);
  EXPECT_EQ(rec.generated, expected[0]);
  EXPECT_EQ(rec.prefill_crashes, 1u);
  EXPECT_EQ(rec.decode_crashes, 0u);
  EXPECT_EQ(rec.retries, 1u);
  EXPECT_EQ(rec.retransmitted_bytes, 0u);  // the crash was before the wire
}

TEST(DisaggFaults, DecodeCrashLosesTheBufferAndRetransmits) {
  const auto weights = small_weights();
  const DisaggConfig dc = base_config();
  const auto reqs = make_requests(1, 64);
  const auto expected = reference_tokens(weights, dc, reqs);

  FleetEngine engine(weights, single_pair(dc));
  engine.decode_worker(0).inject_crash(0);
  const DisaggRecord rec = engine.run({reqs[0]}).requests[0].d;

  EXPECT_FALSE(rec.rejected);
  EXPECT_FALSE(rec.fallback_local);
  EXPECT_EQ(rec.generated, expected[0]);
  EXPECT_EQ(rec.decode_crashes, 1u);
  EXPECT_EQ(rec.retries, 1u);
  // The restarted worker's buffer is gone: full blob again.
  EXPECT_EQ(rec.retransmitted_bytes, rec.wire_bytes);
}

// --------------------------------------------------------- graceful degradation

TEST(DisaggFaults, RetryExhaustionFallsBackToLocalDecode) {
  const auto weights = small_weights();
  DisaggConfig dc = base_config();
  dc.retry.max_retries = 2;
  const auto reqs = make_requests(1, 64);
  const auto expected = reference_tokens(weights, dc, reqs);

  FleetEngine engine(weights, single_pair(dc));
  engine.decode_worker(0).inject_crash(0, /*times=*/10);
  const DisaggRecord rec = engine.run({reqs[0]}).requests[0].d;

  EXPECT_FALSE(rec.rejected);
  EXPECT_TRUE(rec.fallback_local);
  // Still the exact same tokens: the fallback decodes the same blob with the
  // same backend seed the decode worker would have used.
  EXPECT_EQ(rec.generated, expected[0]);
  EXPECT_EQ(rec.retries, 2u);           // the whole budget went to recovery
  EXPECT_EQ(rec.decode_crashes, 3u);    // initial try + 2 retries, all crashed
  EXPECT_GT(rec.jct_s, 0.0);
}

TEST(DisaggFaults, ExhaustionWithFallbackDisabledDropsTheRequest) {
  const auto weights = small_weights();
  DisaggConfig dc = base_config();
  dc.retry.max_retries = 1;
  dc.retry.fallback_local = false;

  FleetEngine engine(weights, single_pair(dc));
  engine.decode_worker(0).inject_crash(0, /*times=*/10);
  const DisaggRecord rec = engine.run(make_requests(1, 64)).requests[0].d;
  EXPECT_TRUE(rec.rejected);
  EXPECT_FALSE(rec.fallback_local);
  EXPECT_TRUE(rec.generated.empty());
}

TEST(DisaggFaults, TransferDeadlineMissDegradesGracefully) {
  const auto weights = small_weights();
  DisaggConfig dc = base_config();
  // A deadline no wire can meet: even the clean transfer overruns it.
  dc.retry.transfer_deadline_s = 1e-12;
  const auto reqs = make_requests(1, 64);
  const auto expected = reference_tokens(weights, dc, reqs);

  FleetEngine engine(weights, single_pair(dc));
  const DisaggRecord rec = engine.run({reqs[0]}).requests[0].d;
  EXPECT_FALSE(rec.rejected);
  EXPECT_TRUE(rec.deadline_missed);
  EXPECT_TRUE(rec.fallback_local);
  EXPECT_EQ(rec.generated, expected[0]);

  const FleetReport report = engine.run(reqs);
  EXPECT_EQ(report.deadline_misses, 1u);
  EXPECT_EQ(report.fallbacks, 1u);
}

TEST(DisaggFaults, PrefillCrashExhaustionRejectsOutright) {
  // With no prefill there is no blob, so there is nothing to degrade to.
  const auto weights = small_weights();
  DisaggConfig dc = base_config();
  dc.retry.max_retries = 1;
  FleetEngine engine(weights, single_pair(dc));
  engine.prefill_worker(0).inject_crash(0, /*times=*/10);
  const DisaggRecord rec = engine.run(make_requests(1, 64)).requests[0].d;
  EXPECT_TRUE(rec.rejected);
  EXPECT_EQ(rec.prefill_crashes, 2u);  // initial try + 1 retry
  EXPECT_TRUE(rec.generated.empty());
}

// ------------------------------------------------------------------ accounting

TEST(DisaggFaults, RecordsDecodeBlockNeedWithinCapacity) {
  const auto weights = small_weights();
  DisaggConfig dc = base_config();
  dc.block_tokens = 16;
  dc.decode_kv_blocks = 8;
  const auto reqs = make_requests(3, 64);

  FleetEngine engine(weights, single_pair(dc));
  EXPECT_EQ(engine.decode_worker(0).kv_capacity_blocks(), 8u);
  const FleetReport report = engine.run(reqs);
  ASSERT_EQ(report.requests.size(), reqs.size());
  // Requests decoded one at a time, each admitted on its worst-case need
  // (prompt + max_new tokens in 16-token blocks), which the capacity holds.
  for (const FleetRecord& rec : report.requests) {
    const ServingRequest& r = rec.d.request;
    EXPECT_EQ(rec.decode_worker, 0u);
    EXPECT_FALSE(rec.d.fallback_local);
    EXPECT_EQ(rec.d.decode_kv_blocks,
              (r.prompt.size() + r.max_new_tokens + 15) / 16);
    EXPECT_GT(rec.d.decode_kv_blocks, 0u);
    EXPECT_LE(rec.d.decode_kv_blocks, 8u);
  }
}

TEST(DisaggFaults, BackoffIsDeterministicPerSeed) {
  const auto weights = small_weights();
  DisaggConfig dc = base_config();
  dc.retry.jitter_seed = 5;
  const auto reqs = make_requests(1, 64);

  FleetEngine a(weights, single_pair(dc));
  a.link_faults(0, 0).script_fate(0, ChunkFate::kDropped);
  FleetEngine b(weights, single_pair(dc));
  b.link_faults(0, 0).script_fate(0, ChunkFate::kDropped);
  const double backoff_a = a.run({reqs[0]}).requests[0].d.backoff_s;
  const double backoff_b = b.run({reqs[0]}).requests[0].d.backoff_s;
  EXPECT_GT(backoff_a, 0.0);
  EXPECT_DOUBLE_EQ(backoff_a, backoff_b);

  DisaggConfig other = dc;
  other.retry.jitter_seed = 6;
  FleetEngine c(weights, single_pair(other));
  c.link_faults(0, 0).script_fate(0, ChunkFate::kDropped);
  EXPECT_NE(c.run({reqs[0]}).requests[0].d.backoff_s, backoff_a);
}

// ------------------------------------------------------------- health policy

// Under the default HealthPolicy a crash takes the only decode worker down
// for down_cooldown_s. The retransmit round's backoff is shorter than that,
// so dispatch finds no eligible worker and waits out the cooldown as a
// second, counted round — same tokens, one round more than the single-pair
// policy spends.
TEST(DisaggFaults, DefaultHealthPolicyCountsTheCrashCooldownAsARound) {
  const auto weights = small_weights();
  const DisaggConfig dc = base_config();
  const auto reqs = make_requests(1, 64);
  const auto expected = reference_tokens(weights, dc, reqs);

  FleetConfig fc;
  fc.worker = dc;
  ASSERT_GT(fc.health.down_cooldown_s, 0.0);
  FleetEngine engine(weights, fc);
  engine.decode_worker(0).inject_crash(0);
  const FleetReport report = engine.run(reqs);
  const FleetRecord& rec = report.requests[0];

  EXPECT_FALSE(rec.d.rejected);
  EXPECT_FALSE(rec.d.fallback_local);
  EXPECT_EQ(rec.d.generated, expected[0]);
  EXPECT_EQ(rec.d.decode_crashes, 1u);
  EXPECT_EQ(rec.d.retries, 2u);  // the crash, then the cooldown wait
  EXPECT_EQ(rec.decode_worker, 0u);
  // Down at the crash, recovering once the cooldown elapsed, healthy again
  // after serving the request as its probe.
  const std::vector<HealthTransition>& t =
      report.decode_workers[0].transitions;
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].to, WorkerHealth::kDown);
  EXPECT_EQ(t[1].to, WorkerHealth::kRecovering);
  EXPECT_EQ(t[2].to, WorkerHealth::kHealthy);
  EXPECT_DOUBLE_EQ(t[1].time_s - t[0].time_s, fc.health.down_cooldown_s);
}

}  // namespace
}  // namespace hack
