#include "serving/disagg.h"

#include <algorithm>
#include <chrono>

#include "netsim/transfer.h"
#include "serving/scheduler.h"

namespace hack {
namespace {

double seconds_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// A contiguous byte span of the blob carried by one transfer chunk.
struct ChunkRange {
  std::size_t off = 0;
  std::size_t len = 0;
};

std::vector<ChunkRange> chunk_ranges(std::size_t bytes, int chunks) {
  std::vector<ChunkRange> ranges(static_cast<std::size_t>(chunks));
  for (int i = 0; i < chunks; ++i) {
    const std::size_t begin = bytes * static_cast<std::size_t>(i) /
                              static_cast<std::size_t>(chunks);
    const std::size_t end = bytes * (static_cast<std::size_t>(i) + 1) /
                            static_cast<std::size_t>(chunks);
    ranges[static_cast<std::size_t>(i)] = {begin, end - begin};
  }
  return ranges;
}

// Flips one deterministically chosen bit inside the chunk's byte range — the
// transport-level realization of a FaultModel kCorrupted fate.
void corrupt_range(std::vector<std::uint8_t>& wire, const ChunkRange& range,
                   std::uint64_t entropy) {
  if (range.len == 0) return;
  const std::size_t byte = range.off + static_cast<std::size_t>(entropy % range.len);
  const unsigned bit = static_cast<unsigned>((entropy >> 32) % 8);
  wire[byte] ^= static_cast<std::uint8_t>(1u << bit);
}

// The continuation of TinyTransformer::generate after its prefill: rehydrate
// the blob into a fresh session and replay generate()'s decode iterations
// exactly — same eos/max semantics, same per-step call sequence, same
// stochastic draws (the wire restored every RNG stream). Shared by the
// decode worker and the prefill worker's local fallback so both paths are
// bit-identical by construction.
struct BlobDecode {
  std::vector<int> generated;
  double deserialize_s = 0.0;
  double decode_s = 0.0;
};

BlobDecode decode_blob(const std::shared_ptr<const TinyModelWeights>& weights,
                       const DisaggConfig& config,
                       std::span<const std::uint8_t> blob, int first_token,
                       const ServingRequest& request) {
  BlobDecode out;
  const auto deser_start = std::chrono::steady_clock::now();
  TinyModelSession session(
      weights, make_hack_layer_backend(config.attn, config.backend_seed));
  deserialize_session_kv(blob, session);
  out.deserialize_s = seconds_since(deser_start);

  const auto decode_start = std::chrono::steady_clock::now();
  int token = first_token;
  for (std::size_t i = 0; i < request.max_new_tokens; ++i) {
    if (token == request.eos) break;
    out.generated.push_back(token);
    const Matrix hidden = session.forward_rows({token});
    token = argmax_logits(session.logits_for_row(hidden, hidden.rows() - 1));
  }
  out.decode_s = seconds_since(decode_start);
  return out;
}

// Consumes one scripted crash if armed for this request index.
void maybe_crash(std::map<std::size_t, std::size_t>& crashes,
                 std::size_t request_index, const std::string& worker) {
  const auto it = crashes.find(request_index);
  if (it != crashes.end() && it->second > 0) {
    --it->second;
    throw WorkerCrash(worker + " worker crashed at request " +
                      std::to_string(request_index));
  }
}

// The decode loop proper, shared by decode() and resume(): continue from an
// already-generated prefix (empty on a fresh decode, the replayed suffix on
// a resume) with the session's KV rows matching it. Cuts a v3 delta against
// `base_tokens` (the prefill handoff position) every K tokens when a sink is
// installed — after the token's KV row is committed and the next input token
// computed, so base + delta reproduces the loop state exactly. Capture time
// is excluded from decode_s (checkpointing is overhead traffic, not model
// compute).
struct DecodeLoop {
  std::vector<int> generated;
  double decode_s = 0.0;
  bool drained = false;
};

DecodeLoop run_decode_loop(TinyModelSession& session,
                           std::vector<int> generated, int token,
                           const ServingRequest& request,
                           const DisaggConfig& config,
                           std::uint64_t base_tokens,
                           const CheckpointSink& sink,
                           std::map<std::size_t, std::size_t>& mid_crashes,
                           std::size_t request_index,
                           const std::string& worker_name) {
  DecodeLoop out;
  out.generated = std::move(generated);
  const std::size_t cadence = config.checkpoint_every_tokens;
  const auto decode_start = std::chrono::steady_clock::now();
  double capture_s = 0.0;
  while (out.generated.size() < request.max_new_tokens &&
         token != request.eos) {
    out.generated.push_back(token);
    const Matrix hidden = session.forward_rows({token});
    token = argmax_logits(session.logits_for_row(hidden, hidden.rows() - 1));
    const bool more = out.generated.size() < request.max_new_tokens &&
                      token != request.eos;
    if (sink && cadence > 0 && more && out.generated.size() % cadence == 0) {
      const auto capture_start = std::chrono::steady_clock::now();
      DecodeCheckpoint ckpt;
      ckpt.tokens_decoded = out.generated.size();
      ckpt.delta = serialize_session_kv_delta(
          session, base_tokens, {out.generated, token}, &ckpt.sections);
      capture_s += seconds_since(capture_start);
      if (!sink(std::move(ckpt))) {
        out.drained = true;
        break;
      }
    }
    // Scripted mid-decode crash: fires at an exact decoded-token count,
    // after any checkpoint due at that count left the worker.
    const auto it = mid_crashes.find(request_index);
    if (it != mid_crashes.end() && it->second == out.generated.size()) {
      mid_crashes.erase(it);
      throw MidDecodeCrash(worker_name + " worker crashed mid-decode at " +
                               std::to_string(out.generated.size()) +
                               " tokens of request " +
                               std::to_string(request_index),
                           out.generated.size());
    }
  }
  out.decode_s = seconds_since(decode_start) - capture_s;
  return out;
}

}  // namespace

Rng retry_jitter_rng(const RetryPolicy& policy, std::uint64_t request_index) {
  // splitmix64 finalizer over the index; index 0 keeps the bare seed so
  // single-request episodes replay the pre-fleet stream.
  std::uint64_t mixed = policy.jitter_seed;
  if (request_index != 0) {
    std::uint64_t z = request_index + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    mixed ^= z ^ (z >> 31);
  }
  return Rng(mixed);
}

double retry_backoff_s(const RetryPolicy& policy, std::size_t round,
                       Rng& jitter) {
  double backoff = policy.backoff_base_s;
  for (std::size_t i = 0; i < round; ++i) backoff *= policy.backoff_mult;
  return backoff * (1.0 + policy.backoff_jitter * jitter.next_double());
}

PrefillWorker::PrefillWorker(std::shared_ptr<const TinyModelWeights> weights,
                             const DisaggConfig& config, std::string name)
    : weights_(std::move(weights)), config_(config), name_(std::move(name)),
      nic_(config.prefill_nic_gbps) {}

void PrefillWorker::inject_crash(std::size_t request_index,
                                 std::size_t times) {
  crashes_[request_index] += times;
}

PrefillWorker::Result PrefillWorker::prefill(const ServingRequest& request,
                                             std::size_t request_index) {
  maybe_crash(crashes_, request_index, name_);
  HACK_CHECK(!request.prompt.empty(), "prefill needs a non-empty prompt");
  TinyModelSession session(
      weights_, make_hack_layer_backend(config_.attn, config_.backend_seed));

  Result result;
  const auto compute_start = std::chrono::steady_clock::now();
  SchedulerConfig chunk_cfg;
  chunk_cfg.prefill_chunk_tokens = config_.prefill_chunk_tokens == 0
                                       ? request.prompt.size()
                                       : config_.prefill_chunk_tokens;
  const Scheduler chunker(chunk_cfg);
  std::vector<float> last_logits;
  std::size_t begin = 0;
  while (begin < request.prompt.size()) {
    const std::size_t end = chunker.chunk_end(begin, request.prompt.size());
    const std::vector<int> chunk(request.prompt.begin() + begin,
                                 request.prompt.begin() + end);
    const Matrix hidden = session.forward_rows(chunk);
    if (end == request.prompt.size()) {
      last_logits = session.logits_for_row(hidden, hidden.rows() - 1);
    }
    ++result.prefill_chunks;
    begin = end;
  }
  result.first_token = argmax_logits(last_logits);
  result.prefill_s = seconds_since(compute_start);

  const auto serialize_start = std::chrono::steady_clock::now();
  result.blob = serialize_session_kv(session, &result.sections);
  result.serialize_s = seconds_since(serialize_start);
  return result;
}

PrefillWorker::LocalDecode PrefillWorker::local_decode(
    std::span<const std::uint8_t> blob, int first_token,
    const ServingRequest& request) {
  const BlobDecode d =
      decode_blob(weights_, config_, blob, first_token, request);
  return {d.generated, d.deserialize_s, d.decode_s};
}

DecodeWorker::DecodeWorker(std::shared_ptr<const TinyModelWeights> weights,
                           const DisaggConfig& config, std::string name)
    : weights_(std::move(weights)), config_(config), name_(std::move(name)),
      nic_(config.decode_nic_gbps) {
  if (config_.decode_kv_blocks > 0) {
    // Accounting blocks sized like the serving engine's: FP16 K+V bytes of
    // block_tokens tokens across all layers and KV heads.
    const TinyConfig& c = weights_->config();
    allocator_ = std::make_unique<BlockAllocator>(
        config_.decode_kv_blocks,
        config_.block_tokens * c.kv_heads * c.d_head * 2 * 2 * c.layers);
  }
}

void DecodeWorker::inject_crash(std::size_t request_index, std::size_t times) {
  crashes_[request_index] += times;
}

void DecodeWorker::inject_crash_at_token(std::size_t request_index,
                                         std::size_t token_index) {
  HACK_CHECK(token_index > 0, "a mid-decode crash needs at least one token");
  mid_crashes_[request_index] = token_index;
}

std::size_t DecodeWorker::blocks_needed(std::size_t blob_tokens,
                                        std::size_t max_new_tokens) const {
  return (blob_tokens + max_new_tokens + config_.block_tokens - 1) /
         config_.block_tokens;
}

std::size_t DecodeWorker::free_kv_blocks() const {
  return allocator_ == nullptr ? SIZE_MAX : allocator_->blocks_free();
}

DecodeWorker::Result DecodeWorker::decode(std::span<const std::uint8_t> blob,
                                          int first_token,
                                          const ServingRequest& request,
                                          std::size_t request_index,
                                          const CheckpointSink& sink) {
  maybe_crash(crashes_, request_index, name_);
  Result result;
  // Integrity gate: the header parse throws KvWireError on a corrupted or
  // truncated blob before any admission state is touched.
  const KvWireInfo info = parse_kv_wire_header(blob);

  // Worst-case block reservation, like the engine's admission control:
  // prompt tokens already in the blob plus every token we may yet append.
  std::vector<BlockId> reserved;
  if (allocator_ != nullptr) {
    const std::size_t need =
        blocks_needed(info.tokens, request.max_new_tokens);
    if (!allocator_->can_allocate(need)) {
      return result;  // not admitted
    }
    for (std::size_t i = 0; i < need; ++i) {
      reserved.push_back(allocator_->allocate());
    }
    result.kv_blocks = reserved.size();
  }
  result.admitted = true;

  try {
    const auto deser_start = std::chrono::steady_clock::now();
    TinyModelSession session(
        weights_, make_hack_layer_backend(config_.attn, config_.backend_seed));
    deserialize_session_kv(blob, session);
    result.deserialize_s = seconds_since(deser_start);

    DecodeLoop loop =
        run_decode_loop(session, {}, first_token, request, config_,
                        info.tokens, sink, mid_crashes_, request_index, name_);
    result.decode_s = loop.decode_s;
    result.generated = std::move(loop.generated);
    result.drained = loop.drained;
  } catch (...) {
    // Record CRC / section failures and scripted crashes surface here; hand
    // back the reserved blocks before propagating so a retry sees a clean
    // pool.
    for (const BlockId id : reserved) allocator_->release(id);
    throw;
  }

  for (const BlockId id : reserved) allocator_->release(id);
  return result;
}

DecodeWorker::Result DecodeWorker::resume(
    std::span<const std::uint8_t> base_blob,
    std::span<const std::uint8_t> delta_blob, const ServingRequest& request,
    std::size_t request_index, const CheckpointSink& sink) {
  maybe_crash(crashes_, request_index, name_);
  Result result;
  const KvWireInfo base_info = parse_kv_wire_header(base_blob);

  // Same worst-case reservation as a fresh decode: the base's prompt tokens
  // plus everything the request may still append (replayed rows included).
  std::vector<BlockId> reserved;
  if (allocator_ != nullptr) {
    const std::size_t need =
        blocks_needed(base_info.tokens, request.max_new_tokens);
    if (!allocator_->can_allocate(need)) {
      return result;  // not admitted
    }
    for (std::size_t i = 0; i < need; ++i) {
      reserved.push_back(allocator_->allocate());
    }
    result.kv_blocks = reserved.size();
  }
  result.admitted = true;

  try {
    const auto deser_start = std::chrono::steady_clock::now();
    TinyModelSession session(
        weights_, make_hack_layer_backend(config_.attn, config_.backend_seed));
    deserialize_session_kv(base_blob, session);
    const KvDeltaSuffix suffix = apply_session_kv_delta(delta_blob, session);
    result.deserialize_s = seconds_since(deser_start);
    result.replayed_tokens = suffix.generated.size();

    // Continue the decode loop mid-stride: the suffix tokens count toward
    // max_new and the next input token is the one the crashed worker had
    // already computed — bit-identical to the uninterrupted run.
    DecodeLoop loop = run_decode_loop(
        session, suffix.generated, suffix.next_token, request, config_,
        base_info.tokens, sink, mid_crashes_, request_index, name_);
    result.decode_s = loop.decode_s;
    result.generated = std::move(loop.generated);
    result.drained = loop.drained;
  } catch (...) {
    for (const BlockId id : reserved) allocator_->release(id);
    throw;
  }

  for (const BlockId id : reserved) allocator_->release(id);
  return result;
}

DisaggEngine::DisaggEngine(std::shared_ptr<const TinyModelWeights> weights,
                           DisaggConfig config)
    : weights_(std::move(weights)), config_(config),
      prefill_(weights_, config_), decode_(weights_, config_),
      faults_(config_.transfer_faults) {}

DisaggReport DisaggEngine::run(std::vector<ServingRequest> requests) {
  std::sort(requests.begin(), requests.end(),
            [](const ServingRequest& a, const ServingRequest& b) {
              return a.arrival_time_s < b.arrival_time_s;
            });

  DisaggReport report;
  std::vector<double> ttfts, jcts;
  const TinyConfig& c = weights_->config();
  const RetryPolicy& policy = config_.retry;
  for (std::size_t index = 0; index < requests.size(); ++index) {
    const ServingRequest& request = requests[index];
    DisaggRecord rec;
    rec.request = request;
    std::size_t budget = policy.max_retries;
    Rng jitter = retry_jitter_rng(policy, index);

    // Prefill occupies its worker for the measured compute + serialize time
    // (plus any crash-recovery backoffs); the transfer then rides the NICs
    // while the worker takes the next prompt (the overlap the paper's
    // pipelining discussion assumes).
    const double prefill_start =
        std::max(request.arrival_time_s, prefill_free_s_);
    double prefill_backoffs = 0.0;
    PrefillWorker::Result pre;
    bool prefilled = false;
    while (!prefilled) {
      try {
        pre = prefill_.prefill(request, index);
        prefilled = true;
      } catch (const WorkerCrash&) {
        ++rec.prefill_crashes;
        if (budget == 0) break;
        --budget;
        const double wait = retry_backoff_s(policy, rec.retries, jitter);
        ++rec.retries;
        rec.backoff_s += wait;
        prefill_backoffs += wait;
        // The restarted worker re-runs the whole prefill — nothing of the
        // crashed attempt survives, so the next attempt is bit-identical.
      }
    }
    if (!prefilled) {
      // No KV state exists anywhere; there is nothing to degrade to.
      rec.rejected = true;
      report.retries_total += rec.retries;
      report.prefill_crashes_total += rec.prefill_crashes;
      report.requests.push_back(std::move(rec));
      continue;
    }
    rec.prefill_s = pre.prefill_s;
    rec.serialize_s = pre.serialize_s;
    rec.prefill_chunks = pre.prefill_chunks;
    rec.wire_bytes = pre.blob.size();
    rec.sections = pre.sections;
    rec.fp16_kv_bytes = parse_kv_wire_header(pre.blob).tokens * c.kv_heads *
                        c.d_head * 2 * 2 * c.layers;
    prefill_free_s_ =
        prefill_start + prefill_backoffs + pre.prefill_s + pre.serialize_s;

    // Transfer + decode under the retry policy. `wire` is the receiver-side
    // reassembly buffer; retransmissions always source the pristine blob.
    const double transfer_epoch = prefill_free_s_;
    double ready = transfer_epoch;
    double first_start = -1.0;
    double last_finish = transfer_epoch;
    bool first_transmission = true;

    const auto deadline_passed = [&] {
      return policy.transfer_deadline_s > 0.0 &&
             last_finish - transfer_epoch > policy.transfer_deadline_s;
    };
    // Books delivery of one blob over the faulty link: transmits its chunk
    // ranges, retransmitting dropped chunks (with backoff) until all land or
    // the budget/deadline gives out. Corrupted chunks land with a bit
    // flipped — detection is the receiver's CRC check, not the transport's.
    // `first` feeds the retransmitted_bytes ledger: request-scoped for the
    // base blob (a post-crash redelivery is a retransmission), per-delivery
    // for checkpoint traffic (each delta's first copy is new bytes).
    const auto deliver_blob = [&](std::vector<std::uint8_t>& wire, Nic& src,
                                  Nic& dst, bool& first) {
      const int chunks =
          kv_wire_transfer_chunks(wire.size(), config_.transfer_chunk_bytes);
      std::vector<ChunkRange> pending = chunk_ranges(wire.size(), chunks);
      while (true) {
        double bytes = 0.0;
        for (const ChunkRange& r : pending) bytes += static_cast<double>(r.len);
        if (!first) {
          rec.retransmitted_bytes += static_cast<std::size_t>(bytes);
        }
        const FaultyTransferResult attempt = nccl_transfer_faulty(
            src, dst, ready, bytes, static_cast<int>(pending.size()),
            &faults_);
        first = false;
        if (first_start < 0.0) first_start = attempt.result.start;
        last_finish = std::max(last_finish, attempt.result.finish);

        std::vector<ChunkRange> still_pending;
        for (std::size_t i = 0; i < pending.size(); ++i) {
          const ChunkEvent& event = attempt.chunks[i];
          if (event.fate == ChunkFate::kDropped) {
            ++rec.chunks_dropped;
            still_pending.push_back(pending[i]);
          } else if (event.fate == ChunkFate::kCorrupted) {
            ++rec.chunks_corrupted;
            corrupt_range(wire, pending[i], event.corrupt_entropy);
          }
        }
        if (still_pending.empty()) return true;
        if (deadline_passed()) {
          rec.deadline_missed = true;
          return false;
        }
        if (budget == 0) return false;
        --budget;
        const double wait = retry_backoff_s(policy, rec.retries, jitter);
        ++rec.retries;
        rec.backoff_s += wait;
        ready = last_finish + wait;
        pending = std::move(still_pending);
      }
    };
    const auto deliver = [&](std::vector<std::uint8_t>& wire) {
      return deliver_blob(wire, prefill_.nic(), decode_.nic(),
                          first_transmission);
    };

    // Checkpoint store: the standby (prefill side here) keeps the latest
    // *verified* delta; a resuming worker needs base + this blob only. The
    // sink buffers cuts during the worker call; the engine books their
    // deliveries afterwards, in cut order — checkpoints that left a crashing
    // worker before it died still reach the store.
    std::vector<std::uint8_t> stored_delta;
    std::size_t stored_tokens = 0;
    std::vector<DecodeCheckpoint> cut;
    CheckpointSink sink;
    if (config_.checkpoint_every_tokens > 0) {
      sink = [&cut](DecodeCheckpoint ckpt) {
        cut.push_back(std::move(ckpt));
        return true;  // the single-pair engine never drains
      };
    }
    const auto book_checkpoints = [&] {
      for (DecodeCheckpoint& ckpt : cut) {
        ++rec.checkpoints;
        rec.checkpoint_bytes += ckpt.delta.size();
        bool stored = false;
        while (!stored) {
          std::vector<std::uint8_t> wire = ckpt.delta;
          bool first = true;
          if (!deliver_blob(wire, decode_.nic(), prefill_.nic(), first)) break;
          try {
            // Admission gate: a delta is stored only after its CRC frames
            // verify on the delivered bytes — a corrupted delivery costs a
            // redelivery round, never a poisoned store.
            verify_kv_wire(wire);
          } catch (const KvWireError&) {
            ++rec.crc_failures;
            if (budget == 0) break;
            --budget;
            const double wait = retry_backoff_s(policy, rec.retries, jitter);
            ++rec.retries;
            rec.backoff_s += wait;
            ready = last_finish + wait;
            continue;
          }
          stored_delta = std::move(wire);
          stored_tokens = ckpt.tokens_decoded;
          stored = true;
        }
        // Budget exhausted before the delta landed: the store keeps the
        // previous checkpoint; a resume just replays a longer window.
        if (!stored) ++rec.checkpoint_failures;
      }
      cut.clear();
    };

    DecodeWorker::Result dec;
    bool delivered = false;
    bool failed = false;
    while (!delivered && !failed) {
      std::vector<std::uint8_t> wire = pre.blob;
      if (!deliver(wire)) {
        failed = true;
        break;
      }
      if (deadline_passed()) {
        rec.deadline_missed = true;
        failed = true;
        break;
      }
      bool retransmit = false;
      // A restarted worker resumes from base + stored delta when the store
      // has one (only ever true after a crash); the delta ships back over
      // the link first. If its delivery exhausts the budget, fall back to a
      // full recompute from the base blob — the previously salvaged tokens
      // are recomputed after all.
      bool resume_now = stored_tokens > 0;
      std::vector<std::uint8_t> delta_wire;
      if (resume_now) {
        delta_wire = stored_delta;
        bool first = true;
        if (!deliver_blob(delta_wire, prefill_.nic(), decode_.nic(), first)) {
          resume_now = false;
          rec.tokens_recomputed += stored_tokens;
        }
      }
      try {
        if (resume_now) {
          dec = decode_.resume(wire, delta_wire, request, index, sink);
        } else {
          dec = decode_.decode(wire, pre.first_token, request, index, sink);
        }
        book_checkpoints();
        if (!dec.admitted) {
          failed = true;  // pool rejection → graceful degradation
          break;
        }
        if (resume_now) {
          ++rec.resumes;
          rec.tokens_replayed += dec.replayed_tokens;
        }
        delivered = true;
      } catch (const MidDecodeCrash& crash) {
        // Mid-generation death: tokens past the last stored checkpoint are
        // the lost window. Checkpoints cut before the crash had already left
        // the worker — book them into the store now.
        ++rec.decode_crashes;
        book_checkpoints();
        rec.tokens_recomputed +=
            crash.tokens_decoded - std::min(stored_tokens,
                                            crash.tokens_decoded);
        retransmit = true;
      } catch (const WorkerCrash&) {
        // The restarted worker lost its receive buffer with the crash.
        ++rec.decode_crashes;
        cut.clear();
        retransmit = true;
      } catch (const KvWireError&) {
        // Corruption survived the transport; the typed CRC/section error is
        // the signal for a full-blob retransmit.
        ++rec.crc_failures;
        cut.clear();
        retransmit = true;
      }
      if (retransmit) {
        if (budget == 0) {
          failed = true;
          break;
        }
        --budget;
        const double wait = retry_backoff_s(policy, rec.retries, jitter);
        ++rec.retries;
        rec.backoff_s += wait;
        ready = last_finish + wait;
      }
    }
    rec.transfer_s = first_start < 0.0 ? 0.0 : last_finish - first_start;
    report.transfer_s_total += rec.transfer_s;

    double first_token_at = 0.0;
    double finish_at = 0.0;
    if (delivered) {
      rec.deserialize_s = dec.deserialize_s;
      rec.decode_s = dec.decode_s;
      rec.decode_kv_blocks = dec.kv_blocks;
      rec.generated = std::move(dec.generated);
      first_token_at =
          std::max(last_finish, decode_free_s_) + dec.deserialize_s;
      finish_at = first_token_at + dec.decode_s;
      decode_free_s_ = finish_at;
    } else if (policy.fallback_local) {
      // Graceful degradation: the prefill worker decodes from its own copy
      // of the blob — bit-identical to the decode worker's continuation, at
      // the cost of occupying the prefill worker.
      rec.fallback_local = true;
      ++report.fallbacks;
      const PrefillWorker::LocalDecode fb =
          prefill_.local_decode(pre.blob, pre.first_token, request);
      rec.deserialize_s = fb.deserialize_s;
      rec.decode_s = fb.decode_s;
      rec.generated = fb.generated;
      const double fallback_start = std::max(last_finish, prefill_free_s_);
      first_token_at = fallback_start + fb.deserialize_s;
      finish_at = first_token_at + fb.decode_s;
      prefill_free_s_ = finish_at;
    } else {
      rec.rejected = true;
    }

    report.retries_total += rec.retries;
    report.chunks_dropped_total += rec.chunks_dropped;
    report.chunks_corrupted_total += rec.chunks_corrupted;
    report.crc_failures_total += rec.crc_failures;
    report.prefill_crashes_total += rec.prefill_crashes;
    report.decode_crashes_total += rec.decode_crashes;
    report.retransmitted_bytes_total += rec.retransmitted_bytes;
    report.checkpoints_total += rec.checkpoints;
    report.checkpoint_bytes_total += rec.checkpoint_bytes;
    report.checkpoint_failures_total += rec.checkpoint_failures;
    report.resumes_total += rec.resumes;
    report.tokens_replayed_total += rec.tokens_replayed;
    report.tokens_recomputed_total += rec.tokens_recomputed;
    if (rec.deadline_missed) ++report.deadline_misses;
    if (rec.rejected) {
      report.requests.push_back(std::move(rec));
      continue;
    }

    rec.ttft_s = first_token_at - request.arrival_time_s;
    rec.jct_s = finish_at - request.arrival_time_s;
    ttfts.push_back(rec.ttft_s);
    jcts.push_back(rec.jct_s);

    report.total_generated += rec.generated.size();
    report.wire_bytes_total += rec.wire_bytes;
    report.fp16_kv_bytes_total += rec.fp16_kv_bytes;
    report.makespan_s = std::max(report.makespan_s, finish_at);
    report.requests.push_back(std::move(rec));
  }

  if (report.fp16_kv_bytes_total > 0) {
    report.wire_vs_fp16 =
        static_cast<double>(report.wire_bytes_total) /
        static_cast<double>(report.fp16_kv_bytes_total);
  }
  if (!ttfts.empty()) report.ttft_s = compute_stats(std::move(ttfts));
  if (!jcts.empty()) report.jct_s = compute_stats(std::move(jcts));
  if (decode_.allocator() != nullptr) {
    report.decode_failed_allocations = decode_.allocator()->failed_allocations();
    report.decode_min_free_watermark = decode_.allocator()->min_free_watermark();
  }
  if (decode_.observed_paged_cache() != nullptr) {
    report.decode_oom_appends = decode_.observed_paged_cache()->oom_appends();
  }
  return report;
}

DisaggRecord DisaggEngine::serve(const ServingRequest& request) {
  DisaggReport report = run({request});
  HACK_CHECK(report.requests.size() == 1, "single-request episode");
  return std::move(report.requests[0]);
}

}  // namespace hack
