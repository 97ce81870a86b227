#include "serving/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/check.h"
#include "netsim/transfer.h"

namespace hack {
namespace {

// A contiguous byte span of the blob carried by one transfer chunk —
// retransmissions address these ranges.
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
  const std::size_t byte =
      range.off + static_cast<std::size_t>(entropy % range.len);
  const unsigned bit = static_cast<unsigned>((entropy >> 32) % 8);
  wire[byte] ^= static_cast<std::uint8_t>(1u << bit);
}

// One backoff wait: base · mult^round · (1 + jitter · u) with u drawn from
// the request's jitter stream (retry_jitter_rng).
double retry_backoff_s(std::size_t round, Rng& jitter) {
  double backoff = kRetryBackoffBaseS;
  for (std::size_t i = 0; i < round; ++i) backoff *= kRetryBackoffMult;
  return backoff * (1.0 + kRetryBackoffJitter * jitter.next_double());
}

// Sums one request's counters into the report. Every request passes here
// once, whichever phase it ended in; `finish_at` is its last token's
// timeline instant (unused when rejected).
void rollup(const FleetRecord& rec, double finish_at, FleetReport& report) {
  report.retries_total += rec.d.retries;
  report.chunks_dropped_total += rec.d.chunks_dropped;
  report.chunks_corrupted_total += rec.d.chunks_corrupted;
  report.crc_failures_total += rec.d.crc_failures;
  report.prefill_crashes_total += rec.d.prefill_crashes;
  report.decode_crashes_total += rec.d.decode_crashes;
  report.retransmitted_bytes_total += rec.d.retransmitted_bytes;
  report.reroutes_total += rec.reroutes;
  report.prefill_failovers_total += rec.prefill_failovers;
  report.re_prefills_total += rec.re_prefills;
  report.checkpoints_total += rec.d.checkpoints;
  report.checkpoint_bytes_total += rec.d.checkpoint_bytes;
  report.checkpoint_failures_total += rec.d.checkpoint_failures;
  report.resumes_total += rec.d.resumes;
  report.tokens_replayed_total += rec.d.tokens_replayed;
  report.tokens_recomputed_total += rec.d.tokens_recomputed;
  report.migrations_total += rec.migrations;
  report.drain_events_total += rec.drains;
  if (rec.shed) ++report.shed_total;
  if (rec.d.deadline_missed) ++report.deadline_misses;
  if (rec.d.rejected) ++report.rejected;
  if (rec.d.fallback_local) ++report.fallbacks;
  if (rec.d.rejected) return;
  report.total_generated += rec.d.generated.size();
  report.wire_bytes_total += rec.d.wire_bytes;
  report.fp16_kv_bytes_total += rec.d.fp16_kv_bytes;
  report.makespan_s = std::max(report.makespan_s, finish_at);
}

// Lower is better; policies never see kDown workers but rank them anyway so
// a custom policy handed a full snapshot set stays well-defined.
int health_rank(WorkerHealth health) {
  switch (health) {
    case WorkerHealth::kHealthy:
      return 0;
    case WorkerHealth::kRecovering:
      return 1;
    case WorkerHealth::kSuspect:
      return 2;
    case WorkerHealth::kDown:
      return 3;
  }
  return 4;
}

int best_rank(std::span<const WorkerSnapshot> candidates) {
  int best = 4;
  for (const WorkerSnapshot& s : candidates) {
    best = std::min(best, health_rank(s.health));
  }
  return best;
}

}  // namespace

const char* worker_health_name(WorkerHealth health) {
  switch (health) {
    case WorkerHealth::kHealthy:
      return "healthy";
    case WorkerHealth::kSuspect:
      return "suspect";
    case WorkerHealth::kDown:
      return "down";
    case WorkerHealth::kRecovering:
      return "recovering";
  }
  return "unknown";
}

std::size_t dispatch_round_robin(const DispatchContext& context,
                                 std::span<const WorkerSnapshot> candidates) {
  HACK_CHECK(!candidates.empty(), "dispatch over an empty candidate set");
  const int best = best_rank(candidates);
  const std::size_t n = candidates.size();
  for (std::size_t k = 0; k < n; ++k) {
    const WorkerSnapshot& s =
        candidates[(context.rr_cursor + k) % n];
    if (health_rank(s.health) == best) return s.index;
  }
  return candidates[0].index;  // unreachable: best came from candidates
}

std::size_t dispatch_least_outstanding_bytes(
    const DispatchContext& context,
    std::span<const WorkerSnapshot> candidates) {
  (void)context;
  HACK_CHECK(!candidates.empty(), "dispatch over an empty candidate set");
  const int best = best_rank(candidates);
  const WorkerSnapshot* pick = nullptr;
  for (const WorkerSnapshot& s : candidates) {
    if (health_rank(s.health) != best) continue;
    if (pick == nullptr || s.outstanding_bytes < pick->outstanding_bytes ||
        (s.outstanding_bytes == pick->outstanding_bytes &&
         (s.free_at_s < pick->free_at_s ||
          (s.free_at_s == pick->free_at_s && s.index < pick->index)))) {
      pick = &s;
    }
  }
  return pick->index;
}

std::size_t dispatch_most_free_blocks(
    const DispatchContext& context,
    std::span<const WorkerSnapshot> candidates) {
  (void)context;
  HACK_CHECK(!candidates.empty(), "dispatch over an empty candidate set");
  const int best = best_rank(candidates);
  const WorkerSnapshot* pick = nullptr;
  for (const WorkerSnapshot& s : candidates) {
    if (health_rank(s.health) != best) continue;
    if (pick == nullptr || s.free_kv_blocks > pick->free_kv_blocks ||
        (s.free_kv_blocks == pick->free_kv_blocks &&
         (s.outstanding_bytes < pick->outstanding_bytes ||
          (s.outstanding_bytes == pick->outstanding_bytes &&
           s.index < pick->index)))) {
      pick = &s;
    }
  }
  return pick->index;
}

const char* dispatch_policy_name(DispatchPolicyFn policy) {
  if (policy == &dispatch_round_robin) return "round_robin";
  if (policy == &dispatch_least_outstanding_bytes) {
    return "least_outstanding_bytes";
  }
  if (policy == &dispatch_most_free_blocks) return "most_free_blocks";
  return "custom";
}

void FleetEngine::HealthTracker::transition(WorkerHealth to, double t) {
  if (to == state) return;
  transitions.push_back({t, state, to});
  state = to;
}

void FleetEngine::HealthTracker::refresh(double t,
                                         const HealthPolicy& policy) {
  if (state == WorkerHealth::kDown &&
      t >= down_since_s + policy.down_cooldown_s) {
    // The transition is stamped when the cooldown elapsed, not when the
    // engine happened to look.
    transition(WorkerHealth::kRecovering,
               down_since_s + policy.down_cooldown_s);
    probation = 0;
    consecutive_failures = 0;
  }
}

void FleetEngine::HealthTracker::on_success(double t,
                                            const HealthPolicy& policy) {
  consecutive_failures = 0;
  if (state == WorkerHealth::kSuspect) {
    transition(WorkerHealth::kHealthy, t);
  } else if (state == WorkerHealth::kRecovering) {
    if (++probation >= policy.probation_successes) {
      transition(WorkerHealth::kHealthy, t);
    }
  }
}

void FleetEngine::HealthTracker::on_failure(double t,
                                            const HealthPolicy& policy,
                                            bool fatal) {
  ++consecutive_failures;
  if (fatal || consecutive_failures >= policy.down_after) {
    transition(WorkerHealth::kDown, t);
    down_since_s = t;
  } else if (state == WorkerHealth::kHealthy &&
             consecutive_failures >= policy.suspect_after) {
    transition(WorkerHealth::kSuspect, t);
  }
}

FleetEngine::FleetEngine(std::shared_ptr<const TinyModelWeights> weights,
                         FleetConfig config)
    : weights_(std::move(weights)), config_(std::move(config)) {
  HACK_CHECK(config_.prefill_workers >= 1,
             "fleet needs at least one prefill worker");
  HACK_CHECK(config_.decode_workers >= 1,
             "fleet needs at least one decode worker");
  HACK_CHECK(config_.decode_pool_blocks.empty() ||
                 config_.decode_pool_blocks.size() == config_.decode_workers,
             "decode_pool_blocks must name every decode worker ("
                 << config_.decode_pool_blocks.size() << " sizes for "
                 << config_.decode_workers << " workers)");
  for (std::size_t i = 0; i < config_.prefill_workers; ++i) {
    prefill_.push_back(std::make_unique<PrefillWorker>(
        weights_, config_.worker, "prefill" + std::to_string(i)));
  }
  for (std::size_t j = 0; j < config_.decode_workers; ++j) {
    DisaggConfig wc = config_.worker;
    if (!config_.decode_pool_blocks.empty()) {
      wc.decode_kv_blocks = config_.decode_pool_blocks[j];
    }
    decode_.push_back(std::make_unique<DecodeWorker>(
        weights_, wc, "decode" + std::to_string(j)));
  }
  // Link (p, d) gets link id p·M + d — link 0 is (prefill0, decode0) and
  // keeps the base seed, so a 1×1 fleet draws the base config's exact
  // fault stream.
  for (std::size_t p = 0; p < config_.prefill_workers; ++p) {
    for (std::size_t d = 0; d < config_.decode_workers; ++d) {
      links_.push_back(std::make_unique<FaultModel>(fault_config_for_link(
          config_.worker.transfer_faults, p * config_.decode_workers + d)));
    }
  }
  prefill_book_.resize(config_.prefill_workers);
  decode_book_.resize(config_.decode_workers);
}

FaultModel& FleetEngine::link_faults(std::size_t prefill, std::size_t decode) {
  return *links_.at(prefill * decode_.size() + decode);
}

void FleetEngine::set_link_faults(std::size_t prefill, std::size_t decode,
                                  const FaultConfig& config) {
  links_.at(prefill * decode_.size() + decode) =
      std::make_unique<FaultModel>(config);
}

FaultStats FleetEngine::fault_ledger() const {
  FaultStats total;
  for (const auto& link : links_) {
    const FaultStats& s = link->stats();
    total.chunks_seen += s.chunks_seen;
    total.drops += s.drops;
    total.corruptions += s.corruptions;
    total.latency_spikes += s.latency_spikes;
    total.down_delays += s.down_delays;
  }
  return total;
}

WorkerSnapshot FleetEngine::snapshot(const WorkerBook& book, std::size_t index,
                                     double t, std::size_t kv_blocks) const {
  WorkerSnapshot s;
  s.index = index;
  s.health = book.health.state;
  s.free_at_s = book.free_s;
  for (const Commitment& c : book.commitments) {
    if (c.until_s > t) s.outstanding_bytes += c.bytes;
  }
  s.free_kv_blocks = kv_blocks;
  return s;
}

std::size_t FleetEngine::pick_prefill(const DispatchContext& context,
                                      double t) {
  std::vector<WorkerSnapshot> candidates;
  for (std::size_t i = 0; i < prefill_.size(); ++i) {
    WorkerBook& book = prefill_book_[i];
    book.health.refresh(t, config_.health);
    if (book.health.state == WorkerHealth::kDown) continue;
    candidates.push_back(snapshot(book, i, t, SIZE_MAX));
  }
  if (candidates.empty()) return kNoWorker;
  // Probe-then-readmit: the stock policies all prefer the best health tier,
  // so a recovering worker can never win a dispatch while a healthy sibling
  // exists — it would sit on probation forever. Route this request at the
  // lowest-index recovering candidate as its probe; one success
  // (HealthPolicy::probation_successes) earns healthy back, one failure
  // sends it straight down again.
  for (const WorkerSnapshot& s : candidates) {
    if (s.health == WorkerHealth::kRecovering) return s.index;
  }
  DispatchContext ctx = context;
  ctx.rr_cursor = rr_prefill_++;
  const std::size_t pick = config_.prefill_policy(ctx, candidates);
  for (const WorkerSnapshot& s : candidates) {
    if (s.index == pick) return pick;
  }
  HACK_CHECK(false, "prefill dispatch policy picked ineligible worker "
                        << pick);
  return kNoWorker;
}

std::size_t FleetEngine::pick_decode(const DispatchContext& context,
                                     double t) {
  std::vector<WorkerSnapshot> candidates;
  for (std::size_t j = 0; j < decode_.size(); ++j) {
    WorkerBook& book = decode_book_[j];
    book.health.refresh(t, config_.health);
    if (book.health.state == WorkerHealth::kDown) continue;
    const std::size_t capacity = decode_[j]->kv_capacity_blocks();
    if (context.need_kv_blocks > capacity) continue;  // can never admit
    candidates.push_back(snapshot(book, j, t, capacity));
  }
  if (candidates.empty()) return kNoWorker;
  // Probe-then-readmit, as in pick_prefill: a recovering worker gets the
  // next admissible request as its probation probe instead of starving
  // behind healthy siblings.
  for (const WorkerSnapshot& s : candidates) {
    if (s.health == WorkerHealth::kRecovering) return s.index;
  }
  DispatchContext ctx = context;
  ctx.rr_cursor = rr_decode_++;
  const std::size_t pick = config_.decode_policy(ctx, candidates);
  for (const WorkerSnapshot& s : candidates) {
    if (s.index == pick) return pick;
  }
  HACK_CHECK(false, "decode dispatch policy picked ineligible worker "
                        << pick);
  return kNoWorker;
}

double FleetEngine::earliest_recovery(
    const std::vector<WorkerBook>& books) const {
  double best = std::numeric_limits<double>::infinity();
  for (const WorkerBook& b : books) {
    if (b.health.state == WorkerHealth::kDown) {
      best = std::min(best,
                      b.health.down_since_s + config_.health.down_cooldown_s);
    }
  }
  return best;
}

// One request's state across run()'s phases: its record (whose retry count
// is the spent budget), jitter stream, the blob, the transfer timeline, the
// checkpoint store, and the decode outcome. It lives on run()'s stack for
// one request and never moves — the checkpoint sink points into it.
struct FleetEngine::RequestState {
  RequestState(const ServingRequest& req, std::size_t i, const RetryPolicy& p)
      : request(req), index(i), policy(p), jitter(retry_jitter_rng(p, i)) {
    rec.d.request = req;
  }
  RequestState(const RequestState&) = delete;
  RequestState& operator=(const RequestState&) = delete;

  // One recovery round: spends a unit of the request's retry budget
  // (policy.max_retries rounds in all), draws the round's backoff, and moves
  // `ready_at` to `from` + backoff. Returns false, spending nothing, once the
  // budget is exhausted.
  bool retry_round(double from, double& ready_at) {
    if (rec.d.retries >= policy.max_retries) return false;
    const double wait = retry_backoff_s(rec.d.retries, jitter);
    ++rec.d.retries;
    rec.d.backoff_s += wait;
    ready_at = from + wait;
    return true;
  }

  bool deadline_passed() const {
    return policy.transfer_deadline_s > 0.0 &&
           last_finish - transfer_epoch > policy.transfer_deadline_s;
  }

  DispatchContext context() const {
    DispatchContext ctx;
    ctx.need_kv_blocks = need_kv_blocks;
    return ctx;
  }

  const ServingRequest& request;
  const std::size_t index;  // arrival order
  const RetryPolicy& policy;
  Rng jitter;
  FleetRecord rec;  // prefill_worker / decode_worker stay kNoWorker until
                    // a blob exists / a decode completed
  std::size_t need_kv_blocks = 0;  // worst-case decode block need

  PrefillWorker::Result pre;  // the pristine blob, kept on its prefill worker

  // Transfer timeline. Retransmissions always source the pristine blob.
  double transfer_epoch = 0.0;  // blob ready on the prefill worker
  double ready = 0.0;           // earliest start of the next transfer
  double first_start = -1.0;    // first attempt's start (-1: none yet)
  double last_finish = 0.0;     // latest transfer finish so far
  bool first_transmission = true;  // the base blob has not been sent yet

  // Checkpoint store: the request's prefill worker doubles as the standby —
  // it already holds the pristine base blob, so base + latest verified delta
  // is everything a resuming replica needs. The sink buffers cuts during the
  // worker call (returning false at a cut is the proactive-drain stop
  // signal); book_checkpoints ships them decode→prefill afterwards.
  std::vector<std::uint8_t> stored_delta;
  std::size_t stored_tokens = 0;
  std::vector<DecodeCheckpoint> cut;
  bool drain_now = false;
  CheckpointSink sink;

  DecodeWorker::Result dec;  // the completed decode (decode_worker set)
  double finish_at = 0.0;    // last token's timeline instant
};

FleetReport FleetEngine::run(std::vector<ServingRequest> requests) {
  std::sort(requests.begin(), requests.end(),
            [](const ServingRequest& a, const ServingRequest& b) {
              return a.arrival_time_s < b.arrival_time_s;
            });

  FleetReport report;
  for (std::size_t index = 0; index < requests.size(); ++index) {
    RequestState s(requests[index], index, config_.worker.retry);
    if (prefill_phase(s)) {
      decode_phase(s);
      finish_phase(s);
    }
    rollup(s.rec, s.finish_at, report);
    report.requests.push_back(std::move(s.rec));
  }

  std::vector<double> ttfts, jcts;
  for (const FleetRecord& rec : report.requests) {
    if (rec.d.rejected) continue;
    ttfts.push_back(rec.d.ttft_s);
    jcts.push_back(rec.d.jct_s);
  }
  if (!ttfts.empty()) report.ttft_s = compute_stats(std::move(ttfts));
  if (!jcts.empty()) report.jct_s = compute_stats(std::move(jcts));

  const auto worker_stats = [&](const WorkerBook& book,
                                const std::string& name) {
    FleetWorkerStats s;
    s.name = name;
    s.served = book.served;
    s.crashes = book.crashes;
    s.transfer_failures = book.transfer_failures;
    s.drains = book.drains;
    s.busy_s = book.busy_s;
    s.utilization =
        report.makespan_s > 0.0 ? book.busy_s / report.makespan_s : 0.0;
    s.final_health = book.health.state;
    s.transitions = book.health.transitions;
    report.health_transitions_total += s.transitions.size();
    return s;
  };
  for (std::size_t i = 0; i < prefill_.size(); ++i) {
    report.prefill_workers.push_back(
        worker_stats(prefill_book_[i], prefill_[i]->name()));
  }
  for (std::size_t j = 0; j < decode_.size(); ++j) {
    report.decode_workers.push_back(
        worker_stats(decode_book_[j], decode_[j]->name()));
  }
  return report;
}

bool FleetEngine::prefill_phase(RequestState& s) {
  FleetRecord& rec = s.rec;
  const ServingRequest& request = s.request;
  const HealthPolicy& hp = config_.health;

  // Fleet-wide admission preflight: a request whose worst-case block need
  // exceeds every decode worker's capacity can never be served
  // disaggregated — shed it now (reject outright, or mark it for the
  // local-decode path) instead of burning transfer retries discovering the
  // same thing.
  s.need_kv_blocks = decode_[0]->blocks_needed(request.prompt.size(),
                                               request.max_new_tokens);
  bool fits_somewhere = false;
  for (std::size_t j = 0; j < decode_.size(); ++j) {
    if (s.need_kv_blocks <= decode_[j]->kv_capacity_blocks()) {
      fits_somewhere = true;
      break;
    }
  }
  if (!fits_somewhere && !s.policy.fallback_local) {
    rec.shed = true;
    rec.d.rejected = true;
    return false;
  }

  // Dispatch, re-dispatching to a sibling on a crash.
  double prefill_ready = request.arrival_time_s;
  while (true) {
    const std::size_t pick = pick_prefill(s.context(), prefill_ready);
    if (pick == kNoWorker) {
      // Every prefill worker is down. Wait out the earliest cooldown if the
      // budget allows — a retry round, never a deadlock.
      const double recover = earliest_recovery(prefill_book_);
      if (!std::isfinite(recover) ||
          !s.retry_round(std::max(prefill_ready, recover), prefill_ready)) {
        break;
      }
      continue;
    }
    rec.prefill_route.push_back(pick);
    if (rec.prefill_route.size() > 1 &&
        pick != rec.prefill_route[rec.prefill_route.size() - 2]) {
      ++rec.prefill_failovers;
    }
    WorkerBook& book = prefill_book_[pick];
    const double start = std::max(prefill_ready, book.free_s);
    try {
      s.pre = prefill_[pick]->prefill(request, s.index);
    } catch (const WorkerCrash&) {
      ++rec.d.prefill_crashes;
      ++book.crashes;
      book.health.on_failure(start, hp, /*fatal=*/true);
      if (!s.retry_round(start, prefill_ready)) break;
      // A prefill crash leaves no KV state anywhere — the prompt must run
      // again, on whichever sibling the policy picks next.
      ++rec.re_prefills;
      continue;
    }
    book.health.on_success(start, hp);
    const double busy = s.pre.prefill_s + s.pre.serialize_s;
    book.free_s = start + busy;
    book.busy_s += busy;
    book.commitments.push_back({book.free_s, s.pre.blob.size()});
    ++book.served;

    const TinyConfig& c = weights_->config();
    rec.prefill_worker = pick;
    rec.d.prefill_s = s.pre.prefill_s;
    rec.d.serialize_s = s.pre.serialize_s;
    rec.d.prefill_chunks = s.pre.prefill_chunks;
    rec.d.wire_bytes = s.pre.blob.size();
    rec.d.sections = s.pre.sections;
    rec.d.fp16_kv_bytes = parse_kv_wire_header(s.pre.blob).tokens *
                          c.kv_heads * c.d_head * 2 * 2 * c.layers;
    return true;
  }
  rec.d.rejected = true;  // no KV state exists; nothing to degrade to
  return false;
}

bool FleetEngine::deliver(RequestState& s, std::vector<std::uint8_t>& wire,
                          Nic& src, Nic& dst, FaultModel* fm,
                          WorkerBook& book, bool& first) {
  const HealthPolicy& hp = config_.health;
  const int chunks =
      kv_wire_transfer_chunks(wire.size(), config_.worker.transfer_chunk_bytes);
  std::vector<ChunkRange> pending = chunk_ranges(wire.size(), chunks);
  while (true) {
    double bytes = 0.0;
    for (const ChunkRange& r : pending) bytes += static_cast<double>(r.len);
    if (!first) {
      s.rec.d.retransmitted_bytes += static_cast<std::size_t>(bytes);
    }
    const std::size_t down_before = fm->stats().down_delays;
    const FaultyTransferResult attempt = nccl_transfer_faulty(
        src, dst, s.ready, bytes, static_cast<int>(pending.size()), fm);
    first = false;
    if (s.first_start < 0.0) s.first_start = attempt.result.start;
    s.last_finish = std::max(s.last_finish, attempt.result.finish);
    if (fm->stats().down_delays > down_before) {
      ++book.transfer_failures;
      book.health.on_failure(attempt.result.start, hp, /*fatal=*/false);
    }

    std::vector<ChunkRange> still_pending;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const ChunkEvent& event = attempt.chunks[i];
      if (event.fate == ChunkFate::kDropped) {
        ++s.rec.d.chunks_dropped;
        still_pending.push_back(pending[i]);
      } else if (event.fate == ChunkFate::kCorrupted) {
        ++s.rec.d.chunks_corrupted;
        corrupt_range(wire, pending[i], event.corrupt_entropy);
      }
    }
    if (still_pending.empty()) return true;
    ++book.transfer_failures;
    book.health.on_failure(s.last_finish, hp, /*fatal=*/false);
    if (s.deadline_passed()) {
      s.rec.d.deadline_missed = true;
      return false;
    }
    if (!s.retry_round(s.last_finish, s.ready)) return false;
    pending = std::move(still_pending);
  }
}

void FleetEngine::book_checkpoints(RequestState& s, std::size_t j) {
  const std::size_t pworker = s.rec.prefill_worker;
  for (DecodeCheckpoint& ckpt : s.cut) {
    ++s.rec.d.checkpoints;
    s.rec.d.checkpoint_bytes += ckpt.delta.size();
    bool stored = false;
    while (!stored) {
      std::vector<std::uint8_t> dwire = ckpt.delta;
      bool first = true;
      if (!deliver(s, dwire, decode_[j]->nic(), prefill_[pworker]->nic(),
                   link(pworker, j), decode_book_[j], first)) {
        break;
      }
      try {
        // Admission gate: a delta lands in the store only after its CRC
        // frames verify on the delivered bytes — a corrupted delivery costs
        // a redelivery round, never a poisoned store.
        verify_kv_wire(dwire);
      } catch (const KvWireError&) {
        ++s.rec.d.crc_failures;
        ++decode_book_[j].transfer_failures;
        decode_book_[j].health.on_failure(s.last_finish, config_.health,
                                          /*fatal=*/false);
        if (!s.retry_round(s.last_finish, s.ready)) break;
        continue;
      }
      s.stored_delta = std::move(dwire);
      s.stored_tokens = ckpt.tokens_decoded;
      stored = true;
    }
    // Budget exhausted before the delta landed: the store keeps the
    // previous checkpoint; a resume just replays a longer window.
    if (!stored) ++s.rec.d.checkpoint_failures;
  }
  s.cut.clear();
}

void FleetEngine::decode_phase(RequestState& s) {
  FleetRecord& rec = s.rec;
  const ServingRequest& request = s.request;
  const HealthPolicy& hp = config_.health;
  const std::size_t pworker = rec.prefill_worker;
  s.transfer_epoch = prefill_book_[pworker].free_s;
  s.ready = s.transfer_epoch;
  s.last_finish = s.transfer_epoch;
  if (config_.worker.checkpoint_every_tokens > 0) {
    s.sink = [&s](DecodeCheckpoint ckpt) {
      s.cut.push_back(std::move(ckpt));
      return !s.drain_now;
    };
  }

  while (rec.decode_worker == kNoWorker) {
    const std::size_t pick = pick_decode(s.context(), s.ready);
    if (pick == kNoWorker) {
      // No decode worker can admit the blob right now. If a down worker
      // whose pool could hold it will recover, waiting is a retry round;
      // otherwise the fleet sheds the request.
      double recover = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < decode_.size(); ++j) {
        if (decode_book_[j].health.state == WorkerHealth::kDown &&
            s.need_kv_blocks <= decode_[j]->kv_capacity_blocks()) {
          recover = std::min(recover, decode_book_[j].health.down_since_s +
                                          hp.down_cooldown_s);
        }
      }
      if (!std::isfinite(recover) ||
          !s.retry_round(std::max(s.ready, recover), s.ready)) {
        rec.shed = true;
        break;
      }
      continue;
    }
    rec.decode_route.push_back(pick);
    if (rec.decode_route.size() > 1 &&
        pick != rec.decode_route[rec.decode_route.size() - 2]) {
      // The serialized blob changes destination: a reroute, not a
      // re-prefill — the prompt never runs again for a decode failure.
      ++rec.reroutes;
    }
    WorkerBook& book = decode_book_[pick];
    std::vector<std::uint8_t> wire = s.pre.blob;
    if (!deliver(s, wire, prefill_[pworker]->nic(), decode_[pick]->nic(),
                 link(pworker, pick), book, s.first_transmission)) {
      break;
    }
    if (s.deadline_passed()) {
      rec.d.deadline_missed = true;
      break;
    }
    // Proactive drain decision: the handoff's link faults may have marked
    // this worker suspect *after* dispatch picked it healthy. If a healthy
    // replica whose capacity holds the request exists, let the worker decode
    // only to its first checkpoint cut, then migrate the request there.
    // Bounded: each drain needs a distinct healthy target, and workers only
    // degrade within one request's routing loop.
    s.drain_now = false;
    if (s.sink && book.health.state == WorkerHealth::kSuspect) {
      for (std::size_t j = 0; j < decode_.size(); ++j) {
        if (j != pick &&
            decode_book_[j].health.state == WorkerHealth::kHealthy &&
            s.need_kv_blocks <= decode_[j]->kv_capacity_blocks()) {
          s.drain_now = true;
          break;
        }
      }
    }
    // A replica resumes from base + stored delta when the store has one
    // (only ever true after a crash or drain); the delta ships back over
    // this worker's own link first. If its delivery exhausts the budget,
    // fall back to a full recompute from the base blob — the previously
    // salvaged tokens are recomputed after all.
    bool resume_now = s.stored_tokens > 0;
    std::vector<std::uint8_t> delta_wire;
    if (resume_now) {
      delta_wire = s.stored_delta;
      bool first = true;
      if (!deliver(s, delta_wire, prefill_[pworker]->nic(),
                   decode_[pick]->nic(), link(pworker, pick), book, first)) {
        resume_now = false;
        rec.d.tokens_recomputed += s.stored_tokens;
      }
    }
    try {
      s.dec = resume_now ? decode_[pick]->resume(wire, delta_wire, request,
                                                 s.index, s.sink)
                         : decode_[pick]->decode(wire, s.pre.first_token,
                                                 request, s.index, s.sink);
      book_checkpoints(s, pick);
      if (resume_now) {
        ++rec.d.resumes;
        rec.d.tokens_replayed += s.dec.replayed_tokens;
        if (rec.decode_route.size() > 1 &&
            pick != rec.decode_route[rec.decode_route.size() - 2]) {
          ++rec.migrations;  // resumed on a different replica: live move
        }
      }
      if (s.dec.drained) {
        // The suspect worker stopped at a consistent cut (now booked into
        // the store). Its partial service occupies it on the timeline, but
        // it did not complete the request — no served count, no health
        // verdict either way — and the next round resumes elsewhere.
        ++rec.drains;
        ++book.drains;
        const double start = std::max(s.last_finish, book.free_s);
        const double partial_end =
            start + s.dec.deserialize_s + s.dec.decode_s;
        book.free_s = partial_end;
        book.busy_s += s.dec.deserialize_s + s.dec.decode_s;
        rec.d.tokens_recomputed +=
            s.dec.generated.size() -
            std::min(s.stored_tokens, s.dec.generated.size());
        s.ready = std::max(partial_end, s.last_finish);
        continue;
      }
      rec.decode_worker = pick;
      book.health.on_success(s.last_finish, hp);
      continue;
    } catch (const MidDecodeCrash& crash) {
      // Mid-generation death. Checkpoints cut before the crash had already
      // left the worker — book them into the store now; the lost window
      // past the last stored cut is recomputed on whichever replica the
      // next round picks. The blob never goes back through prefill.
      ++rec.d.decode_crashes;
      ++book.crashes;
      book.health.on_failure(s.last_finish, hp, /*fatal=*/true);
      book_checkpoints(s, pick);
      rec.d.tokens_recomputed +=
          crash.tokens_decoded -
          std::min(s.stored_tokens, crash.tokens_decoded);
    } catch (const WorkerCrash&) {
      // The worker lost its receive buffer with the crash; the pristine
      // blob still sits on the prefill worker, so the next round routes it
      // to whichever replica the policy picks — rehydrate elsewhere.
      ++rec.d.decode_crashes;
      ++book.crashes;
      book.health.on_failure(s.last_finish, hp, /*fatal=*/true);
      s.cut.clear();
    } catch (const KvWireError&) {
      // Corruption survived the transport; the typed CRC/section error is
      // the signal for a full-blob retransmit.
      ++rec.d.crc_failures;
      ++book.transfer_failures;
      book.health.on_failure(s.last_finish, hp, /*fatal=*/false);
      s.cut.clear();
    }
    // A crash or CRC rejection: retransmit in a new round, if any are left.
    if (!s.retry_round(s.last_finish, s.ready)) break;
  }
  rec.d.transfer_s =
      s.first_start < 0.0 ? 0.0 : s.last_finish - s.first_start;
}

void FleetEngine::finish_phase(RequestState& s) {
  FleetRecord& rec = s.rec;
  double first_token_at = 0.0;
  if (rec.decode_worker != kNoWorker) {
    rec.d.deserialize_s = s.dec.deserialize_s;
    rec.d.decode_s = s.dec.decode_s;
    rec.d.decode_kv_blocks = s.need_kv_blocks;
    rec.d.generated = std::move(s.dec.generated);
    WorkerBook& book = decode_book_[rec.decode_worker];
    first_token_at =
        std::max(s.last_finish, book.free_s) + s.dec.deserialize_s;
    s.finish_at = first_token_at + s.dec.decode_s;
    book.free_s = s.finish_at;
    book.busy_s += s.dec.deserialize_s + s.dec.decode_s;
    book.commitments.push_back({s.finish_at, rec.d.wire_bytes});
    ++book.served;
  } else if (s.policy.fallback_local) {
    // Shed-to-local / exhausted-budget degradation: the prefill worker that
    // made the blob decodes it — bit-identical to the decode worker's
    // continuation, at the cost of occupying the prefill worker.
    rec.d.fallback_local = true;
    const PrefillWorker::LocalDecode fb =
        prefill_[rec.prefill_worker]->local_decode(
            s.pre.blob, s.pre.first_token, s.request);
    rec.d.deserialize_s = fb.deserialize_s;
    rec.d.decode_s = fb.decode_s;
    rec.d.generated = fb.generated;
    WorkerBook& book = prefill_book_[rec.prefill_worker];
    const double fallback_start = std::max(s.last_finish, book.free_s);
    first_token_at = fallback_start + fb.deserialize_s;
    s.finish_at = first_token_at + fb.decode_s;
    book.busy_s += fb.deserialize_s + fb.decode_s;
    book.free_s = s.finish_at;
    // served already counted this request at prefill time.
  } else {
    rec.d.rejected = true;
    return;
  }
  rec.d.ttft_s = first_token_at - s.request.arrival_time_s;
  rec.d.jct_s = s.finish_at - s.request.arrival_time_s;
}

}  // namespace hack
