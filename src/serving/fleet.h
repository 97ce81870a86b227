// The disaggregated serving engine: N prefill workers × M decode workers.
//
// One prefill→decode pair can only answer a worker crash by retrying the
// same worker or degrading to a local decode. At fleet scale the right
// answer is *routing*: a dead decode worker is a reason to send the
// already-serialized KV blob to a replica (rehydrate-elsewhere, never
// re-prefill), a dead prefill worker a reason to re-dispatch the prompt to a
// sibling, and a request no decode worker can hold a reason to shed load —
// FlowKV (PAPERS.md) makes the case for treating KV-transfer health as a
// first-class scheduling input. The paper's single-pair deployment is the
// 1×1 case of the same engine, so there is one recovery loop:
//
//   Single pair a 1×1 fleet. With HealthPolicy{down_after = SIZE_MAX,
//               down_cooldown_s = 0} transfer failures never demote the
//               only worker and a crashed worker restarts at once, so every
//               failure costs exactly one retry round
//               (tests/test_disagg_faults.cpp). Under the default
//               HealthPolicy a crash also costs a counted round waiting out
//               the worker's cooldown.
//   Health      every worker carries a state machine
//                 healthy → suspect → down → recovering → healthy
//               driven by crash injection (fatal: straight to down),
//               consecutive transfer failures on its links (drop-retransmit
//               rounds, CRC failures — suspect, then down), and FaultModel
//               link-down windows (a waited-out window marks the link's
//               worker suspect). Down workers leave the candidate set until
//               a cooldown elapses; recovering workers rejoin and earn
//               healthy back with successes. Every transition is stamped
//               with the engine-timeline instant for the report.
//   Dispatch    a pluggable function-pointer policy (the Archfx SchedulerFn
//               shape, running on real kv_wire blob sizes instead of the
//               cluster simulator's modeled costs) picks a worker from the
//               eligible snapshots — round-robin, least-outstanding-bytes,
//               or most-KV-blocks — and is consulted *again* on every
//               failure, so failover is just dispatch with fresher health.
//   Admission   decodes run one at a time, so a decode worker admits a
//               request exactly when its worst-case block need
//               (DecodeWorker::blocks_needed) fits the worker's capacity
//               (DisaggConfig::decode_kv_blocks, or decode_pool_blocks
//               below) — one rule for the preflight, dispatch, the
//               recovery wait and the drain target.
//   Failover    a decode crash mid-handoff re-routes the serialized blob to
//               a replica over that replica's own link (a reroute, counted;
//               the prompt is never recomputed — re_prefills_from_decode
//               stays zero by construction). A prefill crash re-dispatches
//               the prompt to a sibling prefill worker. Both burn the
//               request's bounded RetryPolicy budget.
//   Resume      with a checkpoint cadence on (DisaggConfig::
//               checkpoint_every_tokens), a decode worker dying *mid-
//               generation* costs at most one checkpoint window: the
//               request's prefill worker doubles as the standby store
//               (base blob + latest CRC-verified wire v3 delta), and the
//               replica the next dispatch round picks resumes from base +
//               delta + replayed suffix instead of recomputing from the
//               blob — re_prefills_from_decode stays zero even for
//               mid-decode crashes.
//   Drain       link faults during the handoff can mark a worker suspect
//               after dispatch picked it healthy. Such a worker decodes
//               only to its first checkpoint cut; the request then migrates
//               live (resume from that cut) to a healthy replica whose
//               capacity holds it, rather than gambling the whole decode on
//               failing hardware. Always on; it needs
//               worker.checkpoint_every_tokens > 0 and such a replica.
//   Shedding    fleet-wide admission control: a request that no decode
//               worker's capacity can hold (or that exhausts its budget
//               with every decode worker down) is shed — decoded locally on
//               its prefill worker when RetryPolicy::fallback_local is on,
//               rejected otherwise — never deadlocked on a full fleet.
//
// Every prefill worker owns a NIC, every decode worker owns a NIC, and every
// (prefill, decode) link owns an independent seeded FaultModel
// (fault_config_for_link), so chaos on one link never shifts the fate stream
// of another and concurrent blobs contend on the shared NICs realistically.
//
// The bit-identity contract extends fleet-wide (docs/robustness.md): any
// schedule of crashes, link-down windows, drops, and corruptions that does
// not exhaust a request's budget yields token streams identical to the
// fault-free 1×1 run — workers are replicas of one model + backend seed,
// and the blob rehydrates the same bytes wherever it lands.
// tests/test_fleet.cpp pins the contract; bench_serving_throughput
// --fleet=NxM (with --kill=worker:request schedules) measures it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "metrics/stats.h"
#include "serving/disagg.h"

namespace hack {

// "No worker" sentinel for routing fields (e.g. a shed request's decode
// worker) and policy results on an empty candidate set.
inline constexpr std::size_t kNoWorker = static_cast<std::size_t>(-1);

enum class WorkerHealth {
  kHealthy,     // full candidate
  kSuspect,     // recent transfer trouble; deprioritized by the policies
  kDown,        // crashed or failed past threshold; not a candidate
  kRecovering,  // cooldown served; candidate again, on probation
};

const char* worker_health_name(WorkerHealth health);

// When failures move a worker along the state machine. Crashes are fatal
// (straight to down); transfer failures (a retransmit round on the worker's
// link, a receiver CRC rejection, a waited-out link-down window) accumulate.
struct HealthPolicy {
  std::size_t suspect_after = 1;  // consecutive non-fatal failures → suspect
  std::size_t down_after = 3;     // consecutive non-fatal failures → down
  double down_cooldown_s = 0.05;  // time spent down before recovering
  std::size_t probation_successes = 1;  // successes to earn healthy back
};

// One edge of a worker's health trajectory, stamped with the engine-timeline
// instant it happened.
struct HealthTransition {
  double time_s = 0.0;
  WorkerHealth from = WorkerHealth::kHealthy;
  WorkerHealth to = WorkerHealth::kHealthy;
};

// What a dispatch policy sees about one eligible worker at decision time.
struct WorkerSnapshot {
  std::size_t index = 0;  // worker index within its pool
  WorkerHealth health = WorkerHealth::kHealthy;
  double free_at_s = 0.0;            // compute busy horizon
  std::size_t outstanding_bytes = 0; // wire bytes routed here, still in service
  // Decode workers: the block capacity (SIZE_MAX: no admission control).
  // Decodes run one at a time, so the whole capacity is free at dispatch.
  std::size_t free_kv_blocks = SIZE_MAX;
};

struct DispatchContext {
  std::size_t need_kv_blocks = 0;  // worst-case decode block need
  std::uint64_t rr_cursor = 0;     // engine-advanced per-pool rotation state
};

// Picks one of `candidates` (non-empty; down workers and pools that cannot
// admit the request are already filtered out) and returns its .index. The
// provided policies prefer the best available health tier (healthy, then
// recovering, then suspect) and break ties deterministically, so a routing
// decision is a pure function of (context, snapshots) — same seed + same
// kill schedule ⇒ same routes, pinned in tests/test_fleet.cpp.
using DispatchPolicyFn =
    std::size_t (*)(const DispatchContext& context,
                    std::span<const WorkerSnapshot> candidates);

// Rotates over the eligible list: cursor picks the starting position, the
// first best-tier worker from there wins.
std::size_t dispatch_round_robin(const DispatchContext& context,
                                 std::span<const WorkerSnapshot> candidates);
// Fewest outstanding wire bytes; ties → earlier free_at_s → lower index.
std::size_t dispatch_least_outstanding_bytes(
    const DispatchContext& context,
    std::span<const WorkerSnapshot> candidates);
// Most free KV blocks; ties → fewer outstanding bytes → lower index.
std::size_t dispatch_most_free_blocks(
    const DispatchContext& context,
    std::span<const WorkerSnapshot> candidates);

const char* dispatch_policy_name(DispatchPolicyFn policy);

struct FleetConfig {
  // Per-worker knobs: attention config, backend seed, NIC rates, transfer
  // chunking, retry policy, and the base fault config every link's model is
  // derived from (fault_config_for_link).
  DisaggConfig worker;
  std::size_t prefill_workers = 1;
  std::size_t decode_workers = 1;
  DispatchPolicyFn prefill_policy = &dispatch_round_robin;
  DispatchPolicyFn decode_policy = &dispatch_least_outstanding_bytes;
  HealthPolicy health;
  // Per-decode-worker capacities (blocks). Empty: every worker gets
  // worker.decode_kv_blocks. A heterogeneous fleet makes the
  // most-KV-blocks policy meaningful.
  std::vector<std::size_t> decode_pool_blocks;
};

// Per-worker rollup for the report.
struct FleetWorkerStats {
  std::string name;  // "prefill0", "decode1", ...
  std::size_t served = 0;             // requests this worker completed
  std::size_t crashes = 0;
  std::size_t transfer_failures = 0;  // non-fatal health inputs
  double busy_s = 0.0;
  double utilization = 0.0;           // busy_s / fleet makespan
  WorkerHealth final_health = WorkerHealth::kHealthy;
  std::vector<HealthTransition> transitions;
  // Decode only: requests this worker gave up at a checkpoint cut because
  // the engine drained it proactively while suspect.
  std::size_t drains = 0;
};

// One request's route through the fleet, on top of the single-pair record
// (timings, tokens, and fault counters live in `d`).
struct FleetRecord {
  DisaggRecord d;
  std::size_t prefill_worker = kNoWorker;  // worker that produced the blob
  std::size_t decode_worker = kNoWorker;   // worker that decoded (kNoWorker:
                                           // shed/rejected)
  std::vector<std::size_t> prefill_route;  // every prefill worker tried
  std::vector<std::size_t> decode_route;   // every decode worker targeted
  std::size_t reroutes = 0;           // blob re-routed to a different replica
  std::size_t prefill_failovers = 0;  // prompt re-dispatched to a sibling
  std::size_t re_prefills = 0;        // prefill executions past the first
  std::size_t migrations = 0;  // resumes (base + delta) on a different
                               // replica than the one that checkpointed
  std::size_t drains = 0;      // proactive-drain stops at a checkpoint cut
  bool shed = false;  // admission control shed it (local decode or reject)
};

struct FleetReport {
  std::vector<FleetRecord> requests;  // arrival order
  std::vector<FleetWorkerStats> prefill_workers;
  std::vector<FleetWorkerStats> decode_workers;

  std::size_t total_generated = 0;
  std::size_t wire_bytes_total = 0;
  std::size_t fp16_kv_bytes_total = 0;
  double makespan_s = 0.0;
  SampleStats ttft_s;
  SampleStats jct_s;

  // Fleet-level rollups.
  std::size_t reroutes_total = 0;
  std::size_t prefill_failovers_total = 0;
  std::size_t shed_total = 0;
  std::size_t re_prefills_total = 0;
  // The headline contract: decode-worker failures re-route the serialized
  // blob, they never send the prompt back through prefill. Zero by
  // construction; kept as a counter so tests and the CI chaos leg assert it
  // non-vacuously.
  std::size_t re_prefills_from_decode_crashes = 0;
  std::size_t health_transitions_total = 0;

  // Checkpoint / live-migration rollups (all zero unless the worker config's
  // checkpoint_every_tokens is on).
  std::size_t checkpoints_total = 0;
  std::size_t checkpoint_bytes_total = 0;
  std::size_t checkpoint_failures_total = 0;
  std::size_t resumes_total = 0;
  std::size_t tokens_replayed_total = 0;
  std::size_t tokens_recomputed_total = 0;
  std::size_t migrations_total = 0;
  std::size_t drain_events_total = 0;

  // Fault/recovery rollups (sums of the per-request counters).
  std::size_t retries_total = 0;
  std::size_t chunks_dropped_total = 0;
  std::size_t chunks_corrupted_total = 0;
  std::size_t crc_failures_total = 0;
  std::size_t prefill_crashes_total = 0;
  std::size_t decode_crashes_total = 0;
  std::size_t retransmitted_bytes_total = 0;
  std::size_t fallbacks = 0;        // shed requests decoded locally
  std::size_t deadline_misses = 0;
  std::size_t rejected = 0;         // shed/failed requests dropped outright
};

// Orchestrates the fleet over one FCFS arrival timeline: measured compute,
// netsim-modeled per-link transfers, health-gated policy dispatch, and a
// bounded retry budget per request. Worker busy horizons, health and link
// fault streams persist across run() calls, so back-to-back runs share one
// timeline.
class FleetEngine {
 public:
  FleetEngine(std::shared_ptr<const TinyModelWeights> weights,
              FleetConfig config = {});

  std::size_t prefill_count() const { return prefill_.size(); }
  std::size_t decode_count() const { return decode_.size(); }
  PrefillWorker& prefill_worker(std::size_t i) { return *prefill_.at(i); }
  DecodeWorker& decode_worker(std::size_t j) { return *decode_.at(j); }

  // The (prefill × decode) link's fault injector. Each link's model is
  // seeded independently from config.worker.transfer_faults via
  // fault_config_for_link; set_link_faults replaces one link's config (e.g.
  // to schedule a down window on exactly one path).
  FaultModel& link_faults(std::size_t prefill, std::size_t decode);
  void set_link_faults(std::size_t prefill, std::size_t decode,
                       const FaultConfig& config);

  // Sum of every link's injection ledger — the ground truth the report's
  // fault counters are asserted against.
  FaultStats fault_ledger() const;

  FleetReport run(std::vector<ServingRequest> requests);

 private:
  struct HealthTracker {
    WorkerHealth state = WorkerHealth::kHealthy;
    std::size_t consecutive_failures = 0;
    std::size_t probation = 0;
    double down_since_s = 0.0;
    std::vector<HealthTransition> transitions;

    void transition(WorkerHealth to, double t);
    void refresh(double t, const HealthPolicy& policy);
    void on_success(double t, const HealthPolicy& policy);
    void on_failure(double t, const HealthPolicy& policy, bool fatal);
  };

  // Bytes committed to a worker until their service completes on the
  // timeline — what outstanding_bytes snapshots count.
  struct Commitment {
    double until_s = 0.0;
    std::size_t bytes = 0;
  };

  struct WorkerBook {
    HealthTracker health;
    double free_s = 0.0;
    double busy_s = 0.0;
    std::vector<Commitment> commitments;
    std::size_t served = 0;
    std::size_t crashes = 0;
    std::size_t transfer_failures = 0;
    std::size_t drains = 0;  // decode books only
  };

  FaultModel* link(std::size_t prefill, std::size_t decode) {
    return links_.at(prefill * decode_.size() + decode).get();
  }

  WorkerSnapshot snapshot(const WorkerBook& book, std::size_t index, double t,
                          std::size_t kv_blocks) const;
  // Builds the eligible candidate set at time t and consults the policy.
  // Returns kNoWorker when no worker is eligible.
  std::size_t pick_prefill(const DispatchContext& context, double t);
  std::size_t pick_decode(const DispatchContext& context, double t);
  // Earliest instant a down worker in `books` becomes recovering (infinity
  // when none is down).
  double earliest_recovery(const std::vector<WorkerBook>& books) const;

  // run() serves each request through these phases, in order; every
  // recovery round of every phase spends the request's one retry budget.
  struct RequestState;  // one request's record, budget, timeline and store
  // Dispatch + prefill: the fleet-wide admission preflight, then the prompt
  // runs, re-dispatched to a sibling on a crash. False when the request ends
  // here (shed, or prefill retries exhausted): no blob exists.
  bool prefill_phase(RequestState& s);
  // Deliver: ships `wire` from src to dst over `fm`, retransmitting dropped
  // chunk ranges until all land or the budget or deadline gives out.
  // Corrupted chunks land with a bit flipped — detection is the receiver's
  // CRC check. Retransmit rounds and waited-out link-down windows are
  // transfer failures against `book` (the decode-side worker of the link,
  // whichever direction the bytes flow). `first` feeds the
  // retransmitted_bytes ledger: request-scoped for the base blob, fresh per
  // checkpoint-delta delivery (a delta's first copy is new bytes).
  bool deliver(RequestState& s, std::vector<std::uint8_t>& wire, Nic& src,
               Nic& dst, FaultModel* fm, WorkerBook& book, bool& first);
  // Ships the checkpoints decode worker j cut during its last call to the
  // store (the request's prefill worker), in cut order — checkpoints that
  // left a crashing worker before it died still reach the store.
  void book_checkpoints(RequestState& s, std::size_t j);
  // Decode + route: pick a decode worker, deliver the blob (and the stored
  // delta, to resume), decode; on a crash or CRC rejection spend a round and
  // route again. Leaves decode_worker unset when the request must degrade.
  void decode_phase(RequestState& s);
  // Finish: places the completed decode — or the prefill worker's local
  // fallback, or the rejection — on the timeline and stamps TTFT/JCT.
  void finish_phase(RequestState& s);

  std::shared_ptr<const TinyModelWeights> weights_;
  FleetConfig config_;
  std::vector<std::unique_ptr<PrefillWorker>> prefill_;
  std::vector<std::unique_ptr<DecodeWorker>> decode_;
  std::vector<std::unique_ptr<FaultModel>> links_;  // row-major [p][d]
  std::vector<WorkerBook> prefill_book_;
  std::vector<WorkerBook> decode_book_;
  std::uint64_t rr_prefill_ = 0;
  std::uint64_t rr_decode_ = 0;
};

}  // namespace hack
