// The benchmark's three serving workloads, generated from a seed.
//
// The program under test only ever sees the generated requests. Prompt and
// output lengths and inter-arrival gaps are the midpoints of n
// equal-probability strata of their distributions, in a fixed order: every
// seed offers the same load pattern, and the seed picks the prompt tokens.
// With 20-30 requests a run, random lengths and gaps would move the
// percentiles between seeds by more than the machine does (a prompt that
// crosses a chunk boundary costs a whole extra step). README.md explains
// why each workload exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/session.h"
#include "serving/request.h"

namespace perfbench {

// How the measured phase is served.
enum class Serving {
  kColocated,  // continuous-batching ServingEngine, open loop
  kFleet,      // 1x1 FleetEngine: prefill worker -> kv_wire -> decode worker
  kTiered,     // tiered ServingEngine, offline batch, pool ~1/3 of demand
};

struct Workload {
  std::string name;
  Serving serving = Serving::kColocated;
  double rate_rps = 0.0;          // open-loop arrival rate; 0: all due at 0
  std::size_t prefill_chunk = 0;  // engine prompt chunk (rows per step)
  std::size_t max_active = 0;     // engine running-batch slots
  std::size_t pool_blocks = 0;    // tiered only: hot KV blocks
  std::vector<hack::ServingRequest> requests;  // ids 0..n-1, due order
};

// Names accepted by make_workload, in the order the docs list them.
const std::vector<std::string>& workload_names();

// The model every workload serves: 8 query / 2 KV heads of d_head 128,
// 2 layers, d_ff 512, byte vocabulary (~33 MiB of fp32 weights).
hack::TinyConfig model_config();

// The native HACK layer backend at the paper's defaults: 2-bit KV, 8-bit
// Q/P, partition 64, summation and requantization elimination on.
hack::HackAttentionConfig attention_config();
inline constexpr std::uint64_t kBackendSeed = 7;

// Builds workload `name` for `seed`. `seconds` sizes the request count
// (never below 20, so every reported percentile has >= 10 samples beyond
// it). Throws on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds);

// Two short requests through the same engine type, for the warm-up.
std::vector<hack::ServingRequest> warmup_requests(const Workload& workload);

// FNV-1a digest of every request field, for the determinism test.
std::uint64_t workload_digest(const Workload& workload);

}  // namespace perfbench
