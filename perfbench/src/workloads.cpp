#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "base/rng.h"
#include "workload/corpus.h"
#include "workload/dataset.h"

namespace perfbench {
namespace {

using hack::LengthStats;
using hack::Rng;
using hack::ServingRequest;

constexpr std::size_t kMinRequests = 20;
constexpr std::size_t kBlockTokens = 16;  // SchedulerConfig default

// The load pattern is fixed: lengths and gaps are quantiles of their
// distributions, placed in an order drawn once from this seed. The workload
// seed picks the prompt tokens.
constexpr std::uint64_t kLayoutSeed = 0x1a7e5eedULL;

// A fixed permutation of [0, n).
std::vector<std::size_t> layout(std::size_t n, std::uint64_t salt) {
  Rng rng(kLayoutSeed ^ salt);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

// The midpoints of n equal-probability strata of the library's truncated
// log-normal length model, estimated from 64n draws of a fixed stream, in
// layout order.
std::vector<std::size_t> stratum_lengths(const LengthStats& stats,
                                         std::size_t n, std::uint64_t salt) {
  constexpr std::size_t kPerStratum = 64;
  Rng rng(kLayoutSeed + salt);
  std::vector<double> pool(n * kPerStratum);
  for (double& x : pool) x = hack::sample_length(stats, rng);
  std::sort(pool.begin(), pool.end());
  const std::vector<std::size_t> order = layout(n, salt);
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = pool[order[i] * kPerStratum + kPerStratum / 2];
    out[i] = std::max<std::size_t>(1, static_cast<std::size_t>(x));
  }
  return out;
}

// Open-loop due times: the exponential inter-arrival gaps of a Poisson
// process at the midpoints of n strata, in layout order, rescaled to mean
// 1/rate.
std::vector<double> stratum_arrivals(double rate, std::size_t n) {
  const std::vector<std::size_t> order = layout(n, 3);
  std::vector<double> gaps(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double q =
        (static_cast<double>(order[i]) + 0.5) / static_cast<double>(n);
    gaps[i] = -std::log1p(-q);
    sum += gaps[i];
  }
  const double scale = static_cast<double>(n) / (rate * sum);
  std::vector<double> due(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += gaps[i] * scale;
    due[i] = t;
  }
  return due;
}

struct Shape {
  LengthStats input;
  LengthStats output;
};

std::vector<ServingRequest> make_requests(const Shape& shape, std::size_t n,
                                          double rate, std::uint64_t seed) {
  const std::vector<std::size_t> inputs = stratum_lengths(shape.input, n, 1);
  const std::vector<std::size_t> outputs =
      stratum_lengths(shape.output, n, 2);
  const std::vector<double> due =
      rate > 0.0 ? stratum_arrivals(rate, n) : std::vector<double>(n);
  const hack::SyntheticCorpus corpus({.vocab = model_config().vocab}, seed);
  std::vector<ServingRequest> requests(n);
  for (std::size_t i = 0; i < n; ++i) {
    requests[i].id = i;
    requests[i].prompt = corpus.prompt(i, inputs[i]);
    requests[i].max_new_tokens = outputs[i];
    requests[i].arrival_time_s = due[i];
  }
  return requests;
}

std::size_t sized(double seconds, double seconds_per_request) {
  const double n = std::round(seconds / seconds_per_request);
  return std::max<std::size_t>(kMinRequests, static_cast<std::size_t>(n));
}

std::size_t worst_case_blocks(const ServingRequest& r) {
  return (r.prompt.size() + r.max_new_tokens + kBlockTokens - 1) /
         kBlockTokens;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"chat", "longdoc",
                                                 "pressure"};
  return names;
}

hack::TinyConfig model_config() {
  hack::TinyConfig c;
  c.vocab = 256;
  c.layers = 2;
  c.heads = 8;
  c.kv_heads = 2;
  c.d_head = 128;
  c.d_ff = 512;
  return c;
}

hack::HackAttentionConfig attention_config() {
  hack::HackAttentionConfig a;
  a.pi = 64;
  a.q_bits = 8;
  a.kv_bits = 2;
  a.summation_elimination = true;
  a.requant_elimination = true;
  return a;
}

// Rates and per-request costs below were measured with a 1-lane pool on a
// 4-vCPU AVX2 Xeon. Chat saturates at ~0.8-0.9 req/s (at 0.8 the queue wait
// grew from 0 to 1.2 s over a run); its rate is about half that. A longdoc
// prompt (mean ~850 tokens) keeps the prefill worker busy ~2 s; its rate is
// a quarter of that capacity, which costs no wall time (the fleet's
// timeline is virtual) and keeps it below the knee even when the machine
// runs 1.6x slower. A pressure request costs ~1.6 s of batch time.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds) {
  Workload w;
  w.name = name;
  if (name == "chat") {
    const hack::DatasetSpec& he = hack::dataset_by_name("HumanEval");
    w.serving = Serving::kColocated;
    w.rate_rps = 0.45;
    // 64-row chunks: enough chunk steps that the TBT tail sits well inside
    // the slow (prefill-carrying) step mode, not on its edge.
    w.prefill_chunk = 64;
    // Small batch. At 8 slots the decode step time tracks how many
    // sequences happen to overlap (5 ms at 1, 17 ms at 8) and the TBT p50
    // jumped between those modes run to run; at 2 a third arrival waits
    // for a slot and the TTFT p50 jumps instead.
    w.max_active = 4;
    const std::size_t n = sized(seconds, 1.0 / w.rate_rps);
    w.requests = make_requests({he.input, he.output}, n, w.rate_rps, seed);
  } else if (name == "longdoc") {
    w.serving = Serving::kFleet;
    w.rate_rps = 0.12;
    const std::size_t n = sized(seconds, 2.0);
    w.requests = make_requests({.input = {.avg = 700, .min = 700,
                                          .max = 1400},
                                .output = {.avg = 20, .min = 8, .max = 32}},
                               n, w.rate_rps, seed);
  } else if (name == "pressure") {
    const hack::DatasetSpec& imdb = hack::dataset_by_name("IMDb");
    w.serving = Serving::kTiered;
    w.prefill_chunk = 128;
    w.max_active = 8;
    const std::size_t n = sized(seconds, 1.6);
    w.requests = make_requests(
        {imdb.input, {.avg = 192, .min = 96, .max = 384}}, n, 0.0, seed);
    // A third of the running batch's worst-case demand, but never below
    // what the largest request needs alone (it must stay admissible).
    std::size_t largest = 0, total = 0;
    for (const ServingRequest& r : w.requests) {
      largest = std::max(largest, worst_case_blocks(r));
      total += worst_case_blocks(r);
    }
    const std::size_t batch_demand = w.max_active * total / n;
    w.pool_blocks = std::max(largest, (batch_demand + 2) / 3);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

std::vector<ServingRequest> warmup_requests(const Workload& workload) {
  std::vector<ServingRequest> out;
  for (std::size_t i = 0; i < 2 && i < workload.requests.size(); ++i) {
    ServingRequest r = workload.requests[i];
    r.prompt.resize(std::min<std::size_t>(r.prompt.size(), 64));
    r.max_new_tokens = 4;
    r.arrival_time_s = 0.0;
    out.push_back(std::move(r));
  }
  return out;
}

std::uint64_t workload_digest(const Workload& workload) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(workload.pool_blocks);
  for (const ServingRequest& r : workload.requests) {
    std::uint64_t due_bits = 0;
    std::memcpy(&due_bits, &r.arrival_time_s, sizeof(due_bits));
    mix(r.id);
    mix(due_bits);
    mix(r.max_new_tokens);
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.eos)));
    mix(r.prompt.size());
    for (const int t : r.prompt) mix(static_cast<std::uint64_t>(t));
  }
  return h;
}

}  // namespace perfbench
