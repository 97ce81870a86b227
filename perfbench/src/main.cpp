// perfbench_serving: runs one benchmark workload against the hack library
// and writes its raw measurements as one JSON object. run.py builds this
// binary, runs it with a pinned pool size, turns the samples into the
// reported metrics and prints them.
//
//   perfbench_serving --workload chat|longdoc|pressure --seed N --seconds S
//                     --trace 0|1 --out raw.json [--trace-file spans.json]
//   perfbench_serving --workload W --seed N --seconds S --dump-workload
//
// A run sets up three times, each timed (weights + a warm-up of two short
// requests through the workload's engine), serves the workload once with
// tracing off, with --trace 1 once more traced, then runs the correctness
// checks, whose split-phase replay also gives the per-layer timings the
// engine's fused path hides. A SpeedSampler (speed.h) samples the machine's
// speed through set-up and the measured runs. Check failures are recorded
// in the output; the exit code is non-zero only for usage or I/O errors.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "kvcache/block_allocator.h"
#include "metrics/stats.h"
#include "model/tiny_transformer.h"
#include "probe.h"
#include "replay.h"
#include "serving/engine.h"
#include "serving/fleet.h"
#include "speed.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using hack::ServingRequest;

constexpr int kSetupRepeats = 3;
// Modeled NIC line rate of the longdoc fleet's prefill and decode workers.
constexpr double kFleetNicGbps = 10.0;

// ------------------------------------------------------------- JSON output

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string jarr(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += jnum(v[i]);
  }
  return out + "]";
}

class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += jstr(key) + ":" + value;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) { return raw(key, jnum(v)); }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, jstr(v));
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ------------------------------------------------------ machine fingerprint

std::string fingerprint_json(const std::string& workload, std::uint64_t seed) {
  const bool avx2 = __builtin_cpu_supports("avx2");
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return JsonObject()
      .num("lanes", static_cast<double>(hack::ThreadPool::global().lanes()))
      .num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .raw("avx2", avx2 ? "true" : "false")
      // The library's int-GEMM kernels dispatch on this same CPU check.
      .str("int_gemm_arm", avx2 ? "avx2" : "portable")
      .str("compiler", compiler)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("workload", workload)
      .num("seed", static_cast<double>(seed))
      .dump();
}

std::string speed_json(const SpeedSampler& sampler) {
  std::vector<double> cpus, seconds;
  for (const SpeedSampler::Slice& s : sampler.slices()) {
    cpus.push_back(s.cpu);
    seconds.push_back(s.seconds);
  }
  return JsonObject()
      .num("reference_slice_s", kReferenceSliceS)
      .raw("slices_s", jarr(seconds))
      .raw("slice_cpus", jarr(cpus))
      .dump();
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double p50(std::vector<double> v) {
  return v.empty() ? 0.0 : hack::percentile(std::move(v), 0.5);
}

// ------------------------------------------------------------ measured runs

// One served episode, reduced to what the metrics need.
struct RunResult {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::vector<std::vector<int>> tokens;  // submit order
  std::vector<double> ttft_s, tbt_s, jct_s, queue_wait_s;  // due order
  std::size_t generated = 0;
  std::size_t prompt_tokens = 0;
  double makespan_s = 0.0;  // first due time (0) to last finish
  double wall_s = 0.0;      // how long the episode took on the wall clock
  std::size_t wire_bytes = 0;  // bytes the run put on a wire or far tier

  // Engine counters (fleet: the equivalent from its records).
  std::size_t steps = 0;
  std::size_t rows = 0;
  std::size_t peak_running = 0;
  std::size_t prefill_chunks = 0;
  double pure_decode_tokens_per_s = 0.0;
  hack::KvTierStats tier;

  // Fleet only.
  std::vector<double> serialize_s, deserialize_s, transfer_s;
  std::size_t fp16_kv_bytes = 0;
  std::size_t fault_recoveries = 0;
};

std::size_t block_bytes(const hack::TinyConfig& c, std::size_t block_tokens) {
  return block_tokens * c.kv_heads * c.d_head * 2 * 2 * c.layers;
}

std::function<hack::LayerBackendFactory()> backend_maker(Probe* probe) {
  if (probe == nullptr) {
    return [] {
      return hack::make_hack_layer_backend(attention_config(), kBackendSeed);
    };
  }
  return [probe] {
    return timed_factory(
        hack::make_hack_layer_backend(attention_config(), kBackendSeed),
        *probe);
  };
}

hack::ServingEngineConfig engine_config(const Workload& w, bool tiered) {
  hack::ServingEngineConfig ec;
  ec.scheduler.max_active = w.max_active;
  ec.scheduler.prefill_chunk_tokens = w.prefill_chunk;
  ec.scheduler.tiered = tiered;
  return ec;
}

// Adds the benchmark-side spans of one engine record, on the wall clock of
// the probe (`origin` is the probe time at which run() started).
void record_spans(Probe& probe, const hack::ServingRecord& rec, double origin,
                  std::int64_t parent) {
  if (!probe.recording() || !rec.done()) return;
  const auto id = static_cast<std::int64_t>(rec.request.id);
  const auto add = [&](const char* name, double a, double b,
                       std::int64_t par) {
    return probe.add({.name = name, .start_s = origin + a,
                      .end_s = origin + b, .parent = par, .request = id});
  };
  const double due = rec.request.arrival_time_s;
  const std::int64_t root = add("request", due, rec.finish_time_s, parent);
  if (rec.admit_time_s >= 0.0) {
    add("serving.queue_wait", due, rec.admit_time_s, root);
    if (rec.first_token_time_s >= 0.0) {
      add("serving.to_first_token", rec.admit_time_s, rec.first_token_time_s,
          root);
      add("serving.decode", rec.first_token_time_s, rec.finish_time_s, root);
    }
  }
}

RunResult run_engine(const Workload& w,
                     const std::shared_ptr<const hack::TinyModelWeights>& wt,
                     const std::vector<ServingRequest>& requests,
                     Probe* probe, std::int64_t parent) {
  const bool tiered = w.serving == Serving::kTiered;
  const hack::ServingEngineConfig ec = engine_config(w, tiered);
  std::unique_ptr<hack::BlockAllocator> alloc;
  if (tiered) {
    alloc = std::make_unique<hack::BlockAllocator>(
        w.pool_blocks, block_bytes(wt->config(), ec.scheduler.block_tokens));
  }
  hack::ServingEngine engine(wt, backend_maker(probe), ec, alloc.get());
  for (const ServingRequest& r : requests) engine.submit(r);

  std::int64_t run_span = -1;
  if (probe != nullptr) {
    run_span = probe->open("serving.engine_run", parent);
    probe->set_kernel_parent(run_span);
  }
  const double t0 = now_s();
  const hack::ServingReport report = engine.run();
  const double t1 = now_s();
  if (probe != nullptr) probe->close(run_span);

  RunResult r;
  r.wall_s = t1 - t0;
  r.submitted = requests.size();
  r.tokens.resize(requests.size());
  std::size_t decode_rows = 0;
  for (std::size_t j = 0; j < report.requests.size(); ++j) {
    const hack::ServingRecord& rec = report.requests[j];
    if (probe != nullptr) record_spans(*probe, rec, t0, run_span);
    r.tokens[j] = rec.generated;
    r.prompt_tokens += rec.request.prompt.size();
    if (rec.state != hack::RequestState::kFinished) continue;
    ++r.completed;
    r.generated += rec.generated.size();
    if (!rec.generated.empty()) decode_rows += rec.generated.size() - 1;
    r.ttft_s.push_back(rec.ttft_s());
    r.jct_s.push_back(rec.jct_s());
    r.queue_wait_s.push_back(rec.admit_time_s - rec.request.arrival_time_s);
    const std::vector<double> gaps = rec.tbt_s();
    r.tbt_s.insert(r.tbt_s.end(), gaps.begin(), gaps.end());
  }
  r.makespan_s = report.makespan_s;
  r.steps = report.engine.steps;
  r.rows = r.prompt_tokens + decode_rows;
  r.peak_running = report.engine.peak_running;
  r.prefill_chunks = report.engine.prefill_chunks;
  r.pure_decode_tokens_per_s = report.pure_decode_tokens_per_s;
  r.tier = report.engine.tier;
  r.wire_bytes = r.tier.bytes_swapped_out;
  return r;
}

hack::FleetConfig fleet_config() {
  hack::FleetConfig fc;
  fc.worker.attn = attention_config();
  fc.worker.backend_seed = kBackendSeed;
  fc.worker.prefill_chunk_tokens = 0;  // whole-prompt prefill
  fc.worker.prefill_nic_gbps = kFleetNicGbps;
  fc.worker.decode_nic_gbps = kFleetNicGbps;
  fc.prefill_workers = 1;
  fc.decode_workers = 1;
  return fc;
}

RunResult run_fleet(const std::shared_ptr<const hack::TinyModelWeights>& wt,
                    const std::vector<ServingRequest>& requests, Probe* probe,
                    std::int64_t parent) {
  hack::FleetEngine engine(wt, fleet_config());
  std::int64_t run_span = -1;
  if (probe != nullptr) run_span = probe->open("fleet.run", parent);
  const double t0 = now_s();
  const hack::FleetReport report = engine.run(requests);
  const double t1 = now_s();
  if (probe != nullptr) probe->close(run_span);

  RunResult r;
  r.wall_s = t1 - t0;
  r.submitted = requests.size();
  r.tokens.resize(requests.size());
  r.peak_running = 1;
  double decode_s = 0.0;
  std::size_t decode_tokens = 0;
  for (const hack::FleetRecord& rec : report.requests) {
    const hack::DisaggRecord& d = rec.d;
    r.tokens[d.request.id] = d.generated;
    r.prompt_tokens += d.request.prompt.size();
    r.fault_recoveries += d.retries + d.crc_failures + rec.reroutes;
    if (d.rejected) continue;
    ++r.completed;
    r.generated += d.generated.size();
    r.wire_bytes += d.wire_bytes;
    r.fp16_kv_bytes += d.fp16_kv_bytes;
    r.serialize_s.push_back(d.serialize_s);
    r.deserialize_s.push_back(d.deserialize_s);
    r.transfer_s.push_back(d.transfer_s);
    r.ttft_s.push_back(d.ttft_s);
    r.jct_s.push_back(d.jct_s);
    // Everything before the first token that is not this request's own
    // prefill, serialize, transfer or rehydration is waiting.
    r.queue_wait_s.push_back(std::max(0.0, d.ttft_s - d.prefill_s -
                                               d.serialize_s - d.transfer_s -
                                               d.deserialize_s));
    // The decode worker does not stamp tokens: one TBT sample per request,
    // its mean decode time per token.
    const std::size_t gaps = d.generated.empty() ? 0 : d.generated.size() - 1;
    if (gaps > 0) r.tbt_s.push_back(d.decode_s / static_cast<double>(gaps));
    decode_s += d.decode_s;
    decode_tokens += gaps;
    // One whole-prompt pass, then one step per decoded token.
    r.steps += 1 + gaps;
    r.rows += d.request.prompt.size() + gaps;
    r.prefill_chunks += d.prefill_chunks;
    r.makespan_s =
        std::max(r.makespan_s, d.request.arrival_time_s + d.jct_s);
    if (probe != nullptr && probe->recording()) {
      const auto id = static_cast<std::int64_t>(d.request.id);
      const double due = d.request.arrival_time_s;
      const auto add = [&](const char* name, double a, double b,
                           std::int64_t par) {
        return probe->add({.name = name, .start_s = a, .end_s = b,
                           .parent = par, .request = id,
                           .clock = Clock::kFleetTimeline});
      };
      const std::int64_t root = add("request", due, due + d.jct_s, run_span);
      add("fleet.to_first_token", due, due + d.ttft_s, root);
      add("fleet.decode", due + d.ttft_s, due + d.jct_s, root);
    }
  }
  r.pure_decode_tokens_per_s =
      decode_s > 0.0 ? static_cast<double>(decode_tokens) / decode_s : 0.0;
  return r;
}

RunResult serve(const Workload& w,
                const std::shared_ptr<const hack::TinyModelWeights>& wt,
                const std::vector<ServingRequest>& requests, Probe* probe,
                std::int64_t parent) {
  return w.serving == Serving::kFleet
             ? run_fleet(wt, requests, probe, parent)
             : run_engine(w, wt, requests, probe, parent);
}

// ------------------------------------------------------------------ checks

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

// k distinct request indices. Fixed per salt: with the workloads' fixed
// stratum order, every seed samples requests from the same strata.
std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k,
                                        std::uint64_t salt) {
  hack::Rng rng(salt ^ 0x5a3c9e1bULL);
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k && i < n; ++i) {
    std::swap(idx[i], idx[i + rng.next_below(n - i)]);
  }
  idx.resize(std::min(k, n));
  return idx;
}

struct CheckResult {
  std::vector<Check> checks;
  std::size_t sampled = 0;
  std::size_t sampled_match = 0;
  ReplayTimes replay;
};

CheckResult run_checks(const Workload& w,
                       const std::shared_ptr<const hack::TinyModelWeights>& wt,
                       const RunResult& run, Probe& probe) {
  CheckResult out;
  const std::int64_t span = probe.open("checks");
  const std::size_t n = w.requests.size();
  const std::vector<std::size_t> sample = sample_indices(n, 1, 0);
  std::map<std::size_t, bool> match;

  // Solo split-phase replay with the engine's chunk schedule.
  for (const std::size_t i : sample) {
    const std::vector<int> ref = replay_request(
        wt, w.requests[i], w.prefill_chunk, probe, span, out.replay);
    match[i] = ref == run.tokens[i];
  }
  bool replay_ok = true;
  for (const auto& [i, ok] : match) replay_ok = replay_ok && ok;
  out.checks.push_back({"replay_tokens_match", replay_ok,
                        "served tokens equal a solo same-chunk-schedule run"});

  if (w.serving == Serving::kColocated) {
    // A prompt that fits one chunk is served exactly as generate() runs it.
    std::size_t pick = n;
    for (const std::size_t i : sample_indices(n, n, 1)) {
      if (w.requests[i].prompt.size() <= w.prefill_chunk) {
        pick = i;
        break;
      }
    }
    if (pick < n) {
      const ServingRequest& r = w.requests[pick];
      hack::TinyTransformer solo(
          wt, hack::make_hack_layer_backend(attention_config(), kBackendSeed));
      const bool ok =
          solo.generate(r.prompt, r.max_new_tokens, r.eos) == run.tokens[pick];
      match[pick] = match.count(pick) ? match[pick] && ok : ok;
      out.checks.push_back({"generate_tokens_match", ok,
                            "request " + std::to_string(pick) +
                                " equals TinyTransformer::generate"});
    }
    out.checks.push_back({"no_evictions", run.tier.evictions == 0,
                          std::to_string(run.tier.evictions) + " evictions"});
  } else if (w.serving == Serving::kFleet) {
    // Colocated serving of the same requests, whole-prompt prefill like the
    // prefill worker's, must give the same tokens.
    Workload colocated = w;
    colocated.serving = Serving::kColocated;
    colocated.max_active = sample.size();
    colocated.prefill_chunk = 0;
    std::vector<ServingRequest> subset;
    for (const std::size_t i : sample) {
      subset.push_back(w.requests[i]);
      subset.back().arrival_time_s = 0.0;
      colocated.prefill_chunk =
          std::max(colocated.prefill_chunk, w.requests[i].prompt.size());
    }
    const RunResult co = run_engine(colocated, wt, subset, nullptr, span);
    bool ok = true;
    for (std::size_t j = 0; j < sample.size(); ++j) {
      const bool same = co.tokens[j] == run.tokens[sample[j]];
      match[sample[j]] = match[sample[j]] && same;
      ok = ok && same;
    }
    out.checks.push_back(
        {"colocated_tokens_match", ok, "fleet tokens equal ServingEngine's"});
    out.checks.push_back({"wire_bytes_nonzero", run.wire_bytes > 0,
                          std::to_string(run.wire_bytes) + " wire bytes"});
    out.checks.push_back({"no_fault_recovery", run.fault_recoveries == 0,
                          "clean link: no retries, CRC failures or reroutes"});
  } else {
    // The tiered schedule must not change tokens: an untiered engine over
    // a sampled subset reproduces them (tokens are batch-invariant).
    const std::vector<std::size_t> picked = sample_indices(n, 2, 2);
    std::vector<ServingRequest> subset;
    for (const std::size_t i : picked) subset.push_back(w.requests[i]);
    Workload untiered = w;
    untiered.serving = Serving::kColocated;
    const RunResult ref = run_engine(untiered, wt, subset, nullptr, span);
    bool ok = true;
    for (std::size_t j = 0; j < picked.size(); ++j) {
      const bool same = ref.tokens[j] == run.tokens[picked[j]];
      match[picked[j]] = match.count(picked[j]) ? match[picked[j]] && same
                                                : same;
      ok = ok && same;
    }
    out.checks.push_back({"untiered_tokens_match", ok,
                          "tiered tokens equal an untiered engine's"});
    out.checks.push_back({"evictions_nonzero", run.tier.evictions > 0,
                          std::to_string(run.tier.evictions) + " evictions"});
    out.checks.push_back(
        {"swaps_balanced", run.tier.evictions == run.tier.rehydrations,
         "every eviction was rehydrated"});
  }
  out.sampled = match.size();
  for (const auto& [i, ok] : match) out.sampled_match += ok ? 1 : 0;
  probe.close(span);
  return out;
}

// ------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string out;
  std::string trace_file;
  bool dump = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--dump-workload") {
      a.dump = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (arg == "--workload") a.workload = v;
    else if (arg == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (arg == "--trace") a.trace = std::atoi(v);
    else if (arg == "--out") a.out = v;
    else if (arg == "--trace-file") a.trace_file = v;
    else return false;
  }
  const auto& names = workload_names();
  return std::find(names.begin(), names.end(), a.workload) != names.end() &&
         a.seconds > 0.0 && (a.trace == 0 || a.trace == 1) &&
         (a.dump || !a.out.empty());
}

std::string run_json(const RunResult& r) {
  return JsonObject()
      .num("submitted", static_cast<double>(r.submitted))
      .num("completed", static_cast<double>(r.completed))
      .num("generated", static_cast<double>(r.generated))
      .num("prompt_tokens", static_cast<double>(r.prompt_tokens))
      .num("makespan_s", r.makespan_s)
      .num("wall_s", r.wall_s)
      .num("wire_bytes", static_cast<double>(r.wire_bytes))
      .raw("ttft_s", jarr(r.ttft_s))
      .raw("tbt_s", jarr(r.tbt_s))
      .raw("jct_s", jarr(r.jct_s))
      .raw("queue_wait_s", jarr(r.queue_wait_s))
      .dump();
}

// The per-layer metrics of one traced run (see README.md for which
// end-to-end metric each should move).
// `append` is the decorator's total inside the traced engine run (the
// replay's for the fleet, which has no in-engine probe).
std::string per_layer_json(const Workload& w, const RunResult& traced,
                           const RunResult& untraced, const Probe& probe,
                           const Probe::Total& append,
                           const CheckResult& checks,
                           const hack::TinyConfig& c) {
  const ReplayTimes& rt = checks.replay;
  const auto per = [](double s, std::size_t n) {
    return n == 0 ? 0.0 : s / static_cast<double>(n);
  };
  const Probe::Total prefill = probe.total(Probe::kAttendPrefill);
  const Probe::Total decode = probe.total(Probe::kAttendDecode);
  const double mean_ctx = per(static_cast<double>(rt.decode_context_sum),
                              rt.decode_steps);
  const double tps_traced =
      traced.makespan_s > 0 ? traced.generated / traced.makespan_s : 0.0;
  const double tps_untraced =
      untraced.makespan_s > 0 ? untraced.generated / untraced.makespan_s : 0.0;
  const bool fleet = w.serving == Serving::kFleet;
  const std::vector<double>& ser = fleet ? traced.serialize_s : rt.serialize_s;
  const std::vector<double>& de =
      fleet ? traced.deserialize_s : rt.deserialize_s;
  const double wire_vs_fp16 =
      fleet ? per(static_cast<double>(traced.wire_bytes),
                  traced.fp16_kv_bytes)
            : per(static_cast<double>(rt.wire_bytes), rt.fp16_kv_bytes);
  const hack::KvTierStats& t = traced.tier;
  return JsonObject()
      .num("model.qkv_s_per_row", per(rt.qkv_s, rt.layer_rows))
      .num("model.ffn_s_per_row", per(rt.ffn_s, rt.layer_rows))
      .num("model.lm_head_s_per_row", per(rt.lm_head_s, rt.lm_rows))
      .num("attention.append_s_per_row", per(append.seconds, append.rows))
      .num("attention.attend_prefill_s_per_row",
           per(prefill.seconds, prefill.rows))
      .num("attention.attend_decode_s", per(decode.seconds, decode.calls))
      // Computed from shapes: Q.K^T and P.V integer MACs of every query
      // head in every layer at the replays' mean decode context.
      .num("core.int_macs_per_token",
           2.0 * mean_ctx * static_cast<double>(c.d_head * c.heads * c.layers))
      // Computed: one layer's stored KV bytes at that context.
      .num("core.bytes_per_decode_attend",
           mean_ctx * per(static_cast<double>(rt.layer_stored_bytes),
                          rt.stored_tokens))
      .num("kvcache.serialize_s_p50", p50(ser))
      .num("kvcache.deserialize_s_p50", p50(de))
      .num("kvcache.wire_vs_fp16", wire_vs_fp16)
      .num("kvcache.evictions", static_cast<double>(t.evictions))
      .num("kvcache.rehydrations", static_cast<double>(t.rehydrations))
      .num("kvcache.prefetch_hit_ratio",
           per(static_cast<double>(t.prefetch_hits), t.rehydrations))
      .num("kvcache.swap_in_work_s", t.swap_in_work_s)
      .num("kvcache.swap_in_stall_s", t.swap_in_stall_s)
      .num("netsim.transfer_s_p50", p50(traced.transfer_s))
      .num("serving.steps", static_cast<double>(traced.steps))
      .num("serving.rows_per_step_mean",
           per(static_cast<double>(traced.rows), traced.steps))
      .num("serving.peak_running", static_cast<double>(traced.peak_running))
      .num("serving.prefill_chunks",
           static_cast<double>(traced.prefill_chunks))
      .num("serving.queue_wait_p50_s", p50(traced.queue_wait_s))
      .num("serving.pure_decode_tokens_per_s",
           traced.pure_decode_tokens_per_s)
      .num("trace.tokens_per_s_traced_over_untraced",
           tps_untraced > 0 ? tps_traced / tps_untraced : 0.0)
      .num("trace.ttft_p50_traced_over_untraced",
           p50(untraced.ttft_s) > 0 ? p50(traced.ttft_s) / p50(untraced.ttft_s)
                                    : 0.0)
      .num("trace.spans", static_cast<double>(probe.span_count()))
      .dump();
}

int run(const Args& a) {
  const Workload w = make_workload(a.workload, a.seed, a.seconds);
  if (a.dump) {
    std::printf("%s %llu requests=%zu pool_blocks=%zu digest=%016llx\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                w.requests.size(), w.pool_blocks,
                static_cast<unsigned long long>(workload_digest(w)));
    return 0;
  }
  Probe probe(a.trace == 1);
  const std::int64_t root = probe.open("workload");
  // Samples the machine's speed through set-up and the measured runs.
  SpeedSampler sampler(pthread_self());

  // Set-up, several times: weights + warm-up through the same engine type.
  std::vector<double> setup_s;
  std::shared_ptr<const hack::TinyModelWeights> weights;
  const std::vector<ServingRequest> warmup = warmup_requests(w);
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    weights.reset();
    const std::int64_t span = probe.open("setup", root);
    const double t0 = now_s();
    weights = hack::make_tiny_weights(model_config());
    serve(w, weights, warmup, nullptr, span);
    setup_s.push_back(now_s() - t0);
    probe.close(span);
  }

  // The fleet run has no in-engine probe: its spans are derived from the
  // records afterwards, so one run serves as both the untraced and the
  // traced run and its tracing overhead is zero by construction.
  const bool fleet = w.serving == Serving::kFleet;
  const RunResult untraced =
      serve(w, weights, w.requests, fleet && a.trace == 1 ? &probe : nullptr,
            root);
  const double rss = peak_rss_mib();
  RunResult traced = untraced;
  Probe::Total engine_append;
  if (a.trace == 1 && !fleet) {
    const std::int64_t span = probe.open("measured_run.traced", root);
    traced = serve(w, weights, w.requests, &probe, span);
    probe.close(span);
    engine_append = probe.total(Probe::kAppend);
  }
  sampler.stop();
  CheckResult checks = run_checks(w, weights, untraced, probe);
  if (a.trace == 1) {
    bool same = traced.tokens == untraced.tokens;
    checks.checks.push_back(
        {"tracing_keeps_tokens", same, "traced run tokens equal untraced"});
  }
  probe.close(root);

  const std::string fingerprint = fingerprint_json(w.name, a.seed);
  JsonObject out;
  out.raw("fingerprint", fingerprint)
      .str("workload", w.name)
      .num("rate_rps", w.rate_rps)
      .num("requests", static_cast<double>(w.requests.size()))
      .num("pool_blocks", static_cast<double>(w.pool_blocks))
      .raw("setup_s", jarr(setup_s))
      .num("peak_rss_mib", rss)
      .raw("speed", speed_json(sampler))
      .raw("untraced", run_json(untraced))
      .num("sampled", static_cast<double>(checks.sampled))
      .num("sampled_match", static_cast<double>(checks.sampled_match))
      .num("wire_bytes_per_prompt_token",
           w.serving == Serving::kColocated
               ? static_cast<double>(checks.replay.wire_bytes) /
                     std::max<double>(1.0, checks.replay.prompt_tokens)
               : static_cast<double>(untraced.wire_bytes) /
                     std::max<double>(1.0, untraced.prompt_tokens));
  std::string check_list = "[";
  for (std::size_t i = 0; i < checks.checks.size(); ++i) {
    const Check& c = checks.checks[i];
    if (i > 0) check_list += ",";
    check_list += JsonObject()
                      .str("name", c.name)
                      .raw("ok", c.ok ? "true" : "false")
                      .str("detail", c.detail)
                      .dump();
  }
  out.raw("checks", check_list + "]");
  if (a.trace == 1) {
    if (!fleet) out.raw("traced", run_json(traced));
    out.raw("per_layer",
            per_layer_json(w, traced, untraced, probe,
                           fleet ? probe.total(Probe::kAppend) : engine_append,
                           checks, weights->config()));
    if (!a.trace_file.empty() &&
        !probe.write_chrome_trace(a.trace_file, fingerprint)) {
      std::fprintf(stderr, "cannot write %s\n", a.trace_file.c_str());
      return 1;
    }
  }

  std::FILE* f = std::fopen(a.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", a.out.c_str());
    return 1;
  }
  std::fprintf(f, "%s\n", out.dump().c_str());
  return std::fclose(f) == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload chat|longdoc|pressure --seed N "
                 "--seconds S [--trace 0|1 --out raw.json "
                 "[--trace-file spans.json] | --dump-workload]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::run(args);
}
