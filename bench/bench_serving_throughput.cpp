// Serving-shape throughput of the batched multi-head HQ-attention engine:
// per-layer prefill and decode latency / tokens-per-second at realistic GQA
// shapes (default 32 query heads over 8 KV heads, d_head 128), comparing one
// HackLayerKvState batched launch against the pre-batching per-head loop
// (append per KV head, then one hack_attention per query head).
//
// Emits one JSON line per (context, threads) leg:
//
//   {"bench":"serving_layer_prefill","heads":32,"kv_heads":8,"d_head":128,
//    "context":4096,"threads":4,"lanes":4,"batched_ms":...,
//    "per_head_1t_ms":...,"batched_tokens_per_s":...,
//    "speedup_vs_per_head_1t":...,"wire_bytes":...}
//   {"bench":"serving_layer_decode",...,"batched_ms":...,"per_head_1t_ms":...,
//    "batched_tokens_per_s":...,"speedup_vs_per_head_1t":...}
//
// `per_head_1t_ms` is the serial per-head loop (threads=1) — the honest
// baseline for "what one layer cost before batching". `speedup_vs_per_head_1t`
// therefore folds in both the head-level parallelism (bounded by the machine's
// cores / HACK_NUM_THREADS) and the fused-launch savings; `lanes` records how
// many pool lanes actually existed so a 1-core CI box is readable as such.
//
// `--long` runs the streaming-softmax long-context sweep instead (default
// ctx 4096/16384 at 32Q/8KV heads, d_head 128, auto threads): tiled prefill
// tokens/s plus the modeled peak attention working-set bytes per layer of
// the tiled engine vs the PR 2 untiled engine (full per-head score buffers,
// 96 MiB head chunking), one JSON line per context:
//
//   {"bench":"serving_longctx_prefill","context":16384,...,"tile":1600,
//    "batched_ms":...,"batched_tokens_per_s":...,"tiled_ws_bytes":...,
//    "untiled_ws_bytes":...,"ws_shrink":...,"peak_rss_mib":...}
//
// `--continuous` runs the end-to-end serving comparison instead: N requests
// from an open-loop arrival process (Poisson or trace replay) through the
// full tiny-transformer model (shared weights, HACK batched layer backends),
// once as a serial per-request loop (FCFS queue, one TinyTransformer at a
// time) and once through the continuous-batching ServingEngine. One JSON
// line per leg plus a ratio line:
//
//   {"bench":"serving_continuous","mode":"serial"|"continuous","requests":8,
//    "heads":32,...,"lanes":4,"decode_tokens_per_s":...,"tokens_per_s":...,
//    "ttft_p50_s":...,"ttft_p99_s":...,"tbt_p50_s":...,"jct_p99_s":...,
//    "goodput_rps":...,"kv_bytes_admitted":...,"weights_mib":...}
//   {"bench":"serving_continuous_speedup","decode_speedup":...,
//    "jct_p50_speedup":...}
//
// `--tiered` runs the same continuous workload against a deliberately small
// KV block pool, twice: once with the worst-case FCFS reservation policy
// ("fcfs") and once with the tiered KV memory manager ("tiered" —
// kvcache/tier_manager.h: reserve-on-append admission, priority preemption
// to a compressed kv_wire far tier, speculative prefetch). Arrival stamps
// are zeroed so the swap schedule is deterministic; both constrained legs
// must emit tokens bit-identical to an unconstrained reference run. One
// JSON line per leg plus a comparison line:
//
//   {"bench":"serving_tiered","mode":"fcfs"|"tiered","requests":6,
//    "pool_blocks":10,"completed":...,"peak_running":...,"tokens_per_s":...,
//    "evictions":...,"rehydrations":...,"prefetch_hits":...,
//    "prefetch_misses":...,"swap_out_bytes":...,"swap_in_bytes":...,
//    "far_bytes_peak":...,"swap_in_work_ms":...,"swap_in_stall_ms":...}
//   {"bench":"serving_tiered_compare","fcfs_peak_running":...,
//    "tiered_peak_running":...,"concurrency_gain":...,
//    "prefetch_overlap_ratio":...,"prefetch_overlap_ge_half":true,
//    "bit_identical":true}
//
// `--disagg` runs the single prefill→decode pair (a 1×1 fleet,
// serving/fleet.h) instead, once per KV bit-width {2,4,8}: every request
// prefills on one worker, ships its serialized KV wire blob
// (kvcache/kv_wire.h) over the netsim NCCL-style link, and decodes on the
// other — with the decode tokens checked bit-for-bit against a solo
// single-node run. One JSON line per bit-width with the measured wire bytes
// by section and the handoff timing:
//
//   {"bench":"serving_disagg","kv_bits":2,"requests":4,...,
//    "wire_bytes_total":...,"fp16_kv_bytes_total":...,"wire_vs_fp16":...,
//    "wire_codes_bytes":...,"wire_metadata_bytes":...,"wire_sums_bytes":...,
//    "wire_tail_bytes":...,"transfer_ms_mean":...,"ttft_p50_s":...,
//    "retries":...,"chunks_dropped":...,"chunks_corrupted":...,
//    "crc_failures":...,"retransmitted_bytes":...,"fallbacks":...,
//    "deadline_misses":...,"bit_identical":true}
//
// `--drop=`/`--corrupt=` inject that probability of chunk loss/corruption on
// the disagg transfer path (seeded by `--fault-seed=`, so a chaos leg is
// reproducible); the recovery layer must still deliver bit_identical=true.
//
// `--fleet=NxM` runs the multi-replica fleet (serving/fleet.h) instead: N
// prefill × M decode workers, health-gated dispatch (`--policy=` picks the
// decode policy), per-link fault injection from the same --drop/--corrupt
// knobs, and `--kill=worker:request[@token],...` schedules worker crashes
// (e.g. --kill=prefill0:1,decode1:2 crashes prefill0 at request 1 and
// decode1 at request 2; decode1:2@6 crashes decode1 mid-decode, after
// request 2's sixth generated token). `--checkpoint-every=K` turns on the
// mid-decode checkpoint cadence: every K decoded tokens the decode worker
// cuts an incremental compressed-KV delta and ships it back to the request's
// prefill worker, so a mid-decode crash resumes on a replica from base+delta
// instead of re-prefilling. One fleet JSON line with throughput, tail
// latency, the failover/reroute/shed counters, and the checkpoint economics
// (delta bytes per checkpoint, resume rehydration latency, migrations),
// plus one line per worker:
//
//   {"bench":"serving_fleet","prefill_workers":2,"decode_workers":2,
//    "policy":"round_robin","kills":"prefill0:1,decode1:2@6","tokens_per_s":...,
//    "ttft_p50_s":...,"ttft_p99_s":...,"reroutes":...,"prefill_failovers":...,
//    "shed":...,"re_prefills":...,"re_prefills_from_decode":0,
//    "health_transitions":...,"checkpoint_every":4,"checkpoints":...,
//    "checkpoint_bytes":...,"delta_bytes_per_checkpoint":...,
//    "checkpoint_failures":...,"resumes":...,"resume_latency_mean_s":...,
//    "tokens_replayed":...,"tokens_recomputed":...,"migrations":...,
//    "drains":...,"bit_identical":true}
//   {"bench":"serving_fleet_worker","worker":"decode1","role":"decode",
//    "served":...,"crashes":...,"transfer_failures":...,"drains":...,
//    "utilization":...,"final_health":"down"}
//
// Usage: bench_serving_throughput [--quick] [--long|--continuous|--tiered|
//          --disagg]
//          [--fleet=NxM] [--kill=worker:request[@token],...]
//          [--policy=round_robin|least_bytes|free_blocks]
//          [--checkpoint-every=0]
//          [--context=1024,4096] [--threads=1,2,4] [--heads=32] [--kv-heads=8]
//          [--requests=8] [--input=128] [--output=32] [--layers=2]
//          [--arrival=poisson:<rps>|trace:<file>] [--max-active=8]
//          [--chunk=128] [--kv-blocks=0] [--chunk-bytes=1048576]
//          [--drop=0.0] [--corrupt=0.0] [--fault-seed=24301]
//   --quick shrinks to context 512 / threads {1,2} (or input 48 / output 12
//   in --continuous and --disagg modes) for CI smoke runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "attention/hack_attention.h"
#include "attention/layer_attention.h"
#include "base/thread_pool.h"
#include "metrics/stats.h"
#include "model/tiny_transformer.h"
#include "serving/disagg.h"
#include "serving/engine.h"
#include "serving/fleet.h"
#include "tensor/ops.h"
#include "workload/trace.h"

namespace {

using namespace hack;

struct Shape {
  std::size_t heads = 32;
  std::size_t kv_heads = 8;
  std::size_t d_head = 128;
  std::size_t pi = 64;
};

struct Inputs {
  Matrix q_all, k_all, v_all;
};

Inputs make_inputs(const Shape& s, std::size_t tokens, std::uint64_t seed) {
  Rng rng(seed);
  return {Matrix::random_gaussian(tokens, s.heads * s.d_head, rng),
          Matrix::random_gaussian(tokens, s.kv_heads * s.d_head, rng),
          Matrix::random_gaussian(tokens, s.kv_heads * s.d_head, rng)};
}

HackAttentionConfig make_config(const Shape& s, int threads) {
  HackAttentionConfig cfg;
  cfg.pi = s.pi;
  cfg.threads = threads;
  return cfg;
}

double time_best_ms(const std::function<void()>& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(stop - start).count());
  }
  return best;
}

// The pre-batching model path for one layer: per-KV-head states appended and
// attended in a serial query-head loop.
struct PerHeadLayer {
  Shape shape;
  std::vector<HackKvState> states;
  std::vector<Rng> rngs;

  PerHeadLayer(const Shape& s, const HackAttentionConfig& cfg,
               std::uint64_t seed)
      : shape(s) {
    for (std::size_t h = 0; h < s.kv_heads; ++h) {
      states.emplace_back(s.d_head, cfg);
      rngs.emplace_back(seed + h);
    }
  }

  void append(const Inputs& in) {
    const std::size_t d = shape.d_head;
    for (std::size_t h = 0; h < shape.kv_heads; ++h) {
      states[h].append_tokens(take_cols(in.k_all, h * d, (h + 1) * d),
                              take_cols(in.v_all, h * d, (h + 1) * d),
                              rngs[h]);
    }
  }

  void attend(const Inputs& in, std::size_t key_offset) {
    const std::size_t d = shape.d_head;
    const std::size_t group = shape.heads / shape.kv_heads;
    for (std::size_t g = 0; g < shape.kv_heads; ++g) {
      for (std::size_t sub = 0; sub < group; ++sub) {
        const std::size_t head = g * group + sub;
        const Matrix o = hack_attention(
            take_cols(in.q_all, head * d, (head + 1) * d), states[g],
            {.causal = true, .key_offset = key_offset}, rngs[g]);
        (void)o;
      }
    }
  }
};

void run_prefill_legs(const Shape& shape, std::size_t context,
                      const std::vector<int>& thread_legs) {
  const Inputs in = make_inputs(shape, context, 1234);
  const int reps = context >= 2048 ? 1 : 2;
  const std::size_t lanes = ThreadPool::global().lanes();

  // Serial per-head baseline, measured once per context.
  const HackAttentionConfig cfg_1t = make_config(shape, 1);
  const double per_head_1t_ms = time_best_ms(
      [&] {
        PerHeadLayer layer(shape, cfg_1t, 7);
        layer.append(in);
        layer.attend(in, 0);
      },
      reps);

  std::size_t wire_bytes = 0;
  std::size_t resident_code_bytes = 0;
  for (const int threads : thread_legs) {
    const HackAttentionConfig cfg = make_config(shape, threads);
    const double batched_ms = time_best_ms(
        [&] {
          HackLayerKvState layer(shape.d_head, shape.kv_heads, shape.heads,
                                 cfg, 7);
          (void)layer.prefill(in.q_all, in.k_all, in.v_all);
          wire_bytes = layer.wire_bytes();
          resident_code_bytes = layer.resident_code_bytes();
        },
        reps);
    // The code planes are bit-packed in memory; the unpacked figure is what
    // the same planes held when resident storage was one byte per code.
    const std::size_t unpacked_code_bytes =
        resident_code_bytes * 8 / static_cast<std::size_t>(cfg.kv_bits);
    std::printf(
        "{\"bench\":\"serving_layer_prefill\",\"heads\":%zu,\"kv_heads\":%zu,"
        "\"d_head\":%zu,\"pi\":%zu,\"context\":%zu,\"threads\":%d,"
        "\"lanes\":%zu,\"batched_ms\":%.2f,\"per_head_1t_ms\":%.2f,"
        "\"batched_tokens_per_s\":%.1f,\"speedup_vs_per_head_1t\":%.2f,"
        "\"wire_bytes\":%zu,\"resident_code_bytes\":%zu,"
        "\"unpacked_code_bytes\":%zu}\n",
        shape.heads, shape.kv_heads, shape.d_head, shape.pi, context, threads,
        lanes, batched_ms, per_head_1t_ms,
        1000.0 * static_cast<double>(context) / batched_ms,
        per_head_1t_ms / batched_ms, wire_bytes, resident_code_bytes,
        unpacked_code_bytes);
    std::fflush(stdout);
  }
}

void run_decode_legs(const Shape& shape, std::size_t context,
                     const std::vector<int>& thread_legs) {
  const std::size_t steps = 16;
  const std::size_t lanes = ThreadPool::global().lanes();

  // Per-head baseline: prefill untimed, then `steps` single-token decodes.
  const Inputs prompt = make_inputs(shape, context, 1234);
  const HackAttentionConfig cfg_1t = make_config(shape, 1);
  PerHeadLayer per_head(shape, cfg_1t, 7);
  per_head.append(prompt);
  std::vector<Inputs> tokens;
  tokens.reserve(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    tokens.push_back(make_inputs(shape, 1, 9000 + t));
  }
  const double per_head_1t_ms =
      time_best_ms(
          [&] {
            for (std::size_t t = 0; t < steps; ++t) {
              per_head.append(tokens[t]);
              per_head.attend(tokens[t], per_head.states[0].tokens() - 1);
            }
          },
          1) /
      static_cast<double>(steps);

  for (const int threads : thread_legs) {
    const HackAttentionConfig cfg = make_config(shape, threads);
    HackLayerKvState layer(shape.d_head, shape.kv_heads, shape.heads, cfg, 7);
    (void)layer.prefill(prompt.q_all, prompt.k_all, prompt.v_all);
    const double batched_ms =
        time_best_ms(
            [&] {
              for (std::size_t t = 0; t < steps; ++t) {
                (void)layer.decode_step(tokens[t].q_all, tokens[t].k_all,
                                        tokens[t].v_all);
              }
            },
            1) /
        static_cast<double>(steps);
    std::printf(
        "{\"bench\":\"serving_layer_decode\",\"heads\":%zu,\"kv_heads\":%zu,"
        "\"d_head\":%zu,\"pi\":%zu,\"context\":%zu,\"threads\":%d,"
        "\"lanes\":%zu,\"batched_ms\":%.3f,\"per_head_1t_ms\":%.3f,"
        "\"batched_tokens_per_s\":%.1f,\"speedup_vs_per_head_1t\":%.2f}\n",
        shape.heads, shape.kv_heads, shape.d_head, shape.pi, context, threads,
        lanes, batched_ms, per_head_1t_ms, 1000.0 / batched_ms,
        per_head_1t_ms / batched_ms);
    std::fflush(stdout);
  }
}

double peak_rss_mib() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Long-context streaming prefill: tiled tokens/s plus the modeled per-layer
// peak attention working set, tiled vs the PR 2 untiled engine. The untiled
// leg is not run (at 16k it would materialize a 2.3 GiB score buffer per
// head); its working set comes from the retired engine's chunking model.
void run_longctx_legs(const Shape& shape,
                      const std::vector<std::size_t>& contexts) {
  const std::size_t lanes = ThreadPool::global().lanes();
  for (const std::size_t context : contexts) {
    const Inputs in = make_inputs(shape, context, 1234);
    const HackAttentionConfig cfg = make_config(shape, /*threads=*/0);
    const std::size_t tile = attention_tile_tokens(cfg, context);
    double batched_ms = 0.0;
    {
      const auto start = std::chrono::steady_clock::now();
      HackLayerKvState layer(shape.d_head, shape.kv_heads, shape.heads, cfg,
                             7);
      (void)layer.prefill(in.q_all, in.k_all, in.v_all);
      const auto stop = std::chrono::steady_clock::now();
      batched_ms =
          std::chrono::duration<double, std::milli>(stop - start).count();
    }
    const std::size_t tiled_ws = tiled_attention_working_set_bytes(
        context, context, shape.heads, shape.d_head, tile, lanes);
    const std::size_t untiled_ws =
        untiled_attention_working_set_bytes(context, context, shape.heads);
    std::printf(
        "{\"bench\":\"serving_longctx_prefill\",\"heads\":%zu,"
        "\"kv_heads\":%zu,\"d_head\":%zu,\"pi\":%zu,\"context\":%zu,"
        "\"lanes\":%zu,\"tile\":%zu,\"batched_ms\":%.2f,"
        "\"batched_tokens_per_s\":%.1f,\"tiled_ws_bytes\":%zu,"
        "\"untiled_ws_bytes\":%zu,\"ws_shrink\":%.1f,\"peak_rss_mib\":%.1f}\n",
        shape.heads, shape.kv_heads, shape.d_head, shape.pi, context, lanes,
        tile, batched_ms,
        1000.0 * static_cast<double>(context) / batched_ms, tiled_ws,
        untiled_ws,
        static_cast<double>(untiled_ws) / static_cast<double>(tiled_ws),
        peak_rss_mib());
    std::fflush(stdout);
  }
}

// ------------------------------------------------- continuous serving mode

struct ContOptions {
  std::size_t requests = 8;
  std::size_t input = 128;    // mean prompt tokens
  std::size_t output = 32;    // mean output tokens
  std::size_t layers = 2;
  std::string arrival = "poisson:8";
  std::size_t max_active = 8;
  std::size_t chunk = 128;
  std::size_t kv_blocks = 0;  // 0: no KV admission control
  // --disagg chaos knobs: injected chunk drop/corrupt probabilities and the
  // fault-schedule seed (deterministic: one seed, one schedule).
  double drop = 0.0;
  double corrupt = 0.0;
  std::uint64_t fault_seed = 0x5EED;
  // Transfer pipelining granularity; small values give a chaos leg many
  // chunks (and so many fault-injection opportunities) per blob.
  std::size_t chunk_bytes = 1 << 20;
  // --fleet mode: worker counts (0x0 = fleet mode off), the decode dispatch
  // policy, and the raw --kill=worker:request[@token],... crash schedule.
  std::size_t fleet_prefill = 0;
  std::size_t fleet_decode = 0;
  std::string fleet_policy = "round_robin";
  std::string kills;
  // Mid-decode checkpoint cadence (tokens between incremental KV delta
  // cuts); 0 disables checkpointing, mid-decode crashes then re-prefill.
  std::size_t checkpoint_every = 0;
};

std::vector<ServingRequest> make_continuous_requests(const ContOptions& o) {
  std::vector<ArrivalRecord> arrivals;
  if (o.arrival.rfind("trace:", 0) == 0) {
    const std::string path = o.arrival.substr(6);
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open trace file %s\n", path.c_str());
      std::exit(1);
    }
    std::stringstream buf;
    buf << in.rdbuf();
    arrivals = Trace::parse(buf.str()).requests;
  } else if (o.arrival.rfind("poisson:", 0) == 0) {
    const double rps = std::strtod(o.arrival.c_str() + 8, nullptr);
    if (rps <= 0.0) {
      std::fprintf(stderr, "bad poisson rate in %s\n", o.arrival.c_str());
      std::exit(1);
    }
    const auto mean = [](std::size_t v) { return static_cast<double>(v); };
    const DatasetSpec spec{
        "bench",
        {mean(o.input), mean(std::max<std::size_t>(o.input / 2, 1)),
         mean(o.input * 2)},
        {mean(o.output), mean(std::max<std::size_t>(o.output / 2, 1)),
         mean(o.output * 2)}};
    Rng rng(42);
    arrivals = generate_arrivals(spec, rps, static_cast<int>(o.requests), rng);
  } else {
    std::fprintf(stderr, "bad --arrival (want poisson:<rps> or trace:<file>)"
                 ": %s\n", o.arrival.c_str());
    std::exit(1);
  }
  return requests_from_arrivals(arrivals, /*vocab=*/256, /*prompt_seed=*/7777,
                                /*max_input=*/o.input * 2,
                                /*max_output=*/o.output * 2);
}

struct LegSummary {
  double decode_tokens_per_s = 0.0;
  double pure_decode_tokens_per_s = 0.0;  // decode steps without a prefill
  double tokens_per_s = 0.0;
  double goodput_rps = 0.0;
  double makespan_s = 0.0;
  std::size_t total_tokens = 0;
  SampleStats ttft, tbt, jct;
  std::size_t kv_bytes_admitted = 0;
  std::size_t peak_running = 1;
};

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The pre-engine serving loop: one request at a time, FCFS. Service times
// are measured wall-clock; queueing is accounted on a virtual timeline from
// the arrival stamps, exactly like a single-worker queue.
LegSummary run_serial_leg(const std::shared_ptr<const TinyModelWeights>& w,
                          const std::function<LayerBackendFactory()>& maker,
                          std::vector<ServingRequest> requests) {
  std::sort(requests.begin(), requests.end(),
            [](const ServingRequest& a, const ServingRequest& b) {
              return a.arrival_time_s < b.arrival_time_s;
            });
  LegSummary leg;
  std::vector<double> ttft, tbt, jct;
  double cursor = 0.0, decode_time = 0.0;
  std::size_t decode_tokens = 0;
  for (const ServingRequest& req : requests) {
    TinyTransformer model(w, maker());
    double t0 = wall_s();
    std::vector<float> logits = model.prefill(req.prompt);
    int token = argmax_logits(logits);
    const double prefill_s = wall_s() - t0;  // includes the first token
    std::size_t generated = 1;
    double decode_s = 0.0;
    while (generated < req.max_new_tokens) {
      t0 = wall_s();
      logits = model.decode_step(token);
      token = argmax_logits(logits);
      const double step = wall_s() - t0;
      decode_s += step;
      tbt.push_back(step);
      ++generated;
    }
    const double start = std::max(req.arrival_time_s, cursor);
    ttft.push_back(start + prefill_s - req.arrival_time_s);
    jct.push_back(start + prefill_s + decode_s - req.arrival_time_s);
    cursor = start + prefill_s + decode_s;
    decode_time += decode_s;
    decode_tokens += generated - 1;
    leg.total_tokens += generated;
  }
  leg.makespan_s = cursor;
  if (decode_time > 0.0) {
    leg.decode_tokens_per_s =
        static_cast<double>(decode_tokens) / decode_time;
    leg.pure_decode_tokens_per_s = leg.decode_tokens_per_s;  // no mixing
  }
  if (cursor > 0.0) {
    leg.tokens_per_s = static_cast<double>(leg.total_tokens) / cursor;
    leg.goodput_rps = static_cast<double>(requests.size()) / cursor;
  }
  leg.ttft = compute_stats(std::move(ttft));
  if (!tbt.empty()) leg.tbt = compute_stats(std::move(tbt));
  leg.jct = compute_stats(std::move(jct));
  return leg;
}

LegSummary summarize_report(const ServingReport& report) {
  LegSummary leg;
  leg.decode_tokens_per_s = report.decode_tokens_per_s;
  leg.pure_decode_tokens_per_s = report.pure_decode_tokens_per_s;
  leg.tokens_per_s = report.tokens_per_s;
  leg.goodput_rps = report.goodput_rps;
  leg.makespan_s = report.makespan_s;
  leg.total_tokens = report.total_generated;
  leg.ttft = report.ttft_s;
  leg.tbt = report.tbt_s;
  leg.jct = report.jct_s;
  leg.kv_bytes_admitted = report.engine.kv_bytes_admitted;
  leg.peak_running = report.engine.peak_running;
  return leg;
}

void print_continuous_leg(const char* mode, const Shape& shape,
                          const ContOptions& o, const LegSummary& leg,
                          double weights_mib) {
  std::printf(
      "{\"bench\":\"serving_continuous\",\"mode\":\"%s\",\"requests\":%zu,"
      "\"heads\":%zu,\"kv_heads\":%zu,\"d_head\":%zu,\"layers\":%zu,"
      "\"input_mean\":%zu,\"output_mean\":%zu,\"arrival\":\"%s\","
      "\"max_active\":%zu,\"chunk\":%zu,\"lanes\":%zu,"
      "\"decode_tokens_per_s\":%.1f,\"pure_decode_tokens_per_s\":%.1f,"
      "\"tokens_per_s\":%.1f,"
      "\"goodput_rps\":%.2f,\"makespan_s\":%.3f,\"total_tokens\":%zu,"
      "\"ttft_p50_s\":%.4f,\"ttft_p90_s\":%.4f,\"ttft_p99_s\":%.4f,"
      "\"tbt_p50_s\":%.4f,\"tbt_p99_s\":%.4f,"
      "\"jct_p50_s\":%.4f,\"jct_p99_s\":%.4f,"
      "\"peak_running\":%zu,\"kv_bytes_admitted\":%zu,"
      "\"weights_mib\":%.1f}\n",
      mode, o.requests, shape.heads, shape.kv_heads, shape.d_head, o.layers,
      o.input, o.output, o.arrival.c_str(), o.max_active, o.chunk,
      ThreadPool::global().lanes(), leg.decode_tokens_per_s,
      leg.pure_decode_tokens_per_s,
      leg.tokens_per_s, leg.goodput_rps, leg.makespan_s, leg.total_tokens,
      leg.ttft.p50, leg.ttft.p90, leg.ttft.p99, leg.tbt.p50, leg.tbt.p99,
      leg.jct.p50, leg.jct.p99, leg.peak_running, leg.kv_bytes_admitted,
      weights_mib);
  std::fflush(stdout);
}

void run_continuous_mode(const Shape& shape, const ContOptions& o) {
  TinyConfig cfg;
  cfg.vocab = 256;
  cfg.layers = o.layers;
  cfg.heads = shape.heads;
  cfg.kv_heads = shape.kv_heads;
  cfg.d_head = shape.d_head;
  cfg.d_ff = 512;
  const auto weights = make_tiny_weights(cfg);
  const double weights_mib =
      static_cast<double>(weights->weight_bytes()) / (1024.0 * 1024.0);
  HackAttentionConfig attn;
  attn.pi = shape.pi;
  const auto maker = [attn] { return make_hack_layer_backend(attn, 7); };
  const auto requests = make_continuous_requests(o);

  std::printf("continuous serving: %zu requests (%s), %zuQ/%zuKV d_head %zu,"
              " %zu layers, pool lanes %zu, weights %.1f MiB (one shared "
              "instance)\n",
              o.requests, o.arrival.c_str(), shape.heads, shape.kv_heads,
              shape.d_head, o.layers, ThreadPool::global().lanes(),
              weights_mib);

  const LegSummary serial = run_serial_leg(weights, maker, requests);
  print_continuous_leg("serial", shape, o, serial, weights_mib);

  ServingEngineConfig ec;
  ec.scheduler.max_active = o.max_active;
  ec.scheduler.prefill_chunk_tokens = o.chunk;
  std::unique_ptr<BlockAllocator> alloc;
  if (o.kv_blocks > 0) {
    // Accounting blocks: FP16 K+V bytes of block_tokens tokens across all
    // layers and KV heads.
    const std::size_t block_bytes = ec.scheduler.block_tokens *
                                    shape.kv_heads * shape.d_head * 2 * 2 *
                                    o.layers;
    alloc = std::make_unique<BlockAllocator>(o.kv_blocks, block_bytes);
  }
  ServingEngine engine(weights, maker, ec, alloc.get());
  for (const ServingRequest& req : requests) engine.submit(req);
  const LegSummary cont = summarize_report(engine.run());
  print_continuous_leg("continuous", shape, o, cont, weights_mib);

  std::printf(
      "{\"bench\":\"serving_continuous_speedup\",\"lanes\":%zu,"
      "\"decode_speedup\":%.2f,\"pure_decode_speedup\":%.2f,"
      "\"tokens_speedup\":%.2f,"
      "\"jct_p50_speedup\":%.2f,\"ttft_p50_ratio\":%.2f}\n",
      ThreadPool::global().lanes(),
      serial.decode_tokens_per_s > 0.0
          ? cont.decode_tokens_per_s / serial.decode_tokens_per_s
          : 0.0,
      serial.pure_decode_tokens_per_s > 0.0
          ? cont.pure_decode_tokens_per_s / serial.pure_decode_tokens_per_s
          : 0.0,
      serial.tokens_per_s > 0.0 ? cont.tokens_per_s / serial.tokens_per_s
                                : 0.0,
      cont.jct.p50 > 0.0 ? serial.jct.p50 / cont.jct.p50 : 0.0,
      serial.ttft.p50 > 0.0 ? cont.ttft.p50 / serial.ttft.p50 : 0.0);
  std::fflush(stdout);
}

// ---------------------------------------------------- tiered KV memory mode

std::size_t count_finished(const ServingReport& report) {
  std::size_t n = 0;
  for (const ServingRecord& rec : report.requests) {
    if (rec.state == RequestState::kFinished) ++n;
  }
  return n;
}

bool tokens_match(const ServingReport& a, const ServingReport& b) {
  if (a.requests.size() != b.requests.size()) return false;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    if (a.requests[i].generated != b.requests[i].generated) return false;
  }
  return true;
}

void print_tiered_leg(const char* mode, const Shape& shape,
                      const ContOptions& o, const ServingReport& report,
                      std::size_t pool_blocks) {
  const KvTierStats& t = report.engine.tier;
  std::printf(
      "{\"bench\":\"serving_tiered\",\"mode\":\"%s\",\"requests\":%zu,"
      "\"heads\":%zu,\"kv_heads\":%zu,\"d_head\":%zu,\"layers\":%zu,"
      "\"input_mean\":%zu,\"output_mean\":%zu,\"chunk\":%zu,"
      "\"pool_blocks\":%zu,\"max_active\":%zu,"
      "\"completed\":%zu,\"rejected\":%zu,\"peak_running\":%zu,"
      "\"total_tokens\":%zu,\"makespan_s\":%.3f,"
      "\"tokens_per_s\":%.1f,\"decode_tokens_per_s\":%.1f,"
      "\"goodput_rps\":%.2f,\"ttft_p50_s\":%.4f,\"jct_p50_s\":%.4f,"
      "\"evictions\":%zu,\"rehydrations\":%zu,"
      "\"prefetch_hits\":%zu,\"prefetch_misses\":%zu,"
      "\"swap_out_bytes\":%zu,\"swap_in_bytes\":%zu,\"far_bytes_peak\":%zu,"
      "\"swap_in_work_ms\":%.2f,\"swap_in_stall_ms\":%.2f,"
      "\"swap_events\":%zu}\n",
      mode, o.requests, shape.heads, shape.kv_heads, shape.d_head, o.layers,
      o.input, o.output, o.chunk, pool_blocks, o.max_active,
      count_finished(report), report.engine.rejected,
      report.engine.peak_running, report.total_generated, report.makespan_s,
      report.tokens_per_s, report.decode_tokens_per_s, report.goodput_rps,
      report.ttft_s.p50, report.jct_s.p50, t.evictions, t.rehydrations,
      t.prefetch_hits, t.prefetch_misses, t.bytes_swapped_out,
      t.bytes_swapped_in, t.far_bytes_peak, t.swap_in_work_s * 1e3,
      t.swap_in_stall_s * 1e3, report.engine.swap_events.size());
  std::fflush(stdout);
}

void run_tiered_mode(const Shape& shape, const ContOptions& o) {
  TinyConfig cfg;
  cfg.vocab = 256;
  cfg.layers = o.layers;
  cfg.heads = shape.heads;
  cfg.kv_heads = shape.kv_heads;
  cfg.d_head = shape.d_head;
  cfg.d_ff = 512;
  const auto weights = make_tiny_weights(cfg);
  HackAttentionConfig attn;
  attn.pi = shape.pi;
  const auto maker = [attn] { return make_hack_layer_backend(attn, 7); };

  std::vector<ServingRequest> requests = make_continuous_requests(o);
  // The arrival process only shapes the workload here; stamps are zeroed so
  // every request is visible at t=0. That makes admission order — and with
  // it the whole evict/resume/prefetch schedule — a pure function of the
  // submissions (docs/serving.md "Tiered KV memory"), so the leg is
  // bitwise-replayable and the prefetcher's projection is exact.
  for (ServingRequest& req : requests) req.arrival_time_s = 0.0;

  ServingEngineConfig ec;
  ec.scheduler.max_active = o.max_active;
  ec.scheduler.prefill_chunk_tokens = o.chunk;
  const std::size_t block_tokens = ec.scheduler.block_tokens;
  std::size_t max_worst = 0, sum_worst = 0;
  for (const ServingRequest& req : requests) {
    const std::size_t tokens = req.prompt.size() + req.max_new_tokens;
    const std::size_t blocks = (tokens + block_tokens - 1) / block_tokens;
    max_worst = std::max(max_worst, blocks);
    sum_worst += blocks;
  }
  // Default pool: barely above the largest single request's worst case, so
  // every request is admissible alone (no rejections) but the worst-case
  // FCFS reservation can only co-resident a strict subset — the regime the
  // tiered manager exists for. --kv-blocks overrides.
  const std::size_t pool_blocks =
      o.kv_blocks > 0 ? o.kv_blocks : max_worst + 2;
  const std::size_t block_bytes = block_tokens * shape.kv_heads *
                                  shape.d_head * 2 * 2 * o.layers;

  std::printf("tiered KV serving: %zu requests (%s shapes, arrivals zeroed),"
              " pool %zu blocks (worst-case demand %zu, largest request %zu),"
              " chunk %zu, pool lanes %zu\n",
              o.requests, o.arrival.c_str(), pool_blocks, sum_worst,
              max_worst, o.chunk, ThreadPool::global().lanes());

  // Reference: unconstrained untiered run. Engine tokens are batch- and
  // schedule-invariant for a fixed chunk config, so both constrained legs
  // below must reproduce these tokens bit-for-bit.
  ServingReport ref;
  {
    ServingEngine engine(weights, maker, ec, nullptr);
    for (const ServingRequest& req : requests) engine.submit(req);
    ref = engine.run();
  }

  ServingReport fcfs;
  {
    BlockAllocator alloc(pool_blocks, block_bytes);
    ServingEngine engine(weights, maker, ec, &alloc);
    for (const ServingRequest& req : requests) engine.submit(req);
    fcfs = engine.run();
  }
  print_tiered_leg("fcfs", shape, o, fcfs, pool_blocks);

  ServingEngineConfig tc = ec;
  tc.scheduler.tiered = true;
  ServingReport tiered;
  {
    BlockAllocator alloc(pool_blocks, block_bytes);
    ServingEngine engine(weights, maker, tc, &alloc);
    for (const ServingRequest& req : requests) engine.submit(req);
    tiered = engine.run();
  }
  print_tiered_leg("tiered", shape, o, tiered, pool_blocks);

  const bool bit_identical =
      tokens_match(fcfs, ref) && tokens_match(tiered, ref);
  const KvTierStats& t = tiered.engine.tier;
  // Overlap: of the swap-in deserialize work, the fraction hidden behind
  // step compute by the prefetcher (stall is what the engine actually
  // waited). No swap-ins at all means nothing to hide.
  const double overlap_ratio =
      t.swap_in_work_s > 0.0
          ? std::max(0.0, (t.swap_in_work_s - t.swap_in_stall_s) /
                              t.swap_in_work_s)
          : 1.0;
  std::printf(
      "{\"bench\":\"serving_tiered_compare\",\"requests\":%zu,"
      "\"pool_blocks\":%zu,\"fcfs_peak_running\":%zu,"
      "\"tiered_peak_running\":%zu,\"concurrency_gain\":%.2f,"
      "\"fcfs_completed\":%zu,\"tiered_completed\":%zu,"
      "\"jct_p50_ratio\":%.2f,\"evictions\":%zu,\"prefetch_hits\":%zu,"
      "\"prefetch_overlap_ratio\":%.3f,\"prefetch_overlap_ge_half\":%s,"
      "\"bit_identical\":%s}\n",
      o.requests, pool_blocks, fcfs.engine.peak_running,
      tiered.engine.peak_running,
      fcfs.engine.peak_running > 0
          ? static_cast<double>(tiered.engine.peak_running) /
                static_cast<double>(fcfs.engine.peak_running)
          : 0.0,
      count_finished(fcfs), count_finished(tiered),
      tiered.jct_s.p50 > 0.0 ? fcfs.jct_s.p50 / tiered.jct_s.p50 : 0.0,
      t.evictions, t.prefetch_hits, overlap_ratio,
      overlap_ratio >= 0.5 ? "true" : "false",
      bit_identical ? "true" : "false");
  std::fflush(stdout);
}

// ------------------------------------------------ disaggregated handoff mode

void run_disagg_mode(const Shape& shape, const ContOptions& o) {
  TinyConfig cfg;
  cfg.vocab = 256;
  cfg.layers = o.layers;
  cfg.heads = shape.heads;
  cfg.kv_heads = shape.kv_heads;
  cfg.d_head = shape.d_head;
  cfg.d_ff = 512;
  const auto weights = make_tiny_weights(cfg);
  const auto requests = make_continuous_requests(o);

  std::printf("disaggregated prefill→decode: %zu requests (%s), %zuQ/%zuKV "
              "d_head %zu, %zu layers, pool lanes %zu\n",
              o.requests, o.arrival.c_str(), shape.heads, shape.kv_heads,
              shape.d_head, o.layers, ThreadPool::global().lanes());

  for (const int kv_bits : {2, 4, 8}) {
    DisaggConfig dc;
    dc.attn.pi = shape.pi;
    dc.attn.kv_bits = kv_bits;
    dc.decode_kv_blocks = o.kv_blocks;
    dc.transfer_chunk_bytes = o.chunk_bytes;
    dc.transfer_faults.chunk_drop_prob = o.drop;
    dc.transfer_faults.chunk_corrupt_prob = o.corrupt;
    dc.transfer_faults.seed = o.fault_seed;
    // The single pair is a 1×1 fleet whose health policy never demotes the
    // only worker for transfer failures and restarts a crashed one at once,
    // so every failure costs exactly one retry round.
    FleetConfig fc;
    fc.worker = dc;
    fc.health.down_after = SIZE_MAX;
    fc.health.down_cooldown_s = 0.0;
    FleetEngine engine(weights, fc);
    const FleetReport report = engine.run(requests);

    // The property the wire exists for: every admitted request's decode-side
    // tokens equal its solo single-node run. Rejected requests are a
    // capacity event, not a correctness one — they are counted separately
    // and excluded from the byte/time aggregates (like
    // report.wire_bytes_total already excludes them).
    bool bit_identical = true;
    std::size_t rejected = 0;
    KvWireSections sections;
    double prefill_s = 0.0, serialize_s = 0.0, transfer_s = 0.0,
           deserialize_s = 0.0, decode_s = 0.0;
    for (const FleetRecord& fleet_rec : report.requests) {
      const DisaggRecord& rec = fleet_rec.d;
      if (rec.rejected) {
        ++rejected;
        continue;
      }
      TinyTransformer solo(
          weights, make_hack_layer_backend(dc.attn, dc.backend_seed));
      if (solo.generate(rec.request.prompt, rec.request.max_new_tokens,
                        rec.request.eos) != rec.generated) {
        bit_identical = false;
      }
      sections.framing += rec.sections.framing;
      sections.rng_streams += rec.sections.rng_streams;
      sections.packed_codes += rec.sections.packed_codes;
      sections.metadata += rec.sections.metadata;
      sections.sums += rec.sections.sums;
      sections.fp16_tail += rec.sections.fp16_tail;
      prefill_s += rec.prefill_s;
      serialize_s += rec.serialize_s;
      transfer_s += rec.transfer_s;
      deserialize_s += rec.deserialize_s;
      decode_s += rec.decode_s;
    }
    const double n =
        std::max<double>(1.0, static_cast<double>(report.requests.size() -
                                                  rejected));
    const double wire_vs_fp16 =
        report.fp16_kv_bytes_total == 0
            ? 0.0
            : static_cast<double>(report.wire_bytes_total) /
                  static_cast<double>(report.fp16_kv_bytes_total);
    std::printf(
        "{\"bench\":\"serving_disagg\",\"kv_bits\":%d,\"requests\":%zu,"
        "\"heads\":%zu,\"kv_heads\":%zu,\"d_head\":%zu,\"pi\":%zu,"
        "\"layers\":%zu,\"input_mean\":%zu,\"output_mean\":%zu,\"lanes\":%zu,"
        "\"wire_bytes_total\":%zu,\"fp16_kv_bytes_total\":%zu,"
        "\"wire_vs_fp16\":%.4f,\"wire_codes_bytes\":%zu,"
        "\"wire_metadata_bytes\":%zu,\"wire_sums_bytes\":%zu,"
        "\"wire_tail_bytes\":%zu,\"prefill_s_mean\":%.3f,"
        "\"serialize_s_mean\":%.4f,\"transfer_ms_mean\":%.3f,"
        "\"deserialize_s_mean\":%.4f,\"decode_s_mean\":%.3f,"
        "\"ttft_p50_s\":%.4f,\"ttft_p99_s\":%.4f,\"jct_p50_s\":%.4f,"
        "\"makespan_s\":%.3f,\"rejected\":%zu,"
        "\"drop_prob\":%.3f,\"corrupt_prob\":%.3f,\"fault_seed\":%llu,"
        "\"retries\":%zu,\"chunks_dropped\":%zu,\"chunks_corrupted\":%zu,"
        "\"crc_failures\":%zu,\"retransmitted_bytes\":%zu,"
        "\"prefill_crashes\":%zu,\"decode_crashes\":%zu,\"fallbacks\":%zu,"
        "\"deadline_misses\":%zu,\"bit_identical\":%s}\n",
        kv_bits, o.requests, shape.heads, shape.kv_heads, shape.d_head,
        shape.pi, o.layers, o.input, o.output,
        ThreadPool::global().lanes(), report.wire_bytes_total,
        report.fp16_kv_bytes_total, wire_vs_fp16,
        sections.packed_codes, sections.metadata, sections.sums,
        sections.fp16_tail, prefill_s / n, serialize_s / n,
        1000.0 * transfer_s / n, deserialize_s / n, decode_s / n,
        report.ttft_s.p50, report.ttft_s.p99, report.jct_s.p50,
        report.makespan_s, rejected, o.drop, o.corrupt,
        static_cast<unsigned long long>(o.fault_seed), report.retries_total,
        report.chunks_dropped_total, report.chunks_corrupted_total,
        report.crc_failures_total, report.retransmitted_bytes_total,
        report.prefill_crashes_total, report.decode_crashes_total,
        report.fallbacks, report.deadline_misses,
        bit_identical ? "true" : "false");
    std::fflush(stdout);
  }
}

// --------------------------------------------------- multi-replica fleet mode

// Applies a --kill=worker:request[@token],... schedule ("prefill0:1,
// decode1:2@6") to a freshly built engine. A bare worker:request crashes the
// worker when the request's work starts on it; worker:request@token arms a
// mid-decode crash that fires after the request's token'th generated token
// (decode workers only — prefill has no mid-decode). Exits on malformed
// specs or unknown worker names so a CI chaos leg fails loudly instead of
// running a vacuous schedule.
void apply_kill_schedule(FleetEngine& engine, const std::string& kills) {
  std::stringstream ss(kills);
  std::string spec;
  while (std::getline(ss, spec, ',')) {
    if (spec.empty()) continue;
    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr,
                   "bad --kill spec (want worker:request[@token]): %s\n",
                   spec.c_str());
      std::exit(1);
    }
    const std::string worker = spec.substr(0, colon);
    char* after_request = nullptr;
    const std::size_t request =
        std::strtoul(spec.c_str() + colon + 1, &after_request, 10);
    bool mid_decode = false;
    std::size_t token = 0;
    if (after_request != nullptr && *after_request == '@') {
      mid_decode = true;
      token = std::strtoul(after_request + 1, nullptr, 10);
      if (token == 0) {
        std::fprintf(stderr, "bad --kill token (want @N with N>=1): %s\n",
                     spec.c_str());
        std::exit(1);
      }
    } else if (after_request != nullptr && *after_request != '\0') {
      std::fprintf(stderr, "bad --kill spec (want worker:request[@token]): "
                   "%s\n", spec.c_str());
      std::exit(1);
    }
    if (worker.rfind("prefill", 0) == 0) {
      if (mid_decode) {
        std::fprintf(stderr,
                     "--kill @token applies to decode workers only: %s\n",
                     spec.c_str());
        std::exit(1);
      }
      const std::size_t idx =
          std::strtoul(worker.c_str() + 7, nullptr, 10);
      if (idx >= engine.prefill_count()) {
        std::fprintf(stderr, "no such worker: %s\n", worker.c_str());
        std::exit(1);
      }
      engine.prefill_worker(idx).inject_crash(request);
    } else if (worker.rfind("decode", 0) == 0) {
      const std::size_t idx = std::strtoul(worker.c_str() + 6, nullptr, 10);
      if (idx >= engine.decode_count()) {
        std::fprintf(stderr, "no such worker: %s\n", worker.c_str());
        std::exit(1);
      }
      if (mid_decode) {
        engine.decode_worker(idx).inject_crash_at_token(request, token);
      } else {
        engine.decode_worker(idx).inject_crash(request);
      }
    } else {
      std::fprintf(stderr, "bad --kill worker (want prefillN/decodeM): %s\n",
                   worker.c_str());
      std::exit(1);
    }
  }
}

void run_fleet_mode(const Shape& shape, const ContOptions& o) {
  TinyConfig cfg;
  cfg.vocab = 256;
  cfg.layers = o.layers;
  cfg.heads = shape.heads;
  cfg.kv_heads = shape.kv_heads;
  cfg.d_head = shape.d_head;
  cfg.d_ff = 512;
  const auto weights = make_tiny_weights(cfg);
  const auto requests = make_continuous_requests(o);

  FleetConfig fc;
  fc.worker.attn.pi = shape.pi;
  fc.worker.attn.kv_bits = 4;
  fc.worker.decode_kv_blocks = o.kv_blocks;
  fc.worker.transfer_chunk_bytes = o.chunk_bytes;
  fc.worker.transfer_faults.chunk_drop_prob = o.drop;
  fc.worker.transfer_faults.chunk_corrupt_prob = o.corrupt;
  fc.worker.transfer_faults.seed = o.fault_seed;
  fc.worker.checkpoint_every_tokens = o.checkpoint_every;
  fc.prefill_workers = o.fleet_prefill;
  fc.decode_workers = o.fleet_decode;
  // Prefill dispatch stays round-robin so a --kill schedule addressed by
  // worker name is reproducible; --policy picks the decode-side policy.
  fc.prefill_policy = &dispatch_round_robin;
  if (o.fleet_policy == "round_robin") {
    fc.decode_policy = &dispatch_round_robin;
  } else if (o.fleet_policy == "least_bytes") {
    fc.decode_policy = &dispatch_least_outstanding_bytes;
  } else if (o.fleet_policy == "free_blocks") {
    fc.decode_policy = &dispatch_most_free_blocks;
  } else {
    std::fprintf(stderr, "bad --policy (want round_robin|least_bytes|"
                 "free_blocks): %s\n", o.fleet_policy.c_str());
    std::exit(1);
  }
  // A chaos schedule needs budget to route around: scale retries with the
  // injected rates rather than failing the bit-identity gate on exhaustion.
  if (o.drop > 0.0 || o.corrupt > 0.0 || !o.kills.empty()) {
    fc.worker.retry.max_retries = 16;
  }

  std::printf("fleet serving: %zu prefill × %zu decode workers, %zu requests "
              "(%s), policy %s, kills \"%s\"\n",
              fc.prefill_workers, fc.decode_workers, o.requests,
              o.arrival.c_str(), dispatch_policy_name(fc.decode_policy),
              o.kills.c_str());

  FleetEngine engine(weights, fc);
  apply_kill_schedule(engine, o.kills);
  const FleetReport report = engine.run(requests);

  // The fleet-wide contract: every non-rejected request — rerouted, failed
  // over, or degraded to a local decode — matches its solo single-node run
  // bit for bit.
  bool bit_identical = true;
  for (const FleetRecord& rec : report.requests) {
    if (rec.d.rejected) continue;
    TinyTransformer solo(weights, make_hack_layer_backend(
                                      fc.worker.attn, fc.worker.backend_seed));
    if (solo.generate(rec.d.request.prompt, rec.d.request.max_new_tokens,
                      rec.d.request.eos) != rec.d.generated) {
      bit_identical = false;
    }
  }

  const double tokens_per_s =
      report.makespan_s > 0.0
          ? static_cast<double>(report.total_generated) / report.makespan_s
          : 0.0;
  // Checkpoint economics: mean delta size per cut, and the measured
  // rehydration (base deserialize + delta apply) latency of requests whose
  // final attempt was a resume.
  const double delta_bytes_per_checkpoint =
      static_cast<double>(report.checkpoint_bytes_total) /
      static_cast<double>(std::max<std::size_t>(report.checkpoints_total, 1));
  double resume_latency_sum = 0.0;
  std::size_t resumed_requests = 0;
  for (const FleetRecord& rec : report.requests) {
    if (rec.d.resumes > 0 && !rec.d.fallback_local) {
      resume_latency_sum += rec.d.deserialize_s;
      ++resumed_requests;
    }
  }
  const double resume_latency_mean_s =
      resumed_requests > 0
          ? resume_latency_sum / static_cast<double>(resumed_requests)
          : 0.0;
  std::printf(
      "{\"bench\":\"serving_fleet\",\"prefill_workers\":%zu,"
      "\"decode_workers\":%zu,\"policy\":\"%s\",\"kills\":\"%s\","
      "\"requests\":%zu,\"kv_bits\":4,\"layers\":%zu,\"input_mean\":%zu,"
      "\"output_mean\":%zu,\"lanes\":%zu,\"drop_prob\":%.3f,"
      "\"corrupt_prob\":%.3f,\"fault_seed\":%llu,\"tokens_per_s\":%.1f,"
      "\"total_tokens\":%zu,\"makespan_s\":%.3f,\"ttft_p50_s\":%.4f,"
      "\"ttft_p99_s\":%.4f,\"jct_p50_s\":%.4f,\"jct_p99_s\":%.4f,"
      "\"wire_bytes_total\":%zu,\"reroutes\":%zu,\"prefill_failovers\":%zu,"
      "\"shed\":%zu,\"re_prefills\":%zu,\"re_prefills_from_decode\":%zu,"
      "\"health_transitions\":%zu,\"retries\":%zu,\"chunks_dropped\":%zu,"
      "\"chunks_corrupted\":%zu,\"crc_failures\":%zu,"
      "\"prefill_crashes\":%zu,\"decode_crashes\":%zu,"
      "\"retransmitted_bytes\":%zu,\"fallbacks\":%zu,\"rejected\":%zu,"
      "\"checkpoint_every\":%zu,\"checkpoints\":%zu,"
      "\"checkpoint_bytes\":%zu,\"delta_bytes_per_checkpoint\":%.1f,"
      "\"checkpoint_failures\":%zu,\"resumes\":%zu,"
      "\"resume_latency_mean_s\":%.6f,\"tokens_replayed\":%zu,"
      "\"tokens_recomputed\":%zu,\"migrations\":%zu,\"drains\":%zu,"
      "\"bit_identical\":%s}\n",
      fc.prefill_workers, fc.decode_workers,
      dispatch_policy_name(fc.decode_policy), o.kills.c_str(), o.requests,
      o.layers, o.input, o.output, ThreadPool::global().lanes(), o.drop,
      o.corrupt, static_cast<unsigned long long>(o.fault_seed), tokens_per_s,
      report.total_generated, report.makespan_s, report.ttft_s.p50,
      report.ttft_s.p99, report.jct_s.p50, report.jct_s.p99,
      report.wire_bytes_total, report.reroutes_total,
      report.prefill_failovers_total, report.shed_total,
      report.re_prefills_total, report.re_prefills_from_decode_crashes,
      report.health_transitions_total, report.retries_total,
      report.chunks_dropped_total, report.chunks_corrupted_total,
      report.crc_failures_total, report.prefill_crashes_total,
      report.decode_crashes_total, report.retransmitted_bytes_total,
      report.fallbacks, report.rejected, o.checkpoint_every,
      report.checkpoints_total, report.checkpoint_bytes_total,
      delta_bytes_per_checkpoint, report.checkpoint_failures_total,
      report.resumes_total, resume_latency_mean_s,
      report.tokens_replayed_total, report.tokens_recomputed_total,
      report.migrations_total, report.drain_events_total,
      bit_identical ? "true" : "false");
  const auto print_worker = [](const FleetWorkerStats& s, const char* role) {
    std::printf(
        "{\"bench\":\"serving_fleet_worker\",\"worker\":\"%s\","
        "\"role\":\"%s\",\"served\":%zu,\"crashes\":%zu,"
        "\"transfer_failures\":%zu,\"drains\":%zu,\"busy_s\":%.3f,"
        "\"utilization\":%.3f,\"health_transitions\":%zu,"
        "\"final_health\":\"%s\"}\n",
        s.name.c_str(), role, s.served, s.crashes, s.transfer_failures,
        s.drains, s.busy_s, s.utilization, s.transitions.size(),
        worker_health_name(s.final_health));
  };
  for (const FleetWorkerStats& s : report.prefill_workers) {
    print_worker(s, "prefill");
  }
  for (const FleetWorkerStats& s : report.decode_workers) {
    print_worker(s, "decode");
  }
  std::fflush(stdout);
}

std::vector<std::size_t> parse_size_list(const char* s) {
  std::vector<std::size_t> out;
  for (const char* p = s; *p != '\0';) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(p, &end, 10);
    if (end == p) break;
    out.push_back(static_cast<std::size_t>(v));
    p = *end == ',' ? end + 1 : end;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Shape shape;
  std::vector<std::size_t> contexts = {1024, 4096};
  std::vector<int> thread_legs = {1, 2, 4};
  bool long_sweep = false;
  bool continuous = false;
  bool tiered = false;
  bool disagg = false;
  ContOptions cont;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      // Applied at parse time, like every other flag, so an explicit later
      // --context/--input/--output still wins.
      contexts = {512};
      thread_legs = {1, 2};
      cont.input = 48;  // requests stay as given: concurrency is the point
      cont.output = 12;
    } else if (arg == "--long") {
      long_sweep = true;
    } else if (arg == "--continuous") {
      continuous = true;
    } else if (arg == "--tiered") {
      tiered = true;
    } else if (arg == "--disagg") {
      disagg = true;
    } else if (arg.rfind("--fleet=", 0) == 0) {
      const char* spec = arg.c_str() + 8;
      char* end = nullptr;
      cont.fleet_prefill = std::strtoul(spec, &end, 10);
      if (end == spec || (*end != 'x' && *end != 'X')) {
        std::fprintf(stderr, "bad --fleet (want NxM): %s\n", arg.c_str());
        return 1;
      }
      cont.fleet_decode = std::strtoul(end + 1, nullptr, 10);
    } else if (arg.rfind("--kill=", 0) == 0) {
      cont.kills = arg.substr(7);
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      cont.checkpoint_every = std::strtoul(arg.c_str() + 19, nullptr, 10);
    } else if (arg.rfind("--policy=", 0) == 0) {
      cont.fleet_policy = arg.substr(9);
    } else if (arg.rfind("--requests=", 0) == 0) {
      cont.requests = std::strtoul(arg.c_str() + 11, nullptr, 10);
    } else if (arg.rfind("--input=", 0) == 0) {
      cont.input = std::strtoul(arg.c_str() + 8, nullptr, 10);
    } else if (arg.rfind("--output=", 0) == 0) {
      cont.output = std::strtoul(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--layers=", 0) == 0) {
      cont.layers = std::strtoul(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--arrival=", 0) == 0) {
      cont.arrival = arg.substr(10);
    } else if (arg.rfind("--max-active=", 0) == 0) {
      cont.max_active = std::strtoul(arg.c_str() + 13, nullptr, 10);
    } else if (arg.rfind("--chunk=", 0) == 0) {
      cont.chunk = std::strtoul(arg.c_str() + 8, nullptr, 10);
    } else if (arg.rfind("--kv-blocks=", 0) == 0) {
      cont.kv_blocks = std::strtoul(arg.c_str() + 12, nullptr, 10);
    } else if (arg.rfind("--drop=", 0) == 0) {
      cont.drop = std::strtod(arg.c_str() + 7, nullptr);
    } else if (arg.rfind("--corrupt=", 0) == 0) {
      cont.corrupt = std::strtod(arg.c_str() + 10, nullptr);
    } else if (arg.rfind("--fault-seed=", 0) == 0) {
      cont.fault_seed = std::strtoull(arg.c_str() + 13, nullptr, 10);
    } else if (arg.rfind("--chunk-bytes=", 0) == 0) {
      cont.chunk_bytes = std::strtoul(arg.c_str() + 14, nullptr, 10);
    } else if (arg.rfind("--context=", 0) == 0) {
      contexts = parse_size_list(arg.c_str() + 10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      thread_legs.clear();
      for (const std::size_t t : parse_size_list(arg.c_str() + 10)) {
        thread_legs.push_back(static_cast<int>(t));
      }
    } else if (arg.rfind("--heads=", 0) == 0) {
      shape.heads = std::strtoul(arg.c_str() + 8, nullptr, 10);
    } else if (arg.rfind("--kv-heads=", 0) == 0) {
      shape.kv_heads = std::strtoul(arg.c_str() + 11, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 1;
    }
  }
  if (shape.heads == 0 || shape.kv_heads == 0 ||
      shape.heads % shape.kv_heads != 0) {
    std::fprintf(stderr, "heads must be a positive multiple of kv_heads\n");
    return 1;
  }
  if (contexts.empty() || thread_legs.empty()) {
    std::fprintf(stderr, "--context and --threads need at least one value\n");
    return 1;
  }

  const bool fleet = cont.fleet_prefill > 0 || cont.fleet_decode > 0;
  if (continuous || tiered || disagg || fleet) {
    if (cont.requests == 0 || cont.output == 0) {
      std::fprintf(stderr, "--requests and --output must be positive\n");
      return 1;
    }
    if (fleet) {
      if (cont.fleet_prefill == 0 || cont.fleet_decode == 0) {
        std::fprintf(stderr, "--fleet needs at least 1x1\n");
        return 1;
      }
      run_fleet_mode(shape, cont);
    } else if (disagg) {
      run_disagg_mode(shape, cont);
    } else if (tiered) {
      run_tiered_mode(shape, cont);
    } else {
      run_continuous_mode(shape, cont);
    }
    return 0;
  }

  if (long_sweep) {
    std::vector<std::size_t> long_contexts = contexts;
    if (long_contexts == std::vector<std::size_t>{1024, 4096}) {
      long_contexts = {4096, 16384};  // default --long sweep
    }
    std::printf("streaming-softmax long-context prefill: %zu query heads / "
                "%zu KV heads, d_head %zu, pool lanes %zu\n",
                shape.heads, shape.kv_heads, shape.d_head,
                ThreadPool::global().lanes());
    run_longctx_legs(shape, long_contexts);
    return 0;
  }

  std::printf("batched layer vs per-head loop: %zu query heads / %zu KV heads"
              ", d_head %zu, pool lanes %zu\n",
              shape.heads, shape.kv_heads, shape.d_head,
              ThreadPool::global().lanes());
  for (const std::size_t context : contexts) {
    run_prefill_legs(shape, context, thread_legs);
    run_decode_legs(shape, context, thread_legs);
  }
  return 0;
}
