#include "speed.h"

#include <sched.h>

#include <chrono>
#include <cstdint>

#include "probe.h"

namespace perfbench {
namespace {

// The kernel's three parts stand for the workload's three kinds of work:
// dense fp32 projections, integer attention dot products, and KV and
// weight traffic that misses the caches.
float fp32_part(std::vector<float>& a, std::vector<float>& b,
                std::vector<float>& c) {
  constexpr std::size_t kM = 32, kN = 256, kK = 256;
  for (std::size_t i = 0; i < kM; ++i) {
    for (std::size_t k = 0; k < kK; ++k) {
      const float x = a[i * kK + k];
      for (std::size_t j = 0; j < kN; ++j) c[i * kN + j] += x * b[k * kN + j];
    }
  }
  return c[kN + 1];
}

std::int32_t int8_part(const std::vector<std::int8_t>& a,
                       const std::vector<std::int8_t>& b) {
  constexpr std::size_t kM = 32, kN = 128, kK = 512;
  std::int32_t sum = 0;
  for (std::size_t i = 0; i < kM; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      std::int32_t acc = 0;
      for (std::size_t k = 0; k < kK; ++k) acc += a[i * kK + k] * b[j * kK + k];
      sum += acc;
    }
  }
  return sum;
}

float memory_part(std::vector<float>& buf) {
  float sum = 0.0f;
  for (std::size_t i = 0; i < buf.size(); i += 16) {  // one float per line
    buf[i] += 1.0f;
    sum += buf[i];
  }
  return sum;
}

struct KernelData {
  std::vector<float> a, b, c, walk;
  std::vector<std::int8_t> qa, qb;
  KernelData()
      : a(32 * 256), b(256 * 256), c(32 * 256), walk(4u << 20),
        qa(32 * 512), qb(128 * 512) {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = (i % 7) * 0.01f;
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = (i % 5) * 0.01f;
    for (std::size_t i = 0; i < qa.size(); ++i) qa[i] = (i % 13) - 6;
    for (std::size_t i = 0; i < qb.size(); ++i) qb[i] = (i % 11) - 5;
  }
};

volatile float g_sink = 0.0f;

}  // namespace

double reference_slice() {
  static thread_local KernelData d;
  const double t0 = now_s();
  float sink = 0.0f;
  for (int r = 0; r < 16; ++r) sink += fp32_part(d.a, d.b, d.c);
  for (int r = 0; r < 16; ++r) sink += static_cast<float>(int8_part(d.qa, d.qb));
  for (int r = 0; r < 8; ++r) sink += memory_part(d.walk);
  const double t1 = now_s();
  g_sink = sink;
  return t1 - t0;
}

namespace {

bool pin(pthread_t thread, const cpu_set_t& set) {
  return pthread_setaffinity_np(thread, sizeof(set), &set) == 0;
}

}  // namespace

SpeedSampler::SpeedSampler(pthread_t workload, double period_s)
    : thread_([this, workload, period_s] { loop(workload, period_s); }) {}

SpeedSampler::~SpeedSampler() { stop(); }

void SpeedSampler::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

std::vector<SpeedSampler::Slice> SpeedSampler::slices() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slices_;
}

void SpeedSampler::loop(pthread_t workload, double period_s) {
  cpu_set_t all;
  CPU_ZERO(&all);
  std::vector<int> cpus;
  if (pthread_getaffinity_np(workload, sizeof(all), &all) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all)) cpus.push_back(cpu);
    }
  }
  // With two vCPUs, barring one would pin the workload, and the threads it
  // starts, to the other.
  const bool rotate = cpus.size() >= 3;
  for (std::size_t i = 0; !stop_.load(); ++i) {
    const double t0 = now_s();
    Slice slice;
    if (rotate) {
      slice.cpu = cpus[i % cpus.size()];
      cpu_set_t one, others = all;
      CPU_ZERO(&one);
      CPU_SET(slice.cpu, &one);
      CPU_CLR(slice.cpu, &others);
      pin(workload, others);
      pin(pthread_self(), one);
    }
    slice.seconds = reference_slice();
    {
      std::lock_guard<std::mutex> lock(mu_);
      slices_.push_back(slice);
    }
    // Sleep out the period in short naps so stop() returns promptly.
    while (!stop_.load() && now_s() - t0 < period_s) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  if (rotate) pin(workload, all);
}

}  // namespace perfbench
