// Machine-speed sampling, for timings that mean the same on a shared host
// whose speed drifts.
//
// A cloud VM shares its cores, caches and memory bandwidth with other
// tenants, and its speed swings by 1.2-1.8x over minutes, differently on
// each vCPU. Every timing the benchmark reports would carry that swing.
// SpeedSampler runs a fixed reference kernel, the benchmark's own code and
// never the library's, in short slices while the workload runs, visiting
// every vCPU in turn and moving the workload's thread off the one it
// samples. The workload's thread thus keeps moving over vCPUs that stay
// active, rather than carrying one vCPU's slowdowns through a run, and the
// slices and the workload see the same vCPUs. run.py scales the run's wall
// times by (reference slice time / measured slice time) ^ 0.5, the
// exponent being how much the workloads move per unit move of the kernel:
// a slowdown of the machine stretches the slices and the workload together
// and cancels; a slower library stretches only the workload and still
// shows.
#pragma once

#include <pthread.h>

#include <atomic>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

// One slice of the reference kernel: single-threaded fp32 multiply-adds,
// int8 dot products and a strided walk of a 16 MiB buffer, 20-35 ms on a
// 4-vCPU AVX2 Xeon VM. Returns its wall time in seconds.
double reference_slice();

// Median slice time of reference_slice() on that VM, sampled beside a
// running workload. Scaled timings read as seconds at that speed.
inline constexpr double kReferenceSliceS = 0.0286;

class SpeedSampler {
 public:
  // Starts sampling one slice every `period_s`. Each slice runs on the next
  // vCPU of the process's set, and `workload` (a thread of this process)
  // may run on every vCPU but that one meanwhile. Threads the workload
  // starts inherit its affinity of the moment.
  explicit SpeedSampler(pthread_t workload, double period_s = 0.5);
  ~SpeedSampler();

  SpeedSampler(const SpeedSampler&) = delete;
  SpeedSampler& operator=(const SpeedSampler&) = delete;

  // Stops sampling, waits for the sampling thread to end and gives the
  // workload thread back every vCPU.
  void stop();

  struct Slice {
    int cpu = -1;  // the vCPU it ran on; -1 with fewer than 3 (no rotation)
    double seconds = 0.0;
  };
  // Slices so far.
  std::vector<Slice> slices() const;

 private:
  void loop(pthread_t workload, double period_s);

  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;
  std::vector<Slice> slices_;
  std::thread thread_;
};

}  // namespace perfbench
