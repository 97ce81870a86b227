// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into the library, per-kind time totals, and a LayerBackend decorator
// that times KV appends and attends inside a real engine run.
//
// Nothing here is compiled into the library. Spans live in memory and are
// written once, as Chrome trace-event JSON (chrome://tracing or Perfetto open
// it offline), when the run ends.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "model/session.h"

namespace perfbench {

// Seconds on the steady clock since the process's first call.
double now_s();

// Clock domain of a span: measured wall time, or the fleet's timeline, which
// adds netsim-modeled transfer time to measured compute.
enum class Clock { kWall, kFleetTimeline };

struct Span {
  const char* name = "";  // a string literal
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;   // -1: a root span
  std::int64_t request = -1;  // ServingRequest::id, -1 when not one request
  std::int64_t layer = -1;
  std::int64_t rows = -1;
  std::int64_t session = -1;  // engine session ordinal (decorator spans)
  Clock clock = Clock::kWall;
  std::uint32_t thread = 0;
};

// Where decorated backends report. Totals accumulate always; spans only
// while `record_spans` is on. Safe to call from pool threads.
class Probe {
 public:
  enum Kind { kAppend, kAttendPrefill, kAttendDecode, kKinds };
  struct Total {
    double seconds = 0.0;
    std::size_t rows = 0;
    std::size_t calls = 0;
  };

  explicit Probe(bool record_spans) : record_spans_(record_spans) {}

  bool recording() const { return record_spans_; }

  // Adds a completed span (when recording) and returns its id.
  std::int64_t add(Span span);
  // Opens a span at now_s(); close() stamps its end. Returns the id.
  std::int64_t open(const char* name, std::int64_t parent = -1,
                    std::int64_t request = -1);
  void close(std::int64_t id);

  void add_kernel(Kind kind, std::size_t rows, double start_s, double end_s,
                  std::int64_t session, std::int64_t layer);
  Total total(Kind kind) const;

  // Parent span that decorator spans hang under (e.g. the engine run).
  void set_kernel_parent(std::int64_t id);
  std::int64_t next_session();

  std::size_t span_count() const;
  // Writes every span as Chrome trace-event JSON; metadata goes into
  // "otherData". Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path,
                          const std::string& metadata_json) const;

 private:
  const bool record_spans_;
  mutable std::mutex mu_;  // guards everything below
  std::vector<Span> spans_;
  Total totals_[kKinds];
  std::int64_t kernel_parent_ = -1;
  std::int64_t sessions_ = 0;
};

// Wraps a layer-backend factory so every backend it makes reports its
// append and attend calls to `probe`. hack_state() is forwarded, so the
// engine's fused attention path runs unchanged (its attends bypass the
// decorator; the split-phase replay times those).
hack::LayerBackendFactory timed_factory(hack::LayerBackendFactory inner,
                                        Probe& probe);

}  // namespace perfbench
