#include "probe.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {
namespace {

std::uint32_t thread_index() {
  static std::mutex mu;
  static std::uint32_t next = 0;
  thread_local std::uint32_t index = [] {
    std::lock_guard<std::mutex> lock(mu);
    return next++;
  }();
  return index;
}

class TimedLayerBackend : public hack::LayerBackend {
 public:
  TimedLayerBackend(std::unique_ptr<hack::LayerBackend> inner, Probe& probe,
                    std::int64_t session, std::int64_t layer)
      : inner_(std::move(inner)),
        probe_(probe),
        session_(session),
        layer_(layer) {}

  void append(const hack::Matrix& k_all, const hack::Matrix& v_all) override {
    const double t0 = now_s();
    inner_->append(k_all, v_all);
    probe_.add_kernel(Probe::kAppend, k_all.rows(), t0, now_s(), session_,
                      layer_);
  }

  hack::Matrix attend(const hack::Matrix& q_all,
                      std::size_t key_offset) override {
    const double t0 = now_s();
    hack::Matrix out = inner_->attend(q_all, key_offset);
    probe_.add_kernel(
        q_all.rows() > 1 ? Probe::kAttendPrefill : Probe::kAttendDecode,
        q_all.rows(), t0, now_s(), session_, layer_);
    return out;
  }

  std::size_t stored_bytes() const override { return inner_->stored_bytes(); }
  hack::HackLayerKvState* hack_state() override {
    return inner_->hack_state();
  }

 private:
  std::unique_ptr<hack::LayerBackend> inner_;
  Probe& probe_;
  std::int64_t session_;
  std::int64_t layer_;
};

const char* kind_name(Probe::Kind kind) {
  switch (kind) {
    case Probe::kAppend: return "attention.append";
    case Probe::kAttendPrefill: return "attention.attend_prefill";
    case Probe::kAttendDecode: return "attention.attend_decode";
    case Probe::kKinds: break;
  }
  return "?";
}

}  // namespace

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

std::int64_t Probe::add(Span span) {
  if (!record_spans_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<std::int64_t>(spans_.size());
  span.thread = thread_index();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::int64_t Probe::open(const char* name, std::int64_t parent,
                         std::int64_t request) {
  const double t = now_s();
  return add({.name = name, .start_s = t, .end_s = t, .parent = parent,
              .request = request});
}

void Probe::close(std::int64_t id) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= 0 && static_cast<std::size_t>(id) < spans_.size()) {
    spans_[static_cast<std::size_t>(id)].end_s = t;
  }
}

void Probe::add_kernel(Kind kind, std::size_t rows, double start_s,
                       double end_s, std::int64_t session,
                       std::int64_t layer) {
  std::lock_guard<std::mutex> lock(mu_);
  Total& t = totals_[kind];
  t.seconds += end_s - start_s;
  t.rows += rows;
  ++t.calls;
  if (!record_spans_) return;
  spans_.push_back({.name = kind_name(kind), .start_s = start_s,
                    .end_s = end_s,
                    .id = static_cast<std::int64_t>(spans_.size()),
                    .parent = kernel_parent_, .layer = layer,
                    .rows = static_cast<std::int64_t>(rows),
                    .session = session, .thread = thread_index()});
}

Probe::Total Probe::total(Kind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_[kind];
}

void Probe::set_kernel_parent(std::int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  kernel_parent_ = id;
}

std::int64_t Probe::next_session() {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_++;
}

std::size_t Probe::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Probe::write_chrome_trace(const std::string& path,
                               const std::string& metadata_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
               "\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"name\":\"wall clock (measured)\"}},\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
               "\"args\":{\"name\":\"fleet timeline (measured compute + "
               "netsim-modeled transfer)\"}}",
               metadata_json.c_str());
  for (const Span& s : spans_) {
    const bool wall = s.clock == Clock::kWall;
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld,"
                 "\"request\":%lld,\"layer\":%lld,\"rows\":%lld,"
                 "\"session\":%lld,\"clock\":\"%s\"}}",
                 s.name, wall ? 1 : 2, wall ? s.thread : 0u, s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.layer),
                 static_cast<long long>(s.rows),
                 static_cast<long long>(s.session),
                 wall ? "wall" : "fleet_timeline");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

hack::LayerBackendFactory timed_factory(hack::LayerBackendFactory inner,
                                        Probe& probe) {
  const std::int64_t session = probe.next_session();
  auto layer = std::make_shared<std::int64_t>(0);
  return [inner = std::move(inner), &probe, session, layer](
             std::size_t d_head, std::size_t kv_heads,
             std::size_t query_heads) -> std::unique_ptr<hack::LayerBackend> {
    return std::make_unique<TimedLayerBackend>(
        inner(d_head, kv_heads, query_heads), probe, session, (*layer)++);
  };
}

}  // namespace perfbench
