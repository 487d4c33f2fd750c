// Benchmark-side span recorder.
//
// The traced run wraps every call it makes into a nidkit layer in a Span.
// Spans are kept in memory (name, start, end, parent, thread) and written
// out once the run ends, as Chrome trace-event JSON and as a per-layer
// self-time table. A layer's self time is its span's duration minus the
// part of that interval its child spans cover; children fanned out to
// worker threads name their parent explicitly.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace nidbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the recorder's epoch
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 for a root span
  std::uint32_t tid = 0;     ///< dense per-thread lane
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  std::int64_t next_id();
  void add(SpanRecord rec);

  /// Sum of durations and of self times per span name, in ns.
  struct LayerTime {
    std::string name;
    std::uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
  };
  std::vector<LayerTime> layer_times() const;

  void write_chrome_trace(std::ostream& os) const;

 private:
  Clock::time_point epoch_;
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::int64_t next_id_ = 0;
  std::vector<SpanRecord> records_;
};

/// The process-wide recorder the benchmark's spans report to.
SpanRecorder& recorder();

/// RAII span. Nests under the innermost open span of the calling thread,
/// or under `parent` when given (work handed to a worker thread).
class Span {
 public:
  explicit Span(const char* name, std::int64_t parent = -2);
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span early; returns its duration in ns (0 when disabled).
  std::int64_t finish();
  std::int64_t id() const { return rec_.id; }

 private:
  SpanRecord rec_;
  bool open_ = false;
  std::int64_t duration_ = 0;
};

}  // namespace nidbench
