#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>
#include <unordered_map>

namespace nidbench {
namespace {

std::uint32_t thread_lane() {
  static std::mutex mutex;
  static std::unordered_map<std::thread::id, std::uint32_t> lanes;
  thread_local std::uint32_t lane = [] {
    std::lock_guard lock(mutex);
    return lanes.emplace(std::this_thread::get_id(),
                         static_cast<std::uint32_t>(lanes.size()))
        .first->second;
  }();
  return lane;
}

thread_local std::vector<std::int64_t> open_spans;

}  // namespace

SpanRecorder& recorder() {
  static SpanRecorder r;
  return r;
}

std::int64_t SpanRecorder::next_id() {
  std::lock_guard lock(mutex_);
  return next_id_++;
}

void SpanRecorder::add(SpanRecord rec) {
  std::lock_guard lock(mutex_);
  records_.push_back(std::move(rec));
}

std::vector<SpanRecorder::LayerTime> SpanRecorder::layer_times() const {
  std::lock_guard lock(mutex_);
  std::unordered_map<std::int64_t, std::vector<const SpanRecord*>> children;
  for (const auto& r : records_)
    if (r.parent >= 0) children[r.parent].push_back(&r);

  std::map<std::string, LayerTime> by_name;
  for (const auto& r : records_) {
    // Union of the children's intervals, clipped to this span: children on
    // parallel workers overlap each other, and each instant counts once.
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    if (auto it = children.find(r.id); it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const auto lo = std::max(c->start_ns, r.start_ns);
        const auto hi = std::min(c->end_ns, r.end_ns);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : cover) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;

    LayerTime& lt = by_name[r.name];
    lt.name = r.name;
    ++lt.count;
    lt.total_ns += static_cast<double>(r.end_ns - r.start_ns);
    lt.self_ns += static_cast<double>(r.end_ns - r.start_ns - covered);
  }
  std::vector<LayerTime> out;
  for (auto& [name, lt] : by_name) out.push_back(lt);
  std::sort(out.begin(), out.end(), [](const LayerTime& a, const LayerTime& b) {
    return a.self_ns > b.self_ns;
  });
  return out;
}

void SpanRecorder::write_chrome_trace(std::ostream& os) const {
  std::lock_guard lock(mutex_);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[320];
  bool first = true;
  for (const auto& r : records_) {
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                  "\"parent\":%lld,\"end_us\":%.3f}}",
                  first ? "" : ",", r.name.c_str(), r.tid, r.start_ns / 1e3,
                  (r.end_ns - r.start_ns) / 1e3,
                  static_cast<long long>(r.id),
                  static_cast<long long>(r.parent), r.end_ns / 1e3);
    os << buf;
    first = false;
  }
  os << "\n]}\n";
}

Span::Span(const char* name, std::int64_t parent) {
  SpanRecorder& rec = recorder();
  rec_.name = name;
  if (rec.enabled()) {
    rec_.id = rec.next_id();
    rec_.parent = parent != -2 ? parent
                  : open_spans.empty() ? -1
                                       : open_spans.back();
    rec_.tid = thread_lane();
    open_spans.push_back(rec_.id);
  } else {
    rec_.id = -1;
  }
  open_ = true;
  rec_.start_ns = rec.now_ns();
}

std::int64_t Span::finish() {
  if (!open_) return duration_;
  open_ = false;
  SpanRecorder& rec = recorder();
  rec_.end_ns = rec.now_ns();
  duration_ = rec_.end_ns - rec_.start_ns;
  if (rec_.id >= 0) {
    if (!open_spans.empty() && open_spans.back() == rec_.id)
      open_spans.pop_back();
    rec.add(rec_);
  }
  return duration_;
}

}  // namespace nidbench
