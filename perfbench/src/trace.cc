#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "bench_stats.h"

namespace perfbench {
namespace {

// Open spans of the calling thread, innermost last. Shared by every
// recorder; a run has one recorder at a time.
thread_local std::vector<uint64_t> open_stack;

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

std::string Escaped(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

uint64_t SpanRecorder::Begin(const std::string& name, uint64_t request) {
  if (!enabled_) return 0;
  Span span;
  span.parent = open_stack.empty() ? 0 : open_stack.back();
  span.request = request;
  span.name = name;
  span.thread = ThreadIndex();
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = span.id = next_id_++;
    span.start = NowSeconds();
    open_.emplace(id, std::move(span));
  }
  open_stack.push_back(id);
  return id;
}

void SpanRecorder::End(uint64_t id) {
  if (!enabled_) return;
  const double end = NowSeconds();
  if (!open_stack.empty() && open_stack.back() == id) open_stack.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  it->second.end = end;
  finished_.push_back(std::move(it->second));
  open_.erase(it);
}

uint64_t SpanRecorder::Record(const std::string& name, double start,
                              double end, uint64_t parent, uint64_t request) {
  if (!enabled_) return 0;
  Span span;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start = start;
  span.end = end;
  span.thread = ThreadIndex();
  std::lock_guard<std::mutex> lock(mutex_);
  span.id = next_id_++;
  finished_.push_back(std::move(span));
  return finished_.back().id;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_;
}

std::vector<double> SpanRecorder::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& span : finished_) {
    if (span.name == name) out.push_back(span.duration() * 1e3);
  }
  return out;
}

std::map<std::string, double> SpanRecorder::SelfTimeMsByName() const {
  const std::vector<Span> all = spans();
  std::map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& span : all) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::map<std::string, double> self;
  for (const Span& span : all) {
    double covered = 0.0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      // Union of the child intervals, clipped to the parent's.
      std::vector<std::pair<double, double>>& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double run_start = 0.0, run_end = -1.0;
      for (const auto& interval : intervals) {
        const double lo = std::max(interval.first, span.start);
        const double hi = std::min(interval.second, span.end);
        if (hi <= lo) continue;
        if (lo > run_end) {
          if (run_end > run_start) covered += run_end - run_start;
          run_start = lo;
          run_end = hi;
        } else {
          run_end = std::max(run_end, hi);
        }
      }
      if (run_end > run_start) covered += run_end - run_start;
    }
    self[span.name] += (span.duration() - covered) * 1e3;
  }
  return self;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> all = spans();
  double origin = 0.0;
  for (size_t i = 0; i < all.size(); ++i) {
    if (i == 0 || all[i].start < origin) origin = all[i].start;
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"traceEvents\": [\n", file);
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    std::fprintf(file,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu}}%s\n",
                 Escaped(span.name).c_str(),
                 Escaped(span.name.substr(0, span.name.find('.'))).c_str(),
                 (span.start - origin) * 1e6, span.duration() * 1e6,
                 span.thread, static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 i + 1 < all.size() ? "," : "");
  }
  std::fputs("], \"displayTimeUnit\": \"ms\"}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
