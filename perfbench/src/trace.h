#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded interval. Times are seconds on NowSeconds()'s clock.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root.
  uint64_t request = 0;  ///< Spans of one request or trial share it.
  std::string name;
  double start = 0.0;
  double end = 0.0;
  uint32_t thread = 0;   ///< Small per-thread index, for the trace viewer.

  double duration() const { return end - start; }
};

/// In-memory span recorder for the traced run. Spans are kept in memory
/// and written out once, at the end, as Chrome trace-event JSON. A
/// disabled recorder records nothing and costs one branch per call, so
/// the untraced path can share code with the traced one.
///
/// Begin/End nest per thread: a span begun while another is open on the
/// same thread becomes its child. Record adds a finished span with an
/// explicit parent, for intervals measured after the fact (client-side
/// event timestamps, engine segments between observer calls).
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its id (0 if disabled).
  uint64_t Begin(const std::string& name, uint64_t request = 0);
  /// Closes the innermost open span of the calling thread, which must be
  /// `id`.
  void End(uint64_t id);
  /// Adds a finished span; returns its id (0 if disabled).
  uint64_t Record(const std::string& name, double start, double end,
                  uint64_t parent, uint64_t request = 0);

  /// Copy of every finished span, in completion order.
  std::vector<Span> spans() const;

  /// Durations in milliseconds of the finished spans called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Total self time in milliseconds per span name: each span's duration
  /// minus the part of its interval covered by its children.
  std::map<std::string, double> SelfTimeMsByName() const;

  /// Writes every span as Chrome trace-event JSON ("X" complete events,
  /// microseconds from the first span). Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  uint64_t next_id_ = 1;
  std::vector<Span> finished_;
  std::map<uint64_t, Span> open_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name,
             uint64_t request = 0)
      : recorder_(recorder), id_(recorder->Begin(name, request)) {}
  ~ScopedSpan() { recorder_->End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
