// In-memory span recorder for the benchmark driver. A span is one public
// library call the driver makes (name "<layer>.<call>", start, end, parent
// span); spans nest strictly because they are only opened through the RAII
// Span guard on the driver's single thread. Nothing is recorded when the
// tracer is disabled, so untraced runs pay one branch per call site.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "util/stopwatch.h"

namespace perfbench {

struct SpanRecord {
  const char* name;  // string literal "<layer>.<call>"
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  int parent;  // index of the enclosing span, -1 for a root span
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Opens a span; returns its index, or -1 when tracing is off.
  int Begin(const char* name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, dpmm::MonotonicNanos(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = dpmm::MonotonicNanos();
    open_.pop_back();
  }

  /// Renames a span once its outcome is known (a cache hit or a miss).
  void Rename(int index, const char* name) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].name = name;
  }

  /// Durations in milliseconds of the spans named `name` with index >= from.
  std::vector<double> Millis(const char* name, std::size_t from = 0) const {
    std::vector<double> out;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      if (std::strcmp(spans_[i].name, name) == 0) {
        out.push_back(static_cast<double>(spans_[i].end_ns -
                                          spans_[i].start_ns) * 1e-6);
      }
    }
    return out;
  }

  /// Self time per layer in seconds: each span's duration minus the part
  /// its child spans cover, summed by the layer prefix of its name.
  std::map<std::string, double> SelfSecondsByLayer() const {
    std::vector<std::uint64_t> child_ns(spans_.size(), 0);
    for (const SpanRecord& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::uint64_t dur = spans_[i].end_ns - spans_[i].start_ns;
      self[Layer(spans_[i].name)] +=
          static_cast<double>(dur - child_ns[i]) * 1e-9;
    }
    return self;
  }

  /// Writes the spans as a Chrome trace_event file (chrome://tracing,
  /// Perfetto). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                   "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                   s.name, Layer(s.name).c_str(),
                   static_cast<double>(s.start_ns - t0) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   s.parent, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

  static std::string Layer(const char* name) {
    const char* dot = std::strchr(name, '.');
    return dot == nullptr ? std::string(name) : std::string(name, dot);
  }

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span over the enclosing scope.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~Span() { tracer_->End(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Rename(const char* name) { tracer_->Rename(index_, name); }

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
