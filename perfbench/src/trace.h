// In-memory span tracer for the benchmark's traced run.
//
// One Tracer per thread. A span records the layer function it wraps,
// start and end on the steady clock, its parent span, and a request id
// shared by every span of one client call. Spans stay in a
// preallocated buffer and are written out once, at exit (dump()). The
// reducer turns the buffer into per-name duration and self-time
// samples: a span's self time is its duration minus the time its
// direct children cover (children of one thread never overlap, so that
// is the sum of their durations).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";      // static string
  std::uint32_t parent = 0;   // 1-based index in the same tracer, 0 = root
  std::uint64_t request = 0;  // shared by every span of one client call
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  // `thread_tag` keeps request ids of different threads' tracers apart.
  Tracer(std::size_t capacity, std::uint32_t thread_tag)
      : capacity_(capacity), tag_(thread_tag) {
    spans_.reserve(capacity + kChildSlack);
  }

  // Opens a span under the currently open one; a root span starts a new
  // request. Returns its 1-based id, or 0 when the buffer is full (a
  // root is only opened with room left for its children, so a recorded
  // request is always complete).
  std::uint32_t open(const char* name) {
    if (current_ == 0) {
      if (spans_.size() >= capacity_) {
        ++dropped_requests_;
        return 0;
      }
      request_ = (static_cast<std::uint64_t>(tag_) << 48) | ++requests_;
    } else if (spans_.size() >= capacity_ + kChildSlack) {
      return 0;
    }
    SpanRecord span;
    span.name = name;
    span.parent = current_;
    span.request = request_;
    span.start_ns = now_ns();
    spans_.push_back(span);
    current_ = static_cast<std::uint32_t>(spans_.size());
    return current_;
  }

  void close(std::uint32_t id) {
    if (id == 0) return;
    SpanRecord& span = spans_[id - 1];
    span.end_ns = now_ns();
    current_ = span.parent;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::uint64_t dropped_requests() const { return dropped_requests_; }
  std::uint32_t tag() const { return tag_; }

 private:
  static constexpr std::size_t kChildSlack = 4096;

  std::vector<SpanRecord> spans_;
  std::size_t capacity_;
  std::uint32_t tag_;
  std::uint32_t current_ = 0;
  std::uint64_t request_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t dropped_requests_ = 0;
};

// RAII span; a null tracer records nothing (the untraced path).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

// Per-name samples, in nanoseconds.
struct SpanSamples {
  std::vector<double> duration_ns;
  std::vector<double> self_ns;
};

inline std::map<std::string, SpanSamples> reduce_spans(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SpanSamples> out;
  for (const Tracer* tracer : tracers) {
    const auto& spans = tracer->spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const SpanRecord& span : spans) {
      if (span.parent != 0) {
        child_ns[span.parent - 1] +=
            static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double duration =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      SpanSamples& samples = out[spans[i].name];
      samples.duration_ns.push_back(duration);
      samples.self_ns.push_back(duration - child_ns[i]);
    }
  }
  return out;
}

// Writes every span as one tab-separated line:
//   thread  id  parent  request  name  start_ns  end_ns
inline bool dump_spans(const std::string& path,
                       const std::vector<const Tracer*>& tracers) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "thread\tid\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (const Tracer* tracer : tracers) {
    const auto& spans = tracer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(file, "%u\t%zu\t%u\t%llu\t%s\t%lld\t%lld\n", tracer->tag(),
                   i + 1, s.parent, static_cast<unsigned long long>(s.request),
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
