// In-memory spans for the benchmark's traced run, and the order statistics
// the benchmark reports.
//
// Spans are opened and closed from the benchmark's own code, around calls
// into the program's public functions (transport send and delivery, agent
// activation, the end of interpreter binding, agent launch).  The program is
// single-threaded and every traced call nests synchronously inside the one
// that caused it, so the innermost open span is the parent of the next one.
// Nothing is written while the run measures; WriteTsv dumps the spans once
// the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The p-th percentile (0..100) of `v`, interpolating between neighbours;
// 0 for no values.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

enum class SpanKind : uint8_t {
  kDeliver,     // Transport delivery handler (the kernel's frame intake).
  kActivation,  // Place::RunAgentCode, from the ag_tacl resident.
  kBind,        // Activation start up to the trailing binder's stamp.
  kSend,        // Transport::Send.
  kLaunch,      // Kernel::LaunchAgent for a new journey.
};

inline const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kDeliver: return "kernel.deliver";
    case SpanKind::kActivation: return "place.activation";
    case SpanKind::kBind: return "place.bind";
    case SpanKind::kSend: return "transport.send";
    case SpanKind::kLaunch: return "kernel.launch";
  }
  return "?";
}

// Ids are 1-based indexes into spans(); 0 means "no span".
struct Span {
  uint32_t parent = 0;
  uint32_t journey = 0;  // 0: not part of a journey (acks, NeedCode, ...).
  SpanKind kind = SpanKind::kDeliver;
  int64_t start_ns = 0;
  int64_t end_ns = 0;  // 0 while open.

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity) : capacity_(capacity) {}

  // Recording is off until enabled; a disabled recorder opens nothing.
  void set_enabled(bool on) {
    enabled_ = on;
    if (on) {
      spans_.reserve(capacity_);  // Never reallocates while recording.
    }
  }
  bool enabled() const { return enabled_; }

  uint32_t Open(SpanKind kind, uint32_t journey = 0) {
    if (!enabled_ || spans_.size() >= capacity_) {
      dropped_ += enabled_ ? 1 : 0;
      stack_.push_back(0);
      return 0;
    }
    Span span;
    span.parent = stack_.empty() ? 0 : stack_.back();
    span.journey = journey;
    span.kind = kind;
    span.start_ns = NowNs();
    spans_.push_back(span);
    const uint32_t id = static_cast<uint32_t>(spans_.size());
    stack_.push_back(id);
    // A delivery learns which journey it carried only once the activation
    // inside it reads the briefcase.
    if (journey != 0) {
      for (uint32_t up = span.parent; up != 0 && spans_[up - 1].journey == 0;
           up = spans_[up - 1].parent) {
        spans_[up - 1].journey = journey;
      }
    }
    return id;
  }

  void Close(uint32_t id) {
    if (!stack_.empty()) {
      stack_.pop_back();
    }
    if (id != 0) {
      spans_[id - 1].end_ns = NowNs();
    }
  }

  // Records a closed span from the start of the innermost open span of kind
  // `from` to now, as that span's child — the bind stamp.  Only the first
  // stamp per open span counts.
  void StampFrom(SpanKind from, SpanKind kind) {
    if (!enabled_ || stack_.empty() || stack_.back() == 0 ||
        spans_.size() >= capacity_) {
      return;
    }
    const uint32_t parent = stack_.back();
    const Span& open = spans_[parent - 1];
    if (open.kind != from || stamped_ == parent) {
      return;
    }
    stamped_ = parent;
    Span span;
    span.parent = parent;
    span.journey = open.journey;
    span.kind = kind;
    span.start_ns = open.start_ns;
    span.end_ns = NowNs();
    spans_.push_back(span);
  }

  const std::vector<Span>& spans() const { return spans_; }
  // Spans not recorded because the recorder was full.
  uint64_t dropped() const { return dropped_; }

 private:
  size_t capacity_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
  uint32_t stamped_ = 0;
  uint64_t dropped_ = 0;
};

// Total length of the union of [start, end) intervals, each clipped to
// [lo, hi).  `intervals` must be sorted by start.
inline int64_t SortedUnionLength(const std::vector<std::pair<int64_t, int64_t>>& intervals,
                                 int64_t lo, int64_t hi) {
  int64_t covered = 0;
  int64_t reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

// Self time of every span: its duration minus the part of it that its
// direct children cover.  Open spans get 0.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  // Closed children grouped by parent, in start order.
  std::vector<uint32_t> order;
  for (uint32_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0 && spans[i].end_ns != 0) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [&spans](uint32_t a, uint32_t b) {
    return std::pair(spans[a].parent, spans[a].start_ns) <
           std::pair(spans[b].parent, spans[b].start_ns);
  });
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ns != 0) {
      self[i] = spans[i].duration_ns();
    }
  }
  std::vector<std::pair<int64_t, int64_t>> children;
  for (size_t k = 0; k < order.size();) {
    const uint32_t parent = spans[order[k]].parent;
    children.clear();
    for (; k < order.size() && spans[order[k]].parent == parent; ++k) {
      children.emplace_back(spans[order[k]].start_ns, spans[order[k]].end_ns);
    }
    const Span& p = spans[parent - 1];
    if (p.end_ns != 0) {
      self[parent - 1] -= SortedUnionLength(children, p.start_ns, p.end_ns);
    }
  }
  return self;
}

// Share of the wall window [lo, hi) that root spans cover.
inline double Coverage(const std::vector<Span>& spans, int64_t lo, int64_t hi) {
  if (hi <= lo) {
    return 0;
  }
  std::vector<std::pair<int64_t, int64_t>> roots;
  for (const Span& span : spans) {
    if (span.parent == 0 && span.end_ns != 0) {
      roots.emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::sort(roots.begin(), roots.end());
  return static_cast<double>(SortedUnionLength(roots, lo, hi)) /
         static_cast<double>(hi - lo);
}

// One line per span for the first `limit` spans: id, parent, journey, name,
// start and end (ns, relative to `origin_ns`), self time (ns).
inline bool WriteTsv(const std::string& path, const std::vector<Span>& spans,
                     int64_t origin_ns, size_t limit) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::vector<int64_t> self = SelfTimes(spans);
  std::fprintf(f, "id\tparent\tjourney\tname\tstart_ns\tend_ns\tself_ns\n");
  for (size_t i = 0; i < std::min(limit, spans.size()); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%u\t%u\t%s\t%lld\t%lld\t%lld\n", i + 1, s.parent,
                 s.journey, SpanName(s.kind),
                 static_cast<long long>(s.start_ns - origin_ns),
                 static_cast<long long>(s.end_ns - origin_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
