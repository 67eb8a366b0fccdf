// Checks the span arithmetic the traced run relies on: self time on a
// synthetic span tree, root coverage of a wall window, and the recorder's
// parent, journey and bind-stamp bookkeeping.  Exits non-zero on failure.
#include <cstdio>

#include "spans.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

Span Make(uint32_t parent, int64_t start, int64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void SelfTimeOnSyntheticTree() {
  // 1 root       [0, 100)
  // 2  child     [10, 40)   of 1
  // 3  child     [30, 60)   of 1 (overlaps 2: the union counts once)
  // 4   grandkid [15, 20)   of 2 (inside 2: does not touch 1's self time)
  // 5   grandkid [55, 70)   of 3 (runs past its parent: clipped at 60)
  // 6 root       [150, 200)
  // 7  open      [160, 0)   of 6 (still open: ignored)
  std::vector<Span> spans = {Make(0, 0, 100),  Make(1, 10, 40),
                             Make(1, 30, 60),  Make(2, 15, 20),
                             Make(3, 55, 70),  Make(0, 150, 200),
                             Make(6, 160, 0)};
  std::vector<int64_t> self = SelfTimes(spans);
  Expect(self[0] == 50, "root self = 100 - |[10,60)|");
  Expect(self[1] == 25, "child self = 30 - 5");
  Expect(self[2] == 25, "child self = 30 - |[55,60)|");
  Expect(self[3] == 5, "leaf self = its duration");
  Expect(self[4] == 15, "leaf self = its duration, unclipped");
  Expect(self[5] == 50, "open child does not count");
  Expect(self[6] == 0, "open span has no self time");

  Expect(Coverage(spans, 0, 200) == 0.75, "roots cover 150 of 200");
  Expect(Coverage(spans, 50, 150) == 0.5, "coverage clipped to the window");
  Expect(Coverage(spans, 10, 10) == 0, "empty window");
}

void RecorderBookkeeping() {
  SpanRecorder rec(16);
  Expect(rec.Open(SpanKind::kDeliver) == 0, "disabled recorder opens nothing");
  rec.Close(0);
  rec.set_enabled(true);

  uint32_t deliver = rec.Open(SpanKind::kDeliver);
  uint32_t act = rec.Open(SpanKind::kActivation, 7);
  rec.StampFrom(SpanKind::kActivation, SpanKind::kBind);
  rec.StampFrom(SpanKind::kActivation, SpanKind::kBind);  // Second: ignored.
  uint32_t send = rec.Open(SpanKind::kSend);
  rec.StampFrom(SpanKind::kActivation, SpanKind::kBind);  // Not innermost.
  rec.Close(send);
  rec.Close(act);
  rec.Close(deliver);
  uint32_t ack = rec.Open(SpanKind::kDeliver);
  rec.Close(ack);

  const std::vector<Span>& s = rec.spans();
  Expect(s.size() == 5, "deliver, activation, bind, send, ack");
  Expect(s[0].parent == 0 && s[1].parent == deliver, "activation under deliver");
  Expect(s[0].journey == 7, "delivery learns its journey from the activation");
  Expect(s[2].kind == SpanKind::kBind && s[2].parent == act &&
             s[2].start_ns == s[1].start_ns && s[2].journey == 7,
         "bind stamp spans activation start to stamp");
  Expect(s[3].parent == act && s[3].journey == 0, "send under activation");
  Expect(s[4].parent == 0 && s[4].journey == 0, "ack delivery is its own root");
  std::vector<int64_t> self = SelfTimes(s);
  Expect(self[0] >= 0 && self[0] <= s[0].duration_ns() - s[1].duration_ns(),
         "deliver self time excludes the nested activation");

  SpanRecorder tiny(1);
  tiny.set_enabled(true);
  uint32_t kept = tiny.Open(SpanKind::kLaunch);
  uint32_t over = tiny.Open(SpanKind::kActivation);
  tiny.Close(over);
  tiny.Close(kept);
  Expect(kept == 1 && over == 0 && tiny.dropped() == 1, "capacity bounds spans");
  Expect(tiny.spans()[0].end_ns != 0, "kept span closed after a dropped child");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::SelfTimeOnSyntheticTree();
  perfbench::RecorderBookkeeping();
  if (perfbench::failures == 0) {
    std::printf("perfbench_spans_test: OK\n");
  }
  return perfbench::failures == 0 ? 0 : 1;
}
