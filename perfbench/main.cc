// perfbench — the repository's hop-cost benchmark.
//
//   perfbench --workload walk-sim|carry-sim|rpc-tcp --seed N --seconds S
//             --trace 0|1 [--trace-out spans.tsv]
//
// --trace 0 measures the end-to-end metrics with nothing added to the
// program.  --trace 1 runs the same workload untraced for half the time,
// then puts the timing decorators in place and runs it traced for the other
// half, and finally times isolated calls; it reports the per-layer metrics.
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics.  The exit code is 0 only when every journey came home
// with the right result and the program's failure counters stayed at zero.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "micro.h"
#include "tacl/interp.h"
#include "util/log.h"
#include "world.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Set-up is repeated; the median of its fastest third is reported.
constexpr int kSetups = 30;
// The traced run keeps at most this many spans (32 B each) and writes out
// the first kSpansWritten of them.
constexpr size_t kSpanCapacity = 4'000'000;
constexpr size_t kSpansWritten = 200'000;
// Wall time for in-flight journeys to come home once launching stops.
constexpr int64_t kDrainNs = 10'000'000'000;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;  // Values the figure is taken over (1 for a ratio).
};

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// Runs the world until wall time `until_ns`.  False if it ran out of work.
bool RunUntil(World& world, int64_t until_ns) {
  while (NowNs() < until_ns) {
    if (!world.Advance()) {
      return false;
    }
  }
  return true;
}

// Moves this (single-threaded) process from CPU to CPU, one measured window
// each.  The host slows some of its CPUs for stretches of seconds to minutes,
// and which ones changes; spread over all of them, a busy CPU cannot hold a
// whole run, and the fastest-third selection below sees the others.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed_)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }
  ~CpuRotation() { Release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Pins the process to the next CPU in turn.
  void Next() {
    if (cpus_.empty()) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }
  // Lets the process run on every CPU it was allowed at the start.
  void Release() {
    if (!cpus_.empty()) {
      (void)sched_setaffinity(0, sizeof(allowed_), &allowed_);
    }
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t turn_ = 0;
};

// The fastest third of `values` (the smallest, or with `descending` the
// largest).  Other work on the host only ever slows the program down, and it
// comes and goes over seconds; the fastest third of many short samples shows
// the program's own speed and varies far less from run to run than a mean or
// a median does.
std::vector<double> FastestThird(std::vector<double> values, bool descending) {
  if (descending) {
    std::sort(values.rbegin(), values.rend());
  } else {
    std::sort(values.begin(), values.end());
  }
  values.resize((values.size() + 2) / 3);
  return values;
}

// One measured stretch of a run, cut into windows of about a second.
struct Window {
  uint64_t hops = 0;
  double wall_s = 0;
  // Journeys completed in the window: [first, last) of the tally's latencies.
  size_t first = 0;
  size_t last = 0;

  double rate() const { return static_cast<double>(hops) / wall_s; }
};
struct Measured {
  std::vector<Window> windows;
  Counters delta;  // Over the whole stretch.
};

template <typename Run>
Measured Measure(World& world, double seconds, const Run& run, CpuRotation& cpus) {
  const int windows = std::max(1, static_cast<int>(std::lround(seconds)));
  Measured m;
  world.set_recording(true);
  const Counters start = world.Read();
  Counters prev = start;
  size_t seen = world.tally().latency_us.size();
  for (int w = 0; w < windows; ++w) {
    cpus.Next();
    const int64_t t0 = NowNs();
    run(seconds / windows);
    const Counters now = world.Read();
    Window window;
    window.hops = now.hops - prev.hops;
    window.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
    window.first = seen;
    window.last = seen = world.tally().latency_us.size();
    m.windows.push_back(window);
    prev = now;
  }
  cpus.Release();
  world.set_recording(false);
  m.delta = prev - start;
  return m;
}

// Hop rate and journey latencies over the fastest third of the windows.
struct Steady {
  double hops_per_s = 0;
  std::vector<double> latency_us;
  double p99_us = 0;
  size_t windows = 0;
};

// The p99 of each block of consecutive windows holding at least
// kBlockJourneys journeys (ten beyond the p99), median over blocks: one
// window with a host stall then moves one block, not the whole figure.
constexpr size_t kBlockJourneys = 1000;
double BlockP99(const std::vector<const Window*>& windows,
                const std::vector<float>& latency_us) {
  std::vector<std::vector<double>> blocks(1);
  for (const Window* w : windows) {
    if (blocks.back().size() >= kBlockJourneys) {
      blocks.emplace_back();
    }
    blocks.back().insert(blocks.back().end(), latency_us.begin() + w->first,
                         latency_us.begin() + w->last);
  }
  if (blocks.size() > 1 && blocks.back().size() < kBlockJourneys) {
    std::vector<double> tail = std::move(blocks.back());
    blocks.pop_back();
    blocks.back().insert(blocks.back().end(), tail.begin(), tail.end());
  }
  std::vector<double> p99s;
  for (const std::vector<double>& block : blocks) {
    p99s.push_back(Percentile(block, 99));
  }
  return Median(p99s);
}
Steady SteadyPart(const Measured& m, const std::vector<float>& latency_us) {
  std::vector<double> rates;
  for (const Window& w : m.windows) {
    rates.push_back(w.rate());
  }
  const double cutoff = FastestThird(rates, /*descending=*/true).back();
  Steady steady;
  std::vector<const Window*> kept;
  uint64_t hops = 0;
  double wall = 0;
  for (const Window& w : m.windows) {
    if (w.rate() >= cutoff) {
      hops += w.hops;
      wall += w.wall_s;
      steady.latency_us.insert(steady.latency_us.end(), latency_us.begin() + w.first,
                               latency_us.begin() + w.last);
      kept.push_back(&w);
    }
  }
  steady.hops_per_s = static_cast<double>(hops) / wall;
  steady.p99_us = BlockP99(kept, latency_us);
  steady.windows = kept.size();
  return steady;
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool with_samples) {
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (with_samples) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"samples\": %zu}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str(),
                    m.samples);
    } else {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    }
    out += buf;
  }
  return out + "}";
}

// Medians over the traced window's spans.
void SpanMetrics(const std::vector<Span>& spans, std::vector<Metric>* out) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::vector<double> deliver, deliver_self, activation, bind, admit_run, send;
  std::vector<int64_t> bind_of(spans.size(), -1);  // By activation index.
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.kind == SpanKind::kBind && s.end_ns != 0 && s.parent != 0) {
      bind_of[s.parent - 1] = s.duration_ns();
      bind.push_back(static_cast<double>(s.duration_ns()) / 1e3);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns == 0) {
      continue;
    }
    const double us = static_cast<double>(s.duration_ns()) / 1e3;
    switch (s.kind) {
      case SpanKind::kDeliver:
        // Agent frames only: acks and NeedCode frames carry no journey.
        if (s.journey != 0) {
          deliver.push_back(us);
          deliver_self.push_back(static_cast<double>(self[i]) / 1e3);
        }
        break;
      case SpanKind::kActivation: {
        activation.push_back(us);
        if (bind_of[i] >= 0) {
          admit_run.push_back(static_cast<double>(s.duration_ns() - bind_of[i]) / 1e3);
        }
        break;
      }
      case SpanKind::kSend:
        send.push_back(us);
        break;
      default:
        break;
    }
  }
  auto add = [out](const char* name, const std::vector<double>& v) {
    out->push_back({name, Median(v), "us", v.size()});
  };
  add("kernel.deliver_us", deliver);
  add("kernel.deliver_self_us", deliver_self);
  add("place.activation_us", activation);
  add("place.bind_us", bind);
  add("place.admit_run_us", admit_run);
  add("transport.send_us", send);
}

// Ratios of the program's own counters over an untraced window.
void CounterMetrics(const Counters& d, std::vector<Metric>* out) {
  out->push_back({"place.vm_compiles_per_activation",
                  Ratio(d.vm_compiles, d.activations), "1/activation", 1});
  out->push_back({"tacl.steps_per_activation", Ratio(d.interp_steps, d.activations),
                  "1/activation", 1});
  out->push_back({"admission.cache_hit_ratio",
                  Ratio(d.admission_hits, d.admission_hits + d.admission_misses),
                  "ratio", 1});
  out->push_back({"kernel.retries_per_hop", Ratio(d.retries, d.hops), "1/hop", 1});
  out->push_back({"kernel.duplicates_per_hop", Ratio(d.duplicates, d.hops), "1/hop", 1});
  out->push_back({"codecache.hit_ratio",
                  Ratio(d.code_cache_hits, d.code_cache_hits + d.code_cache_misses),
                  "ratio", 1});
  out->push_back({"codecache.need_code_per_hop", Ratio(d.need_code, d.hops), "1/hop", 1});
  out->push_back({"codecache.bytes_saved_per_hop", Ratio(d.bytes_saved, d.hops),
                  "B/hop", 1});
  out->push_back({"sim.events_per_hop", Ratio(d.sim_events, d.hops), "1/hop", 1});
  out->push_back({"net.frames_per_hop", Ratio(d.frames_sent, d.hops), "1/hop", 1});
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload walk-sim|carry-sim|rpc-tcp --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--corrupt-cabinet]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else if (arg == "--corrupt-cabinet") {
      opt.corrupt_cabinet = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!(opt.seconds > 0)) {
    return Usage(argv[0]);
  }

  // Pin every setting the program would otherwise read from the environment
  // (TACOMA_TACL_VM, TACOMA_LOG_LEVEL; each world sets the CODE cache, i.e.
  // TACOMA_CODE_CACHE, through KernelOptions).
  tacoma::SetLogLevel(tacoma::LogLevel::kOff);
  tacoma::tacl::SetVmDefaultEnabled(true);

  // Set-up is timed in two batches, one before the run and one after it:
  // the host is sometimes slow for a whole stretch of seconds.
  CpuRotation cpus;
  std::vector<double> setup_s;
  SpanRecorder rec(kSpanCapacity);  // Outlives the world, which points at it.
  std::unique_ptr<World> world;
  const auto set_up = [&](int times) {
    for (int i = 0; i < times; ++i) {
      world.reset();  // At most one world (and one socket pair) at a time.
      const int64_t t0 = NowNs();
      world = MakeWorld(opt);
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      if (world == nullptr) {
        return false;
      }
    }
    return true;
  };
  if (!set_up(kSetups / 2)) {
    std::fprintf(stderr, "perfbench: could not set up \"%s\"\n", opt.workload.c_str());
    return Usage(argv[0]);
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d build=%s "
              "tacl_vm=on log=off | %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
              world->Settings().c_str());

  bool ok = true;
  const auto run = [&](double seconds) {
    if (!RunUntil(*world, NowNs() + static_cast<int64_t>(seconds * 1e9))) {
      std::fprintf(stderr, "perfbench: the program ran out of work\n");
      ok = false;
    }
  };
  const int64_t origin = NowNs();
  world->Start();
  run(std::min(1.0, opt.seconds / 4));  // Warm-up: caches fill.

  std::vector<Metric> metrics;
  if (!opt.trace) {
    const Measured m = Measure(*world, opt.seconds, run, cpus);
    // Read before the figures below allocate their working copies.
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB", 1});
    const Steady steady = SteadyPart(m, world->tally().latency_us);
    // Per window: hop rate / p50 / p99 of the journeys completed in it.
    std::printf("windows");
    for (const Window& w : m.windows) {
      const std::vector<float>& lat = world->tally().latency_us;
      const std::vector<double> in(lat.begin() + w.first, lat.begin() + w.last);
      std::printf(" %.0f/%.0f/%.0f", w.rate(), Percentile(in, 50), Percentile(in, 99));
    }
    std::printf(" (fastest %zu of %zu reported)\n", steady.windows, m.windows.size());
    const size_t journeys = steady.latency_us.size();
    metrics.push_back({"hops_per_s", steady.hops_per_s, "1/s", steady.windows});
    metrics.push_back({"journey_us_p50", Percentile(steady.latency_us, 50), "us", journeys});
    metrics.push_back({"journey_us_p99", steady.p99_us, "us", journeys});
    metrics.push_back({"wire_bytes_per_hop", Ratio(m.delta.wire_bytes, m.delta.hops),
                       "B/hop", m.delta.hops});
  } else {
    const double half = opt.seconds / 2;
    const Measured untraced = Measure(*world, half, run, cpus);

    world->InstallTracing(&rec);
    run(std::min(0.25, half / 4));  // New binders emptied the compiled-unit caches.
    rec.set_enabled(true);
    const int64_t t0 = NowNs();
    const Measured traced = Measure(*world, half, run, cpus);
    const int64_t t1 = NowNs();
    rec.set_enabled(false);

    SpanMetrics(rec.spans(), &metrics);
    CounterMetrics(untraced.delta, &metrics);
    const double coverage = Coverage(rec.spans(), t0, t1);
    metrics.push_back({"trace.overhead_ratio",
                       SteadyPart(untraced, world->tally().latency_us).hops_per_s /
                           SteadyPart(traced, world->tally().latency_us).hops_per_s,
                       "ratio", traced.windows.size()});
    metrics.push_back({"trace.span_coverage", coverage, "ratio", rec.spans().size()});
    if (opt.workload == "walk-sim" && coverage < 0.9) {
      std::fprintf(stderr, "perfbench: spans cover %.3f of wall time, below 0.9\n",
                   coverage);
      ok = false;
    }
    if (rec.dropped() != 0) {
      std::fprintf(stderr, "perfbench: %llu spans dropped at capacity\n",
                   static_cast<unsigned long long>(rec.dropped()));
    }
  }

  // Let the journeys in flight come home, so every launch is judged.
  world->StopLaunching();
  const int64_t drain_end = NowNs() + kDrainNs;
  while (world->in_flight() > 0 && NowNs() < drain_end && world->Advance()) {
  }

  const Counters total = world->Read();
  if (total.failed_activations != 0 || total.manifest_violations_static != 0 ||
      total.expired != 0 || total.nacked != 0) {
    std::fprintf(stderr,
                 "perfbench: failed_activations=%llu manifest_violations_static=%llu "
                 "expired=%llu nacked=%llu\n",
                 static_cast<unsigned long long>(total.failed_activations),
                 static_cast<unsigned long long>(total.manifest_violations_static),
                 static_cast<unsigned long long>(total.expired),
                 static_cast<unsigned long long>(total.nacked));
    ok = false;
  }

  if (opt.trace) {
    for (const Isolated& m : MeasureIsolated(*world, &ok)) {
      metrics.push_back({m.name, m.median_us, "us", m.samples});
    }
    const std::vector<double> rtt = world->RawRoundTrips(2000);
    // The first round trips warm the path; the rest are the sample.
    const std::vector<double> warm(rtt.begin() + std::min<size_t>(rtt.size(), 100),
                                   rtt.end());
    metrics.push_back({"net.raw_rtt_us", Median(warm), "us", warm.size()});
    if (!opt.trace_out.empty() && !WriteTsv(opt.trace_out, rec.spans(), origin, kSpansWritten)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    }
  }

  const size_t lost = world->in_flight();
  const uint64_t launched = world->tally().launched;
  const uint64_t right = world->tally().ok;
  const uint64_t wrong = world->tally().wrong;
  const uint64_t launch_errors = world->tally().launch_errors;
  const uint64_t failed = wrong + launch_errors + lost;
  if (!opt.trace) {
    if (!set_up(kSetups - kSetups / 2)) {
      std::fprintf(stderr, "perfbench: could not set up %s again\n", opt.workload.c_str());
      ok = false;
    }
    metrics.push_back({"setup_s", Median(FastestThird(setup_s, /*descending=*/false)),
                       "s", setup_s.size()});
  }
  ok = ok && failed == 0 && right > 0;
  std::printf("journeys launched=%llu ok=%llu wrong=%llu launch_errors=%llu "
              "lost=%zu fail_ratio=%.6g\n",
              static_cast<unsigned long long>(launched),
              static_cast<unsigned long long>(right),
              static_cast<unsigned long long>(wrong),
              static_cast<unsigned long long>(launch_errors), lost,
              Ratio(failed, launched));
  std::printf("detail %s\n", MetricsJson(metrics, /*with_samples=*/true).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              ok ? "true" : "false", static_cast<unsigned long long>(launched),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics, /*with_samples=*/false).c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
