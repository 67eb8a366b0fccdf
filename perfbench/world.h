// The benchmark's workloads ("worlds"): a running program plus the closed
// loop of journeys the benchmark drives through it.
#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/briefcase.h"
#include "core/place.h"
#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Span dump of the traced run ("" = none).
  // Self-test fault: corrupt one site's cabinet after the benchmark has
  // computed what agents should find there, so results must mismatch.
  bool corrupt_cabinet = false;
};

// Cumulative program counters, summed over every kernel and place of a world.
struct Counters {
  uint64_t hops = 0;  // Agent transfers delivered and dispatched.
  uint64_t wire_bytes = 0;
  uint64_t frames_sent = 0;
  uint64_t retries = 0;
  uint64_t duplicates = 0;
  uint64_t expired = 0;
  uint64_t nacked = 0;
  uint64_t need_code = 0;
  uint64_t bytes_saved = 0;
  uint64_t activations = 0;
  uint64_t failed_activations = 0;
  uint64_t manifest_violations_static = 0;
  uint64_t vm_compiles = 0;
  uint64_t interp_steps = 0;
  uint64_t code_cache_hits = 0;
  uint64_t code_cache_misses = 0;
  uint64_t admission_hits = 0;
  uint64_t admission_misses = 0;
  uint64_t sim_events = 0;

  Counters operator-(const Counters& o) const;
};

// Journey bookkeeping, shared by every world.
struct JourneyTally {
  uint64_t launched = 0;
  uint64_t ok = 0;
  uint64_t wrong = 0;          // Came home with a wrong result.
  uint64_t launch_errors = 0;  // LaunchAgent refused.
  // Journeys completed while recording.  Four bytes each, so that the
  // benchmark's own bookkeeping barely moves peak RSS with the hop rate.
  std::vector<float> latency_us;
};

class World {
 public:
  // Room for every latency a run records, reserved up front so that the
  // vector never reallocates: peak RSS should not depend on how fast the
  // host ran.
  World() { tally_.latency_us.reserve(size_t{1} << 22); }
  virtual ~World() = default;

  // Launches one journey per slot; each completion relaunches its slot
  // until StopLaunching.
  virtual void Start() = 0;
  // Runs the program a little: a batch of sim events, or one round of the
  // realtime pumps.  Returns false when nothing is left to run.
  virtual bool Advance() = 0;
  virtual Counters Read() const = 0;
  // Puts the timing Transport decorator, the timed ag_tacl resident and the
  // trailing bind-stamp binder in place.  Recording starts when `rec` is
  // enabled.
  virtual void InstallTracing(SpanRecorder* rec) = 0;
  // The option settings that decide what is measured, for the run header.
  virtual std::string Settings() const = 0;

  void StopLaunching() { launching_ = false; }
  void set_recording(bool on) { recording_ = on; }
  size_t in_flight() const { return in_flight_; }
  const JourneyTally& tally() const { return tally_; }

  // Inputs for the isolated call costs: the workload's CODE texts, most used
  // first, a place to bind and analyze them at, and (once tracing has run) a
  // briefcase as it arrived at a site mid-journey.
  virtual const std::vector<std::string>& codes() const = 0;
  virtual tacoma::Place* probe_place() = 0;
  const tacoma::Briefcase* arrival_sample() const {
    return has_arrival_ ? &arrival_ : nullptr;
  }
  // Raw TCP round trips (µs each) over the world's own sockets; empty for
  // sim worlds.  Takes the sockets away from the kernels: call last.
  virtual std::vector<double> RawRoundTrips(int /*rounds*/) { return {}; }

 protected:
  bool launching_ = true;
  bool recording_ = false;
  size_t in_flight_ = 0;
  JourneyTally tally_;
  tacoma::Briefcase arrival_;
  bool has_arrival_ = false;
};

// Builds the named world — kernels, topology, cabinet preload, sockets
// connected — ready for Start.  Returns nullptr for an unknown name or when
// the sockets cannot be set up.
std::unique_ptr<World> MakeWorld(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
