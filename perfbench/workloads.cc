// The three workloads.  Each builds its program through the kernel's public
// API, drives a closed loop of journeys (every completion relaunches its
// slot), and checks each journey when it meets the `done` resident at home.
#include <algorithm>
#include <cstdlib>

#include "core/kernel.h"
#include "net/realtime.h"
#include "net/tcp_transport.h"
#include "sim/topology.h"
#include "util/rng.h"
#include "world.h"

namespace perfbench {

using tacoma::Briefcase;
using tacoma::Folder;
using tacoma::Kernel;
using tacoma::KernelOptions;
using tacoma::Place;
using tacoma::Reliability;
using tacoma::Rng;
using tacoma::SharedBytes;
using tacoma::SiteId;
using tacoma::Status;
using tacoma::Transport;
using tacoma::TransportStats;

Counters Counters::operator-(const Counters& o) const {
  Counters d;
  d.hops = hops - o.hops;
  d.wire_bytes = wire_bytes - o.wire_bytes;
  d.frames_sent = frames_sent - o.frames_sent;
  d.retries = retries - o.retries;
  d.duplicates = duplicates - o.duplicates;
  d.expired = expired - o.expired;
  d.nacked = nacked - o.nacked;
  d.need_code = need_code - o.need_code;
  d.bytes_saved = bytes_saved - o.bytes_saved;
  d.activations = activations - o.activations;
  d.failed_activations = failed_activations - o.failed_activations;
  d.manifest_violations_static =
      manifest_violations_static - o.manifest_violations_static;
  d.vm_compiles = vm_compiles - o.vm_compiles;
  d.interp_steps = interp_steps - o.interp_steps;
  d.code_cache_hits = code_cache_hits - o.code_cache_hits;
  d.code_cache_misses = code_cache_misses - o.code_cache_misses;
  d.admission_hits = admission_hits - o.admission_hits;
  d.admission_misses = admission_misses - o.admission_misses;
  d.sim_events = sim_events - o.sim_events;
  return d;
}

namespace {

// What a journey must bring home.
struct Expect {
  std::vector<std::string> stats;    // Sites in visiting order.
  std::vector<std::string> results;  // carry-sim: the recomputed filter.
  std::string answer;                // rpc-tcp: the server's reply.
};

struct Slot {
  Kernel* kernel = nullptr;
  SiteId home = 0;
  std::string agent;
  uint32_t journey = 0;
  int64_t launched_ns = 0;
  bool in_flight = false;
  Expect expect;
};

std::vector<std::string> Strings(const Briefcase& bc, const std::string& name) {
  const Folder* f = bc.Find(name);
  return f == nullptr ? std::vector<std::string>{} : f->AsStrings();
}

// Times every Send and every delivery handler of the transport it wraps.
class TimingTransport : public Transport {
 public:
  TimingTransport(Transport* inner, SpanRecorder* rec) : inner_(inner), rec_(rec) {}

  void SetHandler(SiteId site, Handler handler) override {
    inner_->SetHandler(site, [rec = rec_, handler = std::move(handler)](
                                 SiteId from, const SharedBytes& payload) {
      const uint32_t span = rec->Open(SpanKind::kDeliver);
      handler(from, payload);
      rec->Close(span);
    });
  }
  void SetRestartHook(SiteId site, RestartHook hook) override {
    inner_->SetRestartHook(site, std::move(hook));
  }
  Status Send(SiteId from, SiteId to, SharedBytes payload) override {
    const uint32_t span = rec_->Open(SpanKind::kSend);
    Status sent = inner_->Send(from, to, std::move(payload));
    rec_->Close(span);
    return sent;
  }
  TransportStats transport_stats() const override {
    return inner_->transport_stats();
  }

 private:
  Transport* inner_;
  SpanRecorder* rec_;
};

// The closed loop of journeys, shared by every workload.
class LoopWorld : public World {
 public:
  void Start() override {
    for (Slot& slot : slots_) {
      Launch(slot);
    }
  }

  Counters Read() const override {
    Counters c;
    for (Kernel* k : kernels_) {
      const Kernel::Stats& st = k->stats();
      c.hops += st.transfers_delivered;
      c.retries += st.retries_sent;
      c.duplicates += st.duplicates_suppressed;
      c.expired += st.transfers_expired;
      c.nacked += st.transfers_nacked;
      c.need_code += k->code_cache_stats().need_code_sent;
      c.bytes_saved += k->code_cache_stats().bytes_saved;
      c.admission_hits += k->admission_cache_stats().hits;
      c.admission_misses += k->admission_cache_stats().misses;
      c.sim_events += k->sim().events_run();
      c.frames_sent += k->transport().transport_stats().frames_sent;
      for (SiteId site = 0; site < k->site_count(); ++site) {
        const Place* p = k->place(site);
        if (p == nullptr) {
          continue;
        }
        const Place::Stats& ps = p->stats();
        c.activations += ps.activations;
        c.failed_activations += ps.failed_activations;
        c.manifest_violations_static += ps.manifest_violations_static;
        c.vm_compiles += ps.vm_compiles;
        c.interp_steps += ps.interp_steps;
        c.code_cache_hits += p->code_cache().stats().hits;
        c.code_cache_misses += p->code_cache().stats().misses;
      }
    }
    c.wire_bytes = WireBytes();
    return c;
  }

  void InstallTracing(SpanRecorder* rec) override {
    rec_ = rec;
    for (Kernel* k : kernels_) {
      timing_.push_back(std::make_unique<TimingTransport>(&k->transport(), rec));
      k->SetTransport(timing_.back().get());
      k->AddPlaceInitializer([this](Place& place) {
        place.RegisterAgent("ag_tacl", [this](Place& p, Briefcase& bc) {
          return TimedAgTacl(p, bc);
        });
        // Registered last, so it runs after every other binder: the end of
        // interpreter binding.
        place.AddBinder([this](tacoma::tacl::Interp*, tacoma::Activation*) {
          rec_->StampFrom(SpanKind::kActivation, SpanKind::kBind);
        });
      });
    }
  }

  const std::vector<std::string>& codes() const override { return codes_; }
  Place* probe_place() override { return slots_[0].kernel->place(slots_[0].home); }

 protected:
  // Builds the next journey's briefcase for `slot` and fills slot.expect.
  virtual Briefcase NewJourney(Slot& slot, std::string* code) = 0;
  // Workload-specific checks beyond the visiting order.
  virtual bool CheckExtra(const Slot& /*slot*/, const Briefcase& /*bc*/) const {
    return true;
  }
  virtual uint64_t WireBytes() const = 0;

  // Registers the `done` resident at every place of `k`.
  void InstallDone(Kernel& k) {
    k.AddPlaceInitializer([this](Place& place) {
      place.RegisterAgent("done", [this](Place& p, Briefcase& bc) { return Done(p, bc); });
    });
  }

  void AddSlot(Kernel* kernel, SiteId home) {
    Slot slot;
    slot.kernel = kernel;
    slot.home = home;
    slot.agent = "w" + std::to_string(slots_.size());
    slots_.push_back(std::move(slot));
  }

  std::vector<Kernel*> kernels_;
  std::vector<Slot> slots_;
  std::vector<std::string> codes_;

 private:
  Slot* SlotOf(const std::string& agent) {
    if (agent.size() < 2 || agent[0] != 'w') {
      return nullptr;
    }
    const size_t i = std::strtoul(agent.c_str() + 1, nullptr, 10);
    return i < slots_.size() ? &slots_[i] : nullptr;
  }

  void Launch(Slot& slot) {
    std::string code;
    Briefcase bc = NewJourney(slot, &code);
    bc.SetString("AGENT", slot.agent);
    slot.journey = ++next_journey_;
    slot.in_flight = true;
    ++in_flight_;
    ++tally_.launched;
    const uint32_t span =
        rec_ != nullptr ? rec_->Open(SpanKind::kLaunch, slot.journey) : 0;
    slot.launched_ns = NowNs();
    in_launch_ = true;
    Status launched = slot.kernel->LaunchAgent(slot.home, code, std::move(bc));
    in_launch_ = false;
    if (rec_ != nullptr) {
      rec_->Close(span);
    }
    if (!launched.ok()) {
      slot.in_flight = false;
      --in_flight_;
      ++tally_.launch_errors;
    }
  }

  Status Done(Place& place, Briefcase& bc) {
    const int64_t now = NowNs();
    Slot* slot = SlotOf(bc.GetString("AGENT").value_or(""));
    if (slot == nullptr || !slot->in_flight || slot->kernel != place.kernel() ||
        slot->home != place.site()) {
      ++tally_.wrong;  // An arrival the benchmark did not launch from here.
      return tacoma::OkStatus();
    }
    slot->in_flight = false;
    --in_flight_;
    const bool right =
        Strings(bc, "STATS") == slot->expect.stats && CheckExtra(*slot, bc);
    ++(right ? tally_.ok : tally_.wrong);
    if (recording_) {
      tally_.latency_us.push_back(static_cast<float>(now - slot->launched_ns) / 1e3f);
    }
    if (launching_) {
      const size_t index = static_cast<size_t>(slot - slots_.data());
      slot->kernel->sim().After(0, [this, index] { Launch(slots_[index]); });
    }
    return tacoma::OkStatus();
  }

  // ag_tacl as the kernel installs it (pop CODE, run it), inside a span.
  Status TimedAgTacl(Place& place, Briefcase& bc) {
    const Folder* stats = bc.Find("STATS");
    const Folder* itinerary = bc.Find("ITINERARY");
    if (!has_arrival_ && rec_->enabled() && !in_launch_ && stats != nullptr &&
        itinerary != nullptr && stats->size() >= itinerary->size()) {
      arrival_ = bc;  // Mid-journey, as it arrived (CODE still in it).
      has_arrival_ = true;
    }
    Folder* code_folder = bc.Find(tacoma::kCodeFolder);
    if (code_folder == nullptr || code_folder->empty()) {
      return tacoma::InvalidArgumentError("ag_tacl: no CODE folder in briefcase");
    }
    std::string code = *code_folder->PopFrontString();
    if (code_folder->empty()) {
      bc.Remove(tacoma::kCodeFolder);
    }
    std::string agent_id = bc.GetString("AGENT").value_or("agent");
    const Slot* slot = SlotOf(agent_id);
    const uint32_t span =
        rec_->Open(SpanKind::kActivation, slot != nullptr ? slot->journey : 0);
    Status ran = place.RunAgentCode(code, bc, agent_id);
    rec_->Close(span);
    return ran;
  }

  SpanRecorder* rec_ = nullptr;
  std::vector<std::unique_ptr<TimingTransport>> timing_;
  uint32_t next_journey_ = 0;
  bool in_launch_ = false;  // Inside LaunchAgent: ag_tacl meets a launch.
};

// --- Sim worlds ---------------------------------------------------------------

class SimWorld : public LoopWorld {
 public:
  bool Advance() override {
    for (int i = 0; i < 64; ++i) {
      if (!kernel_->sim().Step()) {
        return false;
      }
    }
    return true;
  }

 protected:
  uint64_t WireBytes() const override { return kernel_->net().stats().bytes_on_wire; }
  std::string SiteName(SiteId id) const { return kernel_->net().site_name(id); }

  std::unique_ptr<Kernel> kernel_;
  std::vector<SiteId> sites_;
};

// walk-sim: 8 walkers on an 8-site ring, 16 neighbour hops per journey, all
// sharing one ~100 B CODE.
constexpr char kWalker[] =
    "bc_put STATS [site]\n"
    "if {[bc_len ITINERARY] > 0} {jump [bc_pop ITINERARY]} else {meet done}\n";

class WalkSim : public SimWorld {
 public:
  static constexpr size_t kSites = 8;
  static constexpr size_t kHops = 16;

  explicit WalkSim(uint64_t seed) : rng_(seed ^ 0x7a11c0deULL) {
    KernelOptions options;
    options.seed = seed;
    options.code_cache.enabled = false;
    options.reliability.mode = Reliability::kOff;
    kernel_ = std::make_unique<Kernel>(options);
    kernels_ = {kernel_.get()};
    sites_ = tacoma::BuildRing(&kernel_->net(), kSites);
    kernel_->AdoptNetworkSites();
    InstallDone(*kernel_);
    for (size_t i = 0; i < kSites; ++i) {
      AddSlot(kernel_.get(), sites_[i]);
    }
    codes_ = {kWalker};
  }

  std::string Settings() const override {
    return "kernel defaults, code_cache=off, reliability=off, ring=8, walkers=8, "
           "hops_per_journey=16";
  }

 protected:
  Briefcase NewJourney(Slot& slot, std::string* code) override {
    const size_t home = static_cast<size_t>(&slot - slots_.data());
    const size_t step = rng_.Uniform(2) == 0 ? 1 : kSites - 1;  // Either way round.
    Briefcase bc;
    slot.expect = Expect{};
    slot.expect.stats.push_back(SiteName(sites_[home]));
    for (size_t h = 1; h <= kHops; ++h) {
      const std::string name = SiteName(sites_[(home + h * step) % kSites]);
      bc.folder("ITINERARY").PushBackString(name);
      slot.expect.stats.push_back(name);
    }
    *code = kWalker;
    return bc;
  }

 private:
  Rng rng_;
};

// carry-sim: 8 filtering agents on a lossy 16-site ring, reliable transfers,
// CODE cache on.  Each journey draws one of 256 ~3 KiB CODE variants with
// Zipf popularity, visits 8 other sites, filters each site's 40-record
// cabinet, and carries 32 KiB of DATA plus its RESULTS home.
constexpr char kFilterTemplate[] = R"(# carry-filter agent, variant @V@.
#
# Walks the sites named in ITINERARY.  At every site but HOME it filters the
# site's "recs" cabinet (folder R, records "key value tag") with this
# variant's predicate and appends "site:key:score" to RESULTS for each match.
# DATA rides along untouched.  Back home it meets `done`, which checks STATS,
# RESULTS and DATA against what the launcher expects.
set variant @V@
set lo @LO@
set hi @HI@
set want @TAG@
set mult @MULT@
set budget 4096

proc rec_key {rec} { return [lindex $rec 0] }
proc rec_value {rec} { return [lindex $rec 1] }
proc rec_tag {rec} { return [lindex $rec 2] }

# A record must be a three-element list whose value is a small integer.
proc well_formed {rec} {
  if {[llength $rec] != 3} { return 0 }
  set v [rec_value $rec]
  if {$v < 0 || $v > 1000} { return 0 }
  return 1
}

proc in_window {v lo hi} {
  expr {$v >= $lo && $v < $hi}
}

proc tag_ok {tag want} {
  string equal $tag $want
}

proc score {key v mult} {
  expr {($v * $mult + [string length $key]) % 997}
}

proc keep {rec lo hi want} {
  if {![well_formed $rec]} { return 0 }
  if {![tag_ok [rec_tag $rec] $want]} { return 0 }
  in_window [rec_value $rec] $lo $hi
}

proc emit {here rec mult} {
  set key [rec_key $rec]
  bc_put RESULTS "$here:$key:[score $key [rec_value $rec] $mult]"
}

# Refuses to grow RESULTS past the budget rather than carry it around.
proc room_left {budget} {
  if {[bc_has RESULTS]} {
    return [expr {$budget - [bc_len RESULTS]}]
  }
  return $budget
}

proc visit {lo hi want mult budget} {
  set here [site]
  set kept 0
  foreach rec [cab_list recs R] {
    if {[room_left $budget] <= 0} {
      error "RESULTS budget of $budget exhausted at $here"
    }
    if {[keep $rec $lo $hi $want]} {
      emit $here $rec $mult
      incr kept
    }
  }
  return $kept
}

# Picks the next stop; the itinerary was fixed at launch.
proc next_stop {} {
  return [bc_pop ITINERARY]
}

proc describe {variant lo hi want mult} {
  format "variant %d keeps %s records with %d <= value < %d, score x%d" \
      $variant $want $lo $hi $mult
}

bc_put STATS [site]
if {[bc_len ITINERARY] == 0} {
  meet done
} else {
  if {[site] ne [bc_get HOME]} {
    visit $lo $hi $want $mult $budget
  }
  jump [next_stop]
}
)";

struct Variant {
  int lo = 0;
  int hi = 0;
  std::string want;
  int mult = 0;
};

const char* const kTags[4] = {"red", "green", "blue", "gold"};

Variant VariantParams(int v) {
  Variant p;
  p.lo = v % 40;
  p.hi = p.lo + 25 + (v / 40) % 30;
  p.want = kTags[(v / 7) % 4];
  p.mult = 3 + v % 13;
  return p;
}

std::string Substitute(std::string text, const std::string& key,
                       const std::string& value) {
  for (size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, at + value.size())) {
    text.replace(at, key.size(), value);
  }
  return text;
}

struct Record {
  std::string key;
  int value = 0;
  std::string tag;
};

class CarrySim : public SimWorld {
 public:
  static constexpr size_t kSites = 16;
  static constexpr size_t kAgents = 8;
  static constexpr size_t kStops = 8;
  static constexpr size_t kRecords = 40;
  static constexpr int kVariants = 256;

  CarrySim(uint64_t seed, bool corrupt_cabinet) : rng_(seed ^ 0xca55e77eULL) {
    KernelOptions options;
    options.seed = seed;
    options.code_cache.enabled = true;
    options.reliability.mode = Reliability::kReliable;
    kernel_ = std::make_unique<Kernel>(options);
    kernels_ = {kernel_.get()};
    tacoma::LinkParams link;
    link.loss = 0.01;
    sites_ = tacoma::BuildRing(&kernel_->net(), kSites, link);
    kernel_->net().set_loss_seed(seed);
    kernel_->AdoptNetworkSites();
    InstallDone(*kernel_);

    // Cabinet preload: the benchmark keeps its own copy to recompute every
    // journey's filter from.
    records_.resize(kSites);
    for (size_t s = 0; s < kSites; ++s) {
      tacoma::FileCabinet& cab = kernel_->place(sites_[s])->Cabinet("recs");
      for (size_t i = 0; i < kRecords; ++i) {
        Record r;
        r.key = "k" + std::to_string(s) + "_" + std::to_string(i);
        r.value = static_cast<int>(rng_.Uniform(100));
        r.tag = kTags[rng_.Uniform(4)];
        cab.AppendString("R", r.key + " " + std::to_string(r.value) + " " + r.tag);
        records_[s].push_back(std::move(r));
      }
    }
    if (corrupt_cabinet) {
      // The program now holds different values than the benchmark expects.
      tacoma::FileCabinet& cab = kernel_->place(sites_[1])->Cabinet("recs");
      cab.EraseFolder("R");
      for (const Record& r : records_[1]) {
        cab.AppendString("R", r.key + " " + std::to_string((r.value + 1) % 100) +
                                  " " + r.tag);
      }
    }

    for (int v = 0; v < kVariants; ++v) {
      const Variant p = VariantParams(v);
      std::string code = Substitute(kFilterTemplate, "@V@", std::to_string(v));
      code = Substitute(code, "@LO@", std::to_string(p.lo));
      code = Substitute(code, "@HI@", std::to_string(p.hi));
      code = Substitute(code, "@TAG@", p.want);
      code = Substitute(code, "@MULT@", std::to_string(p.mult));
      codes_.push_back(std::move(code));
    }
    // Zipf(1) popularity over the variants, variant 0 the most popular.
    double total = 0;
    for (int v = 0; v < kVariants; ++v) {
      total += 1.0 / (v + 1);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) {
      c /= total;
    }

    for (size_t i = 0; i < 32; ++i) {
      std::string chunk(1024, 'a');
      for (char& ch : chunk) {
        ch = static_cast<char>('a' + rng_.Uniform(26));
      }
      data_.PushBackString(chunk);
    }
    for (size_t i = 0; i < kAgents; ++i) {
      AddSlot(kernel_.get(), sites_[2 * i]);
    }
  }

  std::string Settings() const override {
    return "code_cache=on, reliability=reliable, ring=16, link_loss=0.01, "
           "agents=8, stops=8+home, variants=256 zipf(1), records=40, "
           "data=32x1KiB";
  }

 protected:
  Briefcase NewJourney(Slot& slot, std::string* code) override {
    const size_t home = 2 * static_cast<size_t>(&slot - slots_.data());
    const double u = static_cast<double>(rng_.Uniform(1ULL << 53)) / (1ULL << 53);
    const int v = static_cast<int>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) - zipf_cdf_.begin());
    const Variant p = VariantParams(std::min(v, kVariants - 1));

    std::vector<size_t> others;
    for (size_t s = 0; s < kSites; ++s) {
      if (s != home) {
        others.push_back(s);
      }
    }
    for (size_t i = 0; i < kStops; ++i) {
      std::swap(others[i], others[i + rng_.Uniform(others.size() - i)]);
    }

    Briefcase bc;
    slot.expect = Expect{};
    const std::string home_name = SiteName(sites_[home]);
    bc.SetString("HOME", home_name);
    bc.folder("DATA") = data_;
    slot.expect.stats.push_back(home_name);
    for (size_t i = 0; i < kStops; ++i) {
      const size_t s = others[i];
      const std::string name = SiteName(sites_[s]);
      bc.folder("ITINERARY").PushBackString(name);
      slot.expect.stats.push_back(name);
      for (const Record& r : records_[s]) {
        if (r.tag == p.want && r.value >= p.lo && r.value < p.hi) {
          const int score =
              (r.value * p.mult + static_cast<int>(r.key.size())) % 997;
          slot.expect.results.push_back(name + ":" + r.key + ":" +
                                        std::to_string(score));
        }
      }
    }
    bc.folder("ITINERARY").PushBackString(home_name);
    slot.expect.stats.push_back(home_name);
    *code = codes_[std::min(v, kVariants - 1)];
    return bc;
  }

  bool CheckExtra(const Slot& slot, const Briefcase& bc) const override {
    const Folder* data = bc.Find("DATA");
    return Strings(bc, "RESULTS") == slot.expect.results && data != nullptr &&
           *data == data_;
  }

 private:
  Rng rng_;
  std::vector<std::vector<Record>> records_;
  std::vector<double> zipf_cdf_;
  Folder data_;
};

// --- rpc-tcp ------------------------------------------------------------------

// E17's round-trip worker: home -> server -> home.  The server answers the
// carried 64 B query.
constexpr char kWorker[] = R"(bc_put STATS [site]
if {[bc_len ITINERARY] == 0} {
  meet done
} else {
  if {[site] eq "server"} {bc_put ANSWER [string toupper [bc_get QUERIES]]}
  jump [bc_pop ITINERARY]
}
)";

// One "machine": a kernel hosting one site, the other site remote over TCP.
struct Machine {
  Machine(const std::string& mine, uint64_t seed) {
    KernelOptions options;
    options.seed = seed;
    options.code_cache.enabled = true;
    options.reliability.mode = Reliability::kReliable;
    kernel = std::make_unique<Kernel>(options);
    for (const char* name : {"client", "server"}) {
      const bool local = name == mine;
      const SiteId id = local ? kernel->AddSite(name) : kernel->AddRemoteSite(name);
      (local ? self : peer) = id;
    }
    kernel->net().AddLink(self, peer);
  }

  std::unique_ptr<Kernel> kernel;
  tacoma::TcpTransport tcp;
  SiteId self = tacoma::kInvalidSite;
  SiteId peer = tacoma::kInvalidSite;
  std::unique_ptr<tacoma::RealtimePump> pump;
};

class RpcTcp : public LoopWorld {
 public:
  explicit RpcTcp(uint64_t seed)
      : rng_(seed ^ 0x4bc7cbULL), client_("client", seed), server_("server", seed + 1) {
    if (!client_.tcp.Listen().ok() || !server_.tcp.Listen().ok()) {
      return;
    }
    client_.tcp.AddPeer(client_.peer, "127.0.0.1", server_.tcp.bound_port());
    server_.tcp.AddPeer(server_.peer, "127.0.0.1", client_.tcp.bound_port());
    // Connect both ways (one connection each) with a handshake round trip
    // before the kernels take the sockets over.
    if (RawRoundTripsUs(1, 5'000'000'000).empty()) {
      return;
    }
    client_.kernel->SetTransport(&client_.tcp);
    server_.kernel->SetTransport(&server_.tcp);
    // Built once: a pump anchors its wall origin when constructed.
    client_.pump = std::make_unique<tacoma::RealtimePump>(&client_.kernel->sim(),
                                                          &client_.tcp);
    server_.pump = std::make_unique<tacoma::RealtimePump>(&server_.kernel->sim(),
                                                          &server_.tcp);
    kernels_ = {client_.kernel.get(), server_.kernel.get()};
    InstallDone(*client_.kernel);
    AddSlot(client_.kernel.get(), client_.self);
    codes_ = {kWorker};
    connected_ = true;
  }

  bool connected() const { return connected_; }

  bool Advance() override {
    // Non-blocking: an idle wait would sleep inside epoll_wait while the
    // other kernel has work.
    client_.pump->Tick(0);
    server_.pump->Tick(0);
    return true;
  }

  std::string Settings() const override {
    return "two kernels over TCP loopback, code_cache=on, reliability=reliable, "
           "agents=1, hops_per_journey=2, query=64B, pumps Tick(0) alternately";
  }

  std::vector<double> RawRoundTrips(int rounds) override {
    return RawRoundTripsUs(rounds, 10'000'000'000);
  }

 protected:
  Briefcase NewJourney(Slot& slot, std::string* code) override {
    std::string query(64, 'a');
    for (char& ch : query) {
      ch = static_cast<char>('a' + rng_.Uniform(26));
    }
    Briefcase bc;
    bc.folder("ITINERARY").PushBackString("server");
    bc.folder("ITINERARY").PushBackString("client");
    bc.folder("QUERIES").PushBackString(query);
    slot.expect = Expect{};
    slot.expect.stats = {"client", "server", "client"};
    std::transform(query.begin(), query.end(), query.begin(),
                   [](char ch) { return static_cast<char>(ch - 'a' + 'A'); });
    slot.expect.answer = query;
    *code = kWorker;
    return bc;
  }

  bool CheckExtra(const Slot& slot, const Briefcase& bc) const override {
    return bc.GetString("ANSWER").value_or("") == slot.expect.answer;
  }

  uint64_t WireBytes() const override {
    return client_.tcp.transport_stats().bytes_sent +
           server_.tcp.transport_stats().bytes_sent;
  }

 private:
  // Sequential 64 B ping-pongs straight over the two transports (the
  // server's handler echoes).  Replaces the sites' delivery handlers.
  std::vector<double> RawRoundTripsUs(int rounds, int64_t budget_ns) {
    int pongs = 0;
    server_.tcp.SetHandler(server_.self, [this](SiteId from, const SharedBytes& p) {
      (void)server_.tcp.Send(server_.self, from, p);
    });
    client_.tcp.SetHandler(client_.self,
                           [&pongs](SiteId, const SharedBytes&) { ++pongs; });
    const SharedBytes payload(tacoma::Bytes(64, 0xa5));
    std::vector<double> rtts;
    const int64_t deadline = NowNs() + budget_ns;
    for (int i = 0; i < rounds; ++i) {
      const int64_t sent = NowNs();
      if (!client_.tcp.Send(client_.self, server_.self, payload).ok()) {
        break;
      }
      while (pongs <= i && NowNs() < deadline) {
        server_.tcp.Poll(0);
        client_.tcp.Poll(0);
      }
      if (pongs <= i) {
        break;
      }
      rtts.push_back(static_cast<double>(NowNs() - sent) / 1e3);
    }
    return rtts;
  }

  Rng rng_;
  Machine client_;
  Machine server_;
  bool connected_ = false;
};

}  // namespace

std::unique_ptr<World> MakeWorld(const Options& options) {
  if (options.workload == "walk-sim") {
    return std::make_unique<WalkSim>(options.seed);
  }
  if (options.workload == "carry-sim") {
    return std::make_unique<CarrySim>(options.seed, options.corrupt_cabinet);
  }
  if (options.workload == "rpc-tcp") {
    auto world = std::make_unique<RpcTcp>(options.seed);
    if (!world->connected()) {
      return nullptr;
    }
    return world;
  }
  return nullptr;
}

}  // namespace perfbench
