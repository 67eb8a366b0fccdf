// Isolated call costs, on the workload's own inputs, timed one call at a
// time after a warm-up and reported as medians with their sample counts.
#include "micro.h"

#include <algorithm>

#include "core/kernel.h"
#include "crypto/sha256.h"
#include "tacl/interp.h"

namespace perfbench {
namespace {

constexpr int kWarmup = 32;
constexpr size_t kMinSamples = 50;
constexpr size_t kMaxSamples = 4000;
constexpr int64_t kBudgetNs = 150'000'000;
// The most used CODE texts the calls cycle through.
constexpr size_t kCodes = 16;

template <typename Op>
Isolated Time(const char* name, Op op) {
  for (int i = 0; i < kWarmup; ++i) {
    op(static_cast<size_t>(i));
  }
  std::vector<double> us;
  const int64_t budget_end = NowNs() + kBudgetNs;
  for (size_t i = 0;
       us.size() < kMaxSamples && (us.size() < kMinSamples || NowNs() < budget_end);
       ++i) {
    const int64_t t0 = NowNs();
    op(i);
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return {name, Percentile(us, 50), us.size()};
}

}  // namespace

std::vector<Isolated> MeasureIsolated(World& world, bool* ok) {
  using tacoma::Briefcase;
  const std::vector<std::string>& all = world.codes();
  const std::vector<std::string> codes(all.begin(),
                                       all.begin() + std::min(kCodes, all.size()));
  const auto code = [&codes](size_t i) -> const std::string& {
    return codes[i % codes.size()];
  };
  tacoma::Place* place = world.probe_place();
  uint64_t sink = 0;
  std::vector<Isolated> out;

  out.push_back(Time("tacl.interp_bind_us", [&](size_t i) {
    Briefcase bc;
    tacoma::Activation activation;
    activation.place = place;
    activation.briefcase = &bc;
    activation.code = code(i);
    activation.agent_id = "probe";
    tacoma::tacl::Interp interp;
    tacoma::BindAgentPrimitives(&interp, &activation);
    sink += interp.HasCommand("jump");
  }));

  {
    tacoma::tacl::Interp interp;
    Briefcase bc;
    tacoma::Activation activation;
    activation.place = place;
    activation.briefcase = &bc;
    tacoma::BindAgentPrimitives(&interp, &activation);
    out.push_back(Time("tacl.compile_us", [&](size_t i) {
      tacoma::Status error = tacoma::OkStatus();
      if (interp.CompileUnit(code(i), &error) == nullptr) {
        *ok = false;
      }
    }));
  }

  out.push_back(Time("admission.check_warm_us", [&](size_t i) {
    sink += place->CheckAdmission(code(i)).violations.size();
  }));
  out.push_back(Time("admission.analyze_cold_us", [&](size_t i) {
    sink += place->AnalyzeAgentCode(code(i)).diagnostics.size();
  }));
  out.push_back(Time("crypto.sha256_code_us", [&](size_t i) {
    sink += tacoma::Sha256::Hash(std::string_view(code(i)))[0];
  }));

  if (const Briefcase* arrival = world.arrival_sample()) {
    out.push_back(Time("serial.briefcase_encode_us",
                       [&](size_t) { sink += arrival->Serialize().size(); }));
    const tacoma::Bytes encoded = arrival->Serialize();
    out.push_back(Time("serial.briefcase_decode_us", [&](size_t) {
      auto decoded = Briefcase::Deserialize(encoded);
      if (!decoded.ok()) {
        *ok = false;
      } else {
        sink += decoded->folder_count();
      }
    }));
  } else {
    *ok = false;  // The traced run saw no mid-journey arrival.
    out.push_back({"serial.briefcase_encode_us", 0, 0});
    out.push_back({"serial.briefcase_decode_us", 0, 0});
  }

  // Keeps the timed calls' results observable.
  if (sink == 0xffffffffffffffffULL) {
    *ok = false;
  }
  return out;
}

}  // namespace perfbench
