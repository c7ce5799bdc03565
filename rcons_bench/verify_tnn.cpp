// verify-tnn: the CLI `verify` path (serve::run_verify: safety under the
// three crash modes, then recoverable wait-freedom for every input
// vector), serial, default backend, over three T_{n,n'} protocols.
//
// The reference is what the paper predicts, not what rcons printed:
//   tnn 6 4 4   procs = n' <= n: SAFE in every crash mode
//   tnn 5 3 4   procs > n': SAFE crash-free, violated once processes
//               may crash and recover
//   tnnwf 5 3   the crash-free protocol: SAFE crash-free, violated
//               under crash-recovery
// and every one of them is recoverably wait-free (each process takes a
// bounded number of steps). full_ms is the SAFE instance, whose safety
// scans explore the full state space; shortcut_ms is the sum of the two
// violating instances, whose safety scans stop at the first violation
// (liveness, which dominates all three, still runs in full). Each is an
// instance's fastest verify in the run. The seed
// fixes the order of the three. Each verify takes 40-80 ms, so a run
// repeats it a few hundred times (tnn 8 6 6, tnn 7 5 6 and tnnwf 7 3 take
// about a second each, too long for the fastest of a run's repeats to
// shed the host's slow spells; README.md, "Noise").
#include <algorithm>
#include <stdexcept>

#include "bench.hpp"
#include "serve/commands.hpp"
#include "trace/metrics.hpp"
#include "trace/replay.hpp"
#include "valency/model_checker.hpp"

namespace rcons_bench {
namespace {

namespace valency = rcons::valency;

struct Instance {
  std::string spec;
  bool safe;  // SAFE under crash-recovery too
  std::unique_ptr<rcons::exec::Protocol> protocol;
  std::string json;  // the latest untraced run_verify document
};

constexpr const char* kModeTokens[] = {"crash-free", "individual",
                                       "indiv-simul"};
constexpr valency::CrashMode kModes[] = {valency::CrashMode::kNone,
                                         valency::CrashMode::kIndividual,
                                         valency::CrashMode::kBoth};

std::vector<std::string> tokens_of(const std::string& spec) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < spec.size()) {
    const std::size_t j = spec.find(' ', i);
    tokens.push_back(spec.substr(i, j == std::string::npos ? j : j - i));
    if (j == std::string::npos) break;
    i = j + 1;
  }
  return tokens;
}

class VerifyTnn : public Workload {
 public:
  explicit VerifyTnn(const RunConfig& config) {
    instances_.push_back({"tnn 6 4 4", true, nullptr, ""});
    instances_.push_back({"tnn 5 3 4", false, nullptr, ""});
    instances_.push_back({"tnnwf 5 3", false, nullptr, ""});
    Rng rng(config.seed);
    shuffle(instances_, rng);
  }

  void set_up() override {
    for (Instance& instance : instances_) {
      std::string error;
      instance.protocol =
          rcons::serve::make_protocol(tokens_of(instance.spec), &error);
      if (!instance.protocol) {
        throw std::runtime_error(instance.spec + ": " + error);
      }
    }
  }

  void pass(Outcome& out) override {
    rcons::serve::EngineOptions options;
    options.threads = 1;
    std::vector<rcons::serve::CommandResult> results;
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      Instance& instance = instances_[i];
      const std::int64_t t = now_ns();
      results.push_back(
          rcons::serve::run_verify(*instance.protocol, instance.spec, options));
      (instance.safe ? safe_ms_ : violated_ms_)
          .add(i, static_cast<double>(now_ns() - t) * 1e-6);
    }
    out.untraced_work_s.push_back(seconds_since(start));
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      check_json(out, instances_[i], results[i]);
      instances_[i].json = results[i].json;
    }
  }

  void finish(Outcome& out) override {
    out.report_sums(safe_ms_, violated_ms_);
  }

  void traced_pass(Outcome& out) override {
    std::size_t safety_states = 0;
    std::size_t liveness_states = 0;
    const std::int64_t start = now_ns();
    {
      Span root(Layer::kPass);
      for (std::size_t i = 0; i < instances_.size(); ++i) {
        Tracer::set_request(static_cast<std::uint32_t>(i));
        traced_verify(out, instances_[i], &safety_states, &liveness_states);
      }
    }
    out.traced_work_s.push_back(seconds_since(start));
    out.sample("valency.safety_states", static_cast<double>(safety_states));
    out.sample("valency.liveness_states",
               static_cast<double>(liveness_states));
    // A process-lifetime peak, the same after every pass.
    auto& m = rcons::trace::metrics();
    out.sample("valency.max_frontier",
               static_cast<double>(std::max(m.gauge("safety.max_frontier"),
                                            m.gauge("liveness.max_frontier"))));
  }

 private:
  static void check_json(Outcome& out, const Instance& instance,
                         const rcons::serve::CommandResult& result) {
    const std::string& json = result.json;
    bool modes_ok = true;
    for (const char* mode : kModeTokens) {
      const std::size_t at =
          json.find("\"mode\":\"" + std::string(mode) + "\"");
      const std::string expected =
          instance.safe || std::string(mode) == "crash-free" ? "SAFE"
                                                             : "VIOLATION";
      modes_ok = modes_ok && at != std::string::npos &&
                 json_string(json, "verdict", at).value_or("") == expected;
    }
    out.check(modes_ok, instance.spec + ": safety verdicts per crash mode");
    out.check(json_string(json, "recoverable_wait_freedom").value_or("") ==
                  "YES",
              instance.spec + ": recoverably wait-free");
    const std::size_t tail = json.rfind("\"verdict\":");
    out.check(tail != std::string::npos &&
                  json_string(json, "verdict", tail).value_or("") ==
                      (instance.safe ? "SAFE" : "VIOLATION") &&
                  result.exit_code == (instance.safe ? 0 : 1),
              instance.spec + ": overall verdict and exit code");
  }

  /// serve::run_verify taken apart into its public calls: per crash mode,
  /// check_safety over the driver's input vectors up to the first
  /// violation (then its counterexample capture), and liveness for every
  /// binary input vector. Each mode's explored state count must equal the
  /// "states" run_verify reported in the latest untraced pass (a traced
  /// run starts with one), so the rebuilt path does run_verify's work.
  static void traced_verify(Outcome& out, const Instance& instance,
                            std::size_t* safety_states,
                            std::size_t* liveness_states) {
    const rcons::exec::Protocol& protocol = *instance.protocol;
    bool modes_ok = true;
    for (int k = 0; k < 3; ++k) {
      valency::SafetyOptions options;
      options.crash_mode = kModes[k];
      options.threads = 1;
      options.reduce_symmetry = true;
      bool violated = false;
      std::size_t states = 0;
      for (const auto& inputs :
           valency::driver_input_vectors(protocol, /*reduce_symmetry=*/true)) {
        valency::SafetyResult r;
        {
          Span span(Layer::kSafety);
          r = valency::check_safety(protocol, inputs, options);
        }
        states += r.states_visited;
        if (!r.ok()) {
          violated = true;
          Span span(Layer::kCapture);
          const auto capture =
              rcons::trace::capture_safety(protocol, inputs, r);
          modes_ok = modes_ok && capture.has_value();
          break;
        }
        modes_ok = modes_ok && r.explored_fully;
      }
      const bool expect_violation = !instance.safe && k > 0;
      modes_ok = modes_ok && violated == expect_violation;
      *safety_states += states;
      const std::size_t at = instance.json.find(
          "\"mode\":\"" + std::string(kModeTokens[k]) + "\"");
      const long long reported =
          at == std::string::npos
              ? -1
              : json_int(instance.json, "states", at).value_or(-1);
      out.check(reported == static_cast<long long>(states),
                instance.spec + " " + kModeTokens[k] +
                    ": traced safety explores run_verify's " +
                    std::to_string(reported) + " states, not " +
                    std::to_string(states));
    }
    out.check(modes_ok, instance.spec + ": traced safety verdicts");
    bool live = true;
    for (const auto& inputs :
         valency::all_binary_inputs(protocol.process_count())) {
      valency::LivenessOptions options;
      options.threads = 1;
      options.reduce_symmetry = true;
      valency::LivenessResult r;
      {
        Span span(Layer::kLiveness);
        r = valency::check_recoverable_wait_freedom(protocol, inputs, options);
      }
      *liveness_states += r.configs_probed;
      if (valency::liveness_verdict(r) != valency::LivenessVerdict::kWaitFree) {
        live = false;
        Span span(Layer::kCapture);
        rcons::trace::capture_liveness(protocol, inputs, r,
                                       options.solo_step_bound);
      }
    }
    out.check(live, instance.spec + ": traced recoverable wait-freedom");
  }

  std::vector<Instance> instances_;
  BestTimes safe_ms_;
  BestTimes violated_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_verify_tnn(const RunConfig& config) {
  return std::make_unique<VerifyTnn>(config);
}

}  // namespace rcons_bench
