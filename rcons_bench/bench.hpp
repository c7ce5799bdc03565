// rcons-bench: shared harness for the four workloads (README.md).
//
// Every workload runs as a loop of PASSES over a fixed operation list
// made from the seed. An untraced pass goes through the entry point a
// user calls (serve::run_profile, campaign::run_campaign,
// serve::run_verify, the serve daemon over its socket) and records the
// end-to-end samples. A traced pass does the same work from the finer
// public calls each of those entry points is made of, under spans
// (spans.hpp), and records the per-layer samples. The traced run
// alternates the two kinds, so tracing overhead is measured in one
// process.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "reduction/memory_tier.hpp"
#include "spans.hpp"

namespace rcons_bench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Repository root: data/ and tests/fixtures/golden/ live under it.
  std::string root = ".";
  /// Private scratch directory for checkpoints and the socket; created by
  /// the driver, removed when the run ends.
  std::string scratch;
  /// Where a traced run writes its spans (empty = nowhere).
  std::string spans_out;
};

/// The fastest time of each operation of a pass over a run, by the
/// operation's position in the pass (a type's profile, a shard, a
/// verify, a request). The host slows this machine's vCPUs for
/// milliseconds at a time, so an operation of a few milliseconds runs
/// unslowed in some passes of every run; its fastest time is then the
/// steadiest figure for what the code costs (README.md, "Noise").
class BestTimes {
 public:
  void add(std::size_t op, double ms) {
    if (op >= best_.size()) best_.resize(op + 1, kNone);
    if (ms < best_[op]) best_[op] = ms;
  }
  /// The operations' fastest times; operations never timed are left out.
  std::vector<double> times() const;
  double sum() const;

 private:
  static constexpr double kNone = 1e300;
  std::vector<double> best_;
};

/// Samples and checks gathered over one run.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // End-to-end figures: set by the workload's finish() from the best
  // times of its operations, except setup_s, which the driver times.
  std::vector<double> setup_s;
  double pass_s = 0;
  double full_ms = 0;
  double shortcut_ms = 0;

  // Traced run: the work time of each untraced and each traced pass
  // (wall time of the pass; summed client latency for serve-mixed), and
  // per traced pass the time its layers account for.
  std::vector<double> untraced_work_s;
  std::vector<double> traced_work_s;
  std::vector<double> traced_layers_s;
  /// One sample per traced pass for every per-layer metric the pass
  /// reaches: the workloads push counts, the driver pushes layer self
  /// times. The result is each metric's median.
  std::map<std::string, std::vector<double>> layer;
  /// Per traced pass: time the program itself reported for a layer no
  /// span covers (serve-mixed's server and transport time), counted with
  /// the span layers in traced_layers_s.
  double reported_layer_s = 0;
  Tracer tracer;

  /// Counts one checked answer; a false `ok` is a failure, and the first
  /// few are described on stderr.
  void check(bool ok, const std::string& what);

  /// Adds one traced pass's value of a per-layer metric.
  void sample(const std::string& metric, double value) {
    layer[metric].push_back(value);
  }

  /// full_ms and shortcut_ms as the sums of the two classes' best times,
  /// and pass_s as their total (in seconds).
  void report_sums(const BestTimes& full, const BestTimes& shortcut);
};

/// One workload. The driver times set_up() + tear_down() on their own at
/// the start of a run (setup_s), then loops: set_up(), one pass,
/// tear_down(). pass() and traced_pass() each run the whole operation
/// list once over the latest set-up; finish() runs once after the last
/// pass.
class Workload {
 public:
  virtual ~Workload() = default;
  /// What a pass needs before its first timed operation: a new verdict
  /// tier, protocols, a started daemon.
  virtual void set_up() = 0;
  virtual void tear_down() {}
  virtual void pass(Outcome& out) = 0;
  virtual void traced_pass(Outcome& out) = 0;
  virtual void finish(Outcome& /*out*/) {}
};

std::unique_ptr<Workload> make_profile_golden(const RunConfig& config);
std::unique_ptr<Workload> make_hunt_shard(const RunConfig& config);
std::unique_ptr<Workload> make_verify_tnn(const RunConfig& config);
std::unique_ptr<Workload> make_serve_mixed(const RunConfig& config);

// ---- helpers shared by the workloads -------------------------------

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// The median of `v`; 0 when empty.
double median(std::vector<double> v);

/// The process-wide registry counters the profile path keeps: per-n
/// verdicts the static brackets settled (bounds.pruned_lo + pruned_hi)
/// and exact decider runs (bounds.decider_runs).
struct DeciderCounts {
  double bounds_decided = 0;
  double decider_runs = 0;
};
DeciderCounts decider_counts();
/// Samples the counts' growth since `before` as analysis.bounds_decided
/// and hierarchy.decider_runs.
void sample_decider_counts(Outcome& out, const DeciderCounts& before);

/// Reads a whole file; nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::string& path);

/// Creates `path` (and its parents); throws when that fails.
void make_dir(const std::string& path);

/// The sorted data/*.type paths under the repository root, relative to
/// the root (the form a CLI user types and the serve daemon resolves).
std::vector<std::string> golden_type_files(const std::string& root);

/// The golden fixture for data/<stem>.type as the exact JSON document
/// `rcons_cli profile <file> 6 --format=json` prints, i.e. the fixture
/// without its leading "file" field. Empty when the fixture is missing.
std::string golden_profile_json(const std::string& root,
                                const std::string& type_file);

/// The integer after `"key":` at or after `from` in a JSON document;
/// nullopt when absent.
std::optional<long long> json_int(const std::string& json,
                                  const std::string& key,
                                  std::size_t from = 0);
/// The string value after `"key":"` at or after `from`.
std::optional<std::string> json_string(const std::string& json,
                                       const std::string& key,
                                       std::size_t from = 0);

/// SplitMix64 stream: the benchmark's only source of input variation.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// Seeded Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

/// The in-memory verdict tier with every lookup and store under a span
/// and counted: the reduction layer's cache timed from outside, through
/// the virtual VerdictCache interface the profile scans already call.
/// Lookups that miss fall through to `backing` (nullptr: none).
class TimedCache : public rcons::reduction::MemoryTierCache {
 public:
  explicit TimedCache(const VerdictCache* backing)
      : MemoryTierCache(backing) {}

  std::optional<std::string> lookup(const std::string& key) const override;
  void store(const std::string& key,
             const std::string& payload) const override;

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  // One TimedCache is used by one thread at a time.
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace rcons_bench
