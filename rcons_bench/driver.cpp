// rcons-bench driver: runs one workload for a fixed time and prints one
// JSON result line (README.md).
//
//   rcons_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--root DIR] [--scratch DIR] [--spans-out FILE]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last stdout line is {"correct":..,"attempted":..,"failed":..,
// "metrics":{..}}; progress and failures go to stderr. Exit codes: 0 run
// completed and every answer matched its reference, 1 some answer did
// not (the result line still prints), 2 usage or set-up error (no result
// line).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "trace/metrics.hpp"
#include "util/numeric.hpp"

namespace rcons_bench {

void Outcome::check(bool ok, const std::string& what) {
  attempted += 1;
  if (ok) return;
  failed += 1;
  if (failed <= 5) {
    std::fprintf(stderr, "rcons_bench: FAILED %s\n", what.c_str());
  }
}

std::vector<double> BestTimes::times() const {
  std::vector<double> times;
  for (const double t : best_) {
    if (t != kNone) times.push_back(t);
  }
  return times;
}

double BestTimes::sum() const {
  double total = 0;
  for (const double t : times()) total += t;
  return total;
}

void Outcome::report_sums(const BestTimes& full, const BestTimes& shortcut) {
  full_ms = full.sum();
  shortcut_ms = shortcut.sum();
  pass_s = (full_ms + shortcut_ms) * 1e-3;
}

DeciderCounts decider_counts() {
  const auto& m = rcons::trace::metrics();
  return {static_cast<double>(m.counter("bounds.pruned_lo") +
                              m.counter("bounds.pruned_hi")),
          static_cast<double>(m.counter("bounds.decider_runs"))};
}

void sample_decider_counts(Outcome& out, const DeciderCounts& before) {
  const DeciderCounts now = decider_counts();
  out.sample("analysis.bounds_decided",
             now.bounds_decided - before.bounds_decided);
  out.sample("hierarchy.decider_runs", now.decider_runs - before.decider_runs);
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void make_dir(const std::string& path) {
  std::filesystem::create_directories(path);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::vector<std::string> golden_type_files(const std::string& root) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(root + "/data", ec)) {
    if (entry.path().extension() == ".type") {
      files.push_back("data/" + entry.path().filename().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string golden_profile_json(const std::string& root,
                                const std::string& type_file) {
  const std::filesystem::path file(type_file);
  const std::string stem = file.stem().string();
  const auto fixture =
      read_file(root + "/tests/fixtures/golden/" + stem + ".json");
  if (!fixture) return "";
  const std::string head = "{\"file\":\"" + stem + ".type\",";
  if (fixture->rfind(head, 0) != 0) return "";
  std::string body = "{" + fixture->substr(head.size());
  while (!body.empty() && (body.back() == '\n' || body.back() == '\r')) {
    body.pop_back();
  }
  return body;
}

std::optional<long long> json_int(const std::string& json,
                                  const std::string& key, std::size_t from) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos) return std::nullopt;
  std::size_t i = at + needle.size();
  std::size_t j = i;
  if (j < json.size() && json[j] == '-') ++j;
  while (j < json.size() && json[j] >= '0' && json[j] <= '9') ++j;
  if (j == i) return std::nullopt;
  return std::stoll(json.substr(i, j - i));
}

std::optional<std::string> json_string(const std::string& json,
                                       const std::string& key,
                                       std::size_t from) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t begin = at + needle.size();
  const std::size_t end = json.find('"', begin);
  if (end == std::string::npos) return std::nullopt;
  return json.substr(begin, end - begin);
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::optional<std::string> TimedCache::lookup(const std::string& key) const {
  Span span(Layer::kCacheLookup);
  std::optional<std::string> payload = MemoryTierCache::lookup(key);
  if (payload.has_value()) {
    hits_ += 1;
  } else {
    misses_ += 1;
  }
  return payload;
}

void TimedCache::store(const std::string& key,
                       const std::string& payload) const {
  Span span(Layer::kCacheStore);
  MemoryTierCache::store(key, payload);
}

namespace {

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

/// The fastest sample; 0 when there is none.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric a traced run prints; a layer the workload does
// not reach reads 0. Times are seconds per traced pass, counts are per
// traced pass. Order matches BENCHMARK.json.
constexpr MetricDef kLayerMetrics[] = {
    {"spec.parse_s", "s"},
    {"reduction.canonicalize_s", "s"},
    {"reduction.canonicalize_calls", "count"},
    {"reduction.cache_lookup_s", "s"},
    {"reduction.cache_store_s", "s"},
    {"reduction.cache_hits", "count"},
    {"reduction.cache_misses", "count"},
    {"analysis.bounds_s", "s"},
    {"analysis.bounds_decided", "count"},
    {"hierarchy.discerning_s", "s"},
    {"hierarchy.recording_s", "s"},
    {"hierarchy.decider_runs", "count"},
    {"serve.render_s", "s"},
    {"valency.safety_s", "s"},
    {"valency.liveness_s", "s"},
    {"valency.safety_states", "count"},
    {"valency.liveness_states", "count"},
    {"valency.max_frontier", "count"},
    {"trace.capture_s", "s"},
    {"campaign.instantiate_s", "s"},
    {"campaign.visited", "count"},
    {"campaign.profiled", "count"},
    {"campaign.shard_skipped", "count"},
    {"campaign.isomorph_skipped", "count"},
    {"campaign.useful_share", "share"},
    {"campaign.checkpoint_s", "s"},
    {"campaign.checkpoints", "count"},
    {"campaign.checkpoint_bytes", "bytes"},
    {"serve.server_s", "s"},
    {"serve.transport_s", "s"},
    {"serve.admission_rejected", "count"},
    {"serve.memory_tier_entries", "count"},
    {"bench.glue_s", "s"},
    {"tracing.untraced_s", "s"},
    {"tracing.traced_s", "s"},
    {"tracing.overhead_s", "s"},
    {"tracing.overhead_share", "share"},
    {"tracing.layer_share", "share"},
};

std::string format_metric(const char* name, double value, const char* unit) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", name, value,
                unit);
  return buffer;
}

/// Peak resident set size of this process image. getrusage's ru_maxrss
/// would carry over the peak of the process that exec'd us (run.py's
/// Python), so read the kernel's high-water mark, which exec resets.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // KiB -> MiB
    }
  }
  return 0;
}

/// Each per-layer metric's median over the traced passes (0 for a layer
/// the workload never reached), and the tracing figures from the medians
/// of the untraced passes, the traced passes and their layer times: the
/// two kinds of pass alternate, so their medians see the same host.
std::map<std::string, double> layer_metrics(const Outcome& out) {
  std::map<std::string, double> m;
  for (const MetricDef& def : kLayerMetrics) m[def.name] = 0;
  for (const auto& [name, samples] : out.layer) m[name] = median(samples);
  const double visited = m["campaign.visited"];
  m["campaign.useful_share"] =
      visited > 0 ? m["campaign.profiled"] / visited : 0;
  const double untraced = median(out.untraced_work_s);
  const double traced = median(out.traced_work_s);
  if (untraced > 0 && traced > 0) {
    m["tracing.untraced_s"] = untraced;
    m["tracing.traced_s"] = traced;
    m["tracing.overhead_s"] = traced - untraced;
    m["tracing.overhead_share"] = (traced - untraced) / untraced;
    m["tracing.layer_share"] = median(out.traced_layers_s) / untraced;
  }
  return m;
}

/// After a traced pass: its layer self times, and the time its layers
/// account for (every span layer but the pass root, whose self time is
/// the driver's glue, plus what the workload reported).
void record_traced_pass(Outcome& out) {
  const auto self = out.tracer.self_seconds();
  double layers = out.reported_layer_s;
  for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
    const auto layer = static_cast<Layer>(i);
    // A serve round trip is the client's view of a request: the server
    // time and the transport time the workload reports cover it.
    if (layer == Layer::kRequest) continue;
    out.sample(layer_metric(layer), self[i]);
    if (layer != Layer::kPass) layers += self[i];
  }
  out.traced_layers_s.push_back(layers);
}

std::string result_line(const RunConfig& config, const Outcome& out) {
  std::string metrics;
  auto add = [&](const char* name, double value, const char* unit) {
    if (!metrics.empty()) metrics += ',';
    metrics += format_metric(name, value, unit);
  };
  if (config.trace) {
    const std::map<std::string, double> m = layer_metrics(out);
    for (const MetricDef& def : kLayerMetrics) {
      add(def.name, m.at(def.name), def.unit);
    }
  } else {
    const double ok = static_cast<double>(out.attempted - out.failed);
    add("setup_s", fastest(out.setup_s), "s");
    add("pass_s", out.pass_s, "s");
    add("full_ms", out.full_ms, "ms");
    add("shortcut_ms", out.shortcut_ms, "ms");
    add("ok_share",
        out.attempted > 0 ? ok / static_cast<double>(out.attempted) : 0,
        "share");
    add("peak_rss_mb", peak_rss_mb(), "MiB");
  }
  const bool correct = out.attempted > 0 && out.failed == 0;
  return std::string("{\"correct\":") + (correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(out.attempted) +
         ",\"failed\":" + std::to_string(out.failed) + ",\"metrics\":{" +
         metrics + "}}";
}

// setup_s: set_up() + tear_down() timed in batches of as many calls as
// fill kSetUpBatchNs (one call when a set-up takes longer), for
// kSetUpBudgetNs and at least kSetUpMinBatches batches; setup_s is the
// fastest batch's time per call. A set-up of tens of nanoseconds (a new
// verdict tier) then spans many clock ticks, and a 50 µs batch, like the
// passes' short operations, runs unslowed in some of the host's
// milliseconds (README.md, "Noise").
constexpr std::int64_t kSetUpBatchNs = 50'000;
constexpr std::int64_t kSetUpBudgetNs = 1'000'000'000;
constexpr int kSetUpMinBatches = 10;

void time_set_ups(Workload& workload, Outcome& out) {
  auto batch = [&](int calls) {
    const std::int64_t start = now_ns();
    for (int i = 0; i < calls; ++i) {
      workload.set_up();
      workload.tear_down();
    }
    return now_ns() - start;
  };
  int calls = 1;
  while (calls < (1 << 20) && batch(calls) < kSetUpBatchNs) calls *= 2;
  const std::int64_t start = now_ns();
  for (int i = 0;
       i < kSetUpMinBatches || now_ns() - start < kSetUpBudgetNs; ++i) {
    out.setup_s.push_back(static_cast<double>(batch(calls)) * 1e-9 / calls);
  }
}

void run(const RunConfig& config, Workload& workload, Outcome& out) {
  time_set_ups(workload, out);
  // Each untraced pass's own set-up is one more setup_s sample: a set-up
  // of tens of milliseconds (a daemon warming eight types) gets a sample
  // in every stretch of the run, not only in its first second.
  auto untraced = [&] {
    const std::int64_t start = now_ns();
    workload.set_up();
    out.setup_s.push_back(seconds_since(start));
    workload.pass(out);
    workload.tear_down();
  };
  // An untraced and a traced pass back to back; pairs alternate which
  // runs first (the first pair runs untraced first: a traced hunt pass
  // checks its database against the untraced one). Only the last traced
  // pass's spans are kept (and written out).
  auto traced = [&] {
    workload.set_up();
    out.tracer.clear();
    out.reported_layer_s = 0;
    out.tracer.attach();
    workload.traced_pass(out);
    Tracer::detach();
    workload.tear_down();
    record_traced_pass(out);
  };
  const std::int64_t start = now_ns();
  for (int pair = 0;; ++pair) {
    const std::int64_t pass_start = now_ns();
    if (!config.trace) {
      untraced();
    } else if (pair % 2 == 0) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
    // Stop when one more pass of the same length would overrun the run.
    const double pass_s = seconds_since(pass_start);
    if (seconds_since(start) + pass_s > config.seconds) break;
  }
  workload.finish(out);
  if (config.trace) {
    const double share = layer_metrics(out).at("tracing.layer_share");
    if (share < 0.9 || share > 1.1) {
      std::fprintf(stderr,
                   "rcons_bench: layers account for %.3f of the untraced "
                   "time, outside 0.9-1.1\n",
                   share);
    }
  }
}

int usage(const std::string& message) {
  std::fprintf(stderr,
               "rcons_bench: %s\nusage: rcons_bench --workload "
               "profile-golden|hunt-shard|verify-tnn|serve-mixed --seed N "
               "--seconds S --trace 0|1 [--root DIR] [--scratch DIR] "
               "[--spans-out FILE]\n",
               message.c_str());
  return 2;
}

}  // namespace
}  // namespace rcons_bench

int main(int argc, char** argv) {
  using namespace rcons_bench;
  RunConfig config;
  int trace = -1;
  int seconds = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("flag " + flag + " wants a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      if (!rcons::util::parse_uint64_arg(value, &config.seed)) {
        return usage("--seed wants an unsigned 64-bit number");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!rcons::util::parse_int_arg(value, 1, 3600, &seconds)) {
        return usage("--seconds wants a whole number in [1, 3600]");
      }
    } else if (flag == "--trace") {
      if (!rcons::util::parse_int_arg(value, 0, 1, &trace)) {
        return usage("--trace wants 0 or 1");
      }
    } else if (flag == "--root") {
      config.root = value;
    } else if (flag == "--scratch") {
      config.scratch = value;
    } else if (flag == "--spans-out") {
      config.spans_out = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (config.workload.empty() || !have_seed || seconds == 0 || trace < 0) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  config.seconds = seconds;
  config.trace = trace == 1;
  if (config.scratch.empty()) {
    config.scratch = ".bench_build/run/" + config.workload + "-" +
                     std::to_string(::getpid());
  }

  using Factory = std::unique_ptr<Workload> (*)(const RunConfig&);
  const std::map<std::string, Factory> factories = {
      {"profile-golden", make_profile_golden},
      {"hunt-shard", make_hunt_shard},
      {"verify-tnn", make_verify_tnn},
      {"serve-mixed", make_serve_mixed},
  };
  const auto factory = factories.find(config.workload);
  if (factory == factories.end()) {
    return usage("unknown workload '" + config.workload + "'");
  }

  std::unique_ptr<Workload> workload;
  Outcome out;
  try {
    remove_tree(config.scratch);
    make_dir(config.scratch);
    workload = factory->second(config);
    run(config, *workload, out);
  } catch (const std::exception& e) {
    // Set-up errors (missing inputs or fixtures, a socket that will not
    // bind) end the run without a result line.
    std::fprintf(stderr, "rcons_bench: %s\n", e.what());
    workload.reset();
    remove_tree(config.scratch);
    return 2;
  }
  workload.reset();
  remove_tree(config.scratch);
  if (config.trace && !config.spans_out.empty() &&
      !out.tracer.write(config.spans_out)) {
    std::fprintf(stderr, "rcons_bench: cannot write %s\n",
                 config.spans_out.c_str());
  }
  std::printf("%s\n", result_line(config, out).c_str());
  return out.attempted > 0 && out.failed == 0 ? 0 : 1;
}
