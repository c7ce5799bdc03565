// profile-golden: the CLI `profile <file> 6` path over the eight
// data/*.type files, checked against tests/fixtures/golden/.
//
// One pass is a COLD sweep over an empty in-memory verdict tier (the
// deciders and the static bounds do the work, and every verdict is
// stored) and then a WARM sweep that, like a second call, builds a new
// tier per type over the filled one (parse, bounds, canonicalization and
// cache reads do the work). full_ms is the cold sweep and shortcut_ms
// the warm sweep, each the sum over the types of that type's fastest
// profile in the run. The seed fixes the order of the types.
//
// The tiers are reduction::MemoryTierCache, the serve daemon's, with no
// on-disk tier below: every on-disk store creates a file, and on the
// measured host file creation was the largest noise source and slowed
// down run after run as files came and went (README.md, "Noise").
#include <stdexcept>

#include "bench.hpp"
#include "serve/commands.hpp"

namespace rcons_bench {
namespace {

using rcons::serve::EngineOptions;

constexpr int kMaxN = 6;

class ProfileGolden : public Workload {
 public:
  explicit ProfileGolden(const RunConfig& config) {
    files_ = golden_type_files(config.root);
    if (files_.size() != 8) {
      throw std::runtime_error("profile-golden wants the 8 data/*.type files "
                               "under " + config.root);
    }
    Rng rng(config.seed);
    shuffle(files_, rng);
    for (std::string& file : files_) {
      const std::string expected = golden_profile_json(config.root, file);
      if (expected.empty()) {
        throw std::runtime_error("no golden fixture for " + file);
      }
      expected_.push_back(expected);
      file = config.root + "/" + file;
    }
  }

  /// A new, empty verdict tier for the cold sweep.
  void set_up() override {
    cold_ = std::make_unique<rcons::reduction::MemoryTierCache>(nullptr);
  }

  void pass(Outcome& out) override {
    std::vector<std::string> cold(files_.size());
    std::vector<std::string> warm(files_.size());
    const std::int64_t start = now_ns();
    sweep(&cold, nullptr, &cold_ms_);
    sweep(&warm, cold_.get(), &warm_ms_);
    out.untraced_work_s.push_back(seconds_since(start));
    for (std::size_t i = 0; i < files_.size(); ++i) {
      out.check(cold[i] == expected_[i], "cold profile of " + files_[i]);
      out.check(warm[i] == expected_[i], "warm profile of " + files_[i]);
    }
  }

  void finish(Outcome& out) override { out.report_sums(cold_ms_, warm_ms_); }

  void traced_pass(Outcome& out) override {
    const DeciderCounts before = decider_counts();
    std::vector<std::string> cold(files_.size());
    std::vector<std::string> warm(files_.size());
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    const std::int64_t start = now_ns();
    {
      Span root(Layer::kPass);
      const TimedCache cold_tier(nullptr);
      traced_sweep(&cold, &cold_tier, &hits, &misses);
      traced_sweep(&warm, nullptr, &hits, &misses, &cold_tier);
    }
    out.traced_work_s.push_back(seconds_since(start));
    out.sample("reduction.cache_hits", static_cast<double>(hits));
    out.sample("reduction.cache_misses", static_cast<double>(misses));
    sample_decider_counts(out, before);
    for (std::size_t i = 0; i < files_.size(); ++i) {
      out.check(cold[i] == expected_[i], "traced cold profile of " + files_[i]);
      out.check(warm[i] == expected_[i], "traced warm profile of " + files_[i]);
    }
  }

 private:
  /// What `rcons_cli profile <file> 6 --format=json` does, serially:
  /// over the cold tier when `filled` is null, else over a new tier per
  /// type above `filled`. Each type's profile is one operation in `ms`.
  void sweep(std::vector<std::string>* json,
             const rcons::reduction::VerdictCache* filled,
             BestTimes* ms) const {
    for (std::size_t i = 0; i < files_.size(); ++i) {
      const std::int64_t start = now_ns();
      rcons::spec::ObjectType type;
      std::string error;
      if (!rcons::serve::resolve_type(files_[i], &type, &error)) {
        (*json)[i] = error;
        continue;
      }
      const rcons::reduction::MemoryTierCache warm(filled);
      EngineOptions options;
      options.threads = 1;
      options.cache = filled == nullptr ? cold_.get() : &warm;
      (*json)[i] = rcons::serve::run_profile(type, kMaxN, options).json;
      ms->add(i, static_cast<double>(now_ns() - start) * 1e-6);
    }
  }

  /// serve::run_profile taken apart into its public calls, each under a
  /// span (commands.cpp keeps the two in step: bounds, both level scans
  /// over the cache, then both renderings).
  /// The cold sweep passes its tier as `tier`; the warm sweep passes
  /// null and the filled tier as `filled`, and gets a new tier per type.
  void traced_sweep(std::vector<std::string>* json, const TimedCache* tier,
                    std::uint64_t* hits, std::uint64_t* misses,
                    const TimedCache* filled = nullptr) const {
    for (std::size_t i = 0; i < files_.size(); ++i) {
      Tracer::set_request(static_cast<std::uint32_t>(i));
      rcons::spec::ObjectType type;
      std::string error;
      bool parsed = false;
      {
        Span span(Layer::kParse);
        parsed = rcons::serve::resolve_type(files_[i], &type, &error);
      }
      if (!parsed) {
        (*json)[i] = error;
        continue;
      }
      const TimedCache warm(filled);
      const TimedCache& cache = tier != nullptr ? *tier : warm;
      const std::uint64_t hits_before = cache.hits();
      const std::uint64_t misses_before = cache.misses();
      rcons::hierarchy::ProfileOptions options;
      options.threads = 1;
      options.mode = rcons::hierarchy::SymmetryMode::kAutomorphism;
      options.cache = &cache;
      rcons::analysis::BoundsReport bounds;
      {
        Span span(Layer::kBounds);
        bounds = rcons::analysis::analyze_static_bounds(type);
      }
      options.bounds = &bounds;
      rcons::hierarchy::TypeProfile p;
      p.type_name = type.name();
      p.readable = type.is_readable();
      {
        Span span(Layer::kDiscerning);
        p.discerning = rcons::hierarchy::discerning_level(type, kMaxN, options);
      }
      {
        Span span(Layer::kRecording);
        p.recording = rcons::hierarchy::recording_level(type, kMaxN, options);
      }
      {
        Span span(Layer::kRender);
        (*json)[i] = rcons::serve::profile_json(p, kMaxN, &bounds);
        const std::string text = rcons::serve::profile_text(p, &bounds);
        if (text.empty()) (*json)[i] = "empty text rendering";
      }
      *hits += cache.hits() - hits_before;
      *misses += cache.misses() - misses_before;
    }
  }

  std::unique_ptr<rcons::reduction::MemoryTierCache> cold_;  // this pass's
  BestTimes cold_ms_;
  BestTimes warm_ms_;
  std::vector<std::string> files_;
  std::vector<std::string> expected_;
};

}  // namespace

std::unique_ptr<Workload> make_profile_golden(const RunConfig& config) {
  return std::make_unique<ProfileGolden>(config);
}

}  // namespace rcons_bench
