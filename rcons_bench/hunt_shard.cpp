// hunt-shard: campaign::run_campaign over every shard of a small box, as
// `rcons_cli hunt --shards=4 --shard=I` runs them (serial, bounds on, the
// default checkpoint interval): the four shards of box (2,2,2) at
// max_n=4, in an order drawn from the seed.
//
// One pass is a sweep of the four shards from position 0 over an empty
// in-memory verdict tier (full_ms), each writing its checkpoint file,
// then a RESUMED sweep (shortcut_ms): `--resume` over the four complete
// checkpoints, which run_campaign loads, validates (whole-file checksum,
// header against the configuration) and returns at once — what
// relaunching a finished campaign pays. Each figure is the sum over the
// shards of that shard's fastest run in the run. The verdict tier is
// reduction::MemoryTierCache with no on-disk tier below (see
// profile_golden.cpp).
//
// The reference is EXPERIMENTS.md E12's exact landscape of this box at
// n = 4: 300 genomes walked per shard and 53 distinct forms over the four
// shards, 27 at (cons, rcons) = (1, 1) and 26 at (2, 1), every level
// exact; plus, per shard, profiled + shard-skipped + isomorph-skipped =
// walked, every record readable with rcons <= cons, and the resumed
// shard's records equal to the swept one's. As in E12's big box (3,2,2),
// walking and canonicalizing the genomes and rewriting checkpoints take
// most of the time (the static bounds settle every level here, so no
// decider runs). The big box takes about 3 s a shard, too long for the
// fastest of a run's few repeats to shed the host's slow spells
// (README.md, "Noise"); this one takes milliseconds.
#include <filesystem>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "analysis/static_bounds/static_bounds.hpp"
#include "bench.hpp"
#include "campaign/campaign.hpp"

namespace rcons_bench {
namespace {

namespace campaign = rcons::campaign;

constexpr campaign::Box kBox{2, 2, 2};
constexpr int kMaxN = 4;
constexpr int kShards = 4;
// CampaignOptions' default, which `rcons_cli hunt` keeps.
constexpr std::uint64_t kCheckpointInterval = 64;

// EXPERIMENTS.md E12, "Exact landscapes at n = 4", box (2,2,2).
constexpr std::uint64_t kWalked = 300;
constexpr std::uint64_t kForms = 53;
constexpr std::uint64_t kForms11 = 27;
constexpr std::uint64_t kForms21 = 26;

struct Census {
  std::uint64_t visited = 0;
  std::uint64_t profiled = 0;
  std::uint64_t shard_skipped = 0;
  std::uint64_t isomorph_skipped = 0;
};

class HuntShard : public Workload {
 public:
  /// Every pass rewrites the same four checkpoint files: a new file per
  /// pass would add tens of thousands of file creations and deletions to
  /// a run.
  explicit HuntShard(const RunConfig& config) : dir_(config.scratch) {
    for (int shard = 0; shard < kShards; ++shard) order_.push_back(shard);
    Rng rng(config.seed);
    shuffle(order_, rng);
  }

  /// A new, empty verdict tier for the sweep.
  void set_up() override {
    tier_ = std::make_unique<rcons::reduction::MemoryTierCache>(nullptr);
  }

  void pass(Outcome& out) override {
    std::vector<campaign::CampaignResult> swept;
    std::vector<campaign::CampaignResult> resumed;
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < order_.size(); ++i) {
      const std::int64_t t = now_ns();
      swept.push_back(run_shard(order_[i], /*resume=*/false));
      sweep_ms_.add(i, static_cast<double>(now_ns() - t) * 1e-6);
    }
    for (std::size_t i = 0; i < order_.size(); ++i) {
      const std::int64_t t = now_ns();
      resumed.push_back(run_shard(order_[i], /*resume=*/true));
      resume_ms_.add(i, static_cast<double>(now_ns() - t) * 1e-6);
    }
    out.untraced_work_s.push_back(seconds_since(start));

    check_sweep(out, swept, "sweep");
    dbs_.assign(kShards, "");
    for (std::size_t i = 0; i < order_.size(); ++i) {
      const campaign::CampaignResult& r = resumed[i];
      out.check(r.ok && r.resumed && r.complete && r.visited == 0 &&
                    r.checkpoint.records == swept[i].checkpoint.records,
                "resumed shard " + std::to_string(order_[i]) +
                    " returns the swept shard's records: " + r.resume_note);
      dbs_[order_[i]] = read_file(swept[i].db_path).value_or("");
    }
  }

  void finish(Outcome& out) override {
    out.report_sums(sweep_ms_, resume_ms_);
  }

  void traced_pass(Outcome& out) override {
    const DeciderCounts before = decider_counts();
    Tally tally;
    std::vector<campaign::CheckpointLoad> loads;
    const std::int64_t start = now_ns();
    {
      Span root(Layer::kPass);
      const TimedCache tier(nullptr);
      for (const int shard : order_) traced_shard(shard, tier, &tally);
      for (const int shard : order_) loads.push_back(traced_resume(shard));
    }
    out.traced_work_s.push_back(seconds_since(start));
    // The reference databases are the latest untraced pass's (a traced run
    // starts with one).
    for (std::size_t i = 0; i < order_.size(); ++i) {
      const int shard = order_[i];
      const std::string path = campaign::checkpoint_path(dir_, shard, kShards);
      const std::string db = read_file(path).value_or("");
      out.check(static_cast<int>(dbs_.size()) == kShards && !db.empty() &&
                    db == dbs_[shard],
                "traced shard " + std::to_string(shard) +
                    " database is byte-identical to run_campaign's");
      out.check(loads[i].ok && loads[i].checkpoint.complete &&
                    loads[i].checkpoint.records.size() ==
                        tally.records[shard],
                "traced resume of shard " + std::to_string(shard) +
                    " loads its complete checkpoint: " + loads[i].reason);
    }
    out.check(tally.census.visited == kShards * kWalked &&
                  tally.census.profiled == kForms,
              "traced sweep walks " + std::to_string(kWalked) +
                  " genomes a shard and profiles " + std::to_string(kForms) +
                  " forms");

    sample_decider_counts(out, before);
    const std::pair<const char*, std::uint64_t> counts[] = {
        {"reduction.canonicalize_calls", tally.canonicalize_calls},
        {"reduction.cache_hits", tally.hits},
        {"reduction.cache_misses", tally.misses},
        {"campaign.visited", tally.census.visited},
        {"campaign.profiled", tally.census.profiled},
        {"campaign.shard_skipped", tally.census.shard_skipped},
        {"campaign.isomorph_skipped", tally.census.isomorph_skipped},
        {"campaign.checkpoints", tally.checkpoints},
        {"campaign.checkpoint_bytes", tally.checkpoint_bytes},
    };
    for (const auto& [name, value] : counts) {
      out.sample(name, static_cast<double>(value));
    }
  }

 private:
  struct Tally {
    Census census;
    std::uint64_t canonicalize_calls = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t checkpoint_bytes = 0;
    std::size_t records[kShards] = {};  // by shard
  };

  campaign::ShardCheckpoint header(int shard) const {
    campaign::ShardCheckpoint state;
    state.box = kBox;
    state.max_n = kMaxN;
    state.shards = kShards;
    state.shard_index = shard;
    return state;
  }

  campaign::CampaignResult run_shard(int shard, bool resume) const {
    campaign::CampaignOptions options;
    options.box = kBox;
    options.max_n = kMaxN;
    options.shards = kShards;
    options.shard_index = shard;
    options.checkpoint_dir = dir_;
    options.resume = resume;
    options.checkpoint_interval = kCheckpointInterval;
    options.threads = 1;
    options.cache = tier_.get();
    return campaign::run_campaign(options);
  }

  /// What run_campaign does when it resumes a complete checkpoint.
  campaign::CheckpointLoad traced_resume(int shard) const {
    Span span(Layer::kCheckpoint);
    return campaign::load_checkpoint(
        campaign::checkpoint_path(dir_, shard, kShards), header(shard));
  }

  /// The four shards of a sweep against E12's landscape.
  static void check_sweep(Outcome& out,
                          const std::vector<campaign::CampaignResult>& sweep,
                          const std::string& what) {
    std::uint64_t forms = 0;
    std::uint64_t forms11 = 0;
    std::uint64_t forms21 = 0;
    bool ordered = true;
    for (const campaign::CampaignResult& r : sweep) {
      out.check(r.ok && r.complete && r.visited == kWalked &&
                    r.profiled + r.shard_skipped + r.isomorph_skipped ==
                        r.visited &&
                    r.checkpoint.records.size() == r.profiled,
                what + ": a shard completes and accounts for its " +
                    std::to_string(kWalked) + " genomes: " + r.error);
      for (const campaign::ProfileRecord& rec : r.checkpoint.records) {
        const int cons = rec.discerning.value;
        const int rcons = rec.recording.value;
        ordered = ordered && rec.readable && rec.discerning.exact &&
                  rec.recording.exact && rcons <= cons;
        forms += 1;
        forms11 += cons == 1 && rcons == 1 ? 1 : 0;
        forms21 += cons == 2 && rcons == 1 ? 1 : 0;
      }
    }
    out.check(ordered,
              what + ": every record readable and exact, rcons <= cons");
    out.check(forms == kForms && forms11 == kForms11 && forms21 == kForms21,
              what + ": landscape " + std::to_string(forms) + " forms, " +
                  std::to_string(forms11) + " at (1,1), " +
                  std::to_string(forms21) + " at (2,1)");
  }

  /// campaign::run_campaign's shard loop rebuilt from public calls, each
  /// under a span. It must write the same database bytes: same walk
  /// order, same dedupe, same profile options, same snapshot points
  /// (every kCheckpointInterval visited candidates, at completion, and
  /// one final write).
  void traced_shard(int shard, const TimedCache& cache, Tally* tally) const {
    const std::string path = campaign::checkpoint_path(dir_, shard, kShards);
    campaign::ShardCheckpoint state = header(shard);
    const std::uint64_t total = campaign::box_size(kBox);
    const std::uint64_t hits_before = cache.hits();
    const std::uint64_t misses_before = cache.misses();
    std::unordered_set<std::string> seen;
    Census census;
    std::string error;
    auto snapshot = [&] {
      bool ok = false;
      {
        Span span(Layer::kCheckpoint);
        ok = campaign::write_checkpoint(path, state, &error);
      }
      std::error_code ec;
      const auto bytes = std::filesystem::file_size(path, ec);
      if (!ok || ec) {
        throw std::runtime_error("checkpoint write failed: " + error);
      }
      tally->checkpoints += 1;
      tally->checkpoint_bytes += bytes;
    };
    std::uint64_t position = 0;
    for (int v = 1; v <= kBox.max_values; ++v) {
      for (int o = 1; o <= kBox.max_ops; ++o) {
        for (int r = 1; r <= kBox.max_responses; ++r) {
          const std::uint64_t cell = campaign::cell_size(v, o, r);
          for (std::uint64_t index = 0; index < cell; ++index, ++position) {
            Tracer::set_request(static_cast<std::uint32_t>(position));
            const campaign::GenomeId id{v, o, r, index};
            rcons::spec::ObjectType type;
            {
              Span span(Layer::kInstantiate);
              type = campaign::instantiate_genome(id);
            }
            rcons::reduction::CanonicalForm canon;
            {
              Span span(Layer::kCanonicalize);
              canon = rcons::reduction::canonicalize_type(type);
            }
            tally->canonicalize_calls += 1;
            census.visited += 1;
            if (campaign::shard_of(canon.hash, kShards) != shard) {
              census.shard_skipped += 1;
            } else if (seen.count(canon.key) != 0) {
              census.isomorph_skipped += 1;
            } else {
              state.records.push_back(profile(id, type, canon, cache));
              seen.insert(canon.key);
              census.profiled += 1;
            }
            state.cursor = position + 1;
            state.complete = state.cursor == total;
            if (state.complete || census.visited % kCheckpointInterval == 0) {
              snapshot();
            }
          }
        }
      }
    }
    snapshot();
    tally->records[shard] = state.records.size();
    tally->hits += cache.hits() - hits_before;
    tally->misses += cache.misses() - misses_before;
    tally->census.visited += census.visited;
    tally->census.profiled += census.profiled;
    tally->census.shard_skipped += census.shard_skipped;
    tally->census.isomorph_skipped += census.isomorph_skipped;
  }

  static campaign::ProfileRecord profile(
      const campaign::GenomeId& id, const rcons::spec::ObjectType& type,
      const rcons::reduction::CanonicalForm& canon, const TimedCache& cache) {
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
    campaign::ProfileRecord record;
    record.id = id;
    record.canonical_hash = canon.hash;
    record.canonical_key = canon.key;
    record.readable = type.is_readable();
    {
      Span span(Layer::kDiscerning);
      record.discerning =
          rcons::hierarchy::discerning_level(type, kMaxN, options);
    }
    {
      Span span(Layer::kRecording);
      record.recording =
          rcons::hierarchy::recording_level(type, kMaxN, options);
    }
    return record;
  }

  std::string dir_;          // the checkpoint directory
  std::vector<int> order_;  // the shards, in the seed's order
  std::unique_ptr<rcons::reduction::MemoryTierCache> tier_;  // this pass's
  std::vector<std::string> dbs_;  // by shard, the latest untraced pass's
  BestTimes sweep_ms_;
  BestTimes resume_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_hunt_shard(const RunConfig& config) {
  return std::make_unique<HuntShard>(config);
}

}  // namespace rcons_bench
