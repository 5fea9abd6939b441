#include "engine/coverage_engine.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <utility>

#include "common/arena.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "dataset/csv_stream.h"
#include "mups/packed_index.h"
#include "pattern/packed_set.h"

namespace coverage {

namespace {

/// Validates borrowed rows against `schema` (width + value ranges) and
/// materialises them as a Dataset batch.
Status EncodeRows(const Schema& schema,
                  std::span<const CoverageEngine::Row> rows, Dataset* out) {
  const int d = schema.num_attributes();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (static_cast<int>(rows[r].size()) != d) {
      return Status::InvalidArgument(
          "row " + std::to_string(r) + " has " +
          std::to_string(rows[r].size()) + " values, schema has " +
          std::to_string(d));
    }
    for (int i = 0; i < d; ++i) {
      const Value v = rows[r][static_cast<std::size_t>(i)];
      if (v < 0 || v >= static_cast<Value>(schema.cardinality(i))) {
        return Status::InvalidArgument(
            "row " + std::to_string(r) + ", attribute '" +
            schema.attribute(i).name + "': value " + std::to_string(v) +
            " out of range [0, " + std::to_string(schema.cardinality(i)) +
            ")");
      }
    }
    out->AppendRow(rows[r]);
  }
  return Status::OK();
}

}  // namespace

CoverageEngine::CoverageEngine(Schema schema, EngineOptions options)
    : schema_(std::move(schema)), options_(options) {
  assert(options_.num_threads >= 1);
  auto codec = PatternCodec::Build(schema_);
  assert(codec.ok() && "schema exceeds the packed pattern limit");
  if (codec.ok()) codec_ = std::move(*codec);
  auto first = std::shared_ptr<Snapshot>(
      new Snapshot(AggregatedData(schema_), nullptr, 0));
  // cov(P) = 0 for every pattern of the empty dataset, so the root is the
  // unique MUP whenever tau >= 1; the first append bootstraps the full
  // search by re-expanding beneath it once it crosses τ.
  if (options_.tau >= 1) {
    first->mups_.push_back(Pattern::Root(schema_.num_attributes()));
  }
  current_ = std::move(first);
}

CoverageEngine::~CoverageEngine() = default;

std::shared_ptr<const CoverageEngine::Snapshot> CoverageEngine::snapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return current_;
}

void CoverageEngine::Publish(std::shared_ptr<const Snapshot> next) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  current_ = std::move(next);
}

EngineImage CoverageEngine::CaptureImage() const {
  std::lock_guard<std::mutex> writer(writer_mu_);
  const std::shared_ptr<const Snapshot> snap = snapshot();
  const AggregatedData& agg = snap->data();

  EngineImage image;
  image.schema = schema_;
  image.options = options_;
  image.epoch = snap->epoch();
  image.agg_cells.reserve(agg.num_combinations() *
                          static_cast<std::size_t>(agg.num_attributes()));
  for (std::size_t k = 0; k < agg.num_combinations(); ++k) {
    const auto combo = agg.combination(k);
    image.agg_cells.insert(image.agg_cells.end(), combo.begin(), combo.end());
  }
  image.agg_counts = agg.counts();
  image.mups = snap->mups();
  image.window_batches.assign(window_batches_.begin(), window_batches_.end());
  return image;
}

StatusOr<std::unique_ptr<CoverageEngine>> CoverageEngine::Restore(
    EngineImage image) {
  // A session written before maintenance became packed-only may hold a
  // schema too wide to pack; refuse it before building anything.
  COVERAGE_RETURN_IF_ERROR(PatternCodec::Build(image.schema).status());
  auto agg = AggregatedData::Restore(image.schema, std::move(image.agg_cells),
                                     std::move(image.agg_counts));
  if (!agg.ok()) return agg.status();
  const int d = image.schema.num_attributes();
  for (const Pattern& mup : image.mups) {
    if (mup.num_attributes() != d) {
      return Status::InvalidArgument(
          "restore: MUP width does not match the schema");
    }
  }
  std::size_t window_rows = 0;
  for (const Dataset& batch : image.window_batches) {
    if (!(batch.schema() == image.schema)) {
      return Status::InvalidArgument(
          "restore: window batch schema does not match the engine schema");
    }
    window_rows += batch.num_rows();
  }
  if (image.options.num_threads < 1) image.options.num_threads = 1;

  auto engine =
      std::make_unique<CoverageEngine>(image.schema, image.options);
  auto snap = std::shared_ptr<Snapshot>(
      new Snapshot(std::move(*agg), nullptr, image.epoch));
  snap->mups_ = std::move(image.mups);
  engine->window_batches_.assign(
      std::make_move_iterator(image.window_batches.begin()),
      std::make_move_iterator(image.window_batches.end()));
  engine->window_rows_ = window_rows;
  engine->Publish(std::move(snap));
  return engine;
}

Status CoverageEngine::AppendRows(std::span<const Row> rows,
                                  EngineUpdateStats* stats) {
  Dataset chunk(schema_);
  const Status encoded = EncodeRows(schema_, rows, &chunk);
  if (!encoded.ok()) return encoded;
  return AppendRows(chunk, stats);
}

Status CoverageEngine::AppendRows(const Dataset& rows,
                                  EngineUpdateStats* stats) {
  if (!(rows.schema() == schema_)) {
    return Status::InvalidArgument(
        "appended rows' schema does not match the engine schema");
  }
  std::lock_guard<std::mutex> writer(writer_mu_);
  Stopwatch timer;
  const std::shared_ptr<const Snapshot> cur = snapshot();

  EngineUpdateStats local;
  EngineUpdateStats* s = stats != nullptr ? stats : &local;
  *s = EngineUpdateStats{};
  s->rows_appended = rows.num_rows();

  // Window bookkeeping: retain the batch, then collect whole oldest batches
  // past either limit for eviction in this same epoch. Empty batches are
  // not retained — they would occupy a window_max_epochs slot and evict a
  // real batch without any data having arrived.
  Dataset evicted(schema_);
  if (Windowed() && rows.num_rows() > 0) {
    window_batches_.push_back(rows);
    window_rows_ += rows.num_rows();
    while (!window_batches_.empty() &&
           ((options_.window_max_rows > 0 &&
             window_rows_ > options_.window_max_rows) ||
            (options_.window_max_epochs > 0 &&
             window_batches_.size() > options_.window_max_epochs))) {
      const Dataset& oldest = window_batches_.front();
      for (std::size_t r = 0; r < oldest.num_rows(); ++r) {
        evicted.AppendRow(oldest.row(r));
      }
      window_rows_ -= oldest.num_rows();
      window_batches_.pop_front();
    }
  }

  // Step 1 — the append epoch.
  std::shared_ptr<Snapshot> next;
  {
    AggregatedData agg = cur->agg_;  // prefix-stable copy, extended in place
    agg.AppendRows(rows);
    if (cur->agg_.num_tombstones() == 0) {
      // Pure accumulation: multiplicity changes need no index work.
      next = std::shared_ptr<Snapshot>(
          new Snapshot(std::move(agg), &cur->oracle_, cur->epoch_ + 1));
    } else {
      // Appending over tombstones can revive combinations in place; diff
      // the prefix so the oracle re-sets their masked bits.
      std::vector<std::size_t> revived;
      for (std::size_t k = 0; k < cur->agg_.num_combinations(); ++k) {
        if (cur->agg_.count(k) == 0 && agg.count(k) > 0) revived.push_back(k);
      }
      next = std::shared_ptr<Snapshot>(new Snapshot(
          std::move(agg), cur->oracle_, {}, revived, cur->epoch_ + 1));
    }
  }
  s->new_combinations =
      next->agg_.num_combinations() - cur->agg_.num_combinations();
  next->mups_ = UpdateMups(*next, cur->mups_, s);

  // Step 2 — the eviction (retraction) epoch, folded into the same publish.
  if (evicted.num_rows() > 0) {
    std::shared_ptr<Snapshot> shrunk;
    const Status retracted =
        RetractFrom(next, evicted, cur->epoch_ + 1, s, &shrunk);
    if (!retracted.ok()) {
      return Status::Internal("window eviction failed to retract: " +
                              retracted.ToString());
    }
    next = std::move(shrunk);
  }

  Publish(std::move(next));
  s->seconds = timer.ElapsedSeconds();
  return Status::OK();
}

Status CoverageEngine::RetractRows(std::span<const Row> rows,
                                   EngineUpdateStats* stats) {
  Dataset chunk(schema_);
  const Status encoded = EncodeRows(schema_, rows, &chunk);
  if (!encoded.ok()) return encoded;
  return RetractRows(chunk, stats);
}

Status CoverageEngine::RetractRows(const Dataset& rows,
                                   EngineUpdateStats* stats) {
  if (!(rows.schema() == schema_)) {
    return Status::InvalidArgument(
        "retracted rows' schema does not match the engine schema");
  }
  std::lock_guard<std::mutex> writer(writer_mu_);
  Stopwatch timer;
  const std::shared_ptr<const Snapshot> cur = snapshot();

  EngineUpdateStats local;
  EngineUpdateStats* s = stats != nullptr ? stats : &local;
  *s = EngineUpdateStats{};

  std::shared_ptr<Snapshot> next;
  const Status retracted =
      RetractFrom(cur, rows, cur->epoch_ + 1, s, &next);
  if (!retracted.ok()) return retracted;  // nothing published
  // Only after the retraction is known good: keep the retained window in
  // sync so a later eviction cannot double-retract these occurrences.
  if (Windowed()) ScrubWindow(rows);
  Publish(std::move(next));
  s->seconds = timer.ElapsedSeconds();
  return Status::OK();
}

Status CoverageEngine::RetractFrom(const std::shared_ptr<const Snapshot>& base,
                                   const Dataset& removed, std::uint64_t epoch,
                                   EngineUpdateStats* stats,
                                   std::shared_ptr<Snapshot>* out) {
  AggregatedData agg = base->agg_;  // same combinations, counts shrink
  for (std::size_t r = 0; r < removed.num_rows(); ++r) {
    if (!agg.DecrementRow(removed.row(r))) {
      return Status::InvalidArgument(
          "retracted row " + std::to_string(r) +
          " is not present in the engine's current data");
    }
  }

  // Diff the shared prefix (a retraction adds no combinations): combinations
  // whose multiplicity reached 0 are tombstoned and have their index bits
  // masked; every changed combination now below τ seeds the upward climb.
  std::vector<std::size_t> tombstoned;
  std::vector<Pattern> seeds;
  for (std::size_t k = 0; k < agg.num_combinations(); ++k) {
    if (agg.count(k) == base->agg_.count(k)) continue;
    if (agg.count(k) == 0) tombstoned.push_back(k);
    if (agg.count(k) < options_.tau) {
      seeds.push_back(Pattern::FromTuple(agg.combination(k)));
    }
  }
  stats->rows_retracted += removed.num_rows();
  stats->combinations_tombstoned += tombstoned.size();

  auto next = std::shared_ptr<Snapshot>(
      new Snapshot(std::move(agg), base->oracle_, tombstoned, {}, epoch));
  next->mups_ = RetractMups(*next, base->mups_, seeds, stats);

  // Tombstone compaction: once dead combinations pass the configured
  // fraction, republish this epoch over a dense rebuild. The MUP set is
  // carried over verbatim — the live multiset is unchanged, only ids
  // shift — and the next epoch diffs against the compacted snapshot, so
  // downstream maintenance never sees the old ids.
  const AggregatedData& data = next->agg_;
  if (options_.compact_tombstone_fraction > 0.0 &&
      data.num_combinations() > 0 &&
      static_cast<double>(data.num_tombstones()) >
          options_.compact_tombstone_fraction *
              static_cast<double>(data.num_combinations())) {
    const std::size_t live = data.num_combinations() - data.num_tombstones();
    std::vector<Value> cells;
    std::vector<std::uint64_t> counts;
    cells.reserve(live * static_cast<std::size_t>(schema_.num_attributes()));
    counts.reserve(live);
    for (std::size_t k = 0; k < data.num_combinations(); ++k) {
      if (data.count(k) == 0) continue;
      const auto combo = data.combination(k);
      cells.insert(cells.end(), combo.begin(), combo.end());
      counts.push_back(data.count(k));
    }
    auto dense =
        AggregatedData::Restore(schema_, std::move(cells), std::move(counts));
    // Live combinations always restore (they were valid in `data`); the
    // assert documents that, and release builds just skip compacting.
    assert(dense.ok());
    if (dense.ok()) {
      auto compacted = std::shared_ptr<Snapshot>(
          new Snapshot(std::move(*dense), nullptr, epoch));
      compacted->mups_ = std::move(next->mups_);
      next = std::move(compacted);
    }
  }

  *out = std::move(next);
  return Status::OK();
}

void CoverageEngine::ScrubWindow(const Dataset& removed) {
  // Key rows exactly as the aggregated relation does, so the scrub and the
  // retraction agree on row identity.
  const AggregatedData& agg = snapshot()->data();
  std::unordered_map<std::uint64_t, std::uint64_t> pending;
  for (std::size_t r = 0; r < removed.num_rows(); ++r) {
    ++pending[agg.KeyOf(removed.row(r))];
  }
  for (Dataset& batch : window_batches_) {
    if (pending.empty()) break;
    Dataset kept(schema_);
    bool changed = false;
    for (std::size_t r = 0; r < batch.num_rows(); ++r) {
      const auto it = pending.find(agg.KeyOf(batch.row(r)));
      if (it != pending.end()) {
        if (--it->second == 0) pending.erase(it);
        changed = true;
        --window_rows_;
        continue;
      }
      kept.AppendRow(batch.row(r));
    }
    if (changed) batch = std::move(kept);
  }
  // The engine's data is exactly the window multiset, so a validated
  // retraction always finds its rows here.
  assert(pending.empty());
  std::erase_if(window_batches_,
                [](const Dataset& b) { return b.num_rows() == 0; });
}

StatusOr<IngestStats> CoverageEngine::IngestCsvChunked(std::istream& is,
                                                       std::size_t chunk_rows) {
  if (chunk_rows == 0) {
    return Status::InvalidArgument("chunk_rows must be >= 1");
  }
  auto reader = CsvChunkReader::Open(is, schema_);
  if (!reader.ok()) return reader.status();

  IngestStats stats;
  Stopwatch read_timer;
  for (;;) {
    read_timer.Restart();
    Dataset chunk(schema_);  // only this chunk is ever resident
    auto read = reader->ReadChunk(chunk, chunk_rows);
    if (!read.ok()) return read.status();
    stats.read_seconds += read_timer.ElapsedSeconds();
    if (*read == 0) break;

    EngineUpdateStats update;
    const Status appended = AppendRows(chunk, &update);
    if (!appended.ok()) return appended;
    ++stats.chunks;
    stats.rows += *read;
    stats.peak_chunk_rows = std::max(stats.peak_chunk_rows, *read);
    stats.update_seconds += update.seconds;
    stats.coverage_queries += update.coverage_queries;
  }
  return stats;
}

std::vector<Pattern> CoverageEngine::UpdateMups(
    const Snapshot& next, const std::vector<Pattern>& old_mups,
    EngineUpdateStats* stats) {
  const BitmapCoverage& oracle = next.oracle();
  const PatternCodec& codec = codec_;
  const std::uint64_t tau = options_.tau;
  const int d = schema_.num_attributes();
  const int max_level = options_.max_level < 0 ? d : options_.max_level;

  std::vector<PackedPattern> old_packed;
  old_packed.reserve(old_mups.size());
  for (const Pattern& m : old_mups) old_packed.push_back(codec.Encode(m));

  // Phase 1 — recheck every previous MUP against the grown counts, one
  // CoverageAtLeast each. The probes are independent, so they parallelise
  // over the pool with a deterministic merge by index.
  std::vector<char> covered(old_packed.size(), 0);
  if (options_.num_threads > 1 && old_packed.size() >= 128) {
    if (pool_ == nullptr) {
      pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    }
    ThreadPool& pool = *pool_;
    std::vector<QueryContext> ctxs(
        static_cast<std::size_t>(pool.num_workers()));
    pool.ParallelFor(old_packed.size(), 64, [&](int worker, std::size_t i) {
      covered[i] = oracle.CoverageAtLeast(
                       old_packed[i], codec, tau,
                       ctxs[static_cast<std::size_t>(worker)])
                       ? 1
                       : 0;
    });
    for (const QueryContext& ctx : ctxs) {
      stats->coverage_queries += ctx.num_queries();
    }
  } else {
    QueryContext ctx;
    for (std::size_t i = 0; i < old_packed.size(); ++i) {
      covered[i] = oracle.CoverageAtLeast(old_packed[i], codec, tau, ctx)
                       ? 1
                       : 0;
    }
    stats->coverage_queries += ctx.num_queries();
  }

  std::vector<PackedPattern> mups;  // survivors, then fresh discoveries
  std::vector<PackedPattern> frontier;  // newly covered → re-expansion roots
  for (std::size_t i = 0; i < old_packed.size(); ++i) {
    (covered[i] != 0 ? frontier : mups).push_back(old_packed[i]);
  }
  stats->mups_rechecked = old_mups.size();
  stats->mups_newly_covered = frontier.size();
  // Still sorted: a subsequence of the sorted old set.
  if (frontier.empty()) return codec.DecodeAll(mups);

  // Phase 2 — re-seed the Appendix-B dominance index from the survivors in
  // one batched append; fresh MUPs join it as they are found.
  PackedMupIndex index(schema_, codec);
  index.AddBatch(mups);

  // Phase 3 — BFS over the covered region beneath the newly covered MUPs.
  // Insert monotonicity confines every fresh MUP to these subtrees: an
  // uncovered child with every parent covered is a MUP; a covered child is
  // expanded further. `seen` dedups nodes shared between subtrees. Frontier
  // and dedup set are both arena-backed (the FIFO is an ArenaVector with a
  // head cursor; nothing is ever popped physically).
  QueryContext ctx;
  Arena arena;
  PackedPatternSet seen(&arena);
  ArenaVector<PackedPattern> queue(&arena);
  for (const PackedPattern& f : frontier) {
    seen.Insert(f);
    queue.push_back(f);
  }
  std::size_t head = 0;
  while (head < queue.size()) {
    const PackedPattern p = queue[head++];
    if (p.level() >= max_level) continue;  // children would exceed the cap
    for (int attr = 0; attr < d; ++attr) {
      if (codec.is_deterministic(p, attr)) continue;
      for (Value v = 0; v < static_cast<Value>(schema_.cardinality(attr));
           ++v) {
        const PackedPattern child = codec.WithCell(p, attr, v);
        if (!seen.Insert(child)) continue;
        if (oracle.CoverageAtLeast(child, codec, tau, ctx)) {
          queue.push_back(child);
          continue;
        }
        // Uncovered. Beneath a maintained MUP → not maximal, whole subtree
        // already accounted for.
        if (index.IsDominated(child)) continue;
        // Maximal iff every parent is covered; `p` is one of them and is
        // known covered. Parents visit ascending, like Pattern::Parents().
        bool maximal = true;
        for (int i = 0; i < d && maximal; ++i) {
          if (!codec.is_deterministic(child, i)) continue;
          const PackedPattern parent = codec.WithCell(child, i, kWildcard);
          if (parent == p) continue;
          if (!oracle.CoverageAtLeast(parent, codec, tau, ctx)) {
            maximal = false;
          }
        }
        if (!maximal) continue;
        mups.push_back(child);
        ++stats->mups_added;
        index.Add(child);
      }
    }
  }
  stats->coverage_queries += ctx.num_queries();
  std::sort(mups.begin(), mups.end(), PackedLess{&codec});
  return codec.DecodeAll(mups);
}

std::vector<Pattern> CoverageEngine::RetractMups(
    const Snapshot& next, const std::vector<Pattern>& old_mups,
    const std::vector<Pattern>& seeds, EngineUpdateStats* stats) {
  // No retracted combination crossed below τ ⇒ the MUP set is unchanged:
  // a demotion would need a parent below τ, which in turn forces a changed
  // matched combination below τ — i.e. a seed. Skip all maintenance.
  if (seeds.empty()) return old_mups;
  const BitmapCoverage& oracle = next.oracle();
  const PatternCodec& codec = codec_;
  const std::uint64_t tau = options_.tau;
  const int d = schema_.num_attributes();
  const int max_level = options_.max_level < 0 ? d : options_.max_level;

  std::vector<PackedPattern> old_packed;
  old_packed.reserve(old_mups.size());
  for (const Pattern& m : old_mups) old_packed.push_back(codec.Encode(m));

  // Phase 1 — deletion keeps every previous MUP uncovered, but maximality
  // can break: a parent whose count fell below τ is now an uncovered strict
  // ancestor. Recheck each previous MUP's parents; the probes are
  // independent, so they parallelise over the pool with a deterministic
  // merge by index, exactly like the append-path recheck.
  std::vector<char> maximal(old_packed.size(), 1);
  const auto recheck = [&](const PackedPattern& m, QueryContext& ctx) -> char {
    for (int i = 0; i < d; ++i) {
      if (!codec.is_deterministic(m, i)) continue;
      const PackedPattern parent = codec.WithCell(m, i, kWildcard);
      if (!oracle.CoverageAtLeast(parent, codec, tau, ctx)) return 0;
    }
    return 1;
  };
  if (options_.num_threads > 1 && old_packed.size() >= 128) {
    if (pool_ == nullptr) {
      pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    }
    ThreadPool& pool = *pool_;
    std::vector<QueryContext> ctxs(
        static_cast<std::size_t>(pool.num_workers()));
    pool.ParallelFor(old_packed.size(), 64, [&](int worker, std::size_t i) {
      maximal[i] =
          recheck(old_packed[i], ctxs[static_cast<std::size_t>(worker)]);
    });
    for (const QueryContext& ctx : ctxs) {
      stats->coverage_queries += ctx.num_queries();
    }
  } else {
    QueryContext ctx;
    for (std::size_t i = 0; i < old_packed.size(); ++i) {
      maximal[i] = recheck(old_packed[i], ctx);
    }
    stats->coverage_queries += ctx.num_queries();
  }
  stats->mups_rechecked += old_mups.size();

  // Phase 2 — seed the Appendix-B index with the whole previous set in one
  // batched append, then Remove the demoted MUPs: only verified-maximal
  // patterns may stay, because both pruning directions below lean on
  // maximality (a pattern strictly dominating a maintained MUP generalises
  // one of its covered parents).
  Arena arena;
  PackedMupIndex index(schema_, codec);
  index.AddBatch(old_packed);
  std::vector<PackedPattern> mups;  // survivors, then fresh discoveries
  PackedPatternSet member(&arena);
  for (std::size_t i = 0; i < old_packed.size(); ++i) {
    if (maximal[i] != 0) {
      mups.push_back(old_packed[i]);
      member.Insert(old_packed[i]);
    } else {
      index.Remove(old_packed[i]);
      ++stats->mups_demoted;
    }
  }

  // Phase 3 — upward BFS from the retracted combinations now below τ,
  // expanding only through uncovered patterns. Every new MUP is an ancestor
  // of such a combination (its count changed, so it matches a retracted
  // row), and the whole lattice interval between the two is uncovered by
  // monotonicity, so the walk reaches it. A visited pattern is a MUP iff
  // every parent is covered; all parents are probed regardless, because
  // each uncovered parent is itself a climb route. The memo answers each
  // pattern once — it packs three states into one byte: -1 slot just
  // created, 0 uncovered, 1 covered — and the dominance index converts both
  // strict-dominance directions into free coverage answers (below a MUP ⇒
  // uncovered, above one ⇒ covered).
  QueryContext ctx;
  PackedPatternMap<std::int8_t> covered(&arena);
  ArenaVector<PackedPattern> queue(&arena);
  for (const Pattern& s : seeds) {
    const PackedPattern seed = codec.Encode(s);
    std::int8_t& slot = covered.FindOrInsert(seed, std::int8_t{-1});
    if (slot == -1) {
      slot = 0;  // a seed is below τ by construction
      queue.push_back(seed);
    }
  }
  const auto is_covered = [&](const PackedPattern& q) -> bool {
    {
      const std::int8_t* hit = covered.Find(q);
      if (hit != nullptr) return *hit == 1;
    }
    bool cov;
    if (index.Contains(q) || index.IsDominated(q)) {
      cov = false;  // a maintained MUP, or beneath one: uncovered
    } else if (index.DominatesSome(q)) {
      cov = true;  // generalises a covered parent of a maintained MUP
    } else {
      cov = oracle.CoverageAtLeast(q, codec, tau, ctx);
    }
    covered.FindOrInsert(q, std::int8_t{-1}) = cov ? 1 : 0;
    if (!cov) queue.push_back(q);
    return cov;
  };
  std::size_t head = 0;
  while (head < queue.size()) {
    const PackedPattern p = queue[head++];
    bool is_maximal = true;
    for (int i = 0; i < d; ++i) {
      if (!codec.is_deterministic(p, i)) continue;
      const PackedPattern parent = codec.WithCell(p, i, kWildcard);
      if (!is_covered(parent)) is_maximal = false;  // keep probing: routes
    }
    if (!is_maximal || p.level() > max_level) continue;
    if (!member.Insert(p)) continue;  // already a survivor
    mups.push_back(p);
    index.Add(p);
    ++stats->mups_added;
  }
  stats->coverage_queries += ctx.num_queries();
  std::sort(mups.begin(), mups.end(), PackedLess{&codec});
  return codec.DecodeAll(mups);
}

}  // namespace coverage
