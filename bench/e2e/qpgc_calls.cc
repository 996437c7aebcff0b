// Copyright 2026 The QPGC Authors.

#include "qpgc_calls.h"

#include <filesystem>
#include <utility>

#include "core/pattern_scheme.h"
#include "gen/adversarial.h"
#include "gen/dataset_catalog.h"
#include "gen/random_models.h"
#include "gen/uniform.h"
#include "gen/update_gen.h"
#include "graph/shard_view.h"
#include "graph/update.h"
#include "inc/inc_pcm.h"
#include "inc/inc_rcm.h"
#include "reach/compress_r.h"
#include "reach/queries.h"
#include "serve/answer_cache.h"
#include "serve/load_gen.h"
#include "serve/router.h"
#include "serve/sharded_manager.h"
#include "serve/snapshot_manager.h"
#include "storage/mmap_snapshot.h"
#include "storage/snapshot_io.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace e2e {
namespace {

using qpgc::Graph;
using qpgc::NodeId;
using qpgc::PatternQuery;
using qpgc::UpdateBatch;
using qpgc::storage::MmapSnapshot;

constexpr size_t kBatchSize = 16;
constexpr double kInsertFraction = 0.55;
constexpr size_t kNumPatterns = 8;
// The 8 match patterns are fixed query templates, like the dataset below.
constexpr uint64_t kPatternSeed = 70;
constexpr uint32_t kRoutedShards = 2;
constexpr size_t kRecompressEvery = 10;

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return qpgc::Mix64(qpgc::HashCombine(seed, salt));
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

// Each workload serves one fixed dataset, as a benchmark over a named
// dataset does; the seed drives what varies in service: the reach streams,
// the hot set and the update stream. Seeded graphs moved reach and match
// cost by 20-30% from seed to seed (the citation stand-in's reach quotient
// in particular), which no useful bound could absorb.
Graph MakeGraph(Workload workload) {
  switch (workload) {
    case Workload::kSocialLive:
    case Workload::kSocialRoutedK2: {
      Graph g = qpgc::PreferentialAttachment(20000, 4, 0.45, 13);
      qpgc::AssignZipfLabels(g, 4, 1.1, 14);
      return g;
    }
    case Workload::kGridHotCold: {
      Graph g = qpgc::DirectedGrid(141, 141);
      qpgc::AssignZipfLabels(g, 4, 1.1, 14);
      return g;
    }
    case Workload::kCitationReplica:
      return qpgc::MakeDataset(qpgc::FindPatternDataset("Citation"));
  }
  return Graph();
}

// Grid churn: RandomMixed's mix, but each insertion reopens a deleted grid
// edge, so the graph stays a subgraph of the grid, a DAG. RandomMixed's
// arbitrary edges close cycles that merge random rectangles of the grid
// into one node of the quotient: over seeds 1-4, its freshness spread
// 0.53 and its serving bytes 0.24.
UpdateBatch GridChurn(const Graph& g,
                      std::vector<std::pair<NodeId, NodeId>>& closed,
                      qpgc::Rng& rng) {
  UpdateBatch batch;
  while (batch.size() < kBatchSize) {
    if (!closed.empty() && rng.Chance(kInsertFraction)) {
      const size_t j = static_cast<size_t>(rng.Uniform(closed.size()));
      batch.Insert(closed[j].first, closed[j].second);
      closed[j] = closed.back();
      closed.pop_back();
      continue;
    }
    const NodeId u = static_cast<NodeId>(rng.Uniform(g.num_nodes()));
    const std::span<const NodeId> out = g.OutNeighbors(u);
    if (out.empty()) continue;
    const NodeId v = out[static_cast<size_t>(rng.Uniform(out.size()))];
    batch.Delete(u, v);
    closed.emplace_back(u, v);
  }
  return batch;
}

// Citation churn: a paper adds a reference to an older paper, or drops one
// of its references. New references point back in time, as the generator's
// do, so they seldom close a cycle; RandomMixed's arbitrary edges closed
// enough of them to move the reach quotient, and with it the reach cost, by
// 10-20% from seed to seed.
UpdateBatch CitationChurn(const Graph& g, qpgc::Rng& rng) {
  UpdateBatch batch;
  while (batch.size() < kBatchSize) {
    const NodeId v = static_cast<NodeId>(1 + rng.Uniform(g.num_nodes() - 1));
    if (rng.Chance(kInsertFraction)) {
      batch.Insert(v, static_cast<NodeId>(rng.Uniform(v)));
      continue;
    }
    const std::span<const NodeId> out = g.OutNeighbors(v);
    if (out.empty()) continue;
    batch.Delete(v, out[static_cast<size_t>(rng.Uniform(out.size()))]);
  }
  return batch;
}

// Per-thread handle on the benchmark-owned cache of one version, so a
// traced request does not pay AnswerCache::ForVersion's lock every time.
struct TraceCacheSlot {
  const qpgc::AnswerCache* owner = nullptr;
  uint64_t version = 0;
  std::shared_ptr<qpgc::VersionAnswerCache> cache;
};
thread_local TraceCacheSlot t_trace_cache;

// Identity (address only, never dereferenced) of the last pin whose
// stitched quotient this thread asked for: the first stitched() call on a
// new routed pin is the one that stitches.
thread_local uintptr_t t_last_stitched_pin = 0;

}  // namespace

struct System::Impl {
  Workload workload;
  uint64_t seed;
  std::string artifact_dir;
  Graph base;
  std::vector<PatternQuery> patterns;
  std::vector<UpdateBatch> batches;
  qpgc::NodeId probe_u = 0;
  qpgc::NodeId probe_v = 0;
  uint64_t artifact_seq = 0;

  // Serving state. Services are declared after (destroyed before) the
  // managers they reference.
  std::unique_ptr<qpgc::SnapshotManager> mgr;
  std::unique_ptr<qpgc::ShardedSnapshotManager> sharded;
  std::unique_ptr<qpgc::CachedQueryService> cached;
  std::unique_ptr<qpgc::ShardedQueryService> routed;
  // The traced run's cache: its clients call the cache tiers themselves.
  std::unique_ptr<qpgc::AnswerCache> trace_cache;
  // The replica's served artifact: writers swap it, readers pin it.
  mutable qpgc::Mutex slot_mu;
  std::shared_ptr<const MmapSnapshot> slot QPGC_GUARDED_BY(slot_mu);

  std::shared_ptr<const MmapSnapshot> PinReplica() const {
    qpgc::MutexLock lock(slot_mu);
    return slot;
  }

  std::string NextArtifactPath() {
    return artifact_dir + "/snap-" + std::to_string(artifact_seq++) + ".qsnap";
  }

  // Saves the manager's current snapshot to a fresh file and maps it.
  std::shared_ptr<const MmapSnapshot> SaveAndOpen(Tracer* tracer,
                                                  CycleStats* stats) {
    const std::string path = NextArtifactPath();
    Span span(tracer, Stage::kSave);
    {
      const auto snap = mgr->Acquire();
      if (!qpgc::storage::SaveSnapshot(*snap, path).ok()) return nullptr;
    }
    const double save_ms = Ms(span.Next(Stage::kOpen));
    qpgc::Result<MmapSnapshot> result = MmapSnapshot::Open(path);
    if (!result.ok()) return nullptr;
    auto opened =
        std::make_shared<const MmapSnapshot>(std::move(result).value());
    const double open_us = Us(span.Next(Stage::kFirstQuery));
    (void)opened->Reach(probe_u, probe_v);
    const double first_query_us = Us(span.Next(Stage::kUnlink));
    // The mapping outlives the name; a fresh file per cycle means no mapped
    // artifact is ever rewritten in place.
    std::error_code ec;
    std::filesystem::remove(path, ec);
    if (stats != nullptr) {
      stats->save_ms = save_ms;
      stats->open_us = open_us;
      stats->first_query_us = first_query_us;
    }
    return opened;
  }

  qpgc::VersionAnswerCache& TraceCache(uint64_t version) const {
    TraceCacheSlot& slot_ref = t_trace_cache;
    if (slot_ref.owner != trace_cache.get() || slot_ref.version != version) {
      slot_ref.owner = trace_cache.get();
      slot_ref.version = version;
      slot_ref.cache = trace_cache->ForVersion(version);
    }
    return *slot_ref.cache;
  }

  qpgc::MatchResult FacadeMatch(const PatternQuery& q) const {
    switch (workload) {
      case Workload::kSocialLive:
      case Workload::kGridHotCold:
        return cached->Match(q);
      case Workload::kSocialRoutedK2:
        return routed->Match(q);
      case Workload::kCitationReplica: {
        const auto snap = PinReplica();
        return snap->Match(q);
      }
    }
    return {};
  }

  bool FacadeBooleanMatch(const PatternQuery& q) const {
    switch (workload) {
      case Workload::kSocialLive:
      case Workload::kGridHotCold:
        return cached->BooleanMatch(q);
      case Workload::kSocialRoutedK2:
        return routed->BooleanMatch(q);
      case Workload::kCitationReplica: {
        const auto snap = PinReplica();
        return snap->BooleanMatch(q);
      }
    }
    return false;
  }

  bool FacadeReach(NodeId u, NodeId v) const {
    switch (workload) {
      case Workload::kSocialLive:
      case Workload::kGridHotCold:
        return cached->Reach(u, v);
      case Workload::kSocialRoutedK2:
        return routed->Reach(u, v);
      case Workload::kCitationReplica: {
        const auto snap = PinReplica();
        return snap->Reach(u, v);
      }
    }
    return false;
  }

  bool TracedCachedReach(NodeId u, NodeId v, Tracer* t) const {
    Span span(t, Stage::kPin);
    const auto pinned = cached->Pin();
    if (u == v) return true;
    const qpgc::ServingSnapshot& snap = pinned->snapshot();
    span.Next(Stage::kRewrite);
    const uint64_t cu = snap.reach_map()[u];
    const uint64_t cv = snap.reach_map()[v];
    span.Next(Stage::kCacheLookup);
    qpgc::VersionAnswerCache& cache = TraceCache(snap.version());
    switch (cache.LookupReach(cu, cv)) {
      case qpgc::VersionAnswerCache::ReachHit::kTrue:
      case qpgc::VersionAnswerCache::ReachHit::kSubsumedTrue:
        return true;
      case qpgc::VersionAnswerCache::ReachHit::kFalse:
      case qpgc::VersionAnswerCache::ReachHit::kSubsumedFalse:
        return false;
      case qpgc::VersionAnswerCache::ReachHit::kMiss:
        break;
    }
    span.Next(Stage::kReachSearch);
    const bool answer =
        qpgc::EvalReach(snap.reach_gr(), static_cast<NodeId>(cu),
                        static_cast<NodeId>(cv), qpgc::PathMode::kNonEmpty,
                        qpgc::ReachAlgorithm::kBfs);
    span.Next(Stage::kCacheInsert);
    cache.InsertReach(cu, cv, answer);
    return answer;
  }

  bool TracedReplicaReach(NodeId u, NodeId v, Tracer* t) const {
    Span span(t, Stage::kPin);
    const auto snap = PinReplica();
    if (u == v) return true;
    span.Next(Stage::kRewrite);
    const NodeId cu = snap->reach_map()[u];
    const NodeId cv = snap->reach_map()[v];
    span.Next(Stage::kReachSearch);
    return qpgc::EvalReach(snap->reach_gr(), cu, cv, qpgc::PathMode::kNonEmpty,
                           qpgc::ReachAlgorithm::kBfs);
  }

  bool TracedRoutedReach(NodeId u, NodeId v, Tracer* t) const {
    Span span(t, Stage::kPin);
    const auto pins = routed->Pin();
    span.Next(Stage::kRouterReach);
    return pins->Reach(u, v);
  }

  size_t TracedCachedMatch(const PatternQuery& q, bool boolean,
                           Tracer* t) const {
    Span span(t, Stage::kPin);
    const auto pinned = cached->Pin();
    const qpgc::ServingSnapshot& snap = pinned->snapshot();
    if (boolean) {
      span.Next(Stage::kCacheLookup);
      const std::string key = qpgc::CanonicalPatternKey(q);
      qpgc::VersionAnswerCache& cache = TraceCache(snap.version());
      if (cache.LookupNegativeMatch(key)) return 0;
      span.Next(Stage::kPatternMatch);
      const bool matched = qpgc::BooleanMatch(snap.pattern_gr(), q);
      span.Next(Stage::kCacheInsert);
      cache.InsertMatchOutcome(key, matched);
      return matched ? 1 : 0;
    }
    span.Next(Stage::kPatternMatch);
    const qpgc::MatchResult on_gr = qpgc::Match(snap.pattern_gr(), q);
    span.Next(Stage::kExpand);
    return qpgc::ExpandMatchWith(
               snap.pattern_gr().num_nodes(), snap.pattern_map(),
               [&snap](NodeId block) {
                 return snap.pattern_block_members(block);
               },
               on_gr)
        .TotalPairs();
  }

  size_t TracedReplicaMatch(const PatternQuery& q, bool boolean,
                            Tracer* t) const {
    Span span(t, Stage::kPin);
    const auto snap = PinReplica();
    span.Next(Stage::kPatternMatch);
    if (boolean) return qpgc::BooleanMatch(snap->pattern_gr(), q) ? 1 : 0;
    const qpgc::MatchResult on_gr = qpgc::Match(snap->pattern_gr(), q);
    span.Next(Stage::kExpand);
    const MmapSnapshot& mapped = *snap;
    return qpgc::ExpandMatchWith(
               mapped.pattern_gr().num_nodes(), mapped.pattern_map(),
               [&mapped](NodeId block) {
                 return mapped.pattern_block_members(block);
               },
               on_gr)
        .TotalPairs();
  }

  size_t TracedRoutedMatch(const PatternQuery& q, bool boolean,
                           Tracer* t) const {
    Span span(t, Stage::kPin);
    const auto pins = routed->Pin();
    const uintptr_t id = reinterpret_cast<uintptr_t>(pins.get());
    if (id != t_last_stitched_pin) {
      t_last_stitched_pin = id;
      span.Next(Stage::kStitch);
    }
    const qpgc::StitchedPatternQuotient& st = pins->stitched();
    span.Next(Stage::kPatternMatch);
    if (boolean) return qpgc::BooleanMatch(st.gr, q) ? 1 : 0;
    const qpgc::MatchResult on_gr = qpgc::Match(st.gr, q);
    span.Next(Stage::kExpand);
    const qpgc::PinnedShards& shards = *pins;
    return qpgc::ExpandMatchWith(
               st.gr.num_nodes(), st.node_map,
               [&st, &shards](NodeId block) {
                 const auto& [s, c] = st.origin[block];
                 return shards.shard(s).pattern_block_members(c);
               },
               on_gr)
        .TotalPairs();
  }
};

System::System(Workload workload, uint64_t seed, size_t num_batches,
               const std::string& artifact_dir)
    : impl_(std::make_unique<Impl>()) {
  Impl& s = *impl_;
  s.workload = workload;
  s.seed = seed;
  s.artifact_dir = artifact_dir;
  s.base = MakeGraph(workload);
  s.patterns = qpgc::ServeLoadPatterns(s.base, kNumPatterns, kPatternSeed);
  qpgc::Rng rng(SubSeed(seed, 4));
  s.probe_u = static_cast<NodeId>(rng.Uniform(s.base.num_nodes()));
  s.probe_v = static_cast<NodeId>(rng.Uniform(s.base.num_nodes()));
  // The whole update stream, generated on a mirror before any timing.
  Graph mirror = s.base;
  std::vector<std::pair<NodeId, NodeId>> closed;
  s.batches.reserve(num_batches);
  for (size_t k = 0; k < num_batches; ++k) {
    UpdateBatch batch;
    switch (workload) {
      case Workload::kGridHotCold:
        batch = GridChurn(mirror, closed, rng);
        break;
      case Workload::kCitationReplica:
        batch = CitationChurn(mirror, rng);
        break;
      case Workload::kSocialLive:
      case Workload::kSocialRoutedK2:
        batch = qpgc::RandomMixed(mirror, kBatchSize, kInsertFraction,
                                  SubSeed(seed, 100 + k));
        break;
    }
    qpgc::ApplyBatch(mirror, batch);
    s.batches.push_back(std::move(batch));
  }
}

System::~System() = default;

size_t System::num_patterns() const { return impl_->patterns.size(); }
size_t System::num_batches() const { return impl_->batches.size(); }

bool System::Setup() {
  Impl& s = *impl_;
  s.routed.reset();
  s.cached.reset();
  s.sharded.reset();
  s.mgr.reset();
  {
    qpgc::MutexLock lock(s.slot_mu);
    s.slot.reset();
  }
  switch (s.workload) {
    case Workload::kSocialLive:
    case Workload::kGridHotCold:
      s.mgr = std::make_unique<qpgc::SnapshotManager>(s.base);
      s.cached = std::make_unique<qpgc::CachedQueryService>(*s.mgr);
      s.trace_cache = std::make_unique<qpgc::AnswerCache>();
      break;
    case Workload::kSocialRoutedK2: {
      qpgc::ShardedManagerOptions options;
      options.num_shards = kRoutedShards;
      s.sharded =
          std::make_unique<qpgc::ShardedSnapshotManager>(s.base, options);
      s.routed = std::make_unique<qpgc::ShardedQueryService>(*s.sharded);
      break;
    }
    case Workload::kCitationReplica: {
      s.mgr = std::make_unique<qpgc::SnapshotManager>(s.base);
      std::shared_ptr<const MmapSnapshot> opened =
          s.SaveAndOpen(nullptr, nullptr);
      if (opened == nullptr) return false;
      qpgc::MutexLock lock(s.slot_mu);
      s.slot = std::move(opened);
      break;
    }
  }
  (void)s.FacadeReach(s.probe_u, s.probe_v);
  return true;
}

size_t System::ServingBytes() const {
  const Impl& s = *impl_;
  switch (s.workload) {
    case Workload::kSocialLive:
    case Workload::kGridHotCold: {
      const auto snap = s.mgr->Acquire();
      return snap->MemoryBytes();
    }
    case Workload::kSocialRoutedK2: {
      const auto snaps = s.sharded->AcquireAll();
      size_t bytes = 0;
      for (const auto& snap : snaps) bytes += snap->MemoryBytes();
      return bytes;
    }
    case Workload::kCitationReplica: {
      const auto snap = s.PinReplica();
      return snap->MappedBytes();
    }
  }
  return 0;
}

std::vector<ReachPair> System::ReachStream(size_t count,
                                           bool hot_cold) const {
  const size_t n = impl_->base.num_nodes();
  qpgc::ReaderWorkload hot = qpgc::ReaderWorkload::ZipfHotSet(1.1, 512);
  hot.hot_seed = SubSeed(impl_->seed, 6);
  const qpgc::WorkloadSampler hot_sampler(hot, n);
  const qpgc::WorkloadSampler uniform(qpgc::ReaderWorkload::Uniform(), n);
  qpgc::Rng rng(SubSeed(impl_->seed, 1000));
  std::vector<ReachPair> pairs(count);
  for (ReachPair& p : pairs) {
    const std::pair<NodeId, NodeId> uv = hot_cold && rng.Chance(0.9)
                                             ? hot_sampler.SampleReachPair(rng)
                                             : uniform.SampleReachPair(rng);
    p = {uv.first, uv.second};
  }
  return pairs;
}

bool System::Reach(uint32_t u, uint32_t v, Tracer* tracer) const {
  const Impl& s = *impl_;
  if (tracer == nullptr) return s.FacadeReach(u, v);
  switch (s.workload) {
    case Workload::kSocialLive:
    case Workload::kGridHotCold:
      return s.TracedCachedReach(u, v, tracer);
    case Workload::kSocialRoutedK2:
      return s.TracedRoutedReach(u, v, tracer);
    case Workload::kCitationReplica:
      return s.TracedReplicaReach(u, v, tracer);
  }
  return false;
}

size_t System::Match(size_t pattern, bool boolean, Tracer* tracer) const {
  const Impl& s = *impl_;
  const PatternQuery& q = s.patterns[pattern];
  if (tracer == nullptr) {
    return boolean ? (s.FacadeBooleanMatch(q) ? 1 : 0)
                   : s.FacadeMatch(q).TotalPairs();
  }
  switch (s.workload) {
    case Workload::kSocialLive:
    case Workload::kGridHotCold:
      return s.TracedCachedMatch(q, boolean, tracer);
    case Workload::kSocialRoutedK2:
      return s.TracedRoutedMatch(q, boolean, tracer);
    case Workload::kCitationReplica:
      return s.TracedReplicaMatch(q, boolean, tracer);
  }
  return 0;
}

bool System::ApplyAndPublish(size_t k, Tracer* tracer, CycleStats* stats) {
  Impl& s = *impl_;
  const UpdateBatch& batch = s.batches[k];
  const auto add_publish = [stats](const qpgc::PublishStats& p) {
    stats->freeze_ms += p.freeze_secs * 1e3;
    stats->swap_us += p.swap_secs * 1e6;
    stats->summary_freeze_ms += p.summary_freeze_secs * 1e3;
    ++stats->publishes;
    stats->pattern_freezes += p.froze_pattern ? 1 : 0;
  };
  Span span(tracer, Stage::kApply);
  if (s.workload == Workload::kSocialRoutedK2) {
    const std::vector<UpdateBatch> split =
        qpgc::SplitBatchByShard(batch, s.sharded->partition());
    for (uint32_t shard = 0; shard < split.size(); ++shard) {
      if (!split[shard].empty()) s.sharded->ApplyToShard(shard, split[shard]);
    }
    stats->apply_ms = Ms(span.Next(Stage::kPublish));
    for (uint32_t shard = 0; shard < split.size(); ++shard) {
      if (!split[shard].empty()) add_publish(s.sharded->PublishShard(shard));
    }
    return true;
  }
  s.mgr->Apply(batch);
  stats->apply_ms = Ms(span.Next(Stage::kPublish));
  add_publish(s.mgr->Publish());
  span.End();
  if (s.workload != Workload::kCitationReplica) return true;
  std::shared_ptr<const MmapSnapshot> next = s.SaveAndOpen(tracer, stats);
  if (next == nullptr) return false;
  Span swap(tracer, Stage::kSwap);
  {
    qpgc::MutexLock lock(s.slot_mu);
    s.slot.swap(next);
  }
  // The previous mapping unmaps here, outside the lock, unless a reader
  // still pins it.
  next.reset();
  return true;
}

CheckResult System::Check(size_t applied, size_t reach_pairs,
                          uint64_t seed) const {
  const Impl& s = *impl_;
  Graph mirror = s.base;
  for (size_t k = 0; k < applied; ++k) qpgc::ApplyBatch(mirror, s.batches[k]);
  CheckResult result;
  qpgc::Rng rng(SubSeed(seed, 7));
  for (size_t i = 0; i < reach_pairs; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(mirror.num_nodes()));
    const NodeId v = static_cast<NodeId>(rng.Uniform(mirror.num_nodes()));
    const bool expected = qpgc::EvalReach(mirror, u, v, qpgc::PathMode::kReflexive,
                                          qpgc::ReachAlgorithm::kBfs);
    ++result.attempted;
    if (s.FacadeReach(u, v) != expected) ++result.failed;
  }
  for (const PatternQuery& q : s.patterns) {
    const qpgc::MatchResult expected = qpgc::Match(mirror, q);
    result.attempted += 2;
    if (!(s.FacadeMatch(q) == expected)) ++result.failed;
    if (s.FacadeBooleanMatch(q) != expected.matched) ++result.failed;
  }
  return result;
}

std::vector<ReplayBatch> System::Replay(size_t first, size_t last,
                                       NamedValues* layer) {
  const Impl& s = *impl_;
  Graph g = s.base;
  for (size_t k = 0; k < first; ++k) qpgc::ApplyBatch(g, s.batches[k]);
  // One replay unit per writer-side manager: the whole graph, or each
  // materialized shard with its slice of every batch.
  std::vector<Graph> graphs;
  std::vector<std::vector<UpdateBatch>> unit_batches;
  if (s.workload == Workload::kSocialRoutedK2) {
    const qpgc::ShardPartition& part = s.sharded->partition();
    for (uint32_t shard = 0; shard < part.num_shards; ++shard) {
      graphs.push_back(qpgc::MaterializeShard(g, part, shard));
    }
    unit_batches.resize(part.num_shards);
    for (size_t k = first; k < last; ++k) {
      std::vector<UpdateBatch> split =
          qpgc::SplitBatchByShard(s.batches[k], part);
      for (uint32_t shard = 0; shard < part.num_shards; ++shard) {
        unit_batches[shard].push_back(std::move(split[shard]));
      }
    }
  } else {
    graphs.push_back(std::move(g));
    unit_batches.emplace_back(
        s.batches.begin() + static_cast<ptrdiff_t>(first),
        s.batches.begin() + static_cast<ptrdiff_t>(last));
  }

  std::vector<qpgc::ReachCompression> rcs;
  std::vector<qpgc::PatternCompression> pcs;
  double compress_r_ms = 0.0, compress_b_ms = 0.0;
  double reach_size = 0.0, pattern_size = 0.0, graph_size = 0.0;
  for (const Graph& g : graphs) {
    qpgc::Timer r;
    rcs.push_back(qpgc::CompressR(g));
    compress_r_ms += r.ElapsedMillis();
    qpgc::Timer b;
    pcs.push_back(qpgc::CompressB(g));
    compress_b_ms += b.ElapsedMillis();
    reach_size += static_cast<double>(rcs.back().size());
    pattern_size += static_cast<double>(pcs.back().size());
    graph_size += static_cast<double>(g.size());
  }
  layer->emplace_back("reach.compress_ms", compress_r_ms);
  layer->emplace_back("bisim.compress_ms", compress_b_ms);
  layer->emplace_back("reach.gr_size", reach_size);
  layer->emplace_back("reach.ratio", reach_size / graph_size);
  layer->emplace_back("pattern.gr_size", pattern_size);
  layer->emplace_back("pattern.ratio", pattern_size / graph_size);

  qpgc::FrozenReachSide reach_side;
  qpgc::FrozenPatternSide pattern_side;
  std::vector<ReplayBatch> out(last - first);
  for (size_t k = 0; k < out.size(); ++k) {
    ReplayBatch& r = out[k];
    size_t effective_total = 0, kept = 0;
    double cone_r = 0.0, cone_p = 0.0, size_total = 0.0;
    const bool recompress = k % kRecompressEvery == 0;
    if (recompress) r.compress_r_ms = r.compress_b_ms = 0.0;
    for (size_t unit = 0; unit < graphs.size(); ++unit) {
      const UpdateBatch& batch = unit_batches[unit][k];
      if (batch.empty()) continue;
      Graph& g = graphs[unit];
      qpgc::Timer t;
      const UpdateBatch effective = qpgc::ApplyBatch(g, batch);
      r.apply_batch_us += t.ElapsedMicros();
      size_total += static_cast<double>(g.size());
      if (effective.empty()) continue;
      effective_total += effective.size();
      t.Restart();
      const qpgc::IncRcmStats rcm = qpgc::IncRCM(g, effective, rcs[unit]);
      r.rcm_ms += t.ElapsedMillis();
      t.Restart();
      const qpgc::IncPcmStats pcm = qpgc::IncPCM(g, effective, pcs[unit]);
      r.pcm_ms += t.ElapsedMillis();
      // Refreeze exactly the sides a per-batch Publish() would.
      t.Restart();
      if (rcm.kept_updates > 0) reach_side.Fill(rcs[unit]);
      if (pcm.kept_updates > 0) pattern_side.Fill(pcs[unit]);
      r.freeze_ms += t.ElapsedMillis();
      kept += rcm.kept_updates;
      cone_r += static_cast<double>(rcm.DirtyConeSize());
      cone_p += static_cast<double>(pcm.DirtyConeSize());
      if (recompress) {
        t.Restart();
        (void)qpgc::CompressR(g);
        r.compress_r_ms += t.ElapsedMillis();
        t.Restart();
        (void)qpgc::CompressB(g);
        r.compress_b_ms += t.ElapsedMillis();
      }
    }
    if (effective_total > 0) {
      r.kept_frac = static_cast<double>(kept) / effective_total;
    }
    if (size_total > 0) {
      r.rcm_cone_frac = cone_r / size_total;
      r.pcm_cone_frac = cone_p / size_total;
    }
  }
  return out;
}

NamedValues System::LayerCounters() {
  Impl& s = *impl_;
  // Every counter is reported; a layer the workload does not use reads 0.
  const qpgc::CacheStats c =
      s.trace_cache != nullptr ? s.trace_cache->Stats() : qpgc::CacheStats{};
  qpgc::StitchCache::Stats stitch;
  size_t exits = 0, entries = 0, cross = 0;
  if (s.routed != nullptr) {
    stitch = s.routed->stitch_stats();
    for (uint32_t shard = 0; shard < s.sharded->num_shards(); ++shard) {
      exits += s.sharded->BoundaryExitCount(shard);
      entries += s.sharded->BoundaryEntryCount(shard);
    }
    const qpgc::ShardPartition& part = s.sharded->partition();
    for (NodeId u = 0; u < s.base.num_nodes(); ++u) {
      for (const NodeId v : s.base.OutNeighbors(u)) {
        cross += part.shard_of[u] != part.shard_of[v] ? 1 : 0;
      }
    }
  }
  size_t artifact_bytes = 0;
  std::vector<double> loads;
  if (s.workload == Workload::kCitationReplica) {
    artifact_bytes = s.PinReplica()->MappedBytes();
    // The verified full load, kept as the baseline for a single loader.
    const std::string path = s.NextArtifactPath();
    const auto current = s.mgr->Acquire();
    if (qpgc::storage::SaveSnapshot(*current, path).ok()) {
      for (int i = 0; i < 3; ++i) {
        qpgc::Timer t;
        const bool ok = qpgc::storage::LoadServingSnapshot(path).ok();
        if (ok) loads.push_back(t.ElapsedMillis());
      }
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  }
  const auto d = [](size_t v) { return static_cast<double>(v); };
  return {
      {"serve.cache.hit_rate", c.ReachHitRate()},
      {"serve.cache.exact_hits", d(c.reach_exact_hits)},
      {"serve.cache.subsumption_hits", d(c.reach_subsumption_hits)},
      {"serve.cache.misses", d(c.reach_misses)},
      {"serve.cache.evictions", d(c.reach_evictions)},
      {"serve.cache.match_negative_hits", d(c.match_negative_hits)},
      {"serve.router.stitch_builds", d(stitch.builds)},
      {"serve.router.stitch_reuse_ratio", stitch.reuse_ratio()},
      {"serve.router.boundary_exits", d(exits)},
      {"serve.router.boundary_entries", d(entries)},
      {"serve.router.cross_edge_frac",
       s.routed != nullptr ? d(cross) / d(s.base.num_edges()) : 0.0},
      {"storage.artifact_bytes", d(artifact_bytes)},
      {"storage.load_verified_ms", Median(loads)},
  };
}

}  // namespace e2e
