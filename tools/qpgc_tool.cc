// Copyright 2026 The QPGC Authors.
//
// qpgc_tool — command-line front end for the library. Compress SNAP-style
// edge lists offline into snapshot artifacts (storage/format.h), inspect
// them, and serve reachability queries from them without ever loading the
// original graph.
//
//   qpgc_tool stats     <edges> [labels]          graph statistics
//   qpgc_tool save      <edges> [labels] <out>    compress + write a snapshot
//                       artifact. Flags: --varint (varint adjacency for cold
//                       shards), --index=auto|raw64 (CSR index encoding),
//                       --shards=K and --partitioner= (below).
//   qpgc_tool load      <snapshot>                open a snapshot artifact
//                       and print its layout; times the mmap open against
//                       the verified heap load (--mmap serves a probe query
//                       off the mapping).
//   qpgc_tool query     <snapshot>... <u> <v>     QR(u, v) from one artifact
//                       (verified mmap open) or from every file of a shard
//                       set (LoadShardSet + the router).
//   qpgc_tool dataset   <name> <edges-out>        emit a catalog stand-in
//   qpgc_tool serve-sim <edges> [labels]          serving simulation: reader
//                       threads query versioned snapshots while a writer
//                       applies random updates through the incremental layer
//                       and publishes per policy (serve/snapshot_manager.h).
//                       Flags: --readers=N --duration=SECS --batch-size=N
//                       --publish-every=N | --staleness-ms=MS
//                       --zipf-s=S --hot-set=N --cache[=off|exact|full]
//                       --mmap (post-stream A/B: save the final snapshot,
//                       reopen it memory-mapped, and drive the same timed
//                       read window off the mapping vs the in-RAM service)
//
// `serve-sim --zipf-s=S` switches the readers from uniform endpoints to a
// Zipf(S) hot set of --hot-set pairs (serve/load_gen.h), the repetition
// answer caching feeds on. `--cache` runs a post-stream A/B on the final
// version — the same timed read-only window uncached and through the
// serve/answer_cache.h facade — and prints both qps figures plus the hit
// rate (exact=full tiering per docs/CACHING.md; exact disables subsumption
// and the negative match cache).
//
// `save` and `serve-sim` accept --shards=K (default 1) and
// --partitioner=hash|contiguous|structure (default hash; docs/SHARDING.md
// discusses the trade-offs): `save` compresses each shard through a
// ShardedSnapshotManager and writes one self-describing artifact per shard
// (<out>.shard<i>, each carrying the partition); `serve-sim` serves
// through a ShardedSnapshotManager behind the routing ShardedQueryService
// (serve/sharded_manager.h, serve/router.h), with the writer stream routed
// per shard.
//
// `stats` reports the frozen CSR snapshot's memory next to the dynamic
// representation's.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/dataset_catalog.h"
#include "gen/update_gen.h"
#include "graph/csr.h"
#include "graph/io.h"
#include "graph/stats.h"
#include "graph/shard_view.h"
#include "serve/answer_cache.h"
#include "serve/load_gen.h"
#include "serve/query_service.h"
#include "serve/router.h"
#include "serve/sharded_manager.h"
#include "serve/snapshot_manager.h"
#include "storage/format.h"
#include "storage/mmap_snapshot.h"
#include "storage/snapshot_io.h"
#include "util/memory.h"
#include "util/timer.h"

namespace {

using namespace qpgc;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  qpgc_tool stats     <edges> [labels]\n"
               "  qpgc_tool save      [--varint] [--index=auto|raw64] "
               "[--shards=K]\n"
               "                      [--partitioner=hash|contiguous|"
               "structure]\n"
               "                      <edges> [labels] <snapshot-out>\n"
               "  qpgc_tool load      [--mmap] <snapshot>\n"
               "  qpgc_tool query     <snapshot>... <u> <v>\n"
               "  qpgc_tool dataset   <name> <edges-out>\n"
               "  qpgc_tool serve-sim <edges> [labels] [--shards=K] "
               "[--partitioner=...]\n"
               "                      [--readers=N] [--duration=SECS]\n"
               "                      [--batch-size=N] [--publish-every=N | "
               "--staleness-ms=MS]\n"
               "                      [--zipf-s=S] [--hot-set=N] "
               "[--cache[=off|exact|full]] [--mmap]\n");
  return 2;
}

Result<Graph> LoadGraphArg(const char* edges, const char* labels) {
  auto loaded = LoadEdgeList(edges);
  if (!loaded.ok()) return loaded;
  if (labels != nullptr) {
    Graph g = std::move(loaded).value();
    const Status s = LoadLabels(g, labels);
    if (!s.ok()) return s;
    return g;
  }
  return loaded;
}

int CmdStats(const char* edges, const char* labels) {
  auto loaded = LoadGraphArg(edges, labels);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const Graph& g = loaded.value();
  const CsrGraph frozen(g);
  std::printf("%s\n%s\nmemory: %s dynamic, %s frozen CSR (%.0f%%)\n",
              g.DebugString().c_str(), FormatStats(ComputeStats(g)).c_str(),
              FormatBytes(g.MemoryBytes()).c_str(),
              FormatBytes(frozen.MemoryBytes()).c_str(),
              g.MemoryBytes() == 0
                  ? 100.0
                  : 100.0 * static_cast<double>(frozen.MemoryBytes()) /
                        static_cast<double>(g.MemoryBytes()));
  return 0;
}

bool ParseSizeFlag(const char* arg, const char* name, size_t* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  *out = static_cast<size_t>(std::strtoul(arg + len, nullptr, 10));
  return true;
}

bool ParseDoubleFlag(const char* arg, const char* name, double* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  *out = std::strtod(arg + len, nullptr);
  return true;
}

// True when `arg` is --partitioner=<name>; *known says whether the name
// parsed into *kind.
bool ParsePartitionerFlag(const char* arg, PartitionerKind* kind,
                          bool* known) {
  constexpr const char kFlag[] = "--partitioner=";
  if (std::strncmp(arg, kFlag, sizeof(kFlag) - 1) != 0) return false;
  *known = ParsePartitionerKind(arg + sizeof(kFlag) - 1, kind);
  if (!*known) std::fprintf(stderr, "unknown partitioner '%s'\n", arg);
  return true;
}

// --- save / load / query ---------------------------------------------------

// Writes snaps[s] to `out` (one snapshot) or `out`.shard<s>, and reopens
// each through the trusted fast path: that reports the exact artifact
// length and proves the file round-trips before we claim success.
int SaveArtifacts(
    const std::vector<std::shared_ptr<const ServingSnapshot>>& snaps,
    const std::string& out, storage::SaveOptions options, double compress_ms) {
  std::printf("compressed in %.1fms (index=%s%s)\n", compress_ms,
              options.index_encoding == storage::IndexEncoding::kRaw64
                  ? "raw64"
                  : "auto",
              options.varint_adjacency ? ", varint adjacency" : "");
  for (uint32_t s = 0; s < snaps.size(); ++s) {
    const std::string path =
        snaps.size() == 1 ? out : out + ".shard" + std::to_string(s);
    options.shard = s;
    Timer save_timer;
    const Status saved = storage::SaveSnapshot(*snaps[s], path, options);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    const double save_ms = save_timer.ElapsedMillis();
    auto reopened = storage::MmapSnapshot::Open(path);
    if (!reopened.ok()) {
      std::fprintf(stderr, "save: artifact fails to reopen: %s\n",
                   reopened.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "artifact written to %s: |Gr(reach)| = %zu, |Gr(pattern)| = %zu, "
        "%s on disk (%s in RAM), saved in %.1fms\n",
        path.c_str(), snaps[s]->reach_gr().size(),
        snaps[s]->pattern_gr().size(),
        FormatBytes(reopened.value().MappedBytes()).c_str(),
        FormatBytes(snaps[s]->MemoryBytes()).c_str(), save_ms);
  }
  return 0;
}

int CmdSave(const std::vector<const char*>& args) {
  storage::SaveOptions options;
  size_t shards = 1;
  PartitionerKind partitioner = PartitionerKind::kHash;
  std::vector<const char*> pos;
  for (const char* arg : args) {
    if (arg[0] != '-') {
      pos.push_back(arg);
      continue;
    }
    bool known_partitioner = true;
    if (std::strcmp(arg, "--varint") == 0) {
      options.varint_adjacency = true;
    } else if (std::strcmp(arg, "--index=auto") == 0) {
      options.index_encoding = storage::IndexEncoding::kAuto;
    } else if (std::strcmp(arg, "--index=raw64") == 0) {
      options.index_encoding = storage::IndexEncoding::kRaw64;
    } else if (!ParseSizeFlag(arg, "--shards=", &shards) &&
               !ParsePartitionerFlag(arg, &partitioner, &known_partitioner)) {
      std::fprintf(stderr, "save: unknown flag '%s'\n", arg);
      return Usage();
    }
    if (!known_partitioner) return Usage();
  }
  if ((pos.size() != 2 && pos.size() != 3) || shards == 0) return Usage();
  auto loaded = LoadGraphArg(pos[0], pos.size() == 3 ? pos[1] : nullptr);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  Graph g = std::move(loaded).value();
  Timer compress_timer;
  if (shards == 1) {
    SnapshotManager manager(std::move(g));
    return SaveArtifacts({manager.Acquire()}, pos.back(), options,
                         compress_timer.ElapsedMillis());
  }
  if (!LabelsShardable(g)) {
    std::fprintf(stderr,
                 "save: labels exceed the shardable range (every label must "
                 "be below %u)\n",
                 kGhostLabelBase);
    return 1;
  }
  ShardedManagerOptions sharded_options;
  sharded_options.num_shards = static_cast<uint32_t>(shards);
  sharded_options.partitioner = partitioner;
  const ShardedSnapshotManager manager(g, sharded_options);
  std::printf("partitioner: %s, K = %zu\n", PartitionerKindName(partitioner),
              shards);
  options.num_shards = static_cast<uint32_t>(shards);
  options.partition = &manager.partition();
  return SaveArtifacts(manager.AcquireAll(), pos.back(), options,
                       compress_timer.ElapsedMillis());
}

bool InRange(unsigned long long u, unsigned long long v, size_t n) {
  if (u < n && v < n) return true;
  std::fprintf(stderr, "node out of range (|V| = %zu)\n", n);
  return false;
}

// QR(u, v) from one artifact, through a verified mmap open, or from a whole
// shard set, through LoadShardSet and the router. Both range-check u and v
// first: the query paths QPGC_CHECK them.
int CmdQuery(const std::vector<const char*>& args) {
  char* u_end = nullptr;
  char* v_end = nullptr;
  const unsigned long long u = std::strtoull(args[args.size() - 2], &u_end, 10);
  const unsigned long long v = std::strtoull(args[args.size() - 1], &v_end, 10);
  if (*u_end != '\0' || *v_end != '\0') return Usage();
  const std::vector<std::string> paths(args.begin(), args.end() - 2);
  bool answer = false;
  if (paths.size() == 1) {
    auto mapped = storage::MmapSnapshot::Open(
        paths[0], storage::LoadOptions{/*verify=*/true});
    if (!mapped.ok()) {
      std::fprintf(stderr, "%s\n", mapped.status().ToString().c_str());
      return 1;
    }
    const storage::MmapSnapshot& snap = mapped.value();
    if (snap.num_shards() != 1) {
      std::fprintf(stderr, "%s is shard %u of %u: pass every shard file\n",
                   paths[0].c_str(), snap.shard(), snap.num_shards());
      return 1;
    }
    if (!InRange(u, v, snap.original_num_nodes())) return 1;
    answer = snap.Reach(static_cast<NodeId>(u), static_cast<NodeId>(v));
  } else {
    auto set = storage::LoadShardSet(paths);
    if (!set.ok()) {
      std::fprintf(stderr, "%s\n", set.status().ToString().c_str());
      return 1;
    }
    const PinnedShards pins(set.value().partition, set.value().snapshots);
    if (!InRange(u, v, set.value().partition->num_nodes())) return 1;
    answer = pins.Reach(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  std::printf("QR(%llu, %llu) = %s\n", u, v, answer ? "true" : "false");
  return 0;
}

const char* SectionKindName(uint32_t kind) {
  switch (static_cast<storage::SectionKind>(kind)) {
    case storage::SectionKind::kReachOutOffsets: return "reach.out.offsets";
    case storage::SectionKind::kReachOutTargets: return "reach.out.targets";
    case storage::SectionKind::kReachInOffsets: return "reach.in.offsets";
    case storage::SectionKind::kReachInTargets: return "reach.in.targets";
    case storage::SectionKind::kReachLabels: return "reach.labels";
    case storage::SectionKind::kReachNodeMap: return "reach.node_map";
    case storage::SectionKind::kPatternOutOffsets: return "pattern.out.offsets";
    case storage::SectionKind::kPatternOutTargets: return "pattern.out.targets";
    case storage::SectionKind::kPatternInOffsets: return "pattern.in.offsets";
    case storage::SectionKind::kPatternInTargets: return "pattern.in.targets";
    case storage::SectionKind::kPatternLabels: return "pattern.labels";
    case storage::SectionKind::kPatternNodeMap: return "pattern.node_map";
    case storage::SectionKind::kMemberOffsets: return "member.offsets";
    case storage::SectionKind::kMemberFlat: return "member.flat";
    case storage::SectionKind::kCrossEdges: return "cross_edges";
    case storage::SectionKind::kBoundaryExits: return "boundary.exits";
    case storage::SectionKind::kBoundaryEntries: return "boundary.entries";
    case storage::SectionKind::kPartitionShardOf: return "partition.shard_of";
  }
  return "unknown";
}

const char* SectionEncodingName(uint32_t encoding) {
  switch (static_cast<storage::SectionEncoding>(encoding)) {
    case storage::SectionEncoding::kRaw64: return "raw64";
    case storage::SectionEncoding::kRaw32: return "raw32";
    case storage::SectionEncoding::kDelta16: return "delta16";
    case storage::SectionEncoding::kVarint: return "varint";
    case storage::SectionEncoding::kConstU32: return "const";
  }
  return "unknown";
}

int CmdLoad(const std::vector<const char*>& args) {
  bool mmap_probe = false;
  const char* path = nullptr;
  for (const char* arg : args) {
    if (std::strcmp(arg, "--mmap") == 0) {
      mmap_probe = true;
      continue;
    }
    if (arg[0] == '-' || path != nullptr) {
      std::fprintf(stderr, "load: unknown argument '%s'\n", arg);
      return Usage();
    }
    path = arg;
  }
  if (path == nullptr) return Usage();

  Timer mmap_timer;
  auto mapped = storage::MmapSnapshot::Open(path);
  if (!mapped.ok()) {
    std::fprintf(stderr, "%s\n", mapped.status().ToString().c_str());
    return 1;
  }
  const double mmap_ms = mmap_timer.ElapsedMillis();
  const storage::MmapSnapshot snap = std::move(mapped).value();

  std::printf(
      "snapshot artifact %s: format v%u, snapshot version %llu\n"
      "original |V| = %zu, shard %u of %u, |Gr(reach)| = %zu, "
      "|Gr(pattern)| = %zu\n",
      path, storage::kFormatVersion,
      static_cast<unsigned long long>(snap.version()),
      snap.original_num_nodes(), snap.shard(), snap.num_shards(),
      snap.reach_gr().size(), snap.pattern_gr().size());

  // Section table: layout, per-section encoding, and stored footprint.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    auto parsed = storage::ParseArtifact(
        {reinterpret_cast<const std::byte*>(raw.data()), raw.size()},
        /*verify_payload_checksums=*/false);
    if (parsed.ok()) {
      std::printf("%-20s %-8s %10s %12s %10s\n", "section", "encoding",
                  "elements", "stored", "offset");
      for (const storage::SectionEntry& entry : parsed.value().table) {
        std::printf("%-20s %-8s %10llu %12s %10llu\n",
                    SectionKindName(entry.kind),
                    SectionEncodingName(entry.encoding),
                    static_cast<unsigned long long>(entry.element_count),
                    FormatBytes(entry.stored_bytes).c_str(),
                    static_cast<unsigned long long>(entry.offset));
      }
    }
  }

  Timer full_timer;
  auto full = storage::LoadServingSnapshot(path);
  if (!full.ok()) {
    std::fprintf(stderr, "%s\n", full.status().ToString().c_str());
    return 1;
  }
  const double full_ms = full_timer.ElapsedMillis();
  std::printf(
      "mmap open: %.2fms (%s mapped, %s decoded to heap)\n"
      "heap load (verified): %.2fms (%s in RAM) — mmap is %.1fx "
      "faster to first byte\n",
      mmap_ms, FormatBytes(snap.MappedBytes()).c_str(),
      FormatBytes(snap.DecodedHeapBytes()).c_str(), full_ms,
      FormatBytes(full.value().snapshot->MemoryBytes()).c_str(),
      mmap_ms > 0 ? full_ms / mmap_ms : 0.0);

  if (mmap_probe && snap.original_num_nodes() > 0) {
    const NodeId u = 0;
    const NodeId v = static_cast<NodeId>(snap.original_num_nodes() - 1);
    Timer probe_timer;
    const bool answer = snap.Reach(u, v);
    std::printf("probe off the mapping: QR(%u, %u) = %s (%.0fus cold)\n", u, v,
                answer ? "true" : "false", probe_timer.ElapsedMillis() * 1e3);
  }
  return 0;
}

// --- serve-sim -------------------------------------------------------------

enum class CacheMode { kOff, kExact, kFull };

struct ServeSimOptions {
  const char* edges = nullptr;
  const char* labels = nullptr;
  size_t readers = 2;
  size_t shards = 1;
  double duration_secs = 2.0;
  size_t batch_size = 16;
  // Policy: every-N unless a staleness bound is given.
  size_t publish_every = 64;
  double staleness_ms = -1.0;
  // Workload: uniform endpoints unless --zipf-s is given.
  double zipf_s = -1.0;
  size_t hot_set = 1024;
  CacheMode cache = CacheMode::kOff;
  bool mmap_ab = false;
  PartitionerKind partitioner = PartitionerKind::kHash;
};

// Adapts an opened MmapSnapshot to the Pin() service concept RunTimedLoad
// drives (serve/load_gen.h): pinning is a no-op — the artifact is one
// immutable version.
struct MmapService {
  std::shared_ptr<const storage::MmapSnapshot> snap;
  std::shared_ptr<const storage::MmapSnapshot> Pin() const { return snap; }
};

// The --cache A/B: one timed read-only reach window against the plain
// service, the same window (same workload, same seeds) through the caching
// facade, and the facade's counters. Runs after the update stream so both
// sides see the identical final version.
template <typename Service, typename CachedService>
void RunCacheComparison(const Service& uncached, const CachedService& cached,
                        const ReaderWorkload& workload, double window_secs,
                        size_t readers) {
  const double uncached_qps =
      RunTimedLoad(uncached, /*patterns=*/{}, workload, window_secs,
                   static_cast<int>(readers))
          .reach_qps();
  const double cached_qps =
      RunTimedLoad(cached, /*patterns=*/{}, workload, window_secs,
                   static_cast<int>(readers))
          .reach_qps();
  const CacheStats stats = cached.cache_stats();
  std::printf(
      "cache A/B: %.0f reach/s uncached, %.0f reach/s cached (%.2fx) over "
      "%.2fs windows\n"
      "           hit rate %.3f (%llu exact, %llu subsumption, %llu misses, "
      "%llu evictions)\n",
      uncached_qps, cached_qps,
      uncached_qps > 0 ? cached_qps / uncached_qps : 0.0, window_secs,
      stats.ReachHitRate(),
      static_cast<unsigned long long>(stats.reach_exact_hits),
      static_cast<unsigned long long>(stats.reach_subsumption_hits),
      static_cast<unsigned long long>(stats.reach_misses),
      static_cast<unsigned long long>(stats.reach_evictions));
}

int CmdServeSim(const std::vector<const char*>& args) {
  ServeSimOptions opts;
  for (const char* arg : args) {
    if (arg[0] == '-') {
      if (ParseSizeFlag(arg, "--readers=", &opts.readers) ||
          ParseSizeFlag(arg, "--shards=", &opts.shards) ||
          ParseSizeFlag(arg, "--batch-size=", &opts.batch_size) ||
          ParseSizeFlag(arg, "--publish-every=", &opts.publish_every) ||
          ParseSizeFlag(arg, "--hot-set=", &opts.hot_set) ||
          ParseDoubleFlag(arg, "--duration=", &opts.duration_secs) ||
          ParseDoubleFlag(arg, "--staleness-ms=", &opts.staleness_ms) ||
          ParseDoubleFlag(arg, "--zipf-s=", &opts.zipf_s)) {
        continue;
      }
      if (std::strcmp(arg, "--cache") == 0 ||
          std::strcmp(arg, "--cache=full") == 0) {
        opts.cache = CacheMode::kFull;
        continue;
      }
      if (std::strcmp(arg, "--cache=exact") == 0) {
        opts.cache = CacheMode::kExact;
        continue;
      }
      if (std::strcmp(arg, "--cache=off") == 0) {
        opts.cache = CacheMode::kOff;
        continue;
      }
      if (std::strcmp(arg, "--mmap") == 0) {
        opts.mmap_ab = true;
        continue;
      }
      bool known_partitioner = true;
      if (ParsePartitionerFlag(arg, &opts.partitioner, &known_partitioner)) {
        if (!known_partitioner) return Usage();
        continue;
      }
      std::fprintf(stderr, "serve-sim: unknown flag '%s'\n", arg);
      return Usage();
    }
    if (opts.edges == nullptr) {
      opts.edges = arg;
    } else if (opts.labels == nullptr) {
      opts.labels = arg;
    } else {
      return Usage();
    }
  }
  if (opts.edges == nullptr || opts.readers == 0 || opts.shards == 0 ||
      opts.batch_size == 0 || opts.publish_every == 0 || opts.hot_set == 0) {
    return Usage();
  }

  auto loaded = LoadGraphArg(opts.edges, opts.labels);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  Graph g = std::move(loaded).value();
  if (g.num_nodes() == 0) {
    std::fprintf(stderr, "serve-sim: empty graph\n");
    return 1;
  }

  SnapshotManagerOptions manager_options;
  if (opts.staleness_ms >= 0) {
    manager_options.policy =
        PublishPolicy::StalenessBounded(opts.staleness_ms / 1e3);
    std::printf("policy: staleness-bounded (%.1fms)\n", opts.staleness_ms);
  } else {
    manager_options.policy = PublishPolicy::EveryNUpdates(opts.publish_every);
    std::printf("policy: every %zu effective updates\n", opts.publish_every);
  }

  ReaderWorkload workload;
  if (opts.zipf_s > 0) {
    workload = ReaderWorkload::ZipfHotSet(opts.zipf_s, opts.hot_set);
    std::printf("workload: Zipf(s = %.2f) hot set of %zu pairs\n", opts.zipf_s,
                opts.hot_set);
  } else {
    std::printf("workload: uniform endpoints\n");
  }
  const AnswerCacheOptions cache_options = opts.cache == CacheMode::kExact
                                               ? AnswerCacheOptions::ExactOnly()
                                               : AnswerCacheOptions{};

  // Boolean-match load only runs on labeled graphs (ServeLoadPatterns
  // returns an empty set otherwise); reach load always runs.
  const std::vector<PatternQuery> patterns = ServeLoadPatterns(g, 4, 19);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reach_queries{0};
  std::atomic<uint64_t> match_queries{0};
  std::vector<std::thread> readers;
  readers.reserve(opts.readers);

  if (opts.shards > 1) {
    // Sharded serving: K per-shard managers behind the routing service;
    // the writer stream is routed per shard by the manager facade, with a
    // mirror graph as the update-sampling source of truth.
    if (!LabelsShardable(g)) {
      std::fprintf(stderr,
                   "serve-sim: labels exceed the shardable range (every "
                   "label must be below %u)\n",
                   kGhostLabelBase);
      return 1;
    }
    ShardedManagerOptions sharded_options;
    sharded_options.num_shards = static_cast<uint32_t>(opts.shards);
    sharded_options.partitioner = opts.partitioner;
    sharded_options.shard_options = manager_options;
    Graph mirror = g;
    std::printf("%s; building %zu shard snapshots (%s partition)...\n",
                g.DebugString().c_str(), opts.shards,
                PartitionerKindName(opts.partitioner));
    Timer build_timer;
    ShardedSnapshotManager manager(g, sharded_options);
    const ShardedQueryService service(manager);
    size_t snapshot_bytes = 0;
    for (const auto& snap : manager.AcquireAll()) {
      snapshot_bytes += snap->MemoryBytes();
    }
    std::printf("version 1 live on every shard after %.1fms (snapshots %s)\n",
                build_timer.ElapsedMillis(),
                FormatBytes(snapshot_bytes).c_str());

    for (size_t r = 0; r < opts.readers; ++r) {
      readers.emplace_back([&, r] {
        const ReaderLoadCounters counters =
            RunReaderLoad(service, patterns, 100 + r, done, workload);
        reach_queries.fetch_add(counters.reach_queries,
                                std::memory_order_relaxed);
        match_queries.fetch_add(counters.match_queries,
                                std::memory_order_relaxed);
      });
    }

    size_t updates = 0, batches = 0, publishes = 0;
    Timer window;
    while (window.ElapsedSeconds() < opts.duration_secs) {
      const UpdateBatch batch =
          RandomMixed(mirror, opts.batch_size, 0.55, 7000 + batches);
      ApplyBatch(mirror, batch);
      const ShardedApplyStats stats = manager.Apply(batch);
      ++batches;
      updates += stats.effective_updates;
      publishes += stats.publishes;
    }
    const double elapsed = window.ElapsedSeconds();
    done.store(true, std::memory_order_relaxed);
    for (auto& t : readers) t.join();

    std::printf(
        "\n--- %.2fs sharded simulation (K = %zu) ---\n"
        "updates:   %zu effective in %zu batches (%.0f updates/s)\n"
        "publishes: %zu during stream\n"
        "queries:   %llu routed reach (%.0f/s), %llu boolean-match (%.0f/s) "
        "across %zu readers\n",
        elapsed, opts.shards, updates, batches,
        static_cast<double>(updates) / elapsed, publishes,
        static_cast<unsigned long long>(reach_queries.load()),
        static_cast<double>(reach_queries.load()) / elapsed,
        static_cast<unsigned long long>(match_queries.load()),
        static_cast<double>(match_queries.load()) / elapsed, opts.readers);
    for (uint32_t s = 0; s < manager.num_shards(); ++s) {
      const auto snap = manager.shard(s).Acquire();
      std::printf(
          "shard %-3u version %llu, boundary exits %zu, |Gr(reach)| = %zu, "
          "|Gr(pattern)| = %zu\n",
          s, static_cast<unsigned long long>(snap->version()),
          snap->boundary_exits().size(), snap->reach_gr().size(),
          snap->pattern_gr().size());
    }
    if (opts.cache != CacheMode::kOff) {
      const CachedShardedQueryService cached(manager, cache_options);
      RunCacheComparison(service, cached, workload,
                         std::min(opts.duration_secs, 1.0), opts.readers);
    }
    if (opts.mmap_ab) {
      std::fprintf(stderr,
                   "serve-sim: --mmap A/B runs unsharded only (use "
                   "bench_storage for per-shard artifacts)\n");
    }
    return 0;
  }

  std::printf("%s; building initial snapshot...\n", g.DebugString().c_str());
  Timer build_timer;
  SnapshotManager manager(std::move(g), manager_options);
  const QueryService service(manager);
  std::printf("version 1 live after %.1fms (snapshot %s)\n",
              build_timer.ElapsedMillis(),
              FormatBytes(manager.Acquire()->MemoryBytes()).c_str());

  for (size_t r = 0; r < opts.readers; ++r) {
    readers.emplace_back([&, r] {
      const ReaderLoadCounters counters =
          RunReaderLoad(service, patterns, 100 + r, done, workload);
      reach_queries.fetch_add(counters.reach_queries,
                              std::memory_order_relaxed);
      match_queries.fetch_add(counters.match_queries,
                              std::memory_order_relaxed);
    });
  }

  // Writer: this thread. Apply random mixed batches until the clock runs
  // out; the policy decides when versions go live.
  size_t updates = 0, batches = 0, publishes = 0;
  double max_staleness = 0.0;
  Timer window;
  while (window.ElapsedSeconds() < opts.duration_secs) {
    const UpdateBatch batch =
        RandomMixed(manager.graph(), opts.batch_size, 0.55, 7000 + batches);
    const ApplyStats stats = manager.Apply(batch);
    ++batches;
    updates += stats.effective_updates;
    if (stats.published) ++publishes;
    if (manager.staleness_secs() > max_staleness) {
      max_staleness = manager.staleness_secs();
    }
  }
  const double elapsed = window.ElapsedSeconds();
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  const auto final_snap = manager.Acquire();
  std::printf(
      "\n--- %.2fs simulation ---\n"
      "updates:   %zu effective in %zu batches (%.0f updates/s)\n"
      "publishes: %zu during stream, final version %llu, max staleness "
      "%.1fms\n"
      "queries:   %llu reach (%.0f/s), %llu boolean-match (%.0f/s) across "
      "%zu readers\n"
      "snapshot:  %s, |Gr(reach)| = %zu, |Gr(pattern)| = %zu\n",
      elapsed, updates, batches, static_cast<double>(updates) / elapsed,
      publishes, static_cast<unsigned long long>(final_snap->version()),
      max_staleness * 1e3,
      static_cast<unsigned long long>(reach_queries.load()),
      static_cast<double>(reach_queries.load()) / elapsed,
      static_cast<unsigned long long>(match_queries.load()),
      static_cast<double>(match_queries.load()) / elapsed, opts.readers,
      FormatBytes(final_snap->MemoryBytes()).c_str(),
      final_snap->reach_gr().size(), final_snap->pattern_gr().size());
  if (opts.cache != CacheMode::kOff) {
    const CachedQueryService cached(manager, cache_options);
    RunCacheComparison(service, cached, workload,
                       std::min(opts.duration_secs, 1.0), opts.readers);
  }
  if (opts.mmap_ab) {
    // Post-stream out-of-core A/B: persist the final version, reopen it
    // memory-mapped, and drive the identical timed read window off the
    // mapping vs the in-RAM service.
    const std::string snap_path =
        (std::filesystem::temp_directory_path() / "qpgc_serve_sim.snap")
            .string();
    const Status saved = storage::SaveSnapshot(*final_snap, snap_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    Timer open_timer;
    auto mapped = storage::MmapSnapshot::Open(snap_path);
    if (!mapped.ok()) {
      std::fprintf(stderr, "%s\n", mapped.status().ToString().c_str());
      return 1;
    }
    const double open_ms = open_timer.ElapsedMillis();
    const MmapService mmap_service{std::make_shared<const storage::MmapSnapshot>(
        std::move(mapped).value())};
    const double window = std::min(opts.duration_secs, 1.0);
    const double ram_qps =
        RunTimedLoad(service, /*patterns=*/{}, workload, window,
                     static_cast<int>(opts.readers))
            .reach_qps();
    const double mmap_qps =
        RunTimedLoad(mmap_service, /*patterns=*/{}, workload, window,
                     static_cast<int>(opts.readers))
            .reach_qps();
    std::printf(
        "mmap A/B: %.0f reach/s in-RAM, %.0f reach/s off the mapping "
        "(%.2fx) over %.2fs windows\n"
        "          artifact %s (%s), opened in %.2fms (%s decoded to heap)\n",
        ram_qps, mmap_qps, ram_qps > 0 ? mmap_qps / ram_qps : 0.0, window,
        snap_path.c_str(),
        FormatBytes(mmap_service.snap->MappedBytes()).c_str(), open_ms,
        FormatBytes(mmap_service.snap->DecodedHeapBytes()).c_str());
    std::remove(snap_path.c_str());
  }
  return 0;
}

int CmdDataset(const char* name, const char* out) {
  const Graph g = MakeDataset(FindDataset(name));
  const Status s = SaveEdgeList(g, out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("%s stand-in written to %s (%s)\n", name, out,
              g.DebugString().c_str());
  if (g.CountDistinctLabels() > 1) {
    const std::string label_path = std::string(out) + ".labels";
    if (SaveLabels(g, label_path).ok()) {
      std::printf("labels written to %s\n", label_path.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Each command parses its own flags; positional arguments keep their
  // order.
  const std::vector<const char*> args(argv + 1, argv + argc);
  const size_t argn = args.size();
  if (argn < 1) return Usage();
  const char* cmd = args[0];
  const std::vector<const char*> rest(args.begin() + 1, args.end());
  if (std::strcmp(cmd, "stats") == 0 && (argn == 2 || argn == 3)) {
    return CmdStats(args[1], argn == 3 ? args[2] : nullptr);
  }
  if (std::strcmp(cmd, "save") == 0 && argn >= 3) return CmdSave(rest);
  if (std::strcmp(cmd, "load") == 0 && argn >= 2) return CmdLoad(rest);
  if (std::strcmp(cmd, "query") == 0 && argn >= 4) return CmdQuery(rest);
  if (std::strcmp(cmd, "dataset") == 0 && argn == 3) {
    return CmdDataset(args[1], args[2]);
  }
  if (std::strcmp(cmd, "serve-sim") == 0 && argn >= 2) {
    return CmdServeSim(rest);
  }
  return Usage();
}
