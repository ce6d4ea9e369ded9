/**
 * @file
 * Unit tests for the Compiler Layer: chunking determinism, delta caching,
 * LRU eviction, runtime resolution, and provisioning pricing; plus
 * reference-model property tests of the slab chunk store and the chunk-plan
 * memo.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>
#include <unordered_map>

#include "common/rng.h"
#include "compiler/compiler.h"

namespace tacc::compiler {
namespace {

constexpr uint64_t kMiB = 1024 * 1024;

workload::Artifact
artifact(const std::string &name, uint64_t bytes, uint64_t version = 1)
{
    return workload::Artifact{name, bytes, version};
}

workload::TaskSpec
spec_with(std::vector<workload::Artifact> artifacts)
{
    workload::TaskSpec s;
    s.name = "t";
    s.user = "u";
    s.group = "g";
    s.gpus = 1;
    s.model = "resnet50";
    s.iterations = 10;
    s.artifacts = std::move(artifacts);
    return s;
}

TEST(Chunking, CoversExactByteCount)
{
    const auto chunks =
        chunk_artifact(artifact("a", 10 * kMiB + 123), 4 * kMiB, 0.1);
    ASSERT_EQ(chunks.size(), 3u);
    uint64_t total = 0;
    for (const auto &c : chunks)
        total += c.bytes;
    EXPECT_EQ(total, 10 * kMiB + 123);
    EXPECT_EQ(chunks.back().bytes, 2 * kMiB + 123);
}

TEST(Chunking, DeterministicAndVersionStable)
{
    const auto a = chunk_artifact(artifact("x", 40 * kMiB, 3), 4 * kMiB,
                                  0.1);
    const auto b = chunk_artifact(artifact("x", 40 * kMiB, 3), 4 * kMiB,
                                  0.1);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].id, b[i].id);
}

TEST(Chunking, DifferentArtifactsShareNothing)
{
    const auto a = chunk_artifact(artifact("x", 40 * kMiB), 4 * kMiB, 0.1);
    const auto b = chunk_artifact(artifact("y", 40 * kMiB), 4 * kMiB, 0.1);
    std::set<ChunkId> ids;
    for (const auto &c : a)
        ids.insert(c.id);
    for (const auto &c : b)
        EXPECT_FALSE(ids.contains(c.id));
}

TEST(Chunking, VersionBumpRewritesAboutDeltaFraction)
{
    const double delta = 0.1;
    const auto v1 =
        chunk_artifact(artifact("x", 400 * kMiB, 1), kMiB, delta);
    const auto v2 =
        chunk_artifact(artifact("x", 400 * kMiB, 2), kMiB, delta);
    ASSERT_EQ(v1.size(), v2.size());
    int changed = 0;
    for (size_t i = 0; i < v1.size(); ++i)
        changed += v1[i].id != v2[i].id;
    EXPECT_NEAR(double(changed) / double(v1.size()), delta, 0.05);
}

TEST(Chunking, ChangesAccumulateMonotonically)
{
    const auto v1 = chunk_artifact(artifact("x", 100 * kMiB, 1), kMiB, 0.1);
    const auto v5 = chunk_artifact(artifact("x", 100 * kMiB, 5), kMiB, 0.1);
    const auto v6 = chunk_artifact(artifact("x", 100 * kMiB, 6), kMiB, 0.1);
    int d15 = 0, d56 = 0;
    for (size_t i = 0; i < v1.size(); ++i) {
        d15 += v1[i].id != v5[i].id;
        d56 += v5[i].id != v6[i].id;
    }
    EXPECT_GT(d15, d56); // four bumps change more than one
}

TEST(ChunkStore, HitMissAccounting)
{
    ChunkStore store;
    EXPECT_FALSE(store.lookup(1));
    store.insert(1, 100);
    EXPECT_TRUE(store.lookup(1));
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.misses(), 1u);
    EXPECT_EQ(store.resident_bytes(), 100u);
    store.insert(1, 100); // duplicate: no double count
    EXPECT_EQ(store.resident_bytes(), 100u);
}

TEST(ChunkStore, LruEviction)
{
    ChunkStore store(300);
    store.insert(1, 100);
    store.insert(2, 100);
    store.insert(3, 100);
    EXPECT_TRUE(store.lookup(1)); // refresh 1: now 2 is the LRU
    store.insert(4, 100);         // evicts 2
    EXPECT_FALSE(store.lookup(2));
    EXPECT_TRUE(store.lookup(1));
    EXPECT_TRUE(store.lookup(3));
    EXPECT_TRUE(store.lookup(4));
    EXPECT_EQ(store.evictions(), 1u);
    EXPECT_LE(store.resident_bytes(), 300u);
}

TEST(ChunkStore, ClearDropsEverything)
{
    ChunkStore store;
    store.insert(1, 50);
    store.clear();
    EXPECT_EQ(store.resident_bytes(), 0u);
    EXPECT_EQ(store.resident_chunks(), 0u);
    EXPECT_FALSE(store.lookup(1));
}

/**
 * The chunk store as it was before the slab: a std::list in LRU order plus
 * an unordered_map from id to list position. The reference model of the
 * property tests below.
 */
class ReferenceStore
{
  public:
    explicit ReferenceStore(uint64_t capacity_bytes = 0)
        : capacity_(capacity_bytes)
    {
    }

    bool
    lookup(ChunkId id)
    {
        auto it = map_.find(id);
        if (it == map_.end()) {
            ++misses_;
            return false;
        }
        ++hits_;
        lru_.splice(lru_.begin(), lru_, it->second);
        return true;
    }

    void
    insert(ChunkId id, uint64_t bytes)
    {
        auto it = map_.find(id);
        if (it != map_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            return;
        }
        while (capacity_ != 0 && !lru_.empty() &&
               resident_bytes_ + bytes > capacity_) {
            const auto &[victim, victim_bytes] = lru_.back();
            resident_bytes_ -= victim_bytes;
            map_.erase(victim);
            lru_.pop_back();
            ++evictions_;
        }
        lru_.emplace_front(id, bytes);
        map_.emplace(id, lru_.begin());
        resident_bytes_ += bytes;
    }

    void
    clear()
    {
        lru_.clear();
        map_.clear();
        resident_bytes_ = 0;
    }

    uint64_t resident_bytes() const { return resident_bytes_; }
    size_t resident_chunks() const { return map_.size(); }
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t evictions() const { return evictions_; }

  private:
    uint64_t capacity_;
    uint64_t resident_bytes_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    std::list<std::pair<ChunkId, uint64_t>> lru_; ///< front = most recent
    std::unordered_map<ChunkId, decltype(lru_)::iterator> map_;
};

void
expect_same_counters(const ChunkStore &store, const ReferenceStore &ref)
{
    EXPECT_EQ(store.hits(), ref.hits());
    EXPECT_EQ(store.misses(), ref.misses());
    EXPECT_EQ(store.evictions(), ref.evictions());
    EXPECT_EQ(store.resident_bytes(), ref.resident_bytes());
    EXPECT_EQ(store.resident_chunks(), ref.resident_chunks());
}

// Seeded random lookup/insert/clear sequences against the reference store,
// comparing every return value and all five counters after every call.
// Capacities run from 0 (unbounded) through tiny to mid-size, some items
// exceed the capacity, inserts repeat resident ids, and half the ids share
// their low 20 bits with a few neighbours around zero, so probe runs wrap
// the end of the index table and evictions backward-shift inside them.
TEST(ChunkStoreProperty, MatchesListAndMapReference)
{
    Rng rng(20261017);
    const std::vector<uint64_t> capacities = {0, 1, 100, 350, 5'000, 60'000};
    uint64_t evictions = 0;
    size_t peak_chunks = 0;
    for (int trial = 0; trial < 36; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        const uint64_t capacity = capacities[size_t(trial) % capacities.size()];
        ChunkStore store(capacity);
        ReferenceStore ref(capacity);

        // The id pool: random ids and ids whose low bits collide.
        std::vector<ChunkId> pool;
        const int pool_size = int(rng.uniform_int(4, 3000));
        for (int i = 0; i < pool_size; ++i) {
            if (rng.bernoulli(0.5)) {
                pool.push_back(rng.next_u64());
            } else {
                const uint64_t low = uint64_t(rng.uniform_int(-3, 2)) &
                                     0xfffffULL; // 0xffffd..0x2
                pool.push_back((rng.next_u64() << 20) | low);
            }
        }
        const uint64_t max_item =
            capacity ? std::max<uint64_t>(capacity / 4, 1) : 1'000;

        for (int op = 0; op < 6000; ++op) {
            const ChunkId id =
                pool[size_t(rng.uniform_int(0, int64_t(pool.size()) - 1))];
            const double pick = rng.uniform();
            if (pick < 0.5) {
                EXPECT_EQ(store.lookup(id), ref.lookup(id));
            } else if (pick < 0.998) {
                const uint64_t bytes =
                    rng.bernoulli(0.02)
                        ? capacity + uint64_t(rng.uniform_int(1, 50))
                        : uint64_t(rng.uniform_int(1, int64_t(max_item)));
                store.insert(id, bytes);
                ref.insert(id, bytes);
            } else {
                store.clear();
                ref.clear();
            }
            expect_same_counters(store, ref);
            if (::testing::Test::HasFailure())
                return;
            peak_chunks = std::max(peak_chunks, ref.resident_chunks());
        }
        evictions += ref.evictions();
    }
    // The sequences reached the regimes they are meant to cover.
    EXPECT_GT(evictions, 10'000u);
    EXPECT_GT(peak_chunks, 500u); // the index grew from 16 slots past 1024
}

TEST(ChunkStore, CollidingIdsSurviveEvictionsInsideTheirProbeRun)
{
    // Six ids homed at the last index slot and at slot zero fill one probe
    // run that wraps the table. Evicting the oldest (at the run's start)
    // must shift the rest back, or those homed at the end become
    // unreachable.
    ChunkStore store(6);
    std::vector<ChunkId> ids;
    for (uint64_t k = 1; k <= 6; ++k)
        ids.push_back((k << 32) | (k % 2 ? 0xfffffULL : 0x0ULL));
    for (const ChunkId id : ids)
        store.insert(id, 1);
    store.insert((7ULL << 32) | 0x7ULL, 1); // homed elsewhere
    EXPECT_EQ(store.evictions(), 1u);
    EXPECT_EQ(store.resident_chunks(), 6u);
    for (size_t i = 1; i < ids.size(); ++i)
        EXPECT_TRUE(store.lookup(ids[i])) << "id " << i;
    EXPECT_FALSE(store.lookup(ids[0]));
}

TEST(Compiler, ColdCompileTransfersEverything)
{
    Compiler compiler;
    const auto out =
        compiler.compile(spec_with({artifact("a", 100 * kMiB)}));
    ASSERT_TRUE(out.is_ok());
    EXPECT_EQ(out.value().total_bytes, 100 * kMiB);
    EXPECT_EQ(out.value().transferred_bytes, 100 * kMiB);
    EXPECT_EQ(out.value().cached_bytes, 0u);
    EXPECT_DOUBLE_EQ(out.value().cache_hit_ratio(), 0.0);
}

TEST(Compiler, WarmResubmissionIsAllHits)
{
    Compiler compiler;
    const auto spec = spec_with({artifact("a", 100 * kMiB)});
    ASSERT_TRUE(compiler.compile(spec).is_ok());
    const auto warm = compiler.compile(spec);
    ASSERT_TRUE(warm.is_ok());
    EXPECT_EQ(warm.value().transferred_bytes, 0u);
    EXPECT_DOUBLE_EQ(warm.value().cache_hit_ratio(), 1.0);
    EXPECT_LT(warm.value().provision_time.to_seconds(),
              compiler.config().container_build.to_seconds() +
                  compiler.config().fixed_overhead.to_seconds() + 1.0);
}

TEST(Compiler, VersionBumpTransfersOnlyDelta)
{
    CompilerConfig config;
    config.delta_fraction = 0.05;
    Compiler compiler(config);
    ASSERT_TRUE(
        compiler.compile(spec_with({artifact("a", 400 * kMiB, 1)}))
            .is_ok());
    const auto v2 =
        compiler.compile(spec_with({artifact("a", 400 * kMiB, 2)}));
    ASSERT_TRUE(v2.is_ok());
    const double frac = double(v2.value().transferred_bytes) /
                        double(v2.value().total_bytes);
    EXPECT_LT(frac, 0.15);
    EXPECT_GT(frac, 0.0);
}

TEST(Compiler, CacheDisabledAlwaysTransfers)
{
    CompilerConfig config;
    config.cache_enabled = false;
    Compiler compiler(config);
    const auto spec = spec_with({artifact("a", 100 * kMiB)});
    ASSERT_TRUE(compiler.compile(spec).is_ok());
    const auto again = compiler.compile(spec);
    ASSERT_TRUE(again.is_ok());
    EXPECT_EQ(again.value().transferred_bytes, 100 * kMiB);
}

TEST(Compiler, RuntimeResolutionBySizeAndPreference)
{
    Compiler compiler;
    // Small task, auto -> bare metal.
    auto small = compiler.compile(spec_with({artifact("a", 10 * kMiB)}));
    ASSERT_TRUE(small.is_ok());
    EXPECT_EQ(small.value().runtime, RuntimeKind::kBareMetal);
    // Large task, auto -> container.
    auto large = compiler.compile(spec_with({artifact("b", 2000 * kMiB)}));
    ASSERT_TRUE(large.is_ok());
    EXPECT_EQ(large.value().runtime, RuntimeKind::kContainer);
    // Explicit preference wins.
    auto spec = spec_with({artifact("c", 10 * kMiB)});
    spec.runtime = workload::RuntimePref::kContainer;
    auto forced = compiler.compile(spec);
    ASSERT_TRUE(forced.is_ok());
    EXPECT_EQ(forced.value().runtime, RuntimeKind::kContainer);
}

TEST(Compiler, ProvisionTimeScalesWithTransfer)
{
    Compiler compiler;
    auto small = compiler.compile(spec_with({artifact("s", 10 * kMiB)}));
    auto large =
        compiler.compile(spec_with({artifact("l", 10'000 * kMiB)}));
    ASSERT_TRUE(small.is_ok() && large.is_ok());
    EXPECT_GT(large.value().provision_time, small.value().provision_time);
}

TEST(Compiler, RejectsInvalidSpecAndUnknownModel)
{
    Compiler compiler;
    workload::TaskSpec bad = spec_with({artifact("a", kMiB)});
    bad.gpus = 0;
    EXPECT_FALSE(compiler.compile(bad).is_ok());
    workload::TaskSpec unknown = spec_with({artifact("a", kMiB)});
    unknown.model = "skynet";
    EXPECT_FALSE(compiler.compile(unknown).is_ok());
}

TEST(Compiler, StatsAccumulate)
{
    Compiler compiler;
    const auto spec = spec_with({artifact("a", 100 * kMiB)});
    ASSERT_TRUE(compiler.compile(spec).is_ok());
    ASSERT_TRUE(compiler.compile(spec).is_ok());
    const auto &stats = compiler.stats();
    EXPECT_EQ(stats.tasks_compiled, 2u);
    EXPECT_EQ(stats.bytes_total, 200 * kMiB);
    EXPECT_EQ(stats.bytes_transferred, 100 * kMiB);
    EXPECT_NEAR(stats.transfer_savings(), 0.5, 1e-12);
    EXPECT_GT(stats.mean_provision_s(), 0.0);
}

TEST(Compiler, ClearCacheRestoresColdBehaviour)
{
    Compiler compiler;
    const auto spec = spec_with({artifact("a", 100 * kMiB)});
    ASSERT_TRUE(compiler.compile(spec).is_ok());
    compiler.clear_cache();
    const auto again = compiler.compile(spec);
    ASSERT_TRUE(again.is_ok());
    EXPECT_EQ(again.value().transferred_bytes, 100 * kMiB);
}

/**
 * compile() as it was before the plan memo: every artifact re-chunked
 * through chunk_artifact on every call, against the reference store.
 */
class ReferenceCompiler
{
  public:
    explicit ReferenceCompiler(CompilerConfig config)
        : config_(config), cache_(config.cache_capacity_bytes)
    {
    }

    TaskInstruction
    compile(const workload::TaskSpec &spec)
    {
        TaskInstruction out;
        out.spec = spec;
        for (const auto &artifact : spec.artifacts) {
            for (const auto &chunk : chunk_artifact(
                     artifact, config_.chunk_bytes, config_.delta_fraction)) {
                out.total_bytes += chunk.bytes;
                ++out.chunk_count;
                if (config_.cache_enabled && cache_.lookup(chunk.id)) {
                    out.cached_bytes += chunk.bytes;
                    ++out.chunk_hits;
                } else {
                    out.transferred_bytes += chunk.bytes;
                    if (config_.cache_enabled)
                        cache_.insert(chunk.id, chunk.bytes);
                }
            }
        }
        switch (spec.runtime) {
          case workload::RuntimePref::kBareMetal:
            out.runtime = RuntimeKind::kBareMetal;
            break;
          case workload::RuntimePref::kContainer:
            out.runtime = RuntimeKind::kContainer;
            break;
          case workload::RuntimePref::kAuto:
            out.runtime = out.total_bytes >= config_.container_threshold_bytes
                              ? RuntimeKind::kContainer
                              : RuntimeKind::kBareMetal;
            break;
        }
        Duration provision =
            config_.fixed_overhead +
            Duration::from_seconds(double(out.transferred_bytes) /
                                   (config_.ingest_gbps * 1e9 / 8.0));
        if (out.runtime == RuntimeKind::kContainer) {
            provision += out.transferred_bytes == 0
                             ? config_.container_build_cached
                             : config_.container_build;
        }
        out.provision_time = provision;
        ++stats_.tasks_compiled;
        stats_.bytes_total += out.total_bytes;
        stats_.bytes_transferred += out.transferred_bytes;
        stats_.bytes_cached += out.cached_bytes;
        stats_.provision_seconds_total += provision.to_seconds();
        return out;
    }

    void clear_cache() { cache_.clear(); }
    const CompilerStats &stats() const { return stats_; }
    const ReferenceStore &cache() const { return cache_; }

  private:
    CompilerConfig config_;
    ReferenceStore cache_;
    CompilerStats stats_;
};

// The plan memo must be invisible: a seeded sequence of compiles with
// repeated names, version bumps, versions going down, the same version at
// a new size and clear_cache() calls gives every TaskInstruction and
// CompilerStats field of the re-chunking reference, bounded, unbounded and
// with the cache off.
TEST(CompilerProperty, PlanMemoMatchesRechunkingReference)
{
    struct Case {
        uint64_t capacity;
        bool enabled;
    };
    for (const Case c : {Case{0, true}, Case{96 * kMiB, true},
                         Case{700 * kMiB, true}, Case{0, false}}) {
        SCOPED_TRACE("capacity " + std::to_string(c.capacity) +
                     (c.enabled ? " on" : " off"));
        CompilerConfig config;
        config.chunk_bytes = 4 * kMiB;
        config.delta_fraction = 0.2;
        config.cache_capacity_bytes = c.capacity;
        config.cache_enabled = c.enabled;
        Compiler compiler(config);
        ReferenceCompiler ref(config);

        Rng rng(7 + c.capacity);
        const std::vector<std::string> names = {"u0/code", "u1/code",
                                                "deps/pytorch", "g0/dataset"};
        const std::vector<uint64_t> sizes = {1, 3 * kMiB, 40 * kMiB + 17,
                                             300 * kMiB};
        std::vector<uint64_t> version(names.size(), 1);
        for (int step = 0; step < 400; ++step) {
            SCOPED_TRACE("step " + std::to_string(step));
            if (rng.bernoulli(0.02)) {
                compiler.clear_cache();
                ref.clear_cache();
            }
            std::vector<workload::Artifact> artifacts;
            const int count = int(rng.uniform_int(1, 3));
            for (int a = 0; a < count; ++a) {
                const size_t n =
                    size_t(rng.uniform_int(0, int64_t(names.size()) - 1));
                const double move = rng.uniform();
                if (move < 0.3)
                    ++version[n];
                else if (move < 0.4 && version[n] > 1)
                    --version[n];
                // The same version may come back at another size.
                const uint64_t bytes = sizes[size_t(
                    rng.uniform_int(0, int64_t(sizes.size()) - 1))];
                artifacts.push_back(artifact(names[n], bytes, version[n]));
            }
            auto spec = spec_with(artifacts);
            spec.runtime = workload::RuntimePref(rng.uniform_int(0, 2));

            const auto got = compiler.compile(spec);
            const TaskInstruction want = ref.compile(spec);
            ASSERT_TRUE(got.is_ok());
            const TaskInstruction &out = got.value();
            EXPECT_EQ(out.spec, want.spec);
            EXPECT_EQ(out.runtime, want.runtime);
            EXPECT_EQ(out.total_bytes, want.total_bytes);
            EXPECT_EQ(out.transferred_bytes, want.transferred_bytes);
            EXPECT_EQ(out.cached_bytes, want.cached_bytes);
            EXPECT_EQ(out.chunk_count, want.chunk_count);
            EXPECT_EQ(out.chunk_hits, want.chunk_hits);
            EXPECT_EQ(out.provision_time, want.provision_time);

            const CompilerStats &s = compiler.stats();
            const CompilerStats &r = ref.stats();
            EXPECT_EQ(s.tasks_compiled, r.tasks_compiled);
            EXPECT_EQ(s.bytes_total, r.bytes_total);
            EXPECT_EQ(s.bytes_transferred, r.bytes_transferred);
            EXPECT_EQ(s.bytes_cached, r.bytes_cached);
            EXPECT_EQ(s.provision_seconds_total, r.provision_seconds_total);
            expect_same_counters(compiler.cache(), ref.cache());
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

} // namespace
} // namespace tacc::compiler
