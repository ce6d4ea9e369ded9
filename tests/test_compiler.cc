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

    std::vector<ChunkId>
    lru_order() const
    {
        std::vector<ChunkId> out;
        for (const auto &[id, bytes] : lru_)
            out.push_back(id);
        return out;
    }

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

/** A plan of `count` chunks of `bytes` each, ids base+0..base+count-1
 *  spread by a multiplier so they home apart. */
std::vector<ChunkRef>
plan_of_ids(uint64_t base, uint64_t count, uint64_t bytes = 10)
{
    std::vector<ChunkRef> plan;
    for (uint64_t i = 0; i < count; ++i)
        plan.push_back(ChunkRef{(base + i) * 0x9e3779b97f4a7c15ULL, bytes});
    return plan;
}

uint64_t
plan_bytes(const std::vector<ChunkRef> &plan)
{
    uint64_t total = 0;
    for (const ChunkRef &chunk : plan)
        total += chunk.bytes;
    return total;
}

/** Compiler::compile's per-chunk loop against the reference store. */
ChunkStore::PlanHits
reference_touch(ReferenceStore &ref, const std::vector<ChunkRef> &plan)
{
    ChunkStore::PlanHits hits;
    for (const ChunkRef &chunk : plan) {
        if (ref.lookup(chunk.id)) {
            ++hits.chunks;
            hits.bytes += chunk.bytes;
        } else {
            ref.insert(chunk.id, chunk.bytes);
        }
    }
    return hits;
}

/** Touches the plan in both stores and compares the results, every
 *  counter and the LRU order. */
void
touch_both(ChunkStore &store, ReferenceStore &ref, RunId run,
           const std::vector<ChunkRef> &plan)
{
    const ChunkStore::PlanHits got =
        store.touch_plan(run, plan, plan_bytes(plan));
    const ChunkStore::PlanHits want = reference_touch(ref, plan);
    EXPECT_EQ(got.chunks, want.chunks);
    EXPECT_EQ(got.bytes, want.bytes);
    expect_same_counters(store, ref);
    EXPECT_EQ(store.lru_order(), ref.lru_order());
}

TEST(ChunkStoreRun, WarmPlanMovesAsOneSplice)
{
    ChunkStore store;
    ReferenceStore ref;
    const RunId a = store.add_run();
    const RunId b = store.add_run();
    const auto plan_a = plan_of_ids(100, 5);
    const auto plan_b = plan_of_ids(200, 3);
    touch_both(store, ref, a, plan_a); // builds run a
    touch_both(store, ref, b, plan_b); // builds run b above it
    EXPECT_EQ(store.run_splices(), 0u);
    touch_both(store, ref, a, plan_a); // a moves over b
    touch_both(store, ref, a, plan_a); // already at the MRU end
    touch_both(store, ref, b, plan_b);
    EXPECT_EQ(store.run_splices(), 3u);
    EXPECT_EQ(store.hits(), 5u + 5u + 3u);
}

TEST(ChunkStoreRun, DirectTouchOfMiddleChunkDissolvesRun)
{
    for (const bool via_insert : {false, true}) {
        SCOPED_TRACE(via_insert ? "insert" : "lookup");
        ChunkStore store;
        ReferenceStore ref;
        const RunId a = store.add_run();
        const RunId b = store.add_run();
        const auto plan_a = plan_of_ids(100, 5);
        const auto plan_b = plan_of_ids(200, 3);
        touch_both(store, ref, a, plan_a);
        touch_both(store, ref, b, plan_b);
        // Pull a's middle chunk out of its block.
        if (via_insert) {
            store.insert(plan_a[2].id, plan_a[2].bytes);
            ref.insert(plan_a[2].id, plan_a[2].bytes);
        } else {
            EXPECT_TRUE(store.lookup(plan_a[2].id));
            EXPECT_TRUE(ref.lookup(plan_a[2].id));
        }
        EXPECT_EQ(store.lru_order(), ref.lru_order());
        touch_both(store, ref, a, plan_a); // per chunk: rebuilds run a
        EXPECT_EQ(store.run_splices(), 0u);
        touch_both(store, ref, b, plan_b); // b was untouched: splices
        touch_both(store, ref, a, plan_a); // the rebuilt run splices
        EXPECT_EQ(store.run_splices(), 2u);
    }
}

TEST(ChunkStoreRun, EvictingOldestChunkDissolvesRun)
{
    ChunkStore store(80); // eight 10-byte chunks
    ReferenceStore ref(80);
    const RunId a = store.add_run();
    const RunId b = store.add_run();
    const RunId c = store.add_run();
    const auto plan_a = plan_of_ids(100, 4);
    const auto plan_b = plan_of_ids(200, 4);
    touch_both(store, ref, a, plan_a);
    touch_both(store, ref, b, plan_b); // full: a is the LRU block
    touch_both(store, ref, c, plan_of_ids(300, 1)); // evicts a's oldest
    EXPECT_EQ(store.evictions(), 1u);
    touch_both(store, ref, a, plan_a); // per chunk, evicting b's tail
    EXPECT_EQ(store.run_splices(), 0u);
    touch_both(store, ref, b, plan_b); // b lost chunks: per chunk
    EXPECT_EQ(store.run_splices(), 0u);
    touch_both(store, ref, b, plan_b); // rebuilt: splices
    EXPECT_EQ(store.run_splices(), 1u);
}

TEST(ChunkStoreRun, PlanLargerThanCacheNeverBecomesRun)
{
    ChunkStore store(30);
    ReferenceStore ref(30);
    const RunId a = store.add_run();
    const auto plan = plan_of_ids(100, 5);
    for (int i = 0; i < 3; ++i)
        touch_both(store, ref, a, plan);
    EXPECT_EQ(store.run_splices(), 0u);
    EXPECT_EQ(store.hits(), 0u);
}

TEST(ChunkStoreRun, PlanWithRepeatedIdNeverBecomesRun)
{
    ChunkStore store;
    ReferenceStore ref;
    const RunId a = store.add_run();
    auto plan = plan_of_ids(100, 4);
    plan.push_back(plan[1]);
    for (int i = 0; i < 3; ++i)
        touch_both(store, ref, a, plan);
    EXPECT_EQ(store.run_splices(), 0u);
}

TEST(ChunkStoreRun, CollidingIdFromAnotherPlanDissolvesRun)
{
    ChunkStore store;
    ReferenceStore ref;
    const RunId a = store.add_run();
    const RunId b = store.add_run();
    const auto plan_a = plan_of_ids(100, 5);
    auto plan_b = plan_of_ids(200, 3);
    plan_b.push_back(plan_a[3]); // b shares one of a's ids
    touch_both(store, ref, a, plan_a);
    touch_both(store, ref, b, plan_b); // takes a[3]: a dissolves
    touch_both(store, ref, a, plan_a); // per chunk; takes a[3] back
    touch_both(store, ref, b, plan_b);
    EXPECT_EQ(store.run_splices(), 0u);
    touch_both(store, ref, b, plan_b); // b is intact now
    EXPECT_EQ(store.run_splices(), 1u);
}

TEST(ChunkStoreRun, ClearDissolvesEveryRun)
{
    ChunkStore store;
    ReferenceStore ref;
    const RunId a = store.add_run();
    const RunId b = store.add_run();
    const auto plan_a = plan_of_ids(100, 5);
    const auto plan_b = plan_of_ids(200, 3);
    touch_both(store, ref, a, plan_a);
    touch_both(store, ref, b, plan_b);
    store.clear();
    ref.clear();
    touch_both(store, ref, a, plan_a); // all misses, rebuilt per chunk
    touch_both(store, ref, b, plan_b);
    EXPECT_EQ(store.run_splices(), 0u);
    EXPECT_EQ(store.hits(), 0u);
    touch_both(store, ref, a, plan_a);
    EXPECT_EQ(store.run_splices(), 1u);
}

TEST(ChunkStoreRun, RecycledStorageBehavesLikeFresh)
{
    ChunkStore donor;
    const RunId d = donor.add_run();
    donor.touch_plan(d, plan_of_ids(1, 500), 5000);
    ChunkStore store(200);
    store.adopt_storage(donor.release_storage());
    ReferenceStore ref(200);
    const RunId a = store.add_run();
    const auto plan = plan_of_ids(100, 12);
    for (int i = 0; i < 3; ++i)
        touch_both(store, ref, a, plan);
    EXPECT_EQ(store.run_splices(), 2u);
}

// Seeded sequences of plan touches, interleaved with direct lookups and
// inserts of the plans' ids and with clear(), against the reference
// store's per-chunk loop: results, counters and the full LRU order after
// every call. Plans repeat ids, share ids with other plans, change
// content (their run dissolved first, as Compiler does) and are larger
// than some capacities.
TEST(ChunkStoreProperty, PlanTouchesMatchPerChunkReference)
{
    Rng rng(20261018);
    uint64_t touches = 0;
    uint64_t evictions = 0;
    uint64_t splices = 0;
    for (int trial = 0; trial < 24; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        const uint64_t capacity =
            std::vector<uint64_t>{0, 40, 300, 2'000}[size_t(trial) % 4];
        ChunkStore store(capacity);
        ReferenceStore ref(capacity);
        std::vector<RunId> runs;
        std::vector<std::vector<ChunkRef>> plans;
        for (int p = 0; p < 6; ++p) {
            runs.push_back(store.add_run());
            plans.emplace_back();
        }
        auto rederive = [&](size_t p) {
            store.dissolve_run(runs[p]);
            plans[p].clear();
            const int count = int(rng.uniform_int(0, 40));
            for (int i = 0; i < count; ++i) {
                const double pick = rng.uniform();
                ChunkId id = rng.next_u64();
                if (pick < 0.05 && !plans[p].empty()) // repeat an own id
                    id = plans[p][size_t(rng.uniform_int(
                                          0, int64_t(plans[p].size()) - 1))]
                             .id;
                else if (pick < 0.1) // a small shared pool
                    id = uint64_t(rng.uniform_int(1, 30)) << 40;
                plans[p].push_back(
                    ChunkRef{id, uint64_t(rng.uniform_int(1, 20))});
            }
        };
        for (size_t p = 0; p < plans.size(); ++p)
            rederive(p);
        for (int op = 0; op < 3000; ++op) {
            const size_t p =
                size_t(rng.uniform_int(0, int64_t(plans.size()) - 1));
            const double pick = rng.uniform();
            if (pick < 0.8) {
                touch_both(store, ref, runs[p], plans[p]);
                ++touches;
            } else if (pick < 0.85) {
                rederive(p);
            } else if (pick < 0.995) {
                if (plans[p].empty())
                    continue;
                const ChunkRef chunk = plans[p][size_t(
                    rng.uniform_int(0, int64_t(plans[p].size()) - 1))];
                if (rng.bernoulli(0.5)) {
                    EXPECT_EQ(store.lookup(chunk.id), ref.lookup(chunk.id));
                } else {
                    store.insert(chunk.id, chunk.bytes);
                    ref.insert(chunk.id, chunk.bytes);
                }
                expect_same_counters(store, ref);
                EXPECT_EQ(store.lru_order(), ref.lru_order());
            } else {
                store.clear();
                ref.clear();
            }
            if (::testing::Test::HasFailure())
                return;
        }
        evictions += ref.evictions();
        splices += store.run_splices();
    }
    // Both paths ran, under eviction pressure.
    EXPECT_GT(evictions, 10'000u);
    EXPECT_GT(splices, touches / 10);
    EXPECT_LT(splices, touches * 9 / 10);
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

/** Every TaskInstruction and CompilerStats field, the cache counters and
 *  the full LRU order of the compiler against the reference. */
void
expect_same_compile(const TaskInstruction &out, const TaskInstruction &want,
                    const Compiler &compiler, const ReferenceCompiler &ref)
{
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
    EXPECT_EQ(compiler.cache().lru_order(), ref.cache().lru_order());
}

// The plan memo must be invisible: a seeded sequence of compiles with
// repeated names, version bumps, versions going down, the same version at
// a new size and clear_cache() calls gives every TaskInstruction and
// CompilerStats field and the LRU order of the re-chunking reference,
// bounded, unbounded and with the cache off.
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
            expect_same_compile(got.value(), want, compiler, ref);
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

// The run path must be invisible too. Trace-shaped specs (a code tree,
// an image's deps, a group dataset) mostly repeat, so resident plans stay
// unchanged for long stretches and take the splice; around them run the
// regimes that dissolve or never form runs: bounded caches evicting runs
// from the tail, plans larger than the cache, the same artifact twice in
// one spec, versions going down and back up, clear_cache() and the cache
// off, at 1, 4 and 64 MiB chunks.
TEST(CompilerProperty, RunPathMatchesPerChunkReference)
{
    struct Case {
        uint64_t chunk;
        uint64_t capacity;
        bool enabled;
    };
    uint64_t artifact_compiles = 0;
    uint64_t splices = 0;
    for (const uint64_t chunk : {1 * kMiB, 4 * kMiB, 64 * kMiB}) {
        for (const Case c : {Case{chunk, 0, true},
                             Case{chunk, 1'000 * kMiB, true},
                             Case{chunk, 400 * kMiB, true},
                             Case{chunk, 0, false}}) {
            SCOPED_TRACE("chunk " + std::to_string(c.chunk) + " capacity " +
                         std::to_string(c.capacity) +
                         (c.enabled ? " on" : " off"));
            CompilerConfig config;
            config.chunk_bytes = c.chunk;
            config.delta_fraction = 0.1;
            config.cache_capacity_bytes = c.capacity;
            config.cache_enabled = c.enabled;
            Compiler compiler(config);
            ReferenceCompiler ref(config);

            Rng rng(11 + c.chunk + c.capacity);
            // The datasets alone fit a 1000 MiB cache, not both with
            // everything else; g1's is larger than the 400 MiB one.
            const std::vector<workload::Artifact> base = {
                artifact("u0/code", 9 * kMiB + 5),
                artifact("u1/code", 2 * kMiB),
                artifact("deps/pytorch", 180 * kMiB),
                artifact("g0/dataset", 300 * kMiB + 1),
                artifact("g1/dataset", 520 * kMiB)};
            std::vector<workload::Artifact> current = base;
            std::vector<workload::Artifact> last_spec;
            for (int step = 0; step < 300; ++step) {
                SCOPED_TRACE("step " + std::to_string(step));
                if (rng.bernoulli(0.01)) {
                    compiler.clear_cache();
                    ref.clear_cache();
                }
                if (last_spec.empty() || rng.bernoulli(0.25)) {
                    // A new spec: a code tree, maybe the deps, a dataset.
                    last_spec.clear();
                    const size_t code = size_t(rng.uniform_int(0, 1));
                    const double move = rng.uniform();
                    if (move < 0.3)
                        ++current[code].version;
                    else if (move < 0.4 && current[code].version > 1)
                        --current[code].version; // and back up later
                    if (rng.bernoulli(0.05)) // rare deps bump
                        ++current[2].version;
                    last_spec.push_back(current[code]);
                    if (rng.bernoulli(0.8))
                        last_spec.push_back(current[2]);
                    last_spec.push_back(
                        current[size_t(rng.uniform_int(3, 4))]);
                    if (rng.bernoulli(0.05)) // one artifact twice
                        last_spec.push_back(last_spec.front());
                }
                const auto spec = spec_with(last_spec);
                const auto got = compiler.compile(spec);
                const TaskInstruction want = ref.compile(spec);
                ASSERT_TRUE(got.is_ok());
                expect_same_compile(got.value(), want, compiler, ref);
                if (::testing::Test::HasFailure())
                    return;
                if (c.enabled)
                    artifact_compiles += spec.artifacts.size();
            }
            splices += compiler.cache().run_splices();
        }
    }
    // The run path served a large share of the artifact compiles.
    EXPECT_GT(double(splices), 0.5 * double(artifact_compiles))
        << splices << " of " << artifact_compiles;
}

} // namespace
} // namespace tacc::compiler
