// Tests of the attribute store (attr_intern.hpp): interning, refcounted
// lifetime, registry indices and the export cache.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "bgp/attr_intern.hpp"

namespace bgpsdn::bgp {
namespace {

PathAttributes make_attrs(std::vector<std::uint32_t> path,
                          std::uint32_t local_pref = 100) {
  PathAttributes attrs;
  std::vector<core::AsNumber> hops;
  for (const auto as : path) hops.emplace_back(as);
  attrs.as_path = AsPath{std::move(hops)};
  attrs.local_pref = local_pref;
  attrs.next_hop = net::Ipv4Addr{172, 16, 0, 1};
  return attrs;
}

TEST(AttrIntern, SameBundleSharesOneCanonicalInstance) {
  AttrRegistry store;
  const auto a = store.intern(make_attrs({1, 2, 3}));
  const auto b = store.intern(make_attrs({1, 2, 3}));
  EXPECT_TRUE(a.same_set(b));
  EXPECT_EQ(a, b);
  EXPECT_EQ(&*a, &*b);
  EXPECT_EQ(store.size(), 1u);
}

TEST(AttrIntern, DistinctBundlesGetDistinctInstances) {
  AttrRegistry store;
  const auto a = store.intern(make_attrs({1, 2, 3}));
  const auto b = store.intern(make_attrs({1, 2, 4}));
  const auto c = store.intern(make_attrs({1, 2, 3}, 200));
  EXPECT_FALSE(a.same_set(b));
  EXPECT_FALSE(a.same_set(c));
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(store.size(), 3u);
}

TEST(AttrIntern, DefaultRefPointsAtSharedDefaultBundle) {
  const AttrSetRef a;
  const AttrSetRef b;
  EXPECT_TRUE(a.same_set(b));
  EXPECT_EQ(*a, PathAttributes{});
}

TEST(AttrIntern, EqualityFallsBackToValueComparison) {
  AttrRegistry store;
  AttrRegistry other;
  const auto a = store.intern(make_attrs({7}));
  EXPECT_TRUE(a == make_attrs({7}));
  EXPECT_FALSE(a == make_attrs({8}));
  // Bundles of different stores (and default refs) compare by value.
  const auto b = other.intern(make_attrs({7}));
  EXPECT_FALSE(a.same_set(b));
  EXPECT_EQ(a, b);
  EXPECT_EQ(AttrSetRef{}, other.intern(PathAttributes{}));
}

TEST(AttrIntern, HitAndMissCountersAdvance) {
  AttrRegistry store;
  const auto a = store.intern(make_attrs({90, 91, 92}));
  EXPECT_EQ(store.interns(), 1u);
  EXPECT_EQ(store.hits(), 0u);  // first sighting is a miss
  const auto b = store.intern(make_attrs({90, 91, 92}));
  EXPECT_EQ(store.interns(), 2u);
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_TRUE(a.same_set(b));
}

TEST(AttrIntern, ExpiredEntriesAreSweptAndCanonicalIsReplaced) {
  AttrRegistry store;
  std::uint64_t alive_bytes = 0;
  {
    const auto a = store.intern(make_attrs({50, 51}));
    EXPECT_EQ(store.size(), 1u);
    alive_bytes = store.pool_bytes();
  }
  // The only holder died: the bundle left the store at once, no sweep.
  EXPECT_EQ(store.size(), 0u);
  EXPECT_LT(store.pool_bytes(), alive_bytes);
  // Re-interning adopts a fresh canonical bundle (no stale revival).
  const auto b = store.intern(make_attrs({50, 51}));
  EXPECT_EQ(*b, make_attrs({50, 51}));
  EXPECT_EQ(store.hits(), 0u);
}

TEST(AttrIntern, CanonicalSurvivesWhileAnyHolderLives) {
  AttrRegistry store;
  const auto a = store.intern(make_attrs({60, 61}));
  AttrSetRef copy = a;
  {
    const auto b = store.intern(make_attrs({60, 61}));
    EXPECT_TRUE(a.same_set(b));
  }
  AttrSetRef moved = std::move(copy);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(moved.same_set(a));
}

TEST(AttrIntern, PoolStaysBoundedUnderChurn) {
  AttrRegistry store;
  const auto held = store.intern(make_attrs({1}));
  const auto bytes = store.pool_bytes();
  // Interning N distinct short-lived bundles must not grow the store: each
  // leaves with its last handle.
  for (std::uint32_t i = 0; i < 100000; ++i) {
    const auto r = store.intern(make_attrs({i & 0xffff, i >> 16}));
    ASSERT_EQ(r->as_path.length(), 2u);
  }
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.pool_bytes(), bytes);
  EXPECT_EQ(store.index_bytes(), 0u);
}

TEST(AttrIntern, HashCoversAllComparedFields) {
  const auto base = make_attrs({1});
  auto origin = base;
  origin.origin = Origin::kEgp;
  auto med = base;
  med.med = 5;
  auto lp = base;
  lp.local_pref = 7;
  auto nh = base;
  nh.next_hop = net::Ipv4Addr{10, 9, 8, 7};
  auto comm = base;
  comm.communities.push_back(0xdeadbeef);
  EXPECT_NE(hash_value(base), hash_value(origin));
  EXPECT_NE(hash_value(base), hash_value(med));
  EXPECT_NE(hash_value(base), hash_value(lp));
  EXPECT_NE(hash_value(base), hash_value(nh));
  EXPECT_NE(hash_value(base), hash_value(comm));
}

TEST(AttrIntern, MedZeroDistinctFromAbsent) {
  auto absent = make_attrs({1});
  auto zero = make_attrs({1});
  zero.med = 0;
  EXPECT_NE(hash_value(absent), hash_value(zero));
  AttrRegistry store;
  const auto a = store.intern(absent);
  const auto z = store.intern(zero);
  EXPECT_FALSE(a.same_set(z));
  EXPECT_FALSE(a == z);
}

// --- store lifetime ------------------------------------------------------

TEST(AttrStore, IndicesAndHandlesShareOneRefcount) {
  AttrRegistry store;
  std::uint32_t index;
  {
    const auto a = store.intern(make_attrs({5}));
    index = store.acquire(a);
  }
  // The index alone keeps the bundle alive.
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(*store.at(index), make_attrs({5}));
  store.retain(index);
  store.release(index);
  EXPECT_EQ(store.size(), 1u);
  store.release(index);
  EXPECT_EQ(store.size(), 0u);
}

TEST(AttrStore, ForeignBundlesAreInternedByValue) {
  AttrRegistry store;
  AttrRegistry other;
  const auto foreign = other.intern(make_attrs({8, 9}));
  const auto index = store.acquire(foreign);
  EXPECT_FALSE(store.at(index).same_set(foreign));
  EXPECT_EQ(store.at(index), foreign);
  EXPECT_EQ(store.acquire(store.at(index)), index);
  const auto fallback = store.acquire(AttrSetRef{});
  EXPECT_EQ(*store.at(fallback), PathAttributes{});
  EXPECT_EQ(store.size(), 2u);
  store.release(index);
  store.release(index);
  store.release(fallback);
  EXPECT_EQ(store.size(), 0u);
}

TEST(AttrStore, HandlesOutliveTheStore) {
  AttrSetRef survivor;
  {
    AttrRegistry store;
    survivor = store.intern(make_attrs({3, 4}));
    const auto dying = store.intern(make_attrs({3, 5}));
    // Index holds still outstanding die with the store (the sanitizer
    // build checks nothing leaks).
    store.acquire(survivor);
    store.acquire(store.intern(make_attrs({3, 6})));
    EXPECT_EQ(store.size(), 3u);
  }
  // Orphaned, still readable, freed by its last handle.
  EXPECT_EQ(*survivor, make_attrs({3, 4}));
  AttrSetRef copy = survivor;
  EXPECT_TRUE(copy.same_set(survivor));
}

TEST(AttrStore, ChurnMatchesAnOracle) {
  // Random intern/drop sequences: the store's live count and value lookup
  // must match a std::map of held handles at every step.
  AttrRegistry store;
  std::map<std::uint32_t, AttrSetRef> held;
  std::mt19937_64 rng{11};
  for (int op = 0; op < 20'000; ++op) {
    const auto tag = static_cast<std::uint32_t>(rng() % 400);
    if (const auto it = held.find(tag); it != held.end() && rng() % 2 == 0) {
      held.erase(it);
    } else {
      const auto ref = store.intern(make_attrs({tag, tag * 7}));
      if (const auto h = held.find(tag); h != held.end()) {
        ASSERT_TRUE(h->second.same_set(ref)) << op;
      }
      held[tag] = ref;
    }
    ASSERT_EQ(store.size(), held.size()) << op;
  }
  for (const auto& [tag, ref] : held) {
    EXPECT_EQ(*ref, make_attrs({tag, tag * 7}));
  }
}

// --- export cache --------------------------------------------------------

TEST(AttrExportCache, HitsMissesAndRejections) {
  AttrRegistry store;
  const auto in = store.intern(make_attrs({1, 2}));
  AttrSetRef out;
  EXPECT_EQ(store.find_export(in, 7, out), AttrRegistry::Cached::kMiss);
  const auto result = store.intern(make_attrs({9, 1, 2}));
  store.cache_export(in, 7, &result);
  store.cache_export(in, 8, nullptr);
  EXPECT_EQ(store.find_export(in, 7, out), AttrRegistry::Cached::kExported);
  EXPECT_TRUE(out.same_set(result));
  EXPECT_EQ(store.find_export(in, 8, out), AttrRegistry::Cached::kRejected);
  EXPECT_EQ(store.find_export(in, 9, out), AttrRegistry::Cached::kMiss);
  EXPECT_EQ(store.export_entries(), 2u);
  // A bundle of another store never hits.
  AttrRegistry other;
  const auto foreign = other.intern(make_attrs({1, 2}));
  EXPECT_EQ(store.find_export(foreign, 7, out), AttrRegistry::Cached::kMiss);
}

TEST(AttrExportCache, EntriesNeverKeepBundlesAlive) {
  AttrRegistry store;
  auto in = store.intern(make_attrs({1}));
  {
    const auto result = store.intern(make_attrs({9, 1}));
    store.cache_export(in, 1, &result);
  }
  // The result's last handle dropped: bundle and entry are both gone.
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.export_entries(), 0u);
  AttrSetRef out;
  EXPECT_EQ(store.find_export(in, 1, out), AttrRegistry::Cached::kMiss);

  const auto kept = store.intern(make_attrs({9, 1}));
  store.cache_export(in, 1, &kept);
  store.cache_export(in, 2, nullptr);
  in = AttrSetRef{};
  // The input died: its entries went with it, the result stays.
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.export_entries(), 0u);
}

TEST(AttrExportCache, ChurnMatchesAnOracle) {
  // Interleaved cache fills and bundle drops against a std::map oracle of
  // (input tag, class) -> result tag, pruned by hand when either dies.
  AttrRegistry store;
  std::map<std::uint32_t, AttrSetRef> live;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t> oracle;
  const auto ref_of = [&](std::uint32_t tag) {
    auto [it, fresh] = live.try_emplace(tag);
    if (fresh) it->second = store.intern(make_attrs({tag}));
    return it->second;
  };
  std::mt19937_64 rng{5};
  for (int op = 0; op < 20'000; ++op) {
    const auto a = static_cast<std::uint32_t>(rng() % 64);
    const auto b = static_cast<std::uint32_t>(rng() % 64);
    const std::uint64_t klass = rng() % 4;
    switch (rng() % 3) {
      case 0: {
        const auto in = ref_of(a);
        const auto out = ref_of(b);
        AttrSetRef got;
        if (store.find_export(in, klass, got) == AttrRegistry::Cached::kMiss) {
          store.cache_export(in, klass, &out);
          oracle[{a, klass}] = b;
        }
        break;
      }
      case 1:
        if (live.erase(a) > 0) {
          std::erase_if(oracle, [&](const auto& kv) {
            return kv.first.first == a || kv.second == a;
          });
        }
        break;
      default: {
        if (!live.contains(a)) break;
        AttrSetRef got;
        const auto cached = store.find_export(live.at(a), klass, got);
        const auto it = oracle.find({a, klass});
        ASSERT_EQ(cached == AttrRegistry::Cached::kExported, it != oracle.end())
            << op;
        if (it != oracle.end()) {
          ASSERT_TRUE(got.same_set(live.at(it->second)));
        }
      }
    }
    ASSERT_EQ(store.export_entries(), oracle.size()) << op;
    ASSERT_EQ(store.size(), live.size()) << op;
  }
}

}  // namespace
}  // namespace bgpsdn::bgp
