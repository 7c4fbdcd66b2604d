// Dense pending sets (prefix_set.hpp) against std::set<Prefix> as the
// oracle: the router's UPDATE content and order depend on both agreeing on
// membership, size, emptiness and sorted iteration at every step.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "bgp/prefix_set.hpp"

namespace bgpsdn::bgp {
namespace {

net::Prefix random_prefix(std::mt19937_64& rng) {
  // Mixed lengths and networks so sorted order is not slot order.
  const auto length = static_cast<std::uint8_t>(8 + rng() % 25);
  const auto bits = static_cast<std::uint32_t>(rng() % 48) << 20 |
                    static_cast<std::uint32_t>(rng() % 4) << 8;
  return net::Prefix{net::Ipv4Addr{bits}, length};
}

std::vector<net::Prefix> drain(PrefixSet& set, const PrefixIndex& index) {
  std::vector<std::uint32_t> slots;
  set.take_sorted(index, slots);
  std::vector<net::Prefix> out;
  for (const auto slot : slots) out.push_back(index.prefix(slot));
  return out;
}

TEST(PrefixIndex, SlotsAreStableAndDense) {
  PrefixIndex index;
  const auto a = *net::Prefix::parse("10.0.0.0/8");
  const auto b = *net::Prefix::parse("10.1.0.0/16");
  EXPECT_EQ(index.intern(a), 0u);
  EXPECT_EQ(index.intern(b), 1u);
  EXPECT_EQ(index.intern(a), 0u);
  EXPECT_EQ(index.prefix(1), b);
  EXPECT_EQ(index.size(), 2u);
}

TEST(PrefixSet, EraseAndReinsertKeepSetSemantics) {
  PrefixIndex index;
  PrefixSet set;
  const auto a = index.intern(*net::Prefix::parse("10.2.0.0/16"));
  const auto b = index.intern(*net::Prefix::parse("10.1.0.0/16"));
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.insert(a));
  EXPECT_FALSE(set.insert(a));
  EXPECT_TRUE(set.insert(b));
  EXPECT_EQ(set.erase(a), 1u);
  EXPECT_EQ(set.erase(a), 0u);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.insert(a));  // re-insert after erase: listed once
  EXPECT_EQ(set.size(), 2u);
  const std::vector<net::Prefix> want{index.prefix(b), index.prefix(a)};
  EXPECT_EQ(drain(set, index), want);
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains(a));
}

TEST(PrefixSet, RandomSequencesMatchStdSet) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937_64 rng{seed};
    PrefixIndex index;
    PrefixSet set;
    std::set<net::Prefix> oracle;
    for (int op = 0; op < 20'000; ++op) {
      const auto prefix = random_prefix(rng);
      const auto slot = index.intern(prefix);
      switch (rng() % 10) {
        case 0:
          if (rng() % 4 == 0) {
            set.clear();
            oracle.clear();
          } else {
            ASSERT_EQ(drain(set, index),
                      std::vector<net::Prefix>(oracle.begin(), oracle.end()))
                << "seed " << seed << " op " << op;
            oracle.clear();
          }
          break;
        case 1:
        case 2:
        case 3:
          ASSERT_EQ(set.erase(slot), oracle.erase(prefix)) << op;
          break;
        default:
          ASSERT_EQ(set.insert(slot), oracle.insert(prefix).second) << op;
      }
      ASSERT_EQ(set.size(), oracle.size()) << op;
      ASSERT_EQ(set.empty(), oracle.empty()) << op;
      ASSERT_EQ(set.contains(slot), oracle.count(prefix) > 0) << op;
    }
    EXPECT_EQ(drain(set, index),
              std::vector<net::Prefix>(oracle.begin(), oracle.end()));
  }
}

}  // namespace
}  // namespace bgpsdn::bgp
