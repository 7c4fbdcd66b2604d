#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "net/ip.hpp"

namespace bgpsdn::net {
namespace {

TEST(Ipv4Addr, ParseValid) {
  const auto a = Ipv4Addr::parse("192.168.1.42");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->bits(), 0xc0a8012au);
  EXPECT_EQ(a->to_string(), "192.168.1.42");
  EXPECT_EQ(Ipv4Addr::parse("0.0.0.0")->bits(), 0u);
  EXPECT_EQ(Ipv4Addr::parse("255.255.255.255")->bits(), 0xffffffffu);
}

TEST(Ipv4Addr, ParseInvalid) {
  EXPECT_FALSE(Ipv4Addr::parse("").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("256.1.1.1").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.x").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1..3.4").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.4 ").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("-1.2.3.4").has_value());
}

TEST(Ipv4Addr, OctetConstructorAndOrdering) {
  const Ipv4Addr a{10, 0, 0, 1};
  const Ipv4Addr b{10, 0, 0, 2};
  EXPECT_LT(a, b);
  EXPECT_EQ(a.to_string(), "10.0.0.1");
  EXPECT_TRUE(Ipv4Addr{}.is_unspecified());
  EXPECT_FALSE(a.is_unspecified());
}

TEST(Prefix, CanonicalizesHostBits) {
  const Prefix p{Ipv4Addr{10, 1, 2, 3}, 16};
  EXPECT_EQ(p.network().to_string(), "10.1.0.0");
  EXPECT_EQ(p.length(), 16);
  EXPECT_EQ(p.to_string(), "10.1.0.0/16");
}

TEST(Prefix, ParseValid) {
  const auto p = Prefix::parse("10.0.0.0/8");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 8);
  EXPECT_EQ(Prefix::parse("1.2.3.4/32")->network().to_string(), "1.2.3.4");
  EXPECT_EQ(Prefix::parse("0.0.0.0/0")->length(), 0);
  // Host bits are masked on parse.
  EXPECT_EQ(Prefix::parse("10.1.2.3/16")->to_string(), "10.1.0.0/16");
}

TEST(Prefix, ParseInvalid) {
  EXPECT_FALSE(Prefix::parse("10.0.0.0").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/x").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0/8").has_value());
  EXPECT_FALSE(Prefix::parse("/8").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/8/9").has_value());
}

TEST(Prefix, ContainsAddress) {
  const auto p = *Prefix::parse("10.1.0.0/16");
  EXPECT_TRUE(p.contains(*Ipv4Addr::parse("10.1.0.1")));
  EXPECT_TRUE(p.contains(*Ipv4Addr::parse("10.1.255.255")));
  EXPECT_FALSE(p.contains(*Ipv4Addr::parse("10.2.0.0")));
  const auto all = *Prefix::parse("0.0.0.0/0");
  EXPECT_TRUE(all.contains(*Ipv4Addr::parse("255.1.2.3")));
}

TEST(Prefix, ContainsPrefix) {
  const auto p16 = *Prefix::parse("10.1.0.0/16");
  const auto p24 = *Prefix::parse("10.1.5.0/24");
  EXPECT_TRUE(p16.contains(p24));
  EXPECT_FALSE(p24.contains(p16));
  EXPECT_TRUE(p16.contains(p16));
  EXPECT_FALSE(p16.contains(*Prefix::parse("10.2.0.0/24")));
}

TEST(Prefix, Overlaps) {
  const auto a = *Prefix::parse("10.0.0.0/8");
  const auto b = *Prefix::parse("10.5.0.0/16");
  const auto c = *Prefix::parse("11.0.0.0/8");
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
}

TEST(Prefix, Netmask) {
  EXPECT_EQ(Prefix::parse("10.0.0.0/8")->netmask().to_string(), "255.0.0.0");
  EXPECT_EQ(Prefix::parse("10.0.0.0/30")->netmask().to_string(),
            "255.255.255.252");
  EXPECT_EQ(Prefix::parse("0.0.0.0/0")->netmask().to_string(), "0.0.0.0");
  EXPECT_EQ(Prefix::parse("1.1.1.1/32")->netmask().to_string(),
            "255.255.255.255");
}

TEST(Prefix, Split) {
  const auto p = *Prefix::parse("10.0.0.0/8");
  const auto [lo, hi] = p.split();
  EXPECT_EQ(lo.to_string(), "10.0.0.0/9");
  EXPECT_EQ(hi.to_string(), "10.128.0.0/9");
  EXPECT_TRUE(p.contains(lo));
  EXPECT_TRUE(p.contains(hi));
  EXPECT_FALSE(lo.overlaps(hi));
}

TEST(Prefix, AddressAt) {
  const auto p = *Prefix::parse("10.1.0.0/16");
  EXPECT_EQ(p.address_at(0).to_string(), "10.1.0.0");
  EXPECT_EQ(p.address_at(1).to_string(), "10.1.0.1");
  EXPECT_EQ(p.address_at(256).to_string(), "10.1.1.0");
}

TEST(Prefix, OrderingAndHash) {
  const auto a = *Prefix::parse("10.0.0.0/8");
  const auto b = *Prefix::parse("10.0.0.0/16");
  EXPECT_NE(a, b);
  EXPECT_NE(std::hash<Prefix>{}(a), std::hash<Prefix>{}(b));
}

// The hand-rolled decimal formatting against an snprintf oracle: every
// octet position takes each one-, two- and three-digit boundary value.
constexpr std::uint32_t kBoundaryOctets[] = {0, 9, 10, 99, 100, 255};

template <typename Visit>
void for_each_boundary_address(Visit visit) {
  for (const auto a : kBoundaryOctets) {
    for (const auto b : kBoundaryOctets) {
      for (const auto c : kBoundaryOctets) {
        for (const auto d : kBoundaryOctets) {
          visit((a << 24) | (b << 16) | (c << 8) | d);
        }
      }
    }
  }
}

std::string snprintf_dotted_quad(std::uint32_t bits) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (bits >> 24) & 0xff,
                (bits >> 16) & 0xff, (bits >> 8) & 0xff, bits & 0xff);
  return buf;
}

TEST(AddressFormat, Ipv4MatchesSnprintf) {
  int checked = 0;
  for_each_boundary_address([&](std::uint32_t bits) {
    ASSERT_EQ(Ipv4Addr{bits}.to_string(), snprintf_dotted_quad(bits)) << bits;
    ++checked;
  });
  EXPECT_EQ(checked, 6 * 6 * 6 * 6);
}

TEST(AddressFormat, PrefixMatchesSnprintf) {
  int checked = 0;
  for_each_boundary_address([&](std::uint32_t bits) {
    for (unsigned len = 0; len <= 32; ++len) {
      const Prefix p{Ipv4Addr{bits}, static_cast<std::uint8_t>(len)};
      char buf[24];
      std::snprintf(buf, sizeof buf, "%s/%u",
                    snprintf_dotted_quad(p.network().bits()).c_str(), len);
      ASSERT_EQ(p.to_string(), std::string{buf}) << bits << "/" << len;
      ++checked;
    }
  });
  EXPECT_EQ(checked, 6 * 6 * 6 * 6 * 33);
}

}  // namespace
}  // namespace bgpsdn::net
