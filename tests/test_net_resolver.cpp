#include "behaviot/net/domain_resolver.hpp"

#include <gtest/gtest.h>

#include "behaviot/net/dns.hpp"
#include "behaviot/net/tls.hpp"

namespace behaviot {
namespace {

Packet dns_response_packet(const std::string& name, Ipv4Addr addr) {
  Packet p;
  p.ts = Timestamp(1000);
  p.tuple = {{Ipv4Addr(192, 168, 1, 5), 41000},
             {Ipv4Addr(155, 33, 10, 53), 53},
             Transport::kUdp};
  p.dir = Direction::kInbound;
  p.payload = make_dns_response(1, name, addr);
  p.size = static_cast<std::uint32_t>(p.payload.size()) + 28;
  return p;
}

Packet tls_hello_packet(const std::string& sni, Ipv4Addr dst) {
  Packet p;
  p.ts = Timestamp(2000);
  p.tuple = {{Ipv4Addr(192, 168, 1, 5), 41001}, {dst, 443}, Transport::kTcp};
  p.dir = Direction::kOutbound;
  p.payload = make_tls_client_hello(sni);
  p.size = static_cast<std::uint32_t>(p.payload.size()) + 40;
  return p;
}

TEST(DomainResolver, UnknownIpResolvesBlank) {
  const DomainResolver resolver;
  EXPECT_EQ(resolver.resolve(Ipv4Addr(54, 1, 1, 1)), "");
}

TEST(DomainResolver, LearnsFromDnsResponses) {
  DomainResolver resolver;
  const Ipv4Addr addr(54, 9, 9, 9);
  EXPECT_TRUE(resolver.observe(dns_response_packet("api.example.com", addr)));
  EXPECT_EQ(resolver.resolve(addr), "api.example.com");
  EXPECT_EQ(resolver.dns_bindings(), 1u);
}

TEST(DomainResolver, LearnsFromSni) {
  DomainResolver resolver;
  const Ipv4Addr dst(54, 8, 8, 8);
  EXPECT_TRUE(resolver.observe(tls_hello_packet("mqtt.vendor.com", dst)));
  EXPECT_EQ(resolver.resolve(dst), "mqtt.vendor.com");
  EXPECT_EQ(resolver.sni_bindings(), 1u);
}

TEST(DomainResolver, DnsTakesPrecedenceOverSni) {
  DomainResolver resolver;
  const Ipv4Addr addr(54, 7, 7, 7);
  resolver.observe(tls_hello_packet("sni-name.com", addr));
  resolver.observe(dns_response_packet("dns-name.com", addr));
  EXPECT_EQ(resolver.resolve(addr), "dns-name.com");
}

TEST(DomainResolver, SniTakesPrecedenceOverReverseDns) {
  DomainResolver resolver;
  const Ipv4Addr addr(54, 6, 6, 6);
  resolver.add_reverse_dns(addr, "rdns-name.com");
  EXPECT_EQ(resolver.resolve(addr), "rdns-name.com");
  resolver.observe(tls_hello_packet("sni-name.com", addr));
  EXPECT_EQ(resolver.resolve(addr), "sni-name.com");
}

TEST(DomainResolver, IgnoresPayloadFreePackets) {
  DomainResolver resolver;
  Packet p;
  p.tuple = {{Ipv4Addr(192, 168, 1, 5), 41000},
             {Ipv4Addr(54, 5, 5, 5), 443},
             Transport::kTcp};
  p.dir = Direction::kOutbound;
  p.size = 100;
  EXPECT_FALSE(resolver.observe(p));
}

TEST(DomainResolver, IgnoresOutboundDnsQueries) {
  DomainResolver resolver;
  Packet p;
  p.ts = Timestamp(10);
  p.tuple = {{Ipv4Addr(192, 168, 1, 5), 41000},
             {Ipv4Addr(155, 33, 10, 53), 53},
             Transport::kUdp};
  p.dir = Direction::kOutbound;  // queries carry no binding
  p.payload = make_dns_query(5, "api.example.com");
  p.size = 80;
  EXPECT_FALSE(resolver.observe(p));
  EXPECT_EQ(resolver.dns_bindings(), 0u);
}

TEST(DomainResolver, LaterDnsBindingWins) {
  DomainResolver resolver;
  const Ipv4Addr addr(54, 4, 4, 4);
  resolver.observe(dns_response_packet("old.example.com", addr));
  resolver.observe(dns_response_packet("new.example.com", addr));
  EXPECT_EQ(resolver.resolve(addr), "new.example.com");
}

TEST(DomainResolver, EpochMovesOnlyWhenAnAnswerMayChange) {
  DomainResolver resolver;
  const Ipv4Addr addr(54, 3, 3, 3);
  std::uint64_t epoch = resolver.epoch();
  EXPECT_NE(epoch, DomainResolver::kStaleEpoch);
  resolver.observe(dns_response_packet("a.example.com", addr));
  EXPECT_NE(resolver.epoch(), epoch);  // new binding
  epoch = resolver.epoch();
  EXPECT_TRUE(resolver.observe(dns_response_packet("a.example.com", addr)));
  EXPECT_EQ(resolver.epoch(), epoch);  // refresh: same answer
  resolver.observe(dns_response_packet("b.example.com", addr));
  EXPECT_NE(resolver.epoch(), epoch);  // changed binding
  epoch = resolver.epoch();
  resolver.add_reverse_dns(Ipv4Addr(54, 3, 3, 4), "rdns.example.com");
  EXPECT_NE(resolver.epoch(), epoch);
  epoch = resolver.epoch();
  resolver.import_state(resolver.export_state());
  EXPECT_NE(resolver.epoch(), epoch);
}

}  // namespace
}  // namespace behaviot
