#include "behaviot/net/domain_resolver.hpp"

#include <algorithm>

#include "behaviot/net/dns.hpp"
#include "behaviot/net/tls.hpp"
#include "behaviot/obs/metrics.hpp"

namespace behaviot {

void DomainResolver::add_reverse_dns(Ipv4Addr ip, std::string domain) {
  reverse_dns_[ip.value()] = std::move(domain);
  ++epoch_;
}

bool DomainResolver::observe(const Packet& packet) {
  if (packet.payload.empty()) return false;
  const AppProtocol app =
      classify_app_protocol(packet.tuple.proto, packet.tuple.dst.port);
  if (app == AppProtocol::kDns && packet.dir == Direction::kInbound) {
    if (auto binding = parse_dns_response(packet.payload)) {
      static auto& dns_learned = obs::counter("ingest.dns_bindings");
      dns_learned.inc();
      learn(from_dns_, binding->address.value(), std::move(binding->name));
      return true;
    }
  }
  if (app == AppProtocol::kTls && packet.dir == Direction::kOutbound) {
    if (auto sni = parse_tls_sni(packet.payload)) {
      static auto& sni_learned = obs::counter("ingest.sni_bindings");
      sni_learned.inc();
      learn(from_sni_, packet.tuple.dst.ip.value(), std::move(*sni));
      return true;
    }
  }
  return false;
}

void DomainResolver::learn(
    std::unordered_map<std::uint32_t, std::string>& map, std::uint32_t ip,
    std::string name) {
  // Most bindings are refreshes of what is already known (a device
  // re-resolving the same name); only a changed answer moves the epoch.
  auto [it, inserted] = map.try_emplace(ip, std::move(name));
  if (!inserted) {
    if (it->second == name) return;
    it->second = std::move(name);
  }
  ++epoch_;
}

const std::string& DomainResolver::resolve(Ipv4Addr ip) const {
  static const std::string kUnknown;
  if (auto it = from_dns_.find(ip.value()); it != from_dns_.end())
    return it->second;
  if (auto it = from_sni_.find(ip.value()); it != from_sni_.end())
    return it->second;
  if (auto it = reverse_dns_.find(ip.value()); it != reverse_dns_.end())
    return it->second;
  return kUnknown;
}

namespace {

std::vector<std::pair<std::uint32_t, std::string>> sorted_bindings(
    const std::unordered_map<std::uint32_t, std::string>& map) {
  std::vector<std::pair<std::uint32_t, std::string>> out(map.begin(),
                                                         map.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

DomainResolverState DomainResolver::export_state() const {
  DomainResolverState s;
  s.dns = sorted_bindings(from_dns_);
  s.sni = sorted_bindings(from_sni_);
  s.reverse_dns = sorted_bindings(reverse_dns_);
  return s;
}

void DomainResolver::import_state(const DomainResolverState& state) {
  from_dns_.clear();
  from_sni_.clear();
  reverse_dns_.clear();
  from_dns_.insert(state.dns.begin(), state.dns.end());
  from_sni_.insert(state.sni.begin(), state.sni.end());
  reverse_dns_.insert(state.reverse_dns.begin(), state.reverse_dns.end());
  ++epoch_;
}

}  // namespace behaviot
