// Destination-domain annotation (§4.1).
//
// Precedence, matching the paper: observed DNS responses, then TLS SNI, then
// a reverse-DNS table, else blank. The resolver is fed packets in capture
// order and queried per flow destination. An epoch counter changes whenever
// any answer may have changed, so callers can cache resolve() results and
// re-query only when the epoch moves.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "behaviot/net/packet.hpp"

namespace behaviot {

/// Serializable snapshot of a DomainResolver's binding maps
/// (checkpointing). Entries are sorted by address so export is
/// deterministic regardless of hash-map iteration order.
struct DomainResolverState {
  std::vector<std::pair<std::uint32_t, std::string>> dns;
  std::vector<std::pair<std::uint32_t, std::string>> sni;
  std::vector<std::pair<std::uint32_t, std::string>> reverse_dns;
};

class DomainResolver {
 public:
  /// Registers a reverse-DNS fallback entry (lowest annotation precedence).
  void add_reverse_dns(Ipv4Addr ip, std::string domain);

  /// Inspects a packet; DNS responses and TLS ClientHellos update the map.
  /// Non-informative packets are ignored. Returns true if the packet taught
  /// the resolver a new or refreshed binding.
  bool observe(const Packet& packet);

  /// Domain for an address, or "" when unknown (the paper leaves the name
  /// blank in that case). The reference stays valid until the resolver
  /// next changes; copy it to keep it.
  [[nodiscard]] const std::string& resolve(Ipv4Addr ip) const;

  /// Bumped by every observe() that adds or changes a binding (a refresh
  /// to the same name does not count), add_reverse_dns() and
  /// import_state(): a resolve() answer cached at epoch E is still current
  /// while epoch() == E. Never kStaleEpoch. Not part of the snapshot.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// An epoch value no resolver ever reports — marks a cache as stale.
  static constexpr std::uint64_t kStaleEpoch = ~std::uint64_t{0};

  [[nodiscard]] std::size_t dns_bindings() const { return from_dns_.size(); }
  [[nodiscard]] std::size_t sni_bindings() const { return from_sni_.size(); }

  /// Snapshot / restore of the three binding maps (checkpointing).
  [[nodiscard]] DomainResolverState export_state() const;
  void import_state(const DomainResolverState& state);

 private:
  /// Stores `name` as map[ip], moving the epoch only if the answer changed.
  void learn(std::unordered_map<std::uint32_t, std::string>& map,
             std::uint32_t ip, std::string name);

  std::unordered_map<std::uint32_t, std::string> from_dns_;
  std::unordered_map<std::uint32_t, std::string> from_sni_;
  std::unordered_map<std::uint32_t, std::string> reverse_dns_;
  std::uint64_t epoch_ = 0;
};

}  // namespace behaviot
