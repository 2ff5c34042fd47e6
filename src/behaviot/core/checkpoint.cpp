#include "behaviot/core/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "behaviot/core/binary_io.hpp"
#include "behaviot/obs/crash_point.hpp"
#include "behaviot/obs/snapshot.hpp"
#include "behaviot/obs/span.hpp"

namespace behaviot {
namespace {

using binio::Cursor;
using binio::put_i64;
using binio::put_str;
using binio::put_u16;
using binio::put_u32;
using binio::put_u64;
using binio::put_u8;

constexpr const char* kTag = "bbc";

const char* section_name(std::uint32_t id) {
  switch (id) {
    case kCkptSectionEngine: return "engine";
    case kCkptSectionAssembler: return "assembler";
    case kCkptSectionMonitor: return "monitor";
    case kCkptSectionResolver: return "resolver";
    case kCkptSectionFrontend: return "frontend";
    case kCkptSectionHealth: return "health";
    default: return "unknown";
  }
}

const char* record_name(std::uint32_t kind) {
  switch (kind) {
    case kCkptRecordModels: return "MODELS";
    case kCkptRecordFlows: return "FLOWS";
    case kCkptRecordState: return "STATE";
    default: return "unknown";
  }
}

// ---------------------------------------------------------------------------
// Primitive writers/readers shared by several sections.

void put_ts(std::string& out, Timestamp t) { put_i64(out, t.micros()); }

Timestamp read_ts(Cursor& c, const char* what) {
  return Timestamp(c.i64(what));
}

void put_opt_ts(std::string& out, const std::optional<Timestamp>& t) {
  put_u8(out, t.has_value() ? 1 : 0);
  put_i64(out, t ? t->micros() : 0);
}

std::optional<Timestamp> read_opt_ts(Cursor& c, const char* what) {
  const std::uint8_t has = c.u8(what);
  if (has > 1) c.fail(std::string(what) + ": presence flag not 0/1");
  const std::int64_t us = c.i64(what);
  if (!has) return std::nullopt;
  return Timestamp(us);
}

bool read_bool(Cursor& c, const char* what) {
  const std::uint8_t v = c.u8(what);
  if (v > 1) c.fail(std::string(what) + ": flag not 0/1");
  return v != 0;
}

void put_tuple(std::string& out, const FiveTuple& t) {
  put_u32(out, t.src.ip.value());
  put_u16(out, t.src.port);
  put_u32(out, t.dst.ip.value());
  put_u16(out, t.dst.port);
  put_u8(out, static_cast<std::uint8_t>(t.proto));
}

FiveTuple read_tuple(Cursor& c) {
  FiveTuple t;
  t.src.ip = Ipv4Addr(c.u32("src ip"));
  t.src.port = c.u16("src port");
  t.dst.ip = Ipv4Addr(c.u32("dst ip"));
  t.dst.port = c.u16("dst port");
  const std::uint8_t proto = c.u8("transport");
  if (proto != static_cast<std::uint8_t>(Transport::kTcp) &&
      proto != static_cast<std::uint8_t>(Transport::kUdp)) {
    c.fail("transport is neither TCP nor UDP");
  }
  t.proto = static_cast<Transport>(proto);
  return t;
}

Direction read_dir(Cursor& c) {
  const std::uint8_t dir = c.u8("direction");
  if (dir > 1) c.fail("direction out of range");
  return static_cast<Direction>(dir);
}

void put_packet(std::string& out, const Packet& p) {
  put_ts(out, p.ts);
  put_tuple(out, p.tuple);
  put_u32(out, p.size);
  put_u8(out, static_cast<std::uint8_t>(p.dir));
  put_u16(out, p.device);
  put_str(out, std::string_view(reinterpret_cast<const char*>(p.payload.data()),
                                p.payload.size()));
}

Packet read_packet(Cursor& c) {
  Packet p;
  p.ts = read_ts(c, "packet ts");
  p.tuple = read_tuple(c);
  p.size = c.u32("packet size");
  p.dir = read_dir(c);
  p.device = c.u16("device");
  const std::string_view payload = c.str_view("payload");
  p.payload.assign(payload.begin(), payload.end());
  return p;
}

/// Every serialized PacketSummary occupies at least this many bytes — the
/// count-cap unit for per-flow packet lists.
constexpr std::size_t kMinPacketSummaryBytes = 8 + 4 + 1 + 1;

void put_flow(std::string& out, const FlowRecord& f) {
  put_u16(out, f.device);
  put_tuple(out, f.tuple);
  put_u8(out, static_cast<std::uint8_t>(f.app));
  put_str(out, f.domain);
  put_ts(out, f.start);
  put_ts(out, f.end);
  put_u64(out, f.packets.size());
  for (const PacketSummary& p : f.packets) {
    put_ts(out, p.ts);
    put_u32(out, p.size);
    put_u8(out, static_cast<std::uint8_t>(p.dir));
    put_u8(out, p.local ? 1 : 0);
  }
  put_u8(out, static_cast<std::uint8_t>(f.truth));
  put_str(out, f.truth_label);
}

FlowRecord read_flow(Cursor& c) {
  FlowRecord f;
  f.device = c.u16("flow device");
  f.tuple = read_tuple(c);
  const std::uint8_t app = c.u8("app protocol");
  if (app > static_cast<std::uint8_t>(AppProtocol::kOtherUdp)) {
    c.fail("app protocol out of range");
  }
  f.app = static_cast<AppProtocol>(app);
  f.domain = c.str("flow domain");
  f.start = read_ts(c, "flow start");
  f.end = read_ts(c, "flow end");
  const std::size_t n = c.count("flow packets", kMinPacketSummaryBytes);
  f.packets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    PacketSummary p;
    p.ts = read_ts(c, "summary ts");
    p.size = c.u32("summary size");
    p.dir = read_dir(c);
    p.local = read_bool(c, "summary local");
    f.packets.push_back(p);
  }
  const std::uint8_t truth = c.u8("truth kind");
  if (truth > static_cast<std::uint8_t>(EventKind::kAperiodic)) {
    c.fail("truth kind out of range");
  }
  f.truth = static_cast<EventKind>(truth);
  f.truth_label = c.str("truth label");
  return f;
}

/// Minimum serialized FlowRecord size (empty domain/label/packets) — the
/// count-cap unit for flow lists.
constexpr std::size_t kMinFlowBytes = 2 + 13 + 1 + 4 + 8 + 8 + 8 + 1 + 4;

void put_flows(std::string& out, std::span<const FlowRecord> flows) {
  put_u64(out, flows.size());
  for (const FlowRecord& f : flows) put_flow(out, f);
}

/// Appends the flow list at the cursor to `flows`.
void read_flows(Cursor& c, const char* what, std::vector<FlowRecord>& flows) {
  const std::size_t n = c.count(what, kMinFlowBytes);
  flows.reserve(flows.size() + n);
  for (std::size_t i = 0; i < n; ++i) flows.push_back(read_flow(c));
}

// ---------------------------------------------------------------------------
// STATE sections.

void put_engine(std::string& out, const WatchCheckpoint& cp) {
  const CheckpointOptions& o = cp.options;
  put_i64(out, o.window_us);
  put_u64(out, o.retrain_every_windows);
  put_i64(out, o.burst_gap_us);
  put_u8(out, o.drop_infrastructure ? 1 : 0);
  put_i64(out, o.max_ts_regression_us);
  put_i64(out, o.reorder_horizon_us);
  put_u64(out, o.max_open_flows);
  put_u64(out, o.max_buffered_packets);
  const WatchEngineState& e = cp.engine;
  put_opt_ts(out, e.t0);
  put_opt_ts(out, e.last_watermark);
  put_u64(out, e.next_window);
  put_ts(out, e.max_end);
  put_u64(out, e.windows);
  put_u64(out, e.alerts);
  put_u64(out, e.model_version);
  put_u64(out, e.swaps);
  put_u8(out, e.swapped_pending_report ? 1 : 0);
  put_u8(out, e.done ? 1 : 0);
  put_u8(out, e.finished ? 1 : 0);
  put_u64(out, e.reported_force_sealed);
  put_u64(out, e.reported_late);
}

void read_engine(Cursor& c, WatchCheckpoint& cp) {
  CheckpointOptions& o = cp.options;
  o.window_us = c.i64("window_us");
  if (o.window_us <= 0) c.fail("window_us not positive");
  o.retrain_every_windows = c.u64("retrain_every_windows");
  o.burst_gap_us = c.i64("burst_gap_us");
  o.drop_infrastructure = read_bool(c, "drop_infrastructure");
  o.max_ts_regression_us = c.i64("max_ts_regression_us");
  o.reorder_horizon_us = c.i64("reorder_horizon_us");
  o.max_open_flows = c.u64("max_open_flows");
  o.max_buffered_packets = c.u64("max_buffered_packets");
  WatchEngineState& e = cp.engine;
  e.t0 = read_opt_ts(c, "t0");
  e.last_watermark = read_opt_ts(c, "last_watermark");
  e.next_window = c.u64("next_window");
  e.max_end = read_ts(c, "max_end");
  e.windows = c.u64("windows");
  e.alerts = c.u64("alerts");
  e.model_version = c.u64("model_version");
  e.swaps = c.u64("swaps");
  e.swapped_pending_report = read_bool(c, "swapped_pending_report");
  e.done = read_bool(c, "done");
  e.finished = read_bool(c, "finished");
  e.reported_force_sealed = c.u64("reported_force_sealed");
  e.reported_late = c.u64("reported_late");
  if (!c.at_end()) c.fail("trailing bytes after engine state");
}

void put_assembler(std::string& out, const StreamingAssemblerState& a) {
  put_u8(out, a.pending.has_value() ? 1 : 0);
  if (a.pending) put_packet(out, *a.pending);
  put_u64(out, a.decided);
  put_ts(out, a.running_max);
  put_ts(out, a.prev_effective);
  put_u64(out, a.reorder.size());
  for (const StreamingFlowAssembler::Buffered& b : a.reorder) {
    put_ts(out, b.effective);
    put_u64(out, b.seq);
    put_packet(out, b.packet);
  }
  put_u64(out, a.next_seq);
  put_ts(out, a.max_seen);
  put_ts(out, a.last_released);
  put_opt_ts(out, a.first_release);
  put_flows(out, a.open);
  put_flows(out, a.sealed);
  put_u8(out, a.finished ? 1 : 0);
  const StreamingAssemblerStats& st = a.stats;
  put_u64(out, st.packets_in);
  put_u64(out, st.flows_sealed);
  put_u64(out, st.flows_emitted);
  put_u64(out, st.infrastructure_dropped);
  put_u64(out, st.unresolved_emitted);
  put_u64(out, st.clamped_ts);
  put_u64(out, st.late_packets);
  put_u64(out, st.force_sealed);
  put_u64(out, st.force_released);
  put_u64(out, st.peak_open_flows);
  put_u64(out, st.peak_buffered_packets);
}

/// Minimum serialized Packet (empty payload) — count-cap unit for the
/// reorder stage (each Buffered adds 16 bytes on top).
constexpr std::size_t kMinPacketBytes = 8 + 13 + 4 + 1 + 2 + 4;

void read_assembler(Cursor& c, StreamingAssemblerState& a) {
  if (read_bool(c, "pending flag")) a.pending = read_packet(c);
  a.decided = c.u64("decided");
  a.running_max = read_ts(c, "running_max");
  a.prev_effective = read_ts(c, "prev_effective");
  const std::size_t n_reorder = c.count("reorder stage", 16 + kMinPacketBytes);
  a.reorder.reserve(n_reorder);
  for (std::size_t i = 0; i < n_reorder; ++i) {
    StreamingFlowAssembler::Buffered b;
    b.effective = read_ts(c, "buffered effective");
    b.seq = c.u64("buffered seq");
    b.packet = read_packet(c);
    a.reorder.push_back(std::move(b));
  }
  a.next_seq = c.u64("next_seq");
  a.max_seen = read_ts(c, "max_seen");
  a.last_released = read_ts(c, "last_released");
  a.first_release = read_opt_ts(c, "first_release");
  read_flows(c, "open flows", a.open);
  read_flows(c, "sealed flows", a.sealed);
  a.finished = read_bool(c, "assembler finished");
  StreamingAssemblerStats& st = a.stats;
  st.packets_in = c.u64("packets_in");
  st.flows_sealed = c.u64("flows_sealed");
  st.flows_emitted = c.u64("flows_emitted");
  st.infrastructure_dropped = c.u64("infrastructure_dropped");
  st.unresolved_emitted = c.u64("unresolved_emitted");
  st.clamped_ts = c.u64("clamped_ts");
  st.late_packets = c.u64("late_packets");
  st.force_sealed = c.u64("force_sealed");
  st.force_released = c.u64("force_released");
  st.peak_open_flows = c.u64("peak_open_flows");
  st.peak_buffered_packets = c.u64("peak_buffered_packets");
  if (!c.at_end()) c.fail("trailing bytes after assembler state");
}

void put_monitor(std::string& out, const DeviationMonitorState& m) {
  put_u64(out, m.last_seen.size());
  for (const auto& [device, group, ts] : m.last_seen) {
    put_u16(out, device);
    put_str(out, group);
    put_ts(out, ts);
  }
  put_u64(out, m.silence_reported.size());
  for (const auto& [device, group] : m.silence_reported) {
    put_u16(out, device);
    put_str(out, group);
  }
  put_u64(out, m.reported_sequences.size());
  for (const std::string& seq : m.reported_sequences) put_str(out, seq);
  put_u8(out, m.primed ? 1 : 0);
}

void read_monitor(Cursor& c, DeviationMonitorState& m) {
  const std::size_t n_seen = c.count("last_seen", 2 + 4 + 8);
  m.last_seen.reserve(n_seen);
  for (std::size_t i = 0; i < n_seen; ++i) {
    const DeviceId device = c.u16("seen device");
    std::string group = c.str("seen group");
    m.last_seen.emplace_back(device, std::move(group),
                             read_ts(c, "seen ts"));
  }
  const std::size_t n_silence = c.count("silence_reported", 2 + 4);
  m.silence_reported.reserve(n_silence);
  for (std::size_t i = 0; i < n_silence; ++i) {
    const DeviceId device = c.u16("silence device");
    m.silence_reported.emplace_back(device, c.str("silence group"));
  }
  const std::size_t n_seq = c.count("reported_sequences", 4);
  m.reported_sequences.reserve(n_seq);
  for (std::size_t i = 0; i < n_seq; ++i) {
    m.reported_sequences.push_back(c.str("reported sequence"));
  }
  m.primed = read_bool(c, "primed");
  if (!c.at_end()) c.fail("trailing bytes after monitor state");
}

void put_bindings(std::string& out,
                  const std::vector<std::pair<std::uint32_t, std::string>>& b) {
  put_u64(out, b.size());
  for (const auto& [ip, domain] : b) {
    put_u32(out, ip);
    put_str(out, domain);
  }
}

std::vector<std::pair<std::uint32_t, std::string>> read_bindings(
    Cursor& c, const char* what) {
  const std::size_t n = c.count(what, 4 + 4);
  std::vector<std::pair<std::uint32_t, std::string>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t ip = c.u32("binding ip");
    out.emplace_back(ip, c.str("binding domain"));
  }
  return out;
}

void put_resolver(std::string& out, const DomainResolverState& r) {
  put_bindings(out, r.dns);
  put_bindings(out, r.sni);
  put_bindings(out, r.reverse_dns);
}

void read_resolver(Cursor& c, DomainResolverState& r) {
  r.dns = read_bindings(c, "dns bindings");
  r.sni = read_bindings(c, "sni bindings");
  r.reverse_dns = read_bindings(c, "reverse-dns bindings");
  if (!c.at_end()) c.fail("trailing bytes after resolver state");
}

void put_frontend(std::string& out, const WatchCheckpoint& cp) {
  put_u64(out, cp.input_offset);
  put_str(out, cp.alerts_json);
}

void read_frontend(Cursor& c, WatchCheckpoint& cp) {
  cp.input_offset = c.u64("input offset");
  cp.alerts_json = c.str("alerts json");
  if (!c.at_end()) c.fail("trailing bytes after frontend section");
}

void put_health(std::string& out, const obs::HealthSnapshot& snap) {
  put_u64(out, snap.components.size());
  for (const obs::ComponentHealth& comp : snap.components) {
    put_str(out, comp.component);
    put_u8(out, static_cast<std::uint8_t>(comp.state));
    put_u64(out, comp.incidents);
    put_u64(out, comp.reasons.size());
    for (const std::string& r : comp.reasons) put_str(out, r);
    put_u64(out, comp.quarantined.size());
    for (const obs::QuarantineRecord& q : comp.quarantined) {
      put_str(out, q.key);
      put_str(out, q.reason);
    }
  }
}

void read_health(Cursor& c, obs::HealthSnapshot& snap) {
  const std::size_t n = c.count("health components", 4 + 1 + 8 + 8 + 8);
  snap.components.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    obs::ComponentHealth comp;
    comp.component = c.str("component name");
    const std::uint8_t state = c.u8("component state");
    if (state > static_cast<std::uint8_t>(obs::ComponentState::kQuarantined)) {
      c.fail("component state out of range");
    }
    comp.state = static_cast<obs::ComponentState>(state);
    comp.incidents = c.u64("incidents");
    const std::size_t n_reasons = c.count("reasons", 4);
    comp.reasons.reserve(n_reasons);
    for (std::size_t r = 0; r < n_reasons; ++r) {
      comp.reasons.push_back(c.str("reason"));
    }
    const std::size_t n_quar = c.count("quarantined", 4 + 4);
    comp.quarantined.reserve(n_quar);
    for (std::size_t q = 0; q < n_quar; ++q) {
      obs::QuarantineRecord rec;
      rec.key = c.str("quarantine key");
      rec.reason = c.str("quarantine reason");
      comp.quarantined.push_back(std::move(rec));
    }
    snap.components.push_back(std::move(comp));
  }
  if (!c.at_end()) c.fail("trailing bytes after health section");
}

// ---------------------------------------------------------------------------
// Framing. Records and STATE sections share one frame: id u32, payload
// size u64, payload; a record adds a CRC-32 over its whole frame.

/// Appends one frame whose payload is whatever `fill(out)` appends, written
/// in place so no payload is copied. Returns the frame's start offset.
template <typename Fill>
std::size_t put_frame(std::string& out, std::uint32_t id, Fill&& fill) {
  const std::size_t start = out.size();
  put_u32(out, id);
  put_u64(out, 0);  // patched below
  fill(out);
  std::uint64_t size = out.size() - start - kCkptRecordHeaderSize;
  for (std::size_t i = 0; i < 8; ++i, size >>= 8) {
    out[start + 4 + i] = static_cast<char>(size & 0xffu);
  }
  return start;
}

template <typename Fill>
void put_record(std::string& out, std::uint32_t kind, Fill&& fill) {
  const std::size_t start = put_frame(out, kind, std::forward<Fill>(fill));
  put_u32(out, crc32_ieee(binio::as_bytes(out).subspan(start)));
}

void put_journal_header(std::string& out) {
  put_u32(out, kCheckpointMagic);
  put_u16(out, kCheckpointFormatVersion);
  put_u16(out, 0);  // flags
}

void put_models_record(std::string& out, std::uint64_t version,
                       std::string_view image) {
  put_record(out, kCkptRecordModels, [&](std::string& o) {
    put_u64(o, version);
    put_str(o, image);
  });
}

void put_flows_record(std::string& out, std::span<const FlowRecord> flows) {
  put_record(out, kCkptRecordFlows,
             [&](std::string& o) { put_flows(o, flows); });
}

void put_state_record(std::string& out, const WatchCheckpoint& cp) {
  put_record(out, kCkptRecordState, [&](std::string& o) {
    put_frame(o, kCkptSectionEngine,
              [&](std::string& s) { put_engine(s, cp); });
    put_frame(o, kCkptSectionAssembler,
              [&](std::string& s) { put_assembler(s, cp.engine.assembler); });
    put_frame(o, kCkptSectionMonitor,
              [&](std::string& s) { put_monitor(s, cp.engine.monitor); });
    put_frame(o, kCkptSectionResolver,
              [&](std::string& s) { put_resolver(s, cp.engine.resolver); });
    put_frame(o, kCkptSectionFrontend,
              [&](std::string& s) { put_frontend(s, cp); });
    put_frame(o, kCkptSectionHealth,
              [&](std::string& s) { put_health(s, cp.health); });
  });
}

std::string compacted_image(const WatchCheckpoint& cp,
                            std::string_view models_image,
                            std::span<const FlowRecord> flows) {
  std::string out;
  put_journal_header(out);
  put_models_record(out, cp.model_version, models_image);
  put_flows_record(out, flows);
  put_state_record(out, cp);
  return out;
}

/// One framed record of a loaded journal: the payload's absolute offset.
/// Kind 0 (never written) marks "no such record".
struct RecordView {
  std::uint32_t kind = 0;
  std::size_t offset = 0;
  std::size_t size = 0;
};

Cursor payload_cursor(std::span<const std::uint8_t> bytes, const RecordView& r,
                      const char* what) {
  return Cursor(bytes.subspan(r.offset, r.size), r.offset, what, kTag);
}

void read_models(Cursor& c, WatchCheckpoint& cp) {
  cp.model_version = c.u64("model handle version");
  cp.models_image = c.str("embedded model image");
  if (!c.at_end()) c.fail("trailing bytes after MODELS record");
}

void read_state(Cursor& c, WatchCheckpoint& cp, ParsePolicy policy,
                ParseStats* stats) {
  bool seen[kCkptSectionHealth + 1] = {};
  while (!c.at_end()) {
    const std::uint32_t id = c.u32("section id");
    const std::uint64_t size = c.u64("section size");
    if (size > c.remaining()) {
      c.fail("section " + std::to_string(id) + " size (" +
             std::to_string(size) + ") exceeds remaining STATE bytes");
    }
    const std::size_t at = c.offset();
    Cursor s(c.bytes(static_cast<std::size_t>(size), "section payload"), at,
             section_name(id), kTag);
    try {
      switch (id) {
        case kCkptSectionEngine: read_engine(s, cp); break;
        case kCkptSectionAssembler:
          read_assembler(s, cp.engine.assembler);
          break;
        case kCkptSectionMonitor: read_monitor(s, cp.engine.monitor); break;
        case kCkptSectionResolver: read_resolver(s, cp.engine.resolver); break;
        case kCkptSectionFrontend: read_frontend(s, cp); break;
        case kCkptSectionHealth: read_health(s, cp.health); break;
        default:
          // Unknown section from a newer minor revision: skip its bytes.
          continue;
      }
    } catch (const SerializationError&) {
      // Only damage in state a resume can do without is droppable: the
      // health snapshot restores operator-facing context, not behavior.
      // Everything else is load-bearing — resuming from a guessed engine
      // state would break the byte-identity guarantee silently.
      if (policy == ParsePolicy::kStrict || id != kCkptSectionHealth) throw;
      cp.health = {};
      if (stats != nullptr) ++stats->sections_dropped;
      continue;
    }
    seen[id] = true;
  }
  for (const std::uint32_t id :
       {kCkptSectionEngine, kCkptSectionAssembler, kCkptSectionMonitor,
        kCkptSectionResolver, kCkptSectionFrontend}) {
    if (!seen[id]) {
      throw SerializationError(std::string(kTag) +
                               ": missing required STATE section: " +
                               section_name(id));
    }
  }
}

std::uint64_t read_le(std::span<const std::uint8_t> bytes, std::size_t at,
                      std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    v |= std::uint64_t{bytes[at + i]} << (8 * i);
  }
  return v;
}

std::string errno_reason(const char* stage, const std::string& path) {
  return std::string(stage) + " " + path + ": " + std::strerror(errno);
}

}  // namespace

CheckpointOptions checkpoint_options(const WatchOptions& opts) {
  CheckpointOptions o;
  o.window_us = opts.window_us;
  o.retrain_every_windows = opts.retrain_every_windows;
  o.burst_gap_us = opts.assembler.base.burst_gap_us;
  o.drop_infrastructure = opts.assembler.base.drop_infrastructure;
  o.max_ts_regression_us = opts.assembler.base.max_ts_regression_us;
  o.reorder_horizon_us = opts.assembler.reorder_horizon_us;
  o.max_open_flows = opts.assembler.max_open_flows;
  o.max_buffered_packets = opts.assembler.max_buffered_packets;
  return o;
}

void apply_checkpoint_options(const CheckpointOptions& pinned,
                              WatchOptions& opts) {
  opts.window_us = pinned.window_us;
  opts.retrain_every_windows =
      static_cast<std::size_t>(pinned.retrain_every_windows);
  opts.assembler.base.burst_gap_us = pinned.burst_gap_us;
  opts.assembler.base.drop_infrastructure = pinned.drop_infrastructure;
  opts.assembler.base.max_ts_regression_us = pinned.max_ts_regression_us;
  opts.assembler.reorder_horizon_us = pinned.reorder_horizon_us;
  opts.assembler.max_open_flows =
      static_cast<std::size_t>(pinned.max_open_flows);
  opts.assembler.max_buffered_packets =
      static_cast<std::size_t>(pinned.max_buffered_packets);
}

std::string save_checkpoint(const WatchCheckpoint& cp) {
  return compacted_image(cp, cp.models_image, cp.engine.retrain_buffer);
}

WatchCheckpoint load_checkpoint(std::span<const std::uint8_t> bytes,
                                ParsePolicy policy, ParseStats* stats,
                                JournalExtent* extent) {
  Cursor header(bytes, 0, "header", kTag);
  if (header.u32("magic") != kCheckpointMagic) {
    throw SerializationError(
        std::string(kTag) + ": bad magic (not a watch checkpoint file)",
        std::size_t{0});
  }
  const std::uint16_t version = header.u16("version");
  if (version != kCheckpointFormatVersion) {
    throw SerializationError(
        std::string(kTag) + ": checkpoint format version " +
            std::to_string(version) + " is not supported (this build reads "
            "version " + std::to_string(kCheckpointFormatVersion) +
            "; restart the run from its capture)",
        std::size_t{4});
  }
  if (header.u16("flags") != 0) {
    throw SerializationError(std::string(kTag) + ": unknown header flags",
                             std::size_t{6});
  }

  // Scan the framing: the last complete STATE commits the MODELS and FLOWS
  // records before it. A record that runs past the end of the input is the
  // torn tail of an interrupted append; it and everything after the last
  // STATE are ignored.
  RecordView models, pending_models, state;
  std::vector<RecordView> flows;
  std::size_t committed_flows = 0;
  JournalExtent ext;
  std::size_t pos = kCkptHeaderSize;
  while (bytes.size() - pos >= kCkptRecordOverhead) {
    RecordView r;
    r.kind = static_cast<std::uint32_t>(read_le(bytes, pos, 4));
    const std::uint64_t size = read_le(bytes, pos + 4, 8);
    if (size > bytes.size() - pos - kCkptRecordOverhead) break;
    r.offset = pos + kCkptRecordHeaderSize;
    r.size = static_cast<std::size_t>(size);
    const std::size_t end = r.offset + r.size + 4;
    const auto stored = static_cast<std::uint32_t>(read_le(bytes, end - 4, 4));
    const std::uint32_t computed =
        crc32_ieee(bytes.subspan(pos, end - 4 - pos));
    if (stored != computed) {
      if (policy == ParsePolicy::kStrict) {
        throw SerializationError(std::string(kTag) + ": CRC mismatch in " +
                                     record_name(r.kind) + " record (stored " +
                                     std::to_string(stored) + ", computed " +
                                     std::to_string(computed) + ")",
                                 pos);
      }
      if (stats != nullptr) ++stats->malformed;
      break;
    }
    switch (r.kind) {
      case kCkptRecordModels: pending_models = r; break;
      case kCkptRecordFlows: flows.push_back(r); break;
      case kCkptRecordState:
        state = r;
        if (pending_models.kind != 0) models = pending_models;
        pending_models = {};
        committed_flows = flows.size();
        ext.committed_bytes = end;
        if (ext.compacted_bytes == 0) ext.compacted_bytes = end;
        break;
      default:
        break;  // unknown kind from a newer minor revision: skip it
    }
    pos = end;
  }
  if (state.kind == 0) {
    throw SerializationError(
        std::string(kTag) +
            ": no complete STATE record (the journal commits no checkpoint)",
        pos);
  }
  if (models.kind == 0) {
    throw SerializationError(
        std::string(kTag) + ": no MODELS record before the last STATE record",
        state.offset - kCkptRecordHeaderSize);
  }

  WatchCheckpoint cp;
  Cursor mc = payload_cursor(bytes, models, "MODELS");
  read_models(mc, cp);
  for (std::size_t i = 0; i < committed_flows; ++i) {
    Cursor fc = payload_cursor(bytes, flows[i], "FLOWS");
    read_flows(fc, "retrain flows", cp.engine.retrain_buffer);
    if (!fc.at_end()) fc.fail("trailing bytes after FLOWS record");
  }
  Cursor sc = payload_cursor(bytes, state, "STATE");
  read_state(sc, cp, policy, stats);
  ext.model_version = cp.model_version;
  ext.flows = cp.engine.retrain_buffer.size();
  if (extent != nullptr) *extent = ext;
  return cp;
}

WatchCheckpoint load_checkpoint_file(const std::string& path,
                                     JournalExtent* extent) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw SerializationError("cannot open for read: " + path);
  const std::string bytes((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  if (file.bad()) throw SerializationError("read failed: " + path);
  return load_checkpoint(binio::as_bytes(bytes), ParsePolicy::kStrict,
                         nullptr, extent);
}

// ---------------------------------------------------------------------------
// CheckpointJournal

CheckpointJournal::CheckpointJournal(std::string path)
    : path_(std::move(path)) {}

CheckpointJournal::CheckpointJournal(std::string path,
                                     const JournalExtent& extent)
    : path_(std::move(path)),
      needs_compaction_(false),
      journal_bytes_(extent.committed_bytes),
      compacted_bytes_(extent.compacted_bytes),
      journaled_flows_(extent.flows),
      journaled_version_(extent.model_version) {
  // Drop the torn or uncommitted tail so the next append lands right after
  // the last committed STATE.
  struct stat st {};
  if (::stat(path_.c_str(), &st) != 0 ||
      static_cast<std::uint64_t>(st.st_size) < journal_bytes_) {
    throw SerializationError("checkpoint journal changed since it was "
                             "loaded: " + path_);
  }
  if (static_cast<std::uint64_t>(st.st_size) > journal_bytes_ &&
      ::truncate(path_.c_str(), static_cast<off_t>(journal_bytes_)) != 0) {
    throw SerializationError(errno_reason("truncate", path_));
  }
}

CheckpointJournal::~CheckpointJournal() { close_fd(); }

void CheckpointJournal::close_fd() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool CheckpointJournal::commit(WatchCheckpoint cp, const WatchEngine& engine,
                               const ModelHandle& models, std::string* error) {
  {
    obs::StageSpan span("checkpoint.export");
    cp.engine = engine.export_state_without_retrain_buffer();
    cp.model_version = models.version();
  }
  const std::span<const FlowRecord> buffer = engine.retrain_buffer();
  // Compact when the journaled flows went to a retrain (they are no longer
  // the buffer) or when the appends since the last compaction outgrew it.
  if (engine.retrain_handoffs() != handoffs_ ||
      buffer.size() < journaled_flows_ ||
      journal_bytes_ - compacted_bytes_ > compacted_bytes_) {
    needs_compaction_ = true;
  }
  const bool compacting = needs_compaction_;
  const bool new_models = cp.model_version != journaled_version_;
  std::string out;
  {
    obs::StageSpan span("checkpoint.serialize");
    if ((compacting || new_models) && image_version_ != cp.model_version) {
      models_image_ = save_models_binary(*models.acquire());
      image_version_ = cp.model_version;
    }
    if (compacting) {
      out = compacted_image(cp, models_image_, buffer);
    } else {
      if (new_models) put_models_record(out, cp.model_version, models_image_);
      if (buffer.size() > journaled_flows_) {
        put_flows_record(out, buffer.subspan(journaled_flows_));
      }
      put_state_record(out, cp);
    }
  }
  obs::crash_point("checkpoint.before_write");
  bool ok = false;
  {
    obs::StageSpan span("checkpoint.write");
    if (compacting) {
      close_fd();
      ok = obs::write_file_atomic(path_, out, error);
    } else {
      ok = append(out, error);
    }
  }
  if (!ok) {
    // Whatever is on disk still replays to the previous commit; rewrite it
    // whole next time rather than append after a possibly torn tail.
    needs_compaction_ = true;
    return false;
  }
  if (compacting) {
    compacted_bytes_ = journal_bytes_ = out.size();
    ++compactions_;
    needs_compaction_ = false;
  } else {
    journal_bytes_ += out.size();
  }
  handoffs_ = engine.retrain_handoffs();
  journaled_flows_ = buffer.size();
  journaled_version_ = cp.model_version;
  last_commit_bytes_ = out.size();
  last_commit_compacted_ = compacting;
  obs::crash_point("checkpoint.after_write");
  return true;
}

bool CheckpointJournal::append(const std::string& records,
                               std::string* error) {
  if (fd_ < 0) {
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd_ < 0) {
      if (error != nullptr) *error = errno_reason("open", path_);
      return false;
    }
  }
  // One write(2) in the normal case; the loop only resumes a short write.
  std::size_t done = 0;
  while (done < records.size()) {
    const ::ssize_t n =
        ::write(fd_, records.data() + done, records.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (error != nullptr) *error = errno_reason("append", path_);
      close_fd();
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace behaviot
