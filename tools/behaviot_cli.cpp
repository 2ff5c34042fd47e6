// behaviot — command-line front end for the library.
//
// Drives the gateway workflow end-to-end on pcap files:
//
//   behaviot simulate --dataset idle --days 2 --seed 7 --out idle.pcap
//       Write a simulated testbed capture as a classic .pcap file.
//       Datasets: idle | activity | routine | uncontrolled-day:<N>
//
//   behaviot train --idle idle.pcap --window-days 2 --out models.bbm
//       Infer periodic models from an idle capture and save them (with the
//       default deviation thresholds). User-action models need labeled
//       interactions and are therefore trained via the library API, not
//       from raw pcaps — see README.
//
//   behaviot show --models models.bbm [--device <name>]
//       Print the saved models. Model files are versioned, CRC-guarded
//       `.bbm` images (core/serialize_binary.hpp), whatever the extension.
//
//   behaviot score --models models.bbm --capture day.pcap
//       Evaluate a capture against saved models and print periodic
//       deviation alerts. With --window-s W the capture is scored in
//       successive W-second windows instead of the prime/score half-split.
//
//   behaviot watch --models models.bbm --capture day.pcap --window-s W
//       Streaming daemon: read the capture incrementally (tail it as it
//       grows with --follow 1), assemble flows with bounded memory, score
//       each W-second deviation window as it closes, and optionally
//       retrain + hot-swap models every N windows (--retrain-every N).
//       On a finite capture the alerts are identical to
//       `score --window-s W`. --max-windows / --until-s bound the run
//       deterministically; --alerts is rewritten after every window.
//
//   behaviot mud --models models.bbm --device <name>
//       Emit a MUD-like profile for one device.
//
//   behaviot check --models models.bbm --capture day.pcap --device <name>
//       MUD compliance: flag the device's flows that match no profile
//       entry (unknown destination or protocol).
//
//   behaviot explain --alerts report.json [--source periodic|short-term|
//       long-term]
//       Render the provenance of each alert in a report written by
//       `score --alerts FILE`: observed vs expected value, crossed
//       threshold, model group, and cluster/vote evidence.
//
//   behaviot health --capture day.pcap [--models models.bbm]
//       Exercise the pipeline on a capture (assembly + inference, plus
//       scoring when models are given) and print the per-component health
//       report: healthy / degraded / quarantined with reason codes.
//
// Numeric flags are validated before any file I/O: a malformed or
// out-of-domain value (--window-s abc, --seed -1, --days inf) prints a
// one-line `usage error:` to stderr and exits 2.
//
// Any traffic-consuming command accepts --chaos SPEC to inject
// deterministic faults (packet loss, reordering, clock faults, DNS-answer
// loss, feature corruption...) before processing — the graceful-degradation
// paths then show up in the health report instead of as crashes.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include <sys/stat.h>

#include "behaviot/analysis/alert_report.hpp"
#include "behaviot/chaos/fault_injector.hpp"
#include "behaviot/core/checkpoint.hpp"
#include "behaviot/core/model_handle.hpp"
#include "behaviot/core/mud_profile.hpp"
#include "behaviot/core/pipeline.hpp"
#include "behaviot/core/serialize_binary.hpp"
#include "behaviot/core/watch_engine.hpp"
#include "behaviot/deviation/monitor.hpp"
#include "behaviot/net/pcap.hpp"
#include "behaviot/obs/export.hpp"
#include "behaviot/obs/health.hpp"
#include "behaviot/obs/metrics.hpp"
#include "behaviot/obs/process_stats.hpp"
#include "behaviot/obs/snapshot.hpp"
#include "behaviot/obs/span.hpp"
#include "behaviot/obs/telemetry_server.hpp"
#include "behaviot/obs/trace.hpp"

using namespace behaviot;

namespace {

/// The run's fault injector (nullptr without --chaos). Lives for the whole
/// command so feature-stage faults stay armed while the pipeline runs.
std::unique_ptr<chaos::FaultInjector> g_chaos;

/// The run's telemetry server (nullptr without --http). Started before the
/// command dispatch so the endpoints answer for the whole run, including
/// model load and ingest.
std::unique_ptr<obs::TelemetryServer> g_telemetry;

/// Shared /statusz document for `watch`: the window sink rewrites it, the
/// server thread reads it. The mutex is the whole consistency story — the
/// served document is always one complete window's status.
struct WatchStatus {
  std::mutex mu;
  std::string json = "null";
};

/// Graceful-shutdown flag for `watch`. The first SIGINT/SIGTERM asks the
/// stream loop to stop: the current window is finished and every snapshot —
/// alerts, metrics, trace, checkpoint — is flushed before a clean exit 0.
/// A second signal aborts immediately with the conventional 128+SIGINT
/// code (no flushing; equivalent to a crash, which --resume recovers from).
std::atomic<int> g_signal_count{0};

extern "C" void handle_watch_signal(int) {
  if (g_signal_count.fetch_add(1, std::memory_order_relaxed) >= 1) {
    std::_Exit(130);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: behaviot <simulate|train|show|score|watch|mud|check"
               "|explain|health> [options]\n"
               "MODELS is a binary .bbm model file (train --out writes one;"
               " show prints it).\n"
               "  simulate --dataset idle|activity|routine|uncontrolled-day:N"
               " [--days D] [--seed S] --out FILE.pcap\n"
               "  train    --idle FILE.pcap --window-days D --out MODELS\n"
               "  show     --models MODELS [--device NAME]\n"
               "  score    --models MODELS --capture FILE.pcap"
               " [--window-s W] [--alerts REPORT.json]\n"
               "  watch    --models MODELS --capture FILE.pcap"
               " [--window-s W]\n"
               "      [--max-windows N] [--until-s S] [--retrain-every N]"
               " [--follow 1]\n"
               "      [--poll-ms MS] [--horizon-s S] [--max-open-flows N]\n"
               "      [--max-buffered-packets N] [--alerts REPORT.json]\n"
               "      [--publish-models FILE   write each retrained+swapped"
               " model\n"
               "      generation to FILE as .bbm]\n"
               "      [--rotate-max-bytes N --rotate-keep K   archive an"
               " --alerts/\n"
               "      --metrics/--trace snapshot as FILE.<window> once it"
               " exceeds N\n"
               "      bytes, keeping the newest K archives (default 3)]\n"
               "      [--checkpoint FILE.bbc [--checkpoint-every N]   append"
               " a durable\n"
               "      checkpoint (engine state + pinned models + capture"
               " cursor) to the\n"
               "      FILE journal after every N closed windows (default 1);"
               " a kill -9\n"
               "      mid-append leaves a torn tail that resume ignores]\n"
               "      [--resume FILE.bbc   restore a checkpointed run and"
               " continue it:\n"
               "      the capture replays from the checkpointed byte offset"
               " and the\n"
               "      alert stream continues byte-identically to the"
               " uninterrupted run\n"
               "      (--models becomes optional; the checkpoint embeds the"
               " models).\n"
               "      With --checkpoint naming the same FILE, the journal"
               " continues]\n"
               "      [--retrain-timeout-s S   abandon a background retrain"
               " still\n"
               "      running S seconds after launch — prior models keep"
               " scoring and\n"
               "      the next interval retries (0 = wait, fully"
               " deterministic)]\n"
               "      [--reopen-backoff-max-ms MS   cap on the exponential"
               " backoff\n"
               "      used when a --follow input is rotated, truncated or"
               " unreadable\n"
               "      (default 5000); the daemon reopens instead of"
               " exiting]\n"
               "      stream the capture (tail it with --follow 1), score"
               " each closed\n"
               "      W-second window, retrain + hot-swap models every"
               " --retrain-every\n"
               "      windows; --alerts is rewritten after every window."
               " SIGTERM/SIGINT\n"
               "      finish the current window and flush every snapshot"
               " before exit 0\n"
               "      (a second signal exits immediately)\n"
               "  mud      --models MODELS --device NAME\n"
               "  check    --models MODELS --capture FILE.pcap"
               " --device NAME\n"
               "  explain  --alerts REPORT.json [--source"
               " periodic|short-term|long-term]\n"
               "  health   --capture FILE.pcap [--models MODELS]\n"
               "common:\n"
               "  --chaos SPEC             inject deterministic faults into"
               " the loaded or\n"
               "      simulated traffic before processing. SPEC is"
               " comma-separated\n"
               "      name=value: drop/dup/reorder/regress/dnsloss/flap/"
               "truncate/nan/inf/\n"
               "      throw (probabilities in [0,1]), skew (clock drift,"
               " ppm), seed,\n"
               "      crash=POINT + crashn=K (SIGKILL the process at the"
               " K-th hit of a\n"
               "      named crash point, e.g. checkpoint.after_write — for"
               " crash-\n"
               "      recovery testing with watch --resume).\n"
               "      Example: --chaos drop=0.01,reorder=0.005,seed=42."
               " Injected faults\n"
               "      surface in the health report, never as crashes\n"
               "  --parse strict|lenient   capture/model parse policy"
               " (default lenient:\n"
               "      damaged records are skipped and reported; strict stops"
               " at the first\n"
               "      malformation with its byte offset)\n"
               "  --metrics FILE           record pipeline metrics (stage"
               " timings, ingestion\n"
               "      skip counters, alert counts) and write them to FILE:"
               " JSON, or\n"
               "      Prometheus text exposition when FILE ends in .prom;"
               " also prints an\n"
               "      end-of-run summary table to stderr\n"
               "  --trace FILE             record an execution timeline and"
               " write it to FILE\n"
               "      as Chrome trace-event JSON (open in Perfetto or"
               " chrome://tracing);\n"
               "      parallel stages render as per-thread lanes of chunk"
               " spans\n"
               "  --http PORT              serve live telemetry on"
               " 127.0.0.1:PORT while the\n"
               "      command runs (0 = ephemeral; the bound port is printed"
               " to stderr):\n"
               "      /metrics (Prometheus 0.0.4), /metrics.json, /healthz"
               " (200/503),\n"
               "      /statusz (run status JSON), /tracez (recent-event"
               " trace)\n");
  return 2;
}

/// A flag value the command cannot use. Distinct from internal failures
/// (exit 1): the operator mistyped, so main() reports it as a one-line
/// usage error and exits 2.
class FlagError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[noreturn]] void reject_flag(const char* name, const std::string& value,
                              const char* want) {
  throw FlagError("--" + std::string(name) + " " + value + ": expected " +
                  want);
}

/// Non-negative integer value, digits only. The std::stoul calls this
/// replaces silently wrapped "-1" to 2^64-1 (a watch --max-windows -1 ran
/// forever believing it was bounded) and accepted junk suffixes ("12abc").
std::uint64_t parse_count_value(const char* name, const std::string& value) {
  const bool digits_only =
      !value.empty() && std::all_of(value.begin(), value.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
      });
  std::uint64_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (!digits_only || ec != std::errc{} ||
      ptr != value.data() + value.size()) {
    reject_flag(name, value, "a non-negative integer");
  }
  return parsed;
}

std::uint64_t parse_count(const std::map<std::string, std::string>& flags,
                          const char* name, std::uint64_t fallback) {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  return parse_count_value(name, it->second);
}

/// Finite floating-point value bounded below. The std::stod calls this
/// replaces accepted "nan" (which then disabled every comparison downstream)
/// and threw std::out_of_range on "1e999" — surfacing as a generic exit-1
/// error instead of a usage error.
double parse_double_value(const char* name, const std::string& value,
                          double min_value, const char* want) {
  double parsed = 0.0;
  const auto [ptr, ec] = std::from_chars(
      value.data(), value.data() + value.size(), parsed,
      std::chars_format::general);
  if (ec != std::errc{} || ptr != value.data() + value.size() ||
      !std::isfinite(parsed) || parsed < min_value) {
    reject_flag(name, value, want);
  }
  return parsed;
}

/// Strictly positive seconds/days value (windows, durations).
double parse_positive(const std::map<std::string, std::string>& flags,
                      const char* name, double fallback) {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  const double v = parse_double_value(name, it->second,
                                      std::numeric_limits<double>::min(),
                                      "a positive finite number");
  return v;
}

/// Non-negative seconds value (offsets, horizons).
double parse_non_negative(const std::map<std::string, std::string>& flags,
                          const char* name, double fallback) {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  return parse_double_value(name, it->second, 0.0,
                            "a non-negative finite number");
}

/// Parse policy for pcap/model ingestion from the common --parse flag.
ParsePolicy parse_policy(const std::map<std::string, std::string>& flags) {
  const auto it = flags.find("parse");
  if (it == flags.end() || it->second == "lenient") {
    return ParsePolicy::kLenient;
  }
  if (it->second == "strict") return ParsePolicy::kStrict;
  throw std::runtime_error("unknown --parse policy '" + it->second +
                           "' (want strict|lenient)");
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    const std::string arg = argv[i] + 2;
    // Both spellings work: "--window-s 30" and "--window-s=30".
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      flags[arg] = argv[++i];
    }
  }
  return flags;
}

/// Reads a pcap and restores device identity from the catalog's lease table.
/// With --chaos, the configured packet faults are applied here — right after
/// ingestion, before any pipeline stage sees the traffic.
std::vector<Packet> load_capture(const std::string& path, ParsePolicy policy) {
  auto parsed = read_pcap(path, policy);
  const auto& catalog = testbed::Catalog::standard();
  for (Packet& p : parsed.packets) {
    const auto* device = catalog.by_ip(p.tuple.src.ip);
    if (device != nullptr) p.device = device->id;
  }
  std::fprintf(stderr, "loaded %s: %s\n", path.c_str(),
               parsed.stats.summary().c_str());
  if (g_chaos != nullptr) {
    g_chaos->apply(parsed.packets);
    std::fprintf(stderr, "chaos: %llu faults injected (%s)\n",
                 static_cast<unsigned long long>(g_chaos->stats().total()),
                 g_chaos->spec().summary().c_str());
  }
  return std::move(parsed.packets);
}

/// Loads a model file under the selected policy, reporting any sections a
/// lenient load had to abandon.
BehaviorModelSet load_models_reporting(const std::string& path,
                                       ParsePolicy policy) {
  ParseStats stats;
  BehaviorModelSet models = load_models_binary_file(path, policy, &stats);
  if (stats.sections_dropped > 0) {
    std::fprintf(stderr,
                 "warning: %s is damaged — %zu model section(s) dropped by"
                 " the lenient load (re-run with --parse strict for the"
                 " offending byte)\n",
                 path.c_str(), stats.sections_dropped);
  }
  return models;
}

/// The metrics document for `path`: Prometheus text exposition when it
/// ends in .prom, JSON otherwise.
std::string render_metrics(const std::string& path,
                           const obs::MetricsSnapshot& snap,
                           const obs::HealthSnapshot& health) {
  const bool prom = path.size() >= 5 && path.rfind(".prom") == path.size() - 5;
  return prom ? obs::to_prometheus(snap, health) : obs::to_json(snap, health);
}

/// Rewrites watch's --metrics snapshot from the live registry; a failed
/// write is reported and the stream goes on.
void write_metrics_snapshot(obs::SnapshotWriter& writer,
                            const obs::HealthSnapshot& health,
                            std::size_t window) {
  std::string doc;
  {
    obs::StageSpan span("sink.render");
    doc = render_metrics(writer.path(),
                         obs::MetricsRegistry::global().snapshot(), health);
  }
  obs::StageSpan span("sink.write");
  if (!writer.write(doc, window)) {
    std::fprintf(stderr, "error: cannot write metrics: %s\n",
                 writer.last_error().c_str());
  }
}

/// Rewrites watch's --alerts snapshot with `document`, the rendered report
/// of every alert since the last rotation. Returns false (after reporting
/// it) when the write failed.
bool write_alerts_document(obs::SnapshotWriter& writer,
                           const std::string& document, std::size_t window) {
  obs::StageSpan span("sink.write");
  if (writer.write(document, window)) return true;
  std::fprintf(stderr, "error: cannot write alerts: %s\n",
               writer.last_error().c_str());
  return false;
}

DomainResolver make_resolver() {
  DomainResolver resolver;
  testbed::GeneratedCapture rdns_only;
  testbed::TrafficGenerator::add_static_rdns(rdns_only);
  testbed::configure_resolver(resolver, rdns_only);
  return resolver;
}

int cmd_simulate(const std::map<std::string, std::string>& flags) {
  const std::string dataset = flags.count("dataset") ? flags.at("dataset")
                                                     : "idle";
  const double days = parse_positive(flags, "days", 1.0);
  const std::uint64_t seed = parse_count(flags, "seed", 1);
  if (flags.count("out") == 0) return usage();

  testbed::GeneratedCapture capture;
  if (dataset == "idle") {
    capture = testbed::Datasets::idle(seed, days);
  } else if (dataset == "activity") {
    capture = testbed::Datasets::activity(seed);
  } else if (dataset == "routine") {
    capture = testbed::Datasets::routine_week(seed, days);
  } else if (dataset.rfind("uncontrolled-day:", 0) == 0) {
    capture = testbed::Datasets::uncontrolled_day(
        static_cast<std::size_t>(parse_count_value(
            "dataset", dataset.substr(std::strlen("uncontrolled-day:")))),
        seed);
  } else {
    std::fprintf(stderr, "unknown dataset '%s'\n", dataset.c_str());
    return 2;
  }

  if (g_chaos != nullptr) g_chaos->apply(capture);

  PcapWriter writer(flags.at("out"));
  for (const Packet& p : capture.packets) writer.write(p);
  std::printf("wrote %zu packets to %s (%zu ground-truth user events "
              "withheld — pcap carries traffic only)\n",
              writer.packets_written(), flags.at("out").c_str(),
              capture.events.size());
  return 0;
}

int cmd_train(const std::map<std::string, std::string>& flags) {
  if (flags.count("idle") == 0 || flags.count("out") == 0) return usage();
  const double window_days = parse_positive(flags, "window-days", 1.0);

  const auto packets = load_capture(flags.at("idle"), parse_policy(flags));
  DomainResolver resolver = make_resolver();
  FlowAssembler assembler;
  const auto flows = assembler.assemble(packets, resolver);
  std::fprintf(stderr, "assembled %zu flows\n", flows.size());

  BehaviorModelSet models;
  models.periodic = PeriodicModelSet::infer(flows, window_days * 86400.0);
  save_models_binary_file(flags.at("out"), models);
  std::printf("inferred %zu periodic models (coverage %.1f%%), saved to %s\n",
              models.periodic.size(),
              models.periodic.stats().coverage() * 100.0,
              flags.at("out").c_str());
  return 0;
}

int cmd_show(const std::map<std::string, std::string>& flags) {
  if (flags.count("models") == 0) return usage();
  const BehaviorModelSet models =
      load_models_reporting(flags.at("models"), parse_policy(flags));
  const auto& catalog = testbed::Catalog::standard();

  const testbed::DeviceInfo* only = nullptr;
  if (flags.count("device")) {
    only = catalog.by_name(flags.at("device"));
    if (only == nullptr) {
      std::fprintf(stderr, "unknown device '%s'\n",
                   flags.at("device").c_str());
      return 2;
    }
  }
  std::printf("periodic models: %zu; PFSM: %zu states / %zu transitions; "
              "thresholds: periodic %.2f, short-term %.2f, |z| %.2f\n\n",
              models.periodic.size(), models.pfsm.num_states(),
              models.pfsm.num_transitions(), models.thresholds.periodic,
              models.short_term.value(), models.thresholds.long_term_z);
  for (const PeriodicModel& m : models.periodic.all()) {
    if (only != nullptr && m.device != only->id) continue;
    const char* device_name = m.device < catalog.size()
                                  ? catalog.by_id(m.device).name.c_str()
                                  : "?";
    std::printf("%-20s %-4s %-32s T=%8.1fs tol=%6.1fs support=%zu\n",
                device_name, to_string(m.app), m.domain.c_str(),
                m.period_seconds, m.tolerance_seconds, m.support);
  }
  return 0;
}

int cmd_score(const std::map<std::string, std::string>& flags) {
  if (flags.count("models") == 0 || flags.count("capture") == 0) {
    return usage();
  }
  // Validate numeric flags before any file I/O: a typo'd --window-s is a
  // usage error (exit 2) even when the model file also happens to be absent.
  const std::optional<std::int64_t> window_us =
      flags.count("window-s")
          ? std::optional<std::int64_t>(
                seconds(parse_positive(flags, "window-s", 1.0)))
          : std::nullopt;
  const BehaviorModelSet models =
      load_models_reporting(flags.at("models"), parse_policy(flags));
  const auto packets = load_capture(flags.at("capture"), parse_policy(flags));
  if (packets.empty()) {
    std::fprintf(stderr, "empty capture\n");
    return 1;
  }
  DomainResolver resolver = make_resolver();
  FlowAssembler assembler;
  const auto flows = assembler.assemble(packets, resolver);

  DeviationMonitor monitor(models.periodic, models.pfsm, models.short_term);
  std::vector<DeviationAlert> alerts;
  if (window_us) {
    // Windowed scoring: evaluate successive W-second windows over the whole
    // capture. This is the grid `behaviot watch` streams over, so on a finite
    // capture the two commands emit identical alerts.
    const Timestamp t0 = flows.front().start;
    const Timestamp end = flows.back().end + seconds(1.0);
    std::size_t windows = 0;
    for (Timestamp ws = t0; ws < end; ws = ws + *window_us) {
      const Timestamp we = ws + *window_us;
      std::vector<FlowRecord> in_window;
      for (const FlowRecord& f : flows) {
        if (f.start >= ws && f.start < we) in_window.push_back(f);
      }
      auto batch = monitor.evaluate_window(ws, we, in_window, {});
      alerts.insert(alerts.end(), std::make_move_iterator(batch.begin()),
                    std::make_move_iterator(batch.end()));
      ++windows;
    }
    std::printf("%zu flows, %zu deviation alerts in %zu windows\n",
                flows.size(), alerts.size(), windows);
  } else {
    // Two passes: the first primes the timers, the second scores. A gateway
    // deployment would stream windows (see `behaviot watch`); for a one-shot
    // file we split in half.
    const Timestamp start = flows.front().start;
    const Timestamp end = flows.back().end + seconds(1.0);
    const Timestamp mid((start.micros() + end.micros()) / 2);
    std::vector<FlowRecord> first_half, second_half;
    for (const FlowRecord& f : flows) {
      (f.start < mid ? first_half : second_half).push_back(f);
    }
    (void)monitor.evaluate_window(start, mid, first_half, {});
    alerts = monitor.evaluate_window(mid, end, second_half, {});
    std::printf("%zu flows, %zu deviation alerts in the scored half\n",
                flows.size(), alerts.size());
  }

  const auto& catalog = testbed::Catalog::standard();
  for (const auto& a : alerts) {
    const char* device_name = a.device < catalog.size()
                                  ? catalog.by_id(a.device).name.c_str()
                                  : "(system)";
    std::printf("  [%s] %-18s score %6.2f (thr %4.2f)  %s\n",
                to_string(a.source), device_name, a.score, a.threshold,
                a.context.substr(0, 80).c_str());
  }
  if (flags.count("alerts")) {
    const std::string& path = flags.at("alerts");
    const obs::HealthSnapshot health = obs::health().snapshot();
    std::string error;
    if (!obs::write_file_atomic(path, alerts_to_json(alerts, &health),
                                &error)) {
      std::fprintf(stderr, "error: cannot write alerts: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu alert(s) with provenance to %s\n",
                 alerts.size(), path.c_str());
  }
  return 0;
}

/// Streaming counterpart of `score --window-s`: tail the capture through the
/// bounded PcapReader + StreamingFlowAssembler, evaluate each window as the
/// stream clock closes it, and hot-swap retrained models between windows.
int cmd_watch(const std::map<std::string, std::string>& flags) {
  const bool resuming = flags.count("resume") > 0;
  if (flags.count("capture") == 0 ||
      (!resuming && flags.count("models") == 0)) {
    return usage();
  }
  // Numeric flags first (usage errors exit 2 before any file is touched),
  // then the checkpoint load (whose pinned option grid overrides the
  // deterministic knobs), then the model load.
  WatchOptions opts;
  if (flags.count("window-s")) {
    opts.window_us = seconds(parse_positive(flags, "window-s", 1.0));
  }
  if (flags.count("max-windows")) {
    opts.max_windows =
        static_cast<std::size_t>(parse_count(flags, "max-windows", 0));
  }
  if (flags.count("until-s")) {
    opts.until = Timestamp(seconds(parse_non_negative(flags, "until-s", 0.0)));
  }
  if (flags.count("retrain-every")) {
    opts.retrain_every_windows =
        static_cast<std::size_t>(parse_count(flags, "retrain-every", 0));
  }
  if (flags.count("horizon-s")) {
    opts.assembler.reorder_horizon_us =
        seconds(parse_non_negative(flags, "horizon-s", 0.0));
  }
  if (flags.count("max-open-flows")) {
    opts.assembler.max_open_flows =
        static_cast<std::size_t>(parse_count(flags, "max-open-flows", 0));
  }
  if (flags.count("max-buffered-packets")) {
    opts.assembler.max_buffered_packets = static_cast<std::size_t>(
        parse_count(flags, "max-buffered-packets", 0));
  }
  if (flags.count("publish-models")) {
    opts.publish_models_path = flags.at("publish-models");
  }
  if (flags.count("retrain-timeout-s")) {
    opts.retrain_timeout_s = parse_non_negative(flags, "retrain-timeout-s",
                                                0.0);
  }
  const long poll_ms = static_cast<long>(parse_count(flags, "poll-ms", 200));
  const long reopen_backoff_max_ms = static_cast<long>(std::max<std::uint64_t>(
      1, parse_count(flags, "reopen-backoff-max-ms", 5000)));
  const std::string checkpoint_path =
      flags.count("checkpoint") ? flags.at("checkpoint") : "";
  const std::uint64_t checkpoint_every =
      parse_count(flags, "checkpoint-every", 1);
  if (checkpoint_every == 0) {
    reject_flag("checkpoint-every", flags.at("checkpoint-every"),
                "a positive window count");
  }
  obs::SnapshotRotation rotation;
  rotation.max_bytes = parse_count(flags, "rotate-max-bytes", 0);
  rotation.keep =
      static_cast<std::size_t>(parse_count(flags, "rotate-keep", 3));

  // --resume: restore the whole daemon — health registry, pinned models,
  // engine state and the capture cursor — from the last committed
  // checkpoint in the journal (a torn tail after it is ignored).
  std::optional<WatchCheckpoint> resume_cp;
  JournalExtent resume_extent;
  if (resuming) {
    const std::string& source = flags.at("resume");
    resume_cp.emplace(load_checkpoint_file(source, &resume_extent));
    std::error_code ec;
    const auto file_bytes = std::filesystem::file_size(source, ec);
    const std::uint64_t tail =
        ec ? 0 : static_cast<std::uint64_t>(file_bytes) -
                     resume_extent.committed_bytes;
    std::fprintf(stderr,
                 "resume: restored %s (window %zu, input offset %llu,"
                 " models v%llu; %llu uncommitted tail bytes ignored)\n",
                 source.c_str(), resume_cp->engine.windows,
                 static_cast<unsigned long long>(resume_cp->input_offset),
                 static_cast<unsigned long long>(resume_cp->model_version),
                 static_cast<unsigned long long>(tail));
    obs::health().restore(resume_cp->health);
    // The checkpointed deterministic grid wins over CLI flags: the
    // continuation must share window geometry, retrain cadence and
    // assembler behavior with the run that wrote the checkpoint, or the
    // byte-identity guarantee is meaningless. Operational knobs (--follow,
    // --max-windows, --until-s, snapshot paths) stay CLI-provided.
    apply_checkpoint_options(resume_cp->options, opts);
  }

  // The handle starts from the checkpoint's embedded .bbm image (version
  // counter continued, so post-resume publishes number their generations
  // exactly as the uninterrupted run would) or from --models at version 1.
  ModelHandle handle{BehaviorModelSet{}};
  if (resuming) {
    const std::string& image = resume_cp->models_image;
    handle.restore(
        load_models_binary({reinterpret_cast<const std::uint8_t*>(
                                image.data()),
                            image.size()}),
        resume_cp->model_version);
  } else {
    handle.restore(load_models_reporting(flags.at("models"),
                                         parse_policy(flags)),
                   1);
  }
  WatchEngine engine(handle, make_resolver(), opts);
  if (resuming) {
    engine.import_state(std::move(resume_cp->engine));
  }
  // --checkpoint naming the journal --resume loaded continues it (its torn
  // tail truncated); any other path starts a new journal.
  std::optional<CheckpointJournal> journal;
  if (!checkpoint_path.empty()) {
    std::error_code ec;
    if (resuming &&
        std::filesystem::equivalent(checkpoint_path, flags.at("resume"), ec)) {
      journal.emplace(checkpoint_path, resume_extent);
    } else {
      journal.emplace(checkpoint_path);
    }
  }

  const auto& catalog = testbed::Catalog::standard();
  // Every telemetry output is rewritten atomically after each closed window
  // (and archived once it crosses the rotation cap), so a kill -9 at any
  // moment leaves complete previous-generation files behind.
  std::optional<obs::SnapshotWriter> alerts_writer;
  if (flags.count("alerts")) {
    alerts_writer.emplace(flags.at("alerts"), rotation);
  }
  std::optional<obs::SnapshotWriter> metrics_writer;
  if (flags.count("metrics")) {
    metrics_writer.emplace(flags.at("metrics"), rotation);
  }
  std::optional<obs::SnapshotWriter> trace_writer;
  if (flags.count("trace")) {
    trace_writer.emplace(flags.at("trace"), rotation);
  }
  auto status = std::make_shared<WatchStatus>();
  if (g_telemetry != nullptr) {
    g_telemetry->set_status_provider([status]() {
      std::lock_guard<std::mutex> lock(status->mu);
      return status->json;
    });
  }
  std::vector<DeviationAlert> all_alerts;
  if (resuming && !resume_cp->alerts_json.empty()) {
    // Continue the alerts document exactly where the checkpoint froze it
    // (post-rotation state included), so the resumed daemon's snapshot
    // files carry on byte-identically.
    all_alerts = alerts_from_json(resume_cp->alerts_json);
  }

  // Capture-side cursor the checkpoints pin: updated right before every
  // ingest() call, when all packets of the chunk lie below it. The sink
  // fires inside ingest() with the whole chunk inside engine state, so a
  // resume replaying from this offset replays no packet twice, loses none.
  // Chunks are 1024 packets or whatever a --follow poll found, and the
  // engine's output does not depend on that split, so a resume from any
  // such offset continues the run exactly.
  std::uint64_t input_offset = resuming ? resume_cp->input_offset : 0;
  struct CheckpointTelemetry {
    bool written = false;
    std::size_t window = 0;
    double write_ms = 0.0;
    std::chrono::steady_clock::time_point at{};
  } ck;
  // `alerts_json` is the rendered report of `all_alerts` under `health`.
  auto write_checkpoint_now = [&](std::size_t window_index,
                                  const obs::HealthSnapshot& health,
                                  std::string alerts_json) {
    if (!journal) return;
    WatchCheckpoint cp;
    cp.options = checkpoint_options(opts);
    cp.input_offset = input_offset;
    cp.alerts_json = std::move(alerts_json);
    cp.health = health;
    const auto t_begin = std::chrono::steady_clock::now();
    std::string error;
    if (!journal->commit(std::move(cp), engine, handle, &error)) {
      std::fprintf(stderr, "error: cannot write checkpoint: %s\n",
                   error.c_str());
      obs::health().degrade("watch.checkpoint",
                            "checkpoint-write-failed: " + error);
      return;
    }
    ck.written = true;
    ck.window = window_index;
    ck.at = std::chrono::steady_clock::now();
    ck.write_ms =
        std::chrono::duration<double, std::milli>(ck.at - t_begin).count();
    obs::counter("checkpoint.writes").inc();
    if (journal->last_commit_compacted()) {
      obs::counter("checkpoint.compactions").inc();
    }
    obs::gauge("checkpoint.bytes")
        .set(static_cast<double>(journal->journal_bytes()));
    obs::gauge("checkpoint.appended_bytes")
        .set(static_cast<double>(journal->last_commit_bytes()));
    obs::gauge("checkpoint.last_window")
        .set(static_cast<double>(window_index));
    obs::histogram("checkpoint.write_ms").observe(ck.write_ms);
  };
  engine.set_window_sink([&](const WatchWindowReport& r) {
    std::string note;
    if (r.swapped) {
      note = "  [models v" + std::to_string(r.model_version) + " swapped in]";
    }
    std::printf("window %4zu [%11.1fs, %11.1fs)  %5zu flows  %zu alert(s)%s\n",
                r.index, static_cast<double>(r.start.micros()) / 1e6,
                static_cast<double>(r.end.micros()) / 1e6, r.flows,
                r.alerts.size(), note.c_str());
    for (const auto& a : r.alerts) {
      const char* device_name = a.device < catalog.size()
                                    ? catalog.by_id(a.device).name.c_str()
                                    : "(system)";
      std::printf("  [%s] %-18s score %6.2f (thr %4.2f)  %s\n",
                  to_string(a.source), device_name, a.score, a.threshold,
                  a.context.substr(0, 80).c_str());
    }
    all_alerts.insert(all_alerts.end(), r.alerts.begin(), r.alerts.end());
    const obs::HealthSnapshot health = obs::health().snapshot();
    const bool checkpoint_due =
        journal && (r.index + 1) % checkpoint_every == 0;
    // One render serves the alerts snapshot and the checkpoint.
    std::string alerts_json;
    if (alerts_writer || checkpoint_due) {
      obs::StageSpan span("sink.render");
      alerts_json = alerts_to_json(all_alerts, &health);
    }
    if (alerts_writer) {
      // Rewritten whole after every window: the file is always a complete,
      // valid report of the alerts emitted since the last rotation.
      if (write_alerts_document(*alerts_writer, alerts_json, r.index) &&
          alerts_writer->rotated_last_write()) {
        // The archived generation holds everything so far; the next
        // generation reports only what follows. Concatenating the archives
        // with the live file reproduces the unrotated report exactly.
        all_alerts.clear();
        if (checkpoint_due) {
          obs::StageSpan span("sink.render");
          alerts_json = alerts_to_json(all_alerts, &health);
        }
      }
    }
    if (checkpoint_due) {
      // The window sink is the engine's quiescent point (no retrain in
      // flight), so the journal's export here is exact; the checkpoint cadence
      // keys off the absolute window index so interrupted and uninterrupted
      // runs checkpoint at identical instants.
      write_checkpoint_now(r.index, health, std::move(alerts_json));
    }
    if (metrics_writer || g_telemetry != nullptr) {
      obs::update_process_gauges();
    }
    if (metrics_writer) {
      write_metrics_snapshot(*metrics_writer, health, r.index);
    }
    if (obs::Tracer::enabled() &&
        (trace_writer || g_telemetry != nullptr)) {
      // The window sink is the stream's quiescent point (the retrain thread
      // is joined and pool workers are idle), so the tracer's snapshot
      // contract holds — this is where the rings may be read and published.
      const std::string doc =
          obs::trace_to_chrome_json(obs::Tracer::global().snapshot());
      if (trace_writer && !trace_writer->write(doc, r.index)) {
        std::fprintf(stderr, "error: cannot write trace: %s\n",
                     trace_writer->last_error().c_str());
      }
      if (g_telemetry != nullptr) g_telemetry->publish_trace_json(doc);
    }
    if (g_telemetry != nullptr) {
      // Refresh /statusz: one complete JSON document per closed window.
      const auto snap = obs::MetricsRegistry::global().snapshot();
      const auto quantiles = [&snap](const char* name) {
        std::ostringstream q;
        const auto it = snap.histograms.find(name);
        if (it == snap.histograms.end()) {
          q << "{\"count\":0}";
        } else {
          q << "{\"count\":" << it->second.count
            << ",\"p50\":" << obs::histogram_quantile(it->second, 0.5)
            << ",\"p95\":" << obs::histogram_quantile(it->second, 0.95)
            << ",\"p99\":" << obs::histogram_quantile(it->second, 0.99)
            << "}";
        }
        return q.str();
      };
      const auto wm = engine.last_seal_watermark();
      std::ostringstream js;
      js << "{\"window\":" << r.index << ",\"window_end_s\":"
         << static_cast<double>(r.end.micros()) / 1e6
         << ",\"seal_watermark_s\":";
      if (wm) {
        js << static_cast<double>(wm->micros()) / 1e6 << ",\"watermark_lag_s\":"
           << static_cast<double>(wm->micros() - r.end.micros()) / 1e6;
      } else {
        js << "null,\"watermark_lag_s\":null";
      }
      js << ",\"model_version\":" << r.model_version
         << ",\"swaps\":" << engine.swaps()
         << ",\"alerts\":" << engine.alerts_emitted()
         << ",\"open_flows\":" << engine.open_flows()
         << ",\"buffered_packets\":" << engine.buffered_packets()
         << ",\"retrain_failures\":" << engine.retrain_failures()
         << ",\"window_close_latency_ms\":"
         << quantiles("watch.window_close_latency_ms")
         << ",\"retrain_duration_ms\":"
         << quantiles("watch.retrain_duration_ms");
      // Checkpoint staleness: operators alert on age_s exceeding a few
      // window widths — the daemon is alive but no longer durable.
      js << ",\"checkpoint\":";
      if (ck.written) {
        js << "{\"window\":" << ck.window
           << ",\"appended_bytes\":" << journal->last_commit_bytes()
           << ",\"journal_bytes\":" << journal->journal_bytes()
           << ",\"write_ms\":" << ck.write_ms << ",\"age_s\":"
           << std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            ck.at)
                  .count()
           << "}";
      } else {
        js << "null";
      }
      js << "}";
      std::lock_guard<std::mutex> lock(status->mu);
      status->json = js.str();
    }
    std::fflush(stdout);
  });

  const std::string capture_path = flags.at("capture");
  const bool follow = flags.count("follow") && flags.at("follow") != "0";
  PcapReaderOptions ropts;
  ropts.policy = parse_policy(flags);

  // Graceful shutdown: the first SIGINT/SIGTERM breaks the stream loop so
  // the current window is finished and every snapshot (alerts, metrics,
  // trace, checkpoint) flushed before exit 0; a second signal exits hard.
  g_signal_count.store(0);
  std::signal(SIGINT, handle_watch_signal);
  std::signal(SIGTERM, handle_watch_signal);

  // Follow-mode self-healing: fingerprint the input on every EOF poll. A
  // vanished path, a shrunken file or a changed inode means the capture was
  // rotated or truncated under us — the current reader is abandoned and the
  // path reopened from its (new) pcap header, with capped exponential
  // backoff between attempts.
  struct InputFingerprint {
    bool valid = false;
    std::uint64_t size = 0;
    std::uint64_t inode = 0;
    std::uint64_t device = 0;
  } fingerprint;
  bool reopen_requested = false;
  auto input_intact = [&]() {
    struct stat st {};
    if (::stat(capture_path.c_str(), &st) != 0) return false;
    if (fingerprint.valid &&
        (static_cast<std::uint64_t>(st.st_ino) != fingerprint.inode ||
         static_cast<std::uint64_t>(st.st_dev) != fingerprint.device ||
         static_cast<std::uint64_t>(st.st_size) < fingerprint.size)) {
      return false;
    }
    fingerprint = {true, static_cast<std::uint64_t>(st.st_size),
                   static_cast<std::uint64_t>(st.st_ino),
                   static_cast<std::uint64_t>(st.st_dev)};
    return true;
  };
  auto interruptible_sleep = [&](long ms) {
    // Short slices so a shutdown signal cuts the wait, not one full backoff.
    while (ms > 0 && g_signal_count.load() == 0) {
      const long slice = std::min<long>(ms, 50);
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      ms -= slice;
    }
  };
  // Chunked ingest: device annotation and chaos faults are applied per chunk,
  // exactly as load_capture() does for the batch commands. --chaos reseeds
  // its RNG in every apply(), one call per chunk, so under --follow the
  // injected faults depend on how the appends happened to arrive.
  std::vector<Packet> chunk;
  constexpr std::size_t kChunk = 1024;
  std::optional<std::ifstream> input;  // outlives reader (reader holds a ref)
  std::optional<PcapReader> reader;
  auto flush_chunk = [&]() {
    if (chunk.empty()) return;
    for (Packet& p : chunk) {
      const auto* device = catalog.by_ip(p.tuple.src.ip);
      if (device != nullptr) p.device = device->id;
    }
    if (g_chaos != nullptr) g_chaos->apply(chunk);
    if (reader) input_offset = reader->consumed_offset();
    engine.ingest(chunk);
    chunk.clear();
  };
  if (follow) {
    // Tail mode: at EOF hand the engine everything read so far — a window
    // whose closing packet just arrived is emitted now, not once 1024
    // packets have piled up behind it — then verify the input is still the
    // same growing file, sleep one poll interval and retry. A
    // --max-windows / --until-s stop or a shutdown signal ends the loop; a
    // rotated/truncated input requests a reopen instead.
    ropts.on_eof = [&]() {
      if (engine.done() || g_signal_count.load() != 0) return false;
      flush_chunk();
      if (engine.done()) return false;
      if (!input_intact()) {
        reopen_requested = true;
        return false;
      }
      interruptible_sleep(poll_ms);
      return g_signal_count.load() == 0;
    };
  }

  bool first_open = true;
  long backoff_ms = std::max<long>(1, poll_ms);
  while (!engine.done() && g_signal_count.load() == 0) {
    reader.reset();
    input.emplace(capture_path, std::ios::binary);
    if (*input) {
      fingerprint.valid = false;
      (void)input_intact();
      PcapReaderOptions per_open = ropts;
      // The checkpointed capture cursor applies to the first open only: a
      // reopened (rotated) file is a new capture, read from its header on.
      per_open.resume_offset =
          (first_open && resuming) ? resume_cp->input_offset : 0;
      try {
        reader.emplace(*input, per_open);
      } catch (const ParseError& e) {
        if (!follow) throw;
        // Truncated or half-written global header: transient in tail mode —
        // the writer may still be producing the file.
        std::fprintf(stderr, "watch: cannot read %s (%s) — retrying\n",
                     capture_path.c_str(), e.what());
      }
    } else if (!follow) {
      std::fprintf(stderr, "error: cannot open %s\n", capture_path.c_str());
      return 1;
    }
    if (!reader) {
      obs::counter("watch.input_reopens").inc();
      obs::health().degrade("watch.input", "input-reopened");
      interruptible_sleep(backoff_ms);
      backoff_ms = std::min<long>(backoff_ms * 2, reopen_backoff_max_ms);
      continue;
    }
    first_open = false;
    reopen_requested = false;
    bool read_error = false;
    while (!engine.done() && g_signal_count.load() == 0) {
      std::optional<Packet> packet;
      try {
        packet = reader->next();
      } catch (const ParseError& e) {
        if (!follow) throw;
        // A stop decided at an EOF poll can leave a half-appended record
        // behind; that is the end of this run, not a damaged input.
        if (engine.done() || g_signal_count.load() != 0) break;
        std::fprintf(stderr, "watch: read error on %s (%s) — reopening\n",
                     capture_path.c_str(), e.what());
        read_error = true;
        break;
      }
      if (!packet) break;
      backoff_ms = std::max<long>(1, poll_ms);  // a healthy read resets it
      chunk.push_back(*packet);
      if (chunk.size() >= kChunk) flush_chunk();
    }
    if (!follow || engine.done() || g_signal_count.load() != 0) break;
    if (!reopen_requested && !read_error) break;
    obs::counter("watch.input_reopens").inc();
    obs::health().degrade("watch.input", "input-reopened");
    std::fprintf(stderr, "watch: input %s %s — reopening from the start\n",
                 capture_path.c_str(),
                 read_error ? "hit a read error"
                            : "was rotated or truncated");
    interruptible_sleep(backoff_ms);
    backoff_ms = std::min<long>(backoff_ms * 2, reopen_backoff_max_ms);
  }
  if (!engine.done()) flush_chunk();
  if (g_signal_count.load() != 0) {
    std::fprintf(stderr,
                 "watch: shutdown signal received — finishing the stream and"
                 " flushing final snapshots\n");
  }
  engine.finish();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  {
    // Final snapshot flush. The sink keeps these fresh per window, but a
    // run that closes no further window — a --resume picking up at the end
    // of the capture, or a SIGTERM before the first close — must still
    // leave complete documents behind.
    const obs::HealthSnapshot health = obs::health().snapshot();
    const std::size_t last_window =
        engine.windows_evaluated() == 0 ? 0 : engine.windows_evaluated() - 1;
    if (alerts_writer) {
      (void)write_alerts_document(*alerts_writer,
                                  alerts_to_json(all_alerts, &health),
                                  last_window);
    }
    if (metrics_writer) {
      obs::update_process_gauges();
      write_metrics_snapshot(*metrics_writer, health, last_window);
    }
  }
  if (journal) {
    // Final checkpoint after the stream is fully drained, regardless of
    // cadence: a --resume from it knows the run completed.
    const obs::HealthSnapshot health = obs::health().snapshot();
    write_checkpoint_now(
        engine.windows_evaluated() == 0 ? 0 : engine.windows_evaluated() - 1,
        health, alerts_to_json(all_alerts, &health));
  }

  const StreamingAssemblerStats& st = engine.assembler_stats();
  std::printf("watched %zu windows: %llu flows, %zu alerts, %llu model"
              " swap(s); peak %zu open flows / %zu buffered packets\n",
              engine.windows_evaluated(),
              static_cast<unsigned long long>(st.flows_emitted),
              engine.alerts_emitted(),
              static_cast<unsigned long long>(engine.swaps()),
              st.peak_open_flows, st.peak_buffered_packets);
  if (g_chaos != nullptr) {
    std::fprintf(stderr, "chaos: %llu faults injected (%s)\n",
                 static_cast<unsigned long long>(g_chaos->stats().total()),
                 g_chaos->spec().summary().c_str());
  }
  return 0;
}

int cmd_health(const std::map<std::string, std::string>& flags) {
  if (flags.count("capture") == 0) return usage();
  const auto packets = load_capture(flags.at("capture"), parse_policy(flags));
  DomainResolver resolver = make_resolver();
  FlowAssembler assembler;
  const auto flows = assembler.assemble(packets, resolver);
  std::fprintf(stderr, "assembled %zu flows\n", flows.size());

  if (flags.count("models")) {
    // Score the capture against the saved models so the classify/monitor
    // components report too.
    const BehaviorModelSet models =
        load_models_reporting(flags.at("models"), parse_policy(flags));
    Pipeline pipeline;
    const auto classified = pipeline.classify(flows, models);
    for (const std::string& reason : classified.degraded) {
      std::fprintf(stderr, "degraded: %s\n", reason.c_str());
    }
    if (!flows.empty()) {
      DeviationMonitor monitor(models.periodic, models.pfsm,
                               models.short_term);
      (void)monitor.evaluate_window(flows.front().start,
                                    flows.back().end + seconds(1.0), flows,
                                    {});
    }
  } else if (!flows.empty()) {
    // No models: exercise inference itself on the capture.
    const double window_s =
        std::max(1.0, (flows.back().end - flows.front().start) / 1e6);
    (void)PeriodicModelSet::infer(flows, window_s);
  }

  std::printf("%s", obs::render_health_table(obs::health().snapshot()).c_str());
  return obs::health().snapshot().overall() == obs::ComponentState::kHealthy
             ? 0
             : 3;  // distinct from usage (2) and hard errors (1)
}

int cmd_explain(const std::map<std::string, std::string>& flags) {
  if (flags.count("alerts") == 0) return usage();
  std::ifstream is(flags.at("alerts"));
  if (!is) {
    std::fprintf(stderr, "error: cannot read %s\n",
                 flags.at("alerts").c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  const auto alerts = alerts_from_json(buf.str());

  const auto& catalog = testbed::Catalog::standard();
  std::size_t shown = 0;
  for (const auto& a : alerts) {
    if (flags.count("source") && flags.at("source") != to_string(a.source)) {
      continue;
    }
    const std::string device_name =
        a.device < catalog.size() ? catalog.by_id(a.device).name : "(system)";
    std::printf("%s\n", render_alert_explanation(a, device_name).c_str());
    ++shown;
  }
  std::printf("%zu of %zu alert(s) explained\n", shown, alerts.size());
  return 0;
}

int cmd_mud(const std::map<std::string, std::string>& flags) {
  if (flags.count("models") == 0 || flags.count("device") == 0) {
    return usage();
  }
  const BehaviorModelSet models =
      load_models_reporting(flags.at("models"), parse_policy(flags));
  const auto* device =
      testbed::Catalog::standard().by_name(flags.at("device"));
  if (device == nullptr) {
    std::fprintf(stderr, "unknown device '%s'\n", flags.at("device").c_str());
    return 2;
  }
  const MudProfile profile =
      generate_mud_profile(device->id, device->name, models.periodic, {});
  std::printf("%s", profile.to_json().c_str());
  return 0;
}

int cmd_check(const std::map<std::string, std::string>& flags) {
  if (flags.count("models") == 0 || flags.count("capture") == 0 ||
      flags.count("device") == 0) {
    return usage();
  }
  const BehaviorModelSet models =
      load_models_reporting(flags.at("models"), parse_policy(flags));
  const auto* device =
      testbed::Catalog::standard().by_name(flags.at("device"));
  if (device == nullptr) {
    std::fprintf(stderr, "unknown device '%s'\n", flags.at("device").c_str());
    return 2;
  }
  const auto packets =
      load_capture(flags.at("capture"), parse_policy(flags));
  DomainResolver resolver = make_resolver();
  FlowAssembler assembler;
  const auto flows = assembler.assemble(packets, resolver);

  const MudProfile profile = generate_mud_profile(
      device->id, device->name, models.periodic, {});
  const auto violations = check_mud_compliance(profile, device->id, flows);
  std::size_t device_flows = 0;
  for (const auto& f : flows) device_flows += f.device == device->id ? 1 : 0;
  std::printf("%s: %zu flows checked against %zu ACL entries, %zu "
              "non-compliant\n",
              device->display.c_str(), device_flows, profile.entries.size(),
              violations.size());
  for (const auto& v : violations) {
    std::printf("  NONCOMPLIANT %-14s %-40s %s\n", v.protocol.c_str(),
                v.domain.c_str(), v.reason.c_str());
  }
  return 0;
}

}  // namespace

namespace {

int dispatch(const std::string& command,
             const std::map<std::string, std::string>& flags) {
  obs::StageSpan span("cli." + command);
  if (command == "simulate") return cmd_simulate(flags);
  if (command == "train") return cmd_train(flags);
  if (command == "show") return cmd_show(flags);
  if (command == "score") return cmd_score(flags);
  if (command == "watch") return cmd_watch(flags);
  if (command == "mud") return cmd_mud(flags);
  if (command == "check") return cmd_check(flags);
  if (command == "explain") return cmd_explain(flags);
  if (command == "health") return cmd_health(flags);
  return usage();
}

/// Stops the tracer and writes its snapshot to `path` as Chrome trace-event
/// JSON. Returns false on I/O failure.
bool write_trace(const std::string& path) {
  obs::Tracer::global().stop();
  const auto snap = obs::Tracer::global().snapshot();
  std::string error;
  if (!obs::write_file_atomic(path, obs::trace_to_chrome_json(snap),
                              &error)) {
    std::fprintf(stderr, "error: cannot write trace: %s\n", error.c_str());
    return false;
  }
  std::fprintf(stderr,
               "wrote trace to %s (%llu events on %zu threads, %llu dropped)"
               " — open in Perfetto or chrome://tracing\n",
               path.c_str(),
               static_cast<unsigned long long>(snap.total_events),
               snap.threads.size(),
               static_cast<unsigned long long>(snap.total_dropped));
  return true;
}

/// Writes the registry to `path` (Prometheus text for .prom, JSON otherwise)
/// and prints the summary table to stderr. Returns false on I/O failure.
bool write_metrics(const std::string& path) {
  obs::update_process_gauges();
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const obs::HealthSnapshot health = obs::health().snapshot();
  std::string error;
  if (!obs::write_file_atomic(path, render_metrics(path, snap, health),
                              &error)) {
    std::fprintf(stderr, "error: cannot write metrics: %s\n", error.c_str());
    return false;
  }
  std::fprintf(stderr, "\n%swrote metrics to %s\n",
               obs::summary_table(snap).c_str(), path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const auto flags = parse_flags(argc, argv);
  const auto metrics = flags.find("metrics");
  if (metrics != flags.end()) obs::MetricsRegistry::set_enabled(true);
  const auto trace = flags.find("trace");
  if (trace != flags.end()) {
    obs::Tracer::set_thread_label("main");
    obs::Tracer::global().start();
  }
  const auto chaos_flag = flags.find("chaos");
  if (chaos_flag != flags.end()) {
    try {
      g_chaos = std::make_unique<chaos::FaultInjector>(
          chaos::parse_chaos_spec(chaos_flag->second));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    g_chaos->arm_feature_chaos();
    g_chaos->arm_crash_points();
  }
  const auto http = flags.find("http");
  if (http != flags.end()) {
    try {
      const std::uint64_t port = parse_count_value("http", http->second);
      if (port > 65535) {
        reject_flag("http", http->second, "a TCP port (0-65535)");
      }
      // A scrape surface implies recording: turn the registry on like
      // --metrics does, so /metrics has something to say.
      obs::MetricsRegistry::set_enabled(true);
      obs::TelemetryServerOptions topts;
      topts.port = static_cast<std::uint16_t>(port);
      g_telemetry = std::make_unique<obs::TelemetryServer>(topts);
      std::string err;
      if (!g_telemetry->start(&err)) {
        std::fprintf(stderr, "error: --http: %s\n", err.c_str());
        return 1;
      }
      std::fprintf(stderr, "telemetry: listening on http://127.0.0.1:%u\n",
                   static_cast<unsigned>(g_telemetry->port()));
    } catch (const FlagError& e) {
      std::fprintf(stderr, "usage error: %s\n", e.what());
      return 2;
    }
  }
  int rc = 2;
  try {
    rc = dispatch(command, flags);
  } catch (const FlagError& e) {
    // Operator typo, not a runtime failure: one line, usage exit code.
    std::fprintf(stderr, "usage error: %s\n", e.what());
    rc = 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  // Metrics and traces are written even after a failed command: the record
  // up to the failure is exactly what an operator wants to see.
  if (metrics != flags.end() && !write_metrics(metrics->second)) rc = 1;
  if (trace != flags.end() && !write_trace(trace->second)) rc = 1;
  // A degraded run still exits 0 — outputs were produced, the operator just
  // gets told what they cost (the `health` subcommand scrutinizes instead).
  if (command != "health") {
    const obs::HealthSnapshot health = obs::health().snapshot();
    if (health.overall() != obs::ComponentState::kHealthy) {
      std::fprintf(stderr, "\n%s", obs::render_health_table(health).c_str());
    }
  }
  // Stopped after the final writes so a scraper polling through command
  // exit sees the run's complete telemetry.
  g_telemetry.reset();
  return rc;
}
