// Micro-benchmarks (google-benchmark): throughput of the pipeline's hot
// paths. Useful for the §7.2 deployment claim that the system is light
// enough for a home gateway.
//
// The main() additionally times full pipeline train+classify at 1 thread and
// at >= 4 threads and writes machine-readable BENCH_pipeline.json (path
// overridable via BEHAVIOT_BENCH_JSON; skip with
// BEHAVIOT_SKIP_PIPELINE_BENCH=1) so successive PRs accumulate a perf
// trajectory. The run also cross-checks the runtime's determinism guarantee:
// serialized models must be byte-identical across thread counts.
#include <arpa/inet.h>
#include <benchmark/benchmark.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>

#include "behaviot/chaos/fault_injector.hpp"
#include "behaviot/analysis/alert_report.hpp"
#include "behaviot/core/binary_io.hpp"
#include "behaviot/core/checkpoint.hpp"
#include "behaviot/core/model_handle.hpp"
#include "behaviot/core/pipeline.hpp"
#include "behaviot/core/serialize_binary.hpp"
#include "behaviot/core/watch_engine.hpp"
#include "behaviot/flow/assembler.hpp"
#include "behaviot/flow/features.hpp"
#include "behaviot/ml/random_forest.hpp"
#include "behaviot/obs/export.hpp"
#include "behaviot/obs/health.hpp"
#include "behaviot/obs/metrics.hpp"
#include "behaviot/obs/process_stats.hpp"
#include "behaviot/obs/snapshot.hpp"
#include "behaviot/obs/span.hpp"
#include "behaviot/obs/telemetry_server.hpp"
#include "behaviot/obs/trace.hpp"
#include "behaviot/periodic/fft.hpp"
#include "behaviot/periodic/period_detector.hpp"
#include "behaviot/pfsm/synoptic.hpp"
#include "behaviot/runtime/runtime.hpp"
#include "behaviot/testbed/datasets.hpp"

namespace behaviot {
namespace {

void BM_FlowAssembly(benchmark::State& state) {
  const auto capture = testbed::Datasets::idle(111, 0.1);
  for (auto _ : state) {
    DomainResolver resolver;
    testbed::configure_resolver(resolver, capture);
    FlowAssembler assembler;
    benchmark::DoNotOptimize(assembler.assemble(capture.packets, resolver));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(capture.packets.size()));
}
BENCHMARK(BM_FlowAssembly);

void BM_StreamingFlowAssembly(benchmark::State& state) {
  // The `behaviot watch` ingestion stage: chunked feed with live sealing and
  // window drains, under the default 1 s reorder horizon. Compare against
  // BM_FlowAssembly for the cost of incrementality.
  const auto capture = testbed::Datasets::idle(111, 0.1);
  const std::size_t chunk = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    DomainResolver resolver;
    testbed::configure_resolver(resolver, capture);
    StreamingFlowAssembler core({}, resolver);
    const std::span<const Packet> all(capture.packets);
    std::size_t drained = 0;
    for (std::size_t i = 0; i < all.size(); i += chunk) {
      core.feed(all.subspan(i, std::min(chunk, all.size() - i)));
      drained += core.drain_sealed(core.seal_watermark()).size();
    }
    core.finish();
    drained += core
                   .drain_sealed(Timestamp(
                       std::numeric_limits<std::int64_t>::max()))
                   .size();
    benchmark::DoNotOptimize(drained);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(capture.packets.size()));
}
BENCHMARK(BM_StreamingFlowAssembly)->Arg(256)->Arg(4096);

void BM_FeatureExtraction(benchmark::State& state) {
  const auto capture = testbed::Datasets::idle(112, 0.05);
  DomainResolver resolver;
  testbed::configure_resolver(resolver, capture);
  FlowAssembler assembler;
  const auto flows = assembler.assemble(capture.packets, resolver);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract_features(flows[i++ % flows.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FeatureExtraction);

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::complex<double>> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = {std::sin(0.1 * static_cast<double>(i)), 0.0};
  }
  for (auto _ : state) {
    auto copy = data;
    fft(copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_Fft)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18);

void BM_PeriodDetection(benchmark::State& state) {
  Rng rng(7);
  std::vector<double> times;
  const double window = 86400.0;
  for (double t = rng.uniform(0, 600); t < window; t += 600.0) {
    times.push_back(t + rng.normal(0, 5));
  }
  const PeriodDetector detector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.detect(times, window));
  }
}
BENCHMARK(BM_PeriodDetection);

void BM_RandomForestPredict(benchmark::State& state) {
  Rng rng(8);
  Dataset data;
  for (int i = 0; i < 400; ++i) {
    std::vector<double> row(kNumFlowFeatures);
    for (auto& v : row) v = rng.uniform(0, 1000);
    data.add(std::move(row), i % 2);
  }
  RandomForest forest({.num_trees = 30, .seed = 5});
  forest.fit(data, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict_proba(data.X[i++ % data.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RandomForestPredict);

void BM_PfsmTraceProbability(benchmark::State& state) {
  std::vector<std::vector<std::string>> traces;
  for (int i = 0; i < 50; ++i) {
    traces.push_back({"cam:motion", "bulb:on", "bulb:off"});
    traces.push_back({"ring:ring", "plug:on", "spot:voice", "plug:off"});
  }
  const auto pfsm = infer_pfsm(traces).pfsm;
  const std::vector<std::string> query{"ring:ring", "plug:on", "plug:off"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(pfsm.trace_probability(query));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PfsmTraceProbability);

void BM_SynopticInference(benchmark::State& state) {
  const auto routine = testbed::Datasets::routine_week(113, 2.0);
  const auto traces = build_traces(routine.events);
  std::vector<std::vector<std::string>> labels;
  for (const auto& t : traces) labels.push_back(trace_labels(t));
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer_pfsm(labels));
  }
}
BENCHMARK(BM_SynopticInference);

void BM_ForestFit(benchmark::State& state) {
  runtime::set_global_threads(static_cast<std::size_t>(state.range(0)));
  Rng rng(9);
  Dataset data;
  for (int i = 0; i < 600; ++i) {
    std::vector<double> row(kNumFlowFeatures);
    for (auto& v : row) v = rng.uniform(0, 1000);
    data.add(std::move(row), i % 2);
  }
  for (auto _ : state) {
    RandomForest forest({.num_trees = 30, .seed = 5});
    forest.fit(data, 2);
    benchmark::DoNotOptimize(forest);
  }
  runtime::set_global_threads(0);
}
BENCHMARK(BM_ForestFit)->Arg(1)->Arg(4);

// Observability primitives: a counter add and a stage span must be cheap
// enough to leave compiled into every hot path, and near-free when the
// registry is disabled (the "disabled-mode overhead guarantee" in DESIGN.md).
void BM_ObsCounterAdd(benchmark::State& state) {
  obs::MetricsRegistry::set_enabled(state.range(0) != 0);
  auto& c = obs::counter("bench.counter");
  for (auto _ : state) {
    c.add(1);
    benchmark::ClobberMemory();
  }
  obs::MetricsRegistry::set_enabled(false);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsCounterAdd)->Arg(0)->Arg(1);

void BM_ObsStageSpan(benchmark::State& state) {
  obs::MetricsRegistry::set_enabled(state.range(0) != 0);
  for (auto _ : state) {
    obs::StageSpan span("bench.span");
    benchmark::ClobberMemory();
  }
  obs::MetricsRegistry::set_enabled(false);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsStageSpan)->Arg(0)->Arg(1);

// Tracer primitives, same guarantee as the registry's: a disabled
// trace_instant is one relaxed load and a branch, and an armed one is a
// clock read plus a bounded ring write — never an allocation.
void BM_ObsTraceInstant(benchmark::State& state) {
  if (state.range(0) != 0) obs::Tracer::global().start();
  for (auto _ : state) {
    obs::trace_instant("bench.instant");
    benchmark::ClobberMemory();
  }
  obs::Tracer::global().stop();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsTraceInstant)->Arg(0)->Arg(1);

void BM_ObsTraceSpanPair(benchmark::State& state) {
  if (state.range(0) != 0) obs::Tracer::global().start();
  auto& tracer = obs::Tracer::global();
  for (auto _ : state) {
    if (obs::Tracer::enabled()) {
      tracer.span_begin("bench.span");
      tracer.span_end("bench.span");
    }
    benchmark::ClobberMemory();
  }
  obs::Tracer::global().stop();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsTraceSpanPair)->Arg(0)->Arg(1);

/// The watch benches' model set: the trained image without user-action
/// forests, which the daemon never consults, so the checkpoint section's
/// embedded model image stays comparable with earlier records.
BehaviorModelSet watch_models_of(const std::string& image) {
  BehaviorModelSet models = load_models_binary(binio::as_bytes(image));
  models.user_actions = {};
  return models;
}

/// A trained model set shared by the model-I/O benchmarks: real periodic
/// models + PFSM from the standard datasets, built once per process.
const BehaviorModelSet& bench_models() {
  static const BehaviorModelSet models = [] {
    runtime::set_global_threads(1);
    Pipeline pipeline;
    DomainResolver resolver;
    const auto idle = testbed::Datasets::idle(111, /*days=*/1.0);
    const auto activity = testbed::Datasets::activity(112, 6);
    const auto routine = testbed::Datasets::routine_week(113, 2.0);
    const auto m = pipeline.train(pipeline.to_flows(idle, resolver), 86400.0,
                                  pipeline.to_flows(activity, resolver),
                                  pipeline.to_flows(routine, resolver));
    runtime::set_global_threads(0);
    return m;
  }();
  return models;
}

void BM_ModelSaveBinary(benchmark::State& state) {
  const BehaviorModelSet& models = bench_models();
  for (auto _ : state) {
    benchmark::DoNotOptimize(save_models_binary(models));
  }
}
BENCHMARK(BM_ModelSaveBinary);

void BM_ModelLoadBinary(benchmark::State& state) {
  const std::string image = save_models_binary(bench_models());
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(image.data()), image.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(load_models_binary(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(image.size()));
}
BENCHMARK(BM_ModelLoadBinary);

void BM_ModelLoadBinaryView(benchmark::State& state) {
  // The zero-copy load: open (validates header + CRC) plus an in-place walk
  // of every periodic record — no per-model allocation, strings borrowed
  // from the image. This is the path a fleet model store scans with.
  const std::string image = save_models_binary(bench_models());
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(image.data()), image.size());
  for (auto _ : state) {
    const BinaryModelView view = BinaryModelView::open(bytes);
    benchmark::DoNotOptimize(view.periodic());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(image.size()));
}
BENCHMARK(BM_ModelLoadBinaryView);

/// Wall-clock of one pipeline train + classify pass at `threads`.
struct PipelineTiming {
  double train_ms = 0.0;
  double classify_ms = 0.0;
  std::string serialized;  ///< model bytes, for the determinism cross-check
  /// Per-stage span totals (ms) harvested from the metrics registry, empty
  /// when the run executed with the registry disabled.
  std::map<std::string, double> stage_ms;
  /// Raw counter values from the same instrumented run (periodic.* feed the
  /// periodic_breakdown section).
  std::map<std::string, std::uint64_t> counters;
  /// Tracer tallies for the run (zero unless it ran with tracing armed).
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  /// Faults injected when the run executed under a chaos spec.
  std::uint64_t faults_injected = 0;
};

PipelineTiming time_pipeline(std::size_t threads, bool with_metrics,
                             bool with_trace = false,
                             const chaos::FaultSpec* chaos_spec = nullptr) {
  using Clock = std::chrono::steady_clock;
  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };

  obs::MetricsRegistry::set_enabled(with_metrics);
  obs::MetricsRegistry::global().reset_values();
  if (with_trace) obs::Tracer::global().start();
  runtime::set_global_threads(threads);
  Pipeline pipeline;
  DomainResolver resolver;
  auto idle = testbed::Datasets::idle(111, /*days=*/1.0);
  auto activity = testbed::Datasets::activity(112, /*repetitions=*/6);
  auto routine = testbed::Datasets::routine_week(113, /*days=*/2.0);
  std::unique_ptr<chaos::FaultInjector> injector;
  if (chaos_spec != nullptr) {
    injector = std::make_unique<chaos::FaultInjector>(*chaos_spec);
    injector->apply(idle);
    injector->apply(activity);
    injector->apply(routine);
    injector->arm_feature_chaos();
  }
  const auto idle_flows = pipeline.to_flows(idle, resolver);
  const auto activity_flows = pipeline.to_flows(activity, resolver);
  const auto routine_flows = pipeline.to_flows(routine, resolver);

  PipelineTiming t;
  const auto t0 = Clock::now();
  const auto models =
      pipeline.train(idle_flows, 86400.0, activity_flows, routine_flows);
  const auto t1 = Clock::now();
  benchmark::DoNotOptimize(pipeline.classify(idle_flows, models));
  benchmark::DoNotOptimize(pipeline.classify(routine_flows, models));
  const auto t2 = Clock::now();

  t.train_ms = ms(t1 - t0);
  t.classify_ms = ms(t2 - t1);
  if (with_metrics) {
    const auto snap = obs::MetricsRegistry::global().snapshot();
    for (const auto& [name, h] : snap.histograms) {
      if (name.rfind(obs::kSpanMetricPrefix, 0) == 0 && h.count > 0) {
        t.stage_ms[name.substr(obs::kSpanMetricPrefix.size())] = h.sum;
      }
    }
    t.counters = snap.counters;
  }
  if (with_trace) {
    obs::Tracer::global().stop();
    const auto trace = obs::Tracer::global().snapshot();
    t.trace_events = trace.total_events;
    t.trace_dropped = trace.total_dropped;
  }
  if (injector != nullptr) {
    injector->disarm_feature_chaos();
    t.faults_injected = injector->stats().total();
    obs::health().reset();
  }
  obs::MetricsRegistry::set_enabled(false);
  t.serialized = save_models_binary(models);
  return t;
}

/// One loopback GET /metrics round-trip against the embedded telemetry
/// server: connect, request, drain the response, close. Returns the
/// latency in ms, or a negative value when the scrape failed or the body
/// was not a behaviot exposition (so the telemetry section can flag it).
double scrape_metrics_ms(std::uint16_t port) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1.0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1.0;
  }
  const char request[] =
      "GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n";
  const char* p = request;
  std::size_t left = sizeof(request) - 1;
  while (left > 0) {
    const ssize_t n = ::send(fd, p, left, 0);
    if (n <= 0) {
      ::close(fd);
      return -1.0;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (response.rfind("HTTP/1.1 200", 0) != 0 ||
      response.find("behaviot_") == std::string::npos) {
    return -1.0;
  }
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// CPU time (user + sys, all threads) this process has used so far, in ms.
double process_cpu_ms() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// Outcome of one streamed watch run for the telemetry overhead section.
struct TelemetryWatchRun {
  double total_ms = 0.0;     ///< wall-clock for the whole ingest+finish
  double cpu_ms = 0.0;       ///< process CPU time for the same span
  double snapshot_ms = 0.0;  ///< time inside per-window render + atomic write
  std::size_t windows = 0;
  std::size_t alerts = 0;
};

/// Streams `packets` through a WatchEngine (30-min windows, retrain every 2)
/// against `models`. With telemetry on, each closed window does what
/// `behaviot watch --metrics --alerts` does: refresh process gauges, render
/// the Prometheus exposition and an alerts document, and rewrite both
/// snapshots atomically through SnapshotWriter. With telemetry off the sink
/// only tallies alerts — the plain-daemon baseline.
TelemetryWatchRun time_telemetry_watch(const BehaviorModelSet& models,
                                       std::span<const Packet> packets,
                                       bool with_telemetry,
                                       const std::string& dir) {
  using Clock = std::chrono::steady_clock;
  obs::MetricsRegistry::set_enabled(with_telemetry);
  obs::MetricsRegistry::global().reset_values();
  WatchOptions opts;
  opts.window_us = minutes(30.0);
  opts.retrain_every_windows = 2;
  ModelHandle handle(models);
  WatchEngine engine(handle, DomainResolver{}, opts);
  std::optional<obs::SnapshotWriter> metrics_writer;
  std::optional<obs::SnapshotWriter> alerts_writer;
  if (with_telemetry) {
    metrics_writer.emplace(dir + "/metrics.prom");
    alerts_writer.emplace(dir + "/alerts.json");
  }
  TelemetryWatchRun r;
  engine.set_window_sink([&](const WatchWindowReport& rep) {
    r.alerts += rep.alerts.size();
    if (!with_telemetry) return;
    const auto s0 = Clock::now();
    obs::update_process_gauges();
    const auto snap = obs::MetricsRegistry::global().snapshot();
    metrics_writer->write(obs::to_prometheus(snap, obs::health().snapshot()),
                          rep.index);
    std::ostringstream doc;
    doc << "{\"window\": " << rep.index << ", \"alerts\": " << r.alerts
        << "}\n";
    alerts_writer->write(doc.str(), rep.index);
    r.snapshot_ms +=
        std::chrono::duration<double, std::milli>(Clock::now() - s0).count();
  });
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_ms();
  constexpr std::size_t kChunk = 512;
  for (std::size_t i = 0; i < packets.size() && !engine.done(); i += kChunk) {
    engine.ingest(packets.subspan(i, std::min(kChunk, packets.size() - i)));
  }
  engine.finish();
  r.cpu_ms = process_cpu_ms() - cpu0;
  r.total_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  r.windows = engine.windows_evaluated();
  return r;
}

/// Outcome of one streamed watch run for the checkpoint overhead section.
struct CheckpointWatchRun {
  double total_ms = 0.0;       ///< wall-clock for the whole ingest+finish
  double cpu_ms = 0.0;         ///< process CPU time for the same span
  double checkpoint_ms = 0.0;  ///< time inside CheckpointJournal::commit
  std::size_t windows = 0;
  std::size_t alerts = 0;
  std::uint64_t appended_bytes = 0;  ///< bytes of every non-compacting commit
  std::size_t appends = 0;
  std::uint64_t compactions = 0;
  std::uint64_t journal_bytes = 0;  ///< final journal size
};

/// Streams `packets` through a WatchEngine (30-min windows, retrain every 2
/// — the telemetry section's realistic daemon config, so the ratio is
/// measured against what a window actually costs, not an idle no-retrain
/// shell). Both runs rewrite the per-window `--alerts` snapshot the way
/// every operated daemon does; the on-run additionally does what `behaviot
/// watch --checkpoint` does: commit each window to a CheckpointJournal,
/// with the alerts document the snapshot already rendered.
CheckpointWatchRun time_checkpoint_watch(const BehaviorModelSet& models,
                                         std::span<const Packet> packets,
                                         bool with_checkpoint,
                                         const std::string& path,
                                         const std::string& alerts_path) {
  using Clock = std::chrono::steady_clock;
  WatchOptions opts;
  opts.window_us = minutes(30.0);
  opts.retrain_every_windows = 2;
  ModelHandle handle(models);
  WatchEngine engine(handle, DomainResolver{}, opts);
  CheckpointWatchRun r;
  std::vector<DeviationAlert> all_alerts;
  obs::SnapshotWriter alerts_writer(alerts_path);
  std::filesystem::remove(path);
  CheckpointJournal journal(path);
  engine.set_window_sink([&](const WatchWindowReport& rep) {
    all_alerts.insert(all_alerts.end(), rep.alerts.begin(), rep.alerts.end());
    r.alerts += rep.alerts.size();
    std::string alerts_json = alerts_to_json(all_alerts);
    alerts_writer.write(alerts_json, rep.index);
    if (!with_checkpoint) return;
    const auto s0 = Clock::now();
    WatchCheckpoint cp;
    cp.options = checkpoint_options(opts);
    cp.input_offset = rep.index + 1;  // stand-in for the capture offset
    cp.alerts_json = std::move(alerts_json);
    if (journal.commit(std::move(cp), engine, handle) &&
        !journal.last_commit_compacted()) {
      r.appended_bytes += journal.last_commit_bytes();
      ++r.appends;
    }
    r.checkpoint_ms +=
        std::chrono::duration<double, std::milli>(Clock::now() - s0).count();
  });
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_ms();
  constexpr std::size_t kChunk = 512;
  for (std::size_t i = 0; i < packets.size() && !engine.done(); i += kChunk) {
    engine.ingest(packets.subspan(i, std::min(kChunk, packets.size() - i)));
  }
  engine.finish();
  r.cpu_ms = process_cpu_ms() - cpu0;
  r.total_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  r.windows = engine.windows_evaluated();
  r.compactions = journal.compactions();
  r.journal_bytes = journal.journal_bytes();
  return r;
}

/// Emits BENCH_pipeline.json: train/classify wall-clock at 1, 2, and N
/// threads (registry disabled, comparable with the PR-1 baseline
/// trajectory), the byte-identity verdict across every configuration, a
/// periodic_breakdown section (where periodic.infer spends its time and how
/// hard candidate pruning works), per-stage span timings from an
/// instrumented run,
/// the instrumented-vs-disabled totals that bound the observability
/// overhead, and a tracing-armed run bounding the tracer's cost. The
/// disabled run doubles as the "tracing compiled in but off" baseline: the
/// tracer call sites are always compiled into the stage/runtime paths, so
/// parallel_total IS the disabled-tracing number the <= 1.02 budget in
/// DESIGN.md refers to. A telemetry section additionally times a streamed
/// watch run with per-window snapshot rewrites against the plain daemon
/// (bounded at 1.5x in process CPU time) and measures loopback /metrics
/// scrape latency.
/// Returns false on I/O failure or a failed invariant.
bool write_pipeline_bench_json(const std::string& path) {
  const std::size_t parallel_threads =
      std::max<std::size_t>(4, runtime::default_threads());
  const PipelineTiming serial = time_pipeline(1, /*with_metrics=*/false);
  const PipelineTiming dual = time_pipeline(2, /*with_metrics=*/false);
  const PipelineTiming parallel =
      time_pipeline(parallel_threads, /*with_metrics=*/false);
  const PipelineTiming instrumented =
      time_pipeline(parallel_threads, /*with_metrics=*/true);
  // Single-thread instrumented run: the periodic.*_us counters accumulate
  // per-worker elapsed time, so only a 1-thread run reads as wall-clock (at
  // N threads the per-thread intervals overlap and over-count on
  // oversubscribed hardware).
  const PipelineTiming breakdown_run = time_pipeline(1, /*with_metrics=*/true);
  const PipelineTiming traced = time_pipeline(
      parallel_threads, /*with_metrics=*/false, /*with_trace=*/true);
  // Chaos-on run: a realistic compound fault load (1% loss-class faults,
  // 2% feature corruption). Bounds what the graceful-degradation paths cost
  // when they actually fire; the chaos-off cost is zero by construction
  // (the four runs above never touch the injector and stay byte-identical).
  const chaos::FaultSpec chaos_spec = chaos::FaultSpec::parse(
      "drop=0.01,dup=0.01,reorder=0.01,regress=0.005,dnsloss=0.1,nan=0.02,"
      "inf=0.02,throw=0.01,seed=17");
  const PipelineTiming chaotic =
      time_pipeline(parallel_threads, /*with_metrics=*/false,
                    /*with_trace=*/false, &chaos_spec);
  runtime::set_global_threads(0);

  const bool identical = serial.serialized == dual.serialized &&
                         dual.serialized == parallel.serialized &&
                         parallel.serialized == instrumented.serialized &&
                         instrumented.serialized == breakdown_run.serialized &&
                         breakdown_run.serialized == traced.serialized;
  const double serial_total = serial.train_ms + serial.classify_ms;
  const double parallel_total = parallel.train_ms + parallel.classify_ms;
  const double instrumented_total =
      instrumented.train_ms + instrumented.classify_ms;
  const double traced_total = traced.train_ms + traced.classify_ms;

  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << "{\n"
     << "  \"benchmark\": \"pipeline_train_classify\",\n"
     << "  \"dataset\": {\"idle_days\": 1.0, \"activity_repetitions\": 6, "
        "\"routine_days\": 2.0},\n"
     << "  \"hardware_threads\": " << runtime::default_threads() << ",\n"
     << "  \"runs\": [\n"
     << "    {\"threads\": 1, \"train_ms\": " << serial.train_ms
     << ", \"classify_ms\": " << serial.classify_ms
     << ", \"total_ms\": " << serial_total << "},\n"
     << "    {\"threads\": 2, \"train_ms\": " << dual.train_ms
     << ", \"classify_ms\": " << dual.classify_ms
     << ", \"total_ms\": " << dual.train_ms + dual.classify_ms << "},\n"
     << "    {\"threads\": " << parallel_threads
     << ", \"train_ms\": " << parallel.train_ms
     << ", \"classify_ms\": " << parallel.classify_ms
     << ", \"total_ms\": " << parallel_total << "}\n"
     << "  ],\n"
     << "  \"speedup_train\": " << serial.train_ms / parallel.train_ms
     << ",\n"
     << "  \"speedup_classify\": "
     << serial.classify_ms / parallel.classify_ms << ",\n"
     << "  \"speedup_total\": " << serial_total / parallel_total << ",\n"
     << "  \"observability\": {\n"
     << "    \"disabled_total_ms\": " << parallel_total << ",\n"
     << "    \"enabled_total_ms\": " << instrumented_total << ",\n"
     << "    \"enabled_over_disabled\": "
     << instrumented_total / parallel_total << ",\n"
     << "    \"stages_ms\": {";
  bool first = true;
  for (const auto& [stage, ms] : instrumented.stage_ms) {
    os << (first ? "\n" : ",\n") << "      \"" << stage << "\": " << ms;
    first = false;
  }
  os << (first ? "" : "\n    ") << "}\n  },\n";
  // Periodic-inference breakdown from the single-thread instrumented run:
  // where the training hot path spends its time (stage-1 spectra, stage-2
  // validation, cluster fit) and how hard the candidate pruning works.
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = breakdown_run.counters.find(name);
    return it == breakdown_run.counters.end() ? 0 : it->second;
  };
  os << "  \"periodic_breakdown\": {\n"
     << "    \"spectrum_ms\": "
     << static_cast<double>(counter("periodic.spectrum_us")) / 1000.0 << ",\n"
     << "    \"validation_ms\": "
     << static_cast<double>(counter("periodic.validate_us")) / 1000.0 << ",\n"
     << "    \"dbscan_ms\": "
     << static_cast<double>(counter("periodic.dbscan_us")) / 1000.0 << ",\n"
     << "    \"candidates_examined\": " << counter("periodic.candidates_examined")
     << ",\n"
     << "    \"candidates_pruned\": " << counter("periodic.candidates_pruned")
     << "\n  },\n"
     << "  \"tracing\": {\n"
     << "    \"disabled_total_ms\": " << parallel_total << ",\n"
     << "    \"enabled_total_ms\": " << traced_total << ",\n"
     << "    \"enabled_over_disabled\": " << traced_total / parallel_total
     << ",\n"
     << "    \"events_retained\": " << traced.trace_events << ",\n"
     << "    \"events_dropped\": " << traced.trace_dropped << "\n  },\n"
     << "  \"chaos\": {\n"
     << "    \"spec\": \"" << chaos_spec.summary() << "\",\n"
     << "    \"off_total_ms\": " << parallel_total << ",\n"
     << "    \"on_total_ms\": " << chaotic.train_ms + chaotic.classify_ms
     << ",\n"
     << "    \"on_over_off\": "
     << (chaotic.train_ms + chaotic.classify_ms) / parallel_total << ",\n"
     << "    \"faults_injected\": " << chaotic.faults_injected << "\n  },\n";
  // Model-I/O trajectory of the .bbm format on the trained set: save, the
  // fully materialized load, and the zero-copy view load (the "one read +
  // in-place pointer walk" the layout exists for); `round_trip_identical`
  // pins load -> save byte identity.
  {
    using Clock = std::chrono::steady_clock;
    const auto ms = [](Clock::duration d) {
      return std::chrono::duration<double, std::milli>(d).count();
    };
    const std::string& binary = serial.serialized;
    const std::span<const std::uint8_t> binary_bytes =
        binio::as_bytes(binary);
    const BehaviorModelSet io_models = load_models_binary(binary_bytes);
    constexpr int kIters = 50;
    const auto t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      benchmark::DoNotOptimize(save_models_binary(io_models));
    }
    const auto t1 = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      benchmark::DoNotOptimize(load_models_binary(binary_bytes));
    }
    const auto t2 = Clock::now();
    double view_acc = 0.0;
    for (int i = 0; i < kIters; ++i) {
      const BinaryModelView view = BinaryModelView::open(binary_bytes);
      for (const PeriodicModelView& pm : view.periodic()) {
        view_acc += pm.period_seconds + static_cast<double>(pm.group.size());
      }
      benchmark::DoNotOptimize(view_acc);
    }
    const auto t3 = Clock::now();
    const double binary_save_ms = ms(t1 - t0) / kIters;
    const double binary_load_ms = ms(t2 - t1) / kIters;
    const double view_load_ms = ms(t3 - t2) / kIters;
    const bool round_trip = save_models_binary(io_models) == binary;
    os << "  \"model_io\": {\n"
       << "    \"binary_bytes\": " << binary.size() << ",\n"
       << "    \"binary_save_ms\": " << binary_save_ms << ",\n"
       << "    \"binary_load_ms\": " << binary_load_ms << ",\n"
       << "    \"binary_view_load_ms\": " << view_load_ms << ",\n"
       << "    \"round_trip_identical\": "
       << (round_trip ? "true" : "false") << "\n  },\n";
    std::cerr << "BENCH model_io: binary load " << binary_load_ms
              << " ms (materialized) / view load " << view_load_ms
              << " ms (zero-copy), round trip "
              << (round_trip ? "identical" : "DIVERGED") << "\n";
  }
  // Telemetry: what the live-daemon surfaces cost. The on-run streams the
  // same capture through a WatchEngine with the registry enabled and the
  // per-window --metrics/--alerts snapshot rewrites (atomic temp+rename);
  // the off-run is the plain daemon. The bound is deliberately loose —
  // per-window snapshot work must stay lost in the noise of the window
  // close itself, so a 1.5x regression marks a real problem, not jitter.
  // The gate compares process CPU time (user+sys): the wall clock of these
  // short runs mostly measures how long the filesystem takes to rename
  // over a file, not what telemetry costs; the wall ratio is reported
  // beside it. Each side is best-of-3 in CPU time, as in the checkpoint
  // section: single runs of this length read 1.06x-1.21x back to back.
  // Scrape latency is a real loopback HTTP round-trip against the
  // populated registry left behind by the last on-run.
  bool telemetry_ok = true;
  {
    const BehaviorModelSet watch_models = watch_models_of(serial.serialized);
    const auto eval =
        testbed::Datasets::routine_week(/*seed=*/131, /*days=*/0.2);
    const std::string dir =
        (std::filesystem::temp_directory_path() / "behaviot_bench_telemetry")
            .string();
    std::filesystem::create_directories(dir);
    const auto best_of = [&](bool with_telemetry) {
      TelemetryWatchRun best;
      for (int rep = 0; rep < 3; ++rep) {
        const TelemetryWatchRun run = time_telemetry_watch(
            watch_models, eval.packets, with_telemetry, dir);
        if (rep == 0 || run.cpu_ms < best.cpu_ms) best = run;
      }
      return best;
    };
    const TelemetryWatchRun off = best_of(/*with_telemetry=*/false);
    const TelemetryWatchRun on = best_of(/*with_telemetry=*/true);
    // The registry still holds the on-run's watch.* families; scrape that.
    obs::TelemetryServer server;
    std::string server_error;
    double scrape_sum = 0.0;
    double scrape_max = 0.0;
    int scrapes_ok = 0;
    constexpr int kScrapes = 50;
    if (server.start(&server_error)) {
      for (int i = 0; i < kScrapes; ++i) {
        const double latency = scrape_metrics_ms(server.port());
        if (latency < 0.0) continue;
        scrape_sum += latency;
        scrape_max = std::max(scrape_max, latency);
        ++scrapes_ok;
      }
      server.stop();
    }
    obs::MetricsRegistry::set_enabled(false);
    obs::MetricsRegistry::global().reset_values();
    std::filesystem::remove_all(dir);
    const double on_over_off = on.cpu_ms / off.cpu_ms;
    const double wall_on_over_off = on.total_ms / off.total_ms;
    const double snapshot_per_window =
        on.windows == 0 ? 0.0
                        : on.snapshot_ms / static_cast<double>(on.windows);
    const bool same_output =
        on.windows == off.windows && on.alerts == off.alerts;
    const bool within_noise = on_over_off <= 1.5;
    telemetry_ok = same_output && within_noise && scrapes_ok == kScrapes;
    os << "  \"telemetry\": {\n"
       << "    \"watch_windows\": " << off.windows << ",\n"
       << "    \"watch_alerts\": " << off.alerts << ",\n"
       << "    \"watch_off_cpu_ms\": " << off.cpu_ms << ",\n"
       << "    \"watch_on_cpu_ms\": " << on.cpu_ms << ",\n"
       << "    \"watch_on_over_off\": " << on_over_off << ",\n"
       << "    \"watch_off_total_ms\": " << off.total_ms << ",\n"
       << "    \"watch_on_total_ms\": " << on.total_ms << ",\n"
       << "    \"watch_wall_on_over_off\": " << wall_on_over_off << ",\n"
       << "    \"snapshot_ms_per_window\": " << snapshot_per_window << ",\n"
       << "    \"scrapes\": " << kScrapes << ",\n"
       << "    \"scrapes_ok\": " << scrapes_ok << ",\n"
       << "    \"scrape_mean_ms\": "
       << (scrapes_ok == 0 ? 0.0 : scrape_sum / scrapes_ok) << ",\n"
       << "    \"scrape_max_ms\": " << scrape_max << ",\n"
       << "    \"within_noise\": " << (within_noise ? "true" : "false")
       << "\n  },\n";
    std::cerr << "BENCH telemetry: watch CPU " << off.cpu_ms
              << " ms plain vs " << on.cpu_ms
              << " ms instrumented+snapshots (" << on_over_off
              << "x; wall " << off.total_ms << " vs " << on.total_ms
              << " ms, " << wall_on_over_off << "x; " << snapshot_per_window
              << " ms/window in snapshot writes); " << scrapes_ok << "/"
              << kScrapes << " scrapes ok, mean "
              << (scrapes_ok == 0 ? 0.0 : scrape_sum / scrapes_ok)
              << " ms; outputs "
              << (same_output ? "identical" : "DIVERGED") << "\n";
  }
  // Checkpoint overhead: the on-run commits every closed window to a .bbc
  // journal (the window's FLOWS and STATE records appended in one write;
  // a compacted image renamed over it after each retrain handoff or once
  // the appends outgrow it) — the worst-case cadence; real deployments
  // thin it with --checkpoint-every. Both runs carry the
  // per-window --alerts snapshot rewrite every operated daemon does, so
  // the ratio prices the checkpoint against a real window, and each side
  // is best-of-3 so a single scheduler hiccup can't fail the bound. The
  // bound is 1.2x the operated daemon's process CPU time (user+sys), which
  // prices export + serialize + write syscalls without the filesystem's
  // rename latency; the wall ratio is reported beside it. Replaying the
  // final journal and re-saving it (load, then save_checkpoint) gives the
  // compacted image, which must round-trip byte-identically; the load and
  // save latencies ride along for the resume-time budget.
  bool checkpoint_ok = true;
  {
    const BehaviorModelSet watch_models = watch_models_of(serial.serialized);
    const auto eval =
        testbed::Datasets::routine_week(/*seed=*/131, /*days=*/0.2);
    const std::string dir =
        (std::filesystem::temp_directory_path() / "behaviot_bench_checkpoint")
            .string();
    std::filesystem::create_directories(dir);
    const std::string ck_path = dir + "/state.bbc";
    const std::string al_path = dir + "/alerts.json";
    const auto best_of = [&](bool with_checkpoint) {
      CheckpointWatchRun best;
      for (int rep = 0; rep < 3; ++rep) {
        const CheckpointWatchRun run = time_checkpoint_watch(
            watch_models, eval.packets, with_checkpoint, ck_path, al_path);
        if (rep == 0 || run.cpu_ms < best.cpu_ms) best = run;
      }
      return best;
    };
    const CheckpointWatchRun off = best_of(/*with_checkpoint=*/false);
    const CheckpointWatchRun on = best_of(/*with_checkpoint=*/true);
    // Replay the final journal once for load/save latency.
    using Clock = std::chrono::steady_clock;
    const auto l0 = Clock::now();
    const WatchCheckpoint loaded = load_checkpoint_file(ck_path);
    const double load_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - l0).count();
    const auto s0 = Clock::now();
    const std::string compacted = save_checkpoint(loaded);
    const double save_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - s0).count();
    const std::string resaved =
        save_checkpoint(load_checkpoint(binio::as_bytes(compacted)));
    std::filesystem::remove_all(dir);
    const double on_over_off = on.cpu_ms / off.cpu_ms;
    const double wall_on_over_off = on.total_ms / off.total_ms;
    const double checkpoint_per_window =
        on.windows == 0 ? 0.0
                        : on.checkpoint_ms / static_cast<double>(on.windows);
    const bool same_output =
        on.windows == off.windows && on.alerts == off.alerts;
    const bool round_trip_stable =
        resaved == compacted && loaded.engine.windows == on.windows;
    const double bytes_per_window =
        on.appends == 0 ? 0.0
                        : static_cast<double>(on.appended_bytes) /
                              static_cast<double>(on.appends);
    const bool within_noise = on_over_off <= 1.2;
    checkpoint_ok = same_output && within_noise && round_trip_stable;
    os << "  \"checkpoint\": {\n"
       << "    \"watch_windows\": " << off.windows << ",\n"
       << "    \"watch_alerts\": " << off.alerts << ",\n"
       << "    \"watch_off_cpu_ms\": " << off.cpu_ms << ",\n"
       << "    \"watch_on_cpu_ms\": " << on.cpu_ms << ",\n"
       << "    \"watch_on_over_off\": " << on_over_off << ",\n"
       << "    \"watch_off_total_ms\": " << off.total_ms << ",\n"
       << "    \"watch_on_total_ms\": " << on.total_ms << ",\n"
       << "    \"watch_wall_on_over_off\": " << wall_on_over_off << ",\n"
       << "    \"checkpoint_ms_per_window\": " << checkpoint_per_window
       << ",\n"
       << "    \"checkpoint_bytes_per_window\": " << bytes_per_window
       << ",\n"
       << "    \"compactions\": " << on.compactions << ",\n"
       << "    \"journal_bytes\": " << on.journal_bytes << ",\n"
       << "    \"compacted_bytes\": " << compacted.size() << ",\n"
       << "    \"load_ms\": " << load_ms << ",\n"
       << "    \"save_ms\": " << save_ms << ",\n"
       << "    \"round_trip_stable\": "
       << (round_trip_stable ? "true" : "false") << ",\n"
       << "    \"within_noise\": " << (within_noise ? "true" : "false")
       << "\n  },\n";
    std::cerr << "BENCH checkpoint: watch CPU " << off.cpu_ms
              << " ms plain vs " << on.cpu_ms << " ms checkpointed ("
              << on_over_off << "x; wall " << off.total_ms << " vs "
              << on.total_ms << " ms, " << wall_on_over_off << "x; "
              << checkpoint_per_window << " ms/window, " << bytes_per_window
              << " bytes appended/window, " << on.compactions
              << " compactions; load " << load_ms << " ms, save " << save_ms
              << " ms); outputs "
              << (same_output ? "identical" : "DIVERGED") << "\n";
  }
  os << "  \"models_bit_identical\": " << (identical ? "true" : "false")
     << "\n}\n";
  std::cerr << "BENCH_pipeline: train " << serial.train_ms << " ms -> "
            << parallel.train_ms << " ms, classify " << serial.classify_ms
            << " ms -> " << parallel.classify_ms << " ms at "
            << parallel_threads << " threads (instrumented total "
            << instrumented_total << " ms, traced total " << traced_total
            << " ms vs " << parallel_total << " ms disabled); models "
            << (identical ? "bit-identical" : "DIVERGED") << "; wrote "
            << path << "\n";
  return identical && telemetry_ok && checkpoint_ok && os.good();
}

}  // namespace
}  // namespace behaviot

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (std::getenv("BEHAVIOT_SKIP_PIPELINE_BENCH") == nullptr) {
    const char* json_path = std::getenv("BEHAVIOT_BENCH_JSON");
    if (!behaviot::write_pipeline_bench_json(
            json_path != nullptr ? json_path : "BENCH_pipeline.json")) {
      return 1;
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
