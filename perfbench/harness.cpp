// In-process half of the repository benchmark (driven by run.py).
//
//   perfbench_harness batch       --seed S --seconds T --trace 0|1 --out F
//                                 [--spans F]
//   perfbench_harness setup-watch --workload replay|live --seed S --dir D
//   perfbench_harness trace-watch --workload replay|live --dir D
//                                 --max-windows N --out F --spans F
//   perfbench_harness meta        --out F PATH...
//
// `batch` is the whole batch_paper workload. `setup-watch` builds a watch
// workload's inputs (capture, model file) and the in-process reference the
// daemon's output is checked against. `trace-watch` is the traced run of a
// watch workload: an engine pass whose window sink makes the same calls as
// `behaviot watch`, then a component pass that splits the engine's own time
// into its layers. Every result is a JSON document written to --out.
//
// Spans are recorded only by this file, around calls into the library's
// public functions; nothing inside the library is instrumented for it.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "behaviot/analysis/alert_report.hpp"
#include "behaviot/core/checkpoint.hpp"
#include "behaviot/core/deviation_engine.hpp"
#include "behaviot/core/model_handle.hpp"
#include "behaviot/core/pipeline.hpp"
#include "behaviot/core/serialize_binary.hpp"
#include "behaviot/core/watch_engine.hpp"
#include "behaviot/net/pcap.hpp"
#include "behaviot/obs/export.hpp"
#include "behaviot/obs/health.hpp"
#include "behaviot/obs/metrics.hpp"
#include "behaviot/obs/process_stats.hpp"
#include "behaviot/obs/snapshot.hpp"
#include "behaviot/periodic/retrain.hpp"
#include "behaviot/runtime/runtime.hpp"
#include "behaviot/testbed/catalog.hpp"
#include "behaviot/testbed/datasets.hpp"
#include "behaviot/testbed/traffic_gen.hpp"

namespace {

using namespace behaviot;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// User + system CPU seconds of this process, all threads.
double cpu_seconds() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// ---------------------------------------------------------------- options

/// Window width and retrain cadence of the watch workloads; run.py passes
/// the same values to `behaviot watch`.
constexpr double kWindowS = 600.0;
constexpr std::size_t kReplayRetrainEvery = 24;  // every 4 h
/// watch_replay streams the first 8 h of its day: each window rewrites a
/// checkpoint of megabytes, so a pass stays short even on a slow disk.
constexpr double kReplayHours = 8.0;
constexpr std::size_t kChunk = 1024;  // the CLI's ingest chunk
/// batch_paper analyses this many consecutive uncontrolled days.
constexpr std::size_t kAnalysisDays = 7;
constexpr std::size_t kFirstDay = 30;
/// Both watch workloads stream one uncontrolled day free of injected
/// incidents: an outage would close dozens of windows with one packet.
constexpr std::size_t kWatchDay = 20;

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  return seed * 16 + k;
}

WatchOptions watch_options(const std::string& workload) {
  WatchOptions o;
  o.window_us = seconds(kWindowS);
  if (workload == "replay") o.retrain_every_windows = kReplayRetrainEvery;
  return o;
}

/// The CLI's resolver: static reverse DNS only; DNS/SNI knowledge is
/// learned from the stream.
DomainResolver make_resolver() {
  DomainResolver resolver;
  testbed::GeneratedCapture rdns_only;
  testbed::TrafficGenerator::add_static_rdns(rdns_only);
  testbed::configure_resolver(resolver, rdns_only);
  return resolver;
}

void annotate(std::span<Packet> packets) {
  const auto& catalog = testbed::Catalog::standard();
  for (Packet& p : packets) {
    const auto* device = catalog.by_ip(p.tuple.src.ip);
    if (device != nullptr) p.device = device->id;
  }
}

// ------------------------------------------------------------------ spans

/// Layer (repository module) of each span name; README.md lists the same
/// map.
const std::map<std::string, std::string>& layer_of() {
  static const std::map<std::string, std::string> m = {
      {"run", "unaccounted"},
      {"ingest.pcap", "net"},
      {"flow.assemble", "flow"},
      {"flow.drain", "flow"},
      {"pipeline.to_flows", "flow"},
      {"periodic.infer", "periodic"},
      {"pipeline.classify", "periodic"},
      {"watch.retrain", "periodic"},
      {"ml.user_actions_train", "ml"},
      {"pfsm.infer", "pfsm"},
      {"pipeline.traces_of", "pfsm"},
      {"deviation.window", "deviation"},
      {"deviation.calibrate", "deviation"},
      {"sink.render", "analysis"},
      {"sink.write", "obs"},
      {"watch.ingest", "core"},
      {"watch.finish", "core"},
      {"watch.components", "core"},
      {"pipeline.train", "core"},
      {"analysis.day", "core"},
      {"checkpoint.export", "core"},
      {"checkpoint.serialize", "core"},
      {"checkpoint.write", "core"},
      {"model_io.load", "core"},
      {"engine_pass", "tools"},
      {"sink", "tools"},
      {"ingest.annotate", "tools"},
  };
  return m;
}

/// In-memory span log of one thread.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };

  SpanLog() : origin_(Clock::now()) {}

  int open(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_ns(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// ------------------------------------------------------------------- JSON

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Flat JSON object builder.
class Json {
 public:
  Json& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ",") + quote(key) + ":" + value;
    return *this;
  }
  Json& n(const std::string& key, double v) { return raw(key, num(v)); }
  Json& s(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  Json& list(const std::string& key, const std::vector<double>& v) {
    std::string a = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      a += (i ? "," : "") + num(v[i]);
    }
    return raw(key, a + "]");
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Per-layer metrics from a span log: inclusive busy time and call count of
/// each span name, self time of each layer, and the span file.
void span_metrics(const SpanLog& log, Json& m, const std::string& spans_path) {
  const auto& spans = log.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> busy_ms;
  std::map<std::string, double> calls;
  std::map<std::string, double> layer_self_ms;
  std::map<std::string, double> self_by_name_ms;
  for (const auto& [name, layer] : layer_of()) layer_self_ms[layer] = 0.0;
  std::ostringstream file;
  file << "{\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const std::string name = s.name;
    const auto it = layer_of().find(name);
    if (it == layer_of().end()) {
      throw std::logic_error("span without a layer: " + name);
    }
    const double dur_ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    const double self_ms =
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    busy_ms[name] += dur_ms;
    calls[name] += 1.0;
    self_by_name_ms[name] += self_ms;
    layer_self_ms[it->second] += self_ms;
    file << (i ? "," : "") << "{\"name\":" << quote(name)
         << ",\"layer\":" << quote(it->second)
         << ",\"start_us\":" << s.start_ns / 1000
         << ",\"end_us\":" << s.end_ns / 1000 << ",\"parent\":" << s.parent
         << "}";
  }
  file << "]}";
  write_text(spans_path, file.str());
  double wall_ms = 0.0;
  for (const auto& s : spans) {
    if (s.parent < 0) {
      wall_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  for (const auto& [name, ms] : busy_ms) {
    m.n("span." + name + ".busy_ms", ms);
    m.n("span." + name + ".calls", calls[name]);
    m.n("span." + name + ".self_ms", self_by_name_ms[name]);
  }
  for (const auto& [layer, ms] : layer_self_ms) {
    m.n("layer." + layer + ".self_ms", ms);
  }
  m.n("trace.wall_ms", wall_ms);
  m.n("trace.spans", static_cast<double>(spans.size()));
}

/// The program's own counters, read after the traced run.
void counter_metrics(Json& m) {
  const auto snap = obs::MetricsRegistry::global().snapshot();
  for (const auto& [name, value] : snap.counters) {
    m.n("counter." + name, static_cast<double>(value));
  }
}

// ---------------------------------------------------------- batch_paper

struct BatchInputs {
  testbed::GeneratedCapture idle;
  testbed::GeneratedCapture activity;
  testbed::GeneratedCapture routine;
  std::vector<testbed::GeneratedCapture> days;
  double idle_window_s = testbed::Datasets::kIdleDays * 86400.0;

  [[nodiscard]] double train_packets() const {
    return static_cast<double>(idle.packets.size() + activity.packets.size() +
                               routine.packets.size());
  }
  [[nodiscard]] double analysis_packets() const {
    double n = 0;
    for (const auto& d : days) n += static_cast<double>(d.packets.size());
    return n;
  }
};

/// Paper-scale observation phase (§3.2) plus consecutive uncontrolled days.
BatchInputs make_batch_inputs(std::uint64_t seed) {
  BatchInputs in;
  in.idle = testbed::Datasets::idle(sub_seed(seed, 1));
  in.activity = testbed::Datasets::activity(sub_seed(seed, 2));
  in.routine = testbed::Datasets::routine_week(sub_seed(seed, 3));
  for (std::size_t d = 0; d < kAnalysisDays; ++d) {
    in.days.push_back(
        testbed::Datasets::uncontrolled_day(kFirstDay + d, sub_seed(seed, 4)));
  }
  return in;
}

struct BatchResult {
  double cpu_s = 0.0;  ///< CPU time of the whole pass, all threads
  double train_s = 0.0;
  double analyze_s = 0.0;
  std::vector<double> day_ms;
  std::string models_image;
  std::vector<std::string> day_alerts;  ///< alerts_to_json per day
};

/// Pipeline::to_flows on the three controlled datasets + Pipeline::train.
BehaviorModelSet train_paper_models(const BatchInputs& in) {
  const Pipeline pipeline;
  DomainResolver resolver;
  const auto idle = pipeline.to_flows(in.idle, resolver);
  const auto activity = pipeline.to_flows(in.activity, resolver);
  const auto routine = pipeline.to_flows(in.routine, resolver);
  return pipeline.train(idle, in.idle_window_s, activity, routine);
}

/// One untraced pass through the public entry points the paper's workflow
/// uses: Pipeline::to_flows + Pipeline::train, then
/// DeviationEngine::process_window day by day.
BatchResult batch_pass(const BatchInputs& in) {
  BatchResult r;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const BehaviorModelSet models = train_paper_models(in);
  r.train_s = seconds_since(t0);
  r.models_image = save_models_binary(models);

  DeviationEngine engine(models);
  const auto t1 = Clock::now();
  for (const auto& day : in.days) {
    const auto td = Clock::now();
    const auto alerts = engine.process_window(day);
    r.day_ms.push_back(seconds_since(td) * 1e3);
    r.day_alerts.push_back(alerts_to_json(alerts));
  }
  r.analyze_s = seconds_since(t1);
  r.cpu_s = cpu_seconds() - cpu0;
  return r;
}

/// The same pass built from the calls Pipeline::train and
/// DeviationEngine::process_window make, each inside a span. Its outputs
/// must equal batch_pass's, which catches drift between the two.
BatchResult batch_traced_pass(const BatchInputs& in, SpanLog& log,
                              Json& m) {
  BatchResult r;
  const auto t0 = Clock::now();
  const Pipeline pipeline;
  const PipelineOptions& po = pipeline.options();
  DomainResolver resolver;
  std::vector<FlowRecord> idle, activity, routine;
  {
    Scope s(log, "pipeline.to_flows");
    idle = pipeline.to_flows(in.idle, resolver);
  }
  {
    Scope s(log, "pipeline.to_flows");
    activity = pipeline.to_flows(in.activity, resolver);
  }
  {
    Scope s(log, "pipeline.to_flows");
    routine = pipeline.to_flows(in.routine, resolver);
  }
  BehaviorModelSet models;
  {
    Scope train(log, "pipeline.train");
    {
      Scope s(log, "periodic.infer");
      models.periodic =
          PeriodicModelSet::infer(idle, in.idle_window_s, po.periodic);
    }
    {
      Scope s(log, "ml.user_actions_train");
      models.user_actions =
          UserActionModels::train(activity, {}, po.user_actions);
    }
    Pipeline::Classified classified;
    {
      Scope s(log, "pipeline.classify");
      classified = pipeline.classify(routine, models);
    }
    std::vector<EventTrace> traces;
    {
      Scope s(log, "pipeline.traces_of");
      traces = pipeline.traces_of(classified.user_events);
    }
    SynopticResult synoptic;
    {
      Scope s(log, "pfsm.infer");
      synoptic = infer_pfsm(traces, po.synoptic);
    }
    models.pfsm = std::move(synoptic.pfsm);
    models.invariants = std::move(synoptic.invariants);
    models.pfsm_refinements = synoptic.refinement_steps;
    for (const EventTrace& t : traces) {
      models.training_traces.push_back(trace_labels(t));
    }
    {
      Scope s(log, "deviation.calibrate");
      models.short_term = ShortTermThreshold::calibrate(
          models.pfsm, models.training_traces, po.short_term_n_sigma);
    }
    models.thresholds.short_term = models.short_term.value();
  }
  r.train_s = seconds_since(t0);
  r.models_image = save_models_binary(models);
  double trees = 0;
  for (const auto& [device, classifiers] : models.user_actions.classifiers()) {
    for (const auto& c : classifiers) {
      trees += static_cast<double>(c.forest.num_trees());
    }
  }
  m.n("ml.trees_fit", trees);
  m.n("pfsm.states", static_cast<double>(models.pfsm.num_states()));

  DomainResolver day_resolver;
  DeviationMonitor monitor(models.periodic, models.pfsm, models.short_term);
  double alerts = 0;
  const auto t1 = Clock::now();
  for (const auto& day : in.days) {
    const auto td = Clock::now();
    Scope s(log, "analysis.day");
    std::vector<FlowRecord> flows;
    {
      Scope c(log, "pipeline.to_flows");
      flows = pipeline.to_flows(day, day_resolver);
    }
    Pipeline::Classified classified;
    {
      Scope c(log, "pipeline.classify");
      classified = pipeline.classify(flows, models);
    }
    std::vector<EventTrace> traces;
    {
      Scope c(log, "pipeline.traces_of");
      traces = pipeline.traces_of(classified.user_events);
    }
    std::vector<DeviationAlert> day_alerts;
    {
      Scope c(log, "deviation.window");
      day_alerts = monitor.evaluate_window(day.start, day.end, flows, traces);
    }
    alerts += static_cast<double>(day_alerts.size());
    r.day_alerts.push_back(alerts_to_json(day_alerts));
    r.day_ms.push_back(seconds_since(td) * 1e3);
  }
  r.analyze_s = seconds_since(t1);
  m.n("deviation.alerts", alerts);
  return r;
}

/// Number of operations of `r` that disagree with the reference: the
/// training step (model image) and each analysed day (its alert list).
std::size_t batch_mismatches(const BatchResult& r, const BatchResult& ref,
                             std::vector<std::string>& errors,
                             const std::string& what) {
  std::size_t bad = 0;
  if (r.models_image != ref.models_image) {
    ++bad;
    errors.push_back(what + ": model image differs");
  }
  for (std::size_t d = 0; d < ref.day_alerts.size(); ++d) {
    if (d >= r.day_alerts.size() || r.day_alerts[d] != ref.day_alerts[d]) {
      ++bad;
      errors.push_back(what + ": alerts of day " + std::to_string(d) +
                       " differ");
    }
  }
  return bad;
}

std::string error_list(const std::vector<std::string>& errors) {
  std::string a = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    a += (i ? "," : "") + quote(errors[i]);
  }
  return a + "]";
}

int cmd_batch(std::uint64_t seed, double budget_s, bool trace,
              const std::string& out, const std::string& spans_path) {
  const std::size_t threads = runtime::global_threads();
  // Set-up: dataset generation, repeated so set-up time is a median.
  std::vector<double> setup_s;
  std::optional<BatchInputs> in;
  for (int i = 0; i < 3; ++i) {
    const auto t = Clock::now();
    in.reset();
    in.emplace(make_batch_inputs(seed));
    setup_s.push_back(seconds_since(t));
  }
  Json j;
  j.list("setup_s", setup_s);
  j.n("threads", static_cast<double>(threads));
  j.n("train_packets", in->train_packets());
  j.n("analysis_packets", in->analysis_packets());
  std::vector<std::string> errors;
  double attempted = 0;
  double failed = 0;
  const double ops_per_pass = 1.0 + static_cast<double>(kAnalysisDays);

  // Warm-up pass: fills caches and the thread pool, and is the reference
  // the timed passes must reproduce exactly.
  const BatchResult ref = batch_pass(*in);
  if (ref.models_image.empty()) errors.push_back("empty model image");
  if (ref.day_alerts.size() != kAnalysisDays) errors.push_back("days lost");

  if (!trace) {
    std::vector<double> train_s, analyze_s, cpu_s, day_ms;
    const auto start = Clock::now();
    do {
      const BatchResult r = batch_pass(*in);
      attempted += ops_per_pass;
      failed += static_cast<double>(batch_mismatches(r, ref, errors, "pass"));
      train_s.push_back(r.train_s);
      analyze_s.push_back(r.analyze_s);
      cpu_s.push_back(r.cpu_s);
      day_ms.insert(day_ms.end(), r.day_ms.begin(), r.day_ms.end());
    } while (train_s.size() < 2 || seconds_since(start) < budget_s);
    j.list("train_s", train_s).list("analyze_s", analyze_s);
    j.list("cpu_s", cpu_s);
    j.list("day_ms", day_ms);
  } else {
    // Untraced twin of the traced pass, for the tracing overhead.
    const BatchResult untraced = batch_pass(*in);
    attempted += ops_per_pass;
    failed += static_cast<double>(
        batch_mismatches(untraced, ref, errors, "untraced pass"));
    obs::MetricsRegistry::set_enabled(true);
    obs::MetricsRegistry::global().reset_values();
    Json m;
    SpanLog log;
    BatchResult traced;
    {
      Scope root(log, "run");
      traced = batch_traced_pass(*in, log, m);
    }
    attempted += ops_per_pass;
    failed += static_cast<double>(
        batch_mismatches(traced, ref, errors, "traced pass"));
    counter_metrics(m);
    obs::MetricsRegistry::set_enabled(false);
    m.n("trace.untraced_wall_ms",
        (untraced.train_s + untraced.analyze_s) * 1e3);

    // The same training at one thread: speed-up of the runtime, and the
    // model image must not depend on the thread count.
    runtime::set_global_threads(1);
    const auto t1 = Clock::now();
    const BehaviorModelSet models = train_paper_models(*in);
    const double train_1t = seconds_since(t1);
    runtime::set_global_threads(threads);
    attempted += 1;
    if (save_models_binary(models) != ref.models_image) {
      failed += 1;
      errors.push_back("1-thread model image differs from " +
                       std::to_string(threads) + "-thread image");
    }
    m.n("runtime.train_1t_s", train_1t);
    m.n("runtime.train_speedup", train_1t / untraced.train_s);
    m.n("runtime.train_nt_s", untraced.train_s);
    span_metrics(log, m, spans_path);
    j.raw("metrics", m.str());
  }
  j.n("attempted", attempted).n("failed", failed);
  j.raw("errors", error_list(errors));
  write_text(out, j.str());
  return 0;
}

// --------------------------------------------------------- watch set-up

/// Models the daemon scores with: a reduced observation phase (1 idle day,
/// 10 repetitions, 2 routine days) so the set-up stays short.
BehaviorModelSet make_watch_models(std::uint64_t seed) {
  const Pipeline pipeline;
  DomainResolver resolver;
  const auto idle =
      pipeline.to_flows(testbed::Datasets::idle(sub_seed(seed, 5), 1.0),
                        resolver);
  const auto activity = pipeline.to_flows(
      testbed::Datasets::activity(sub_seed(seed, 6), 10), resolver);
  const auto routine = pipeline.to_flows(
      testbed::Datasets::routine_week(sub_seed(seed, 7), 2.0), resolver);
  return pipeline.train(idle, 86400.0, activity, routine);
}

std::vector<Packet> read_annotated(const std::string& path) {
  auto parsed = read_pcap(path, ParsePolicy::kStrict);
  annotate(parsed.packets);
  return std::move(parsed.packets);
}

struct WindowLog {
  std::vector<double> flows;
  std::vector<double> alerts;
  std::vector<DeviationAlert> all_alerts;
};

/// Feeds `packets` one at a time and records, for each window, the index
/// of the packet whose ingest closed it (-1: closed by end of stream).
std::vector<double> closing_packets(ModelHandle& handle,
                                    const WatchOptions& opts,
                                    std::span<const Packet> packets) {
  WatchEngine engine(handle, make_resolver(), opts);
  std::vector<double> closing;
  for (std::size_t i = 0; i < packets.size() && !engine.done(); ++i) {
    engine.ingest(packets.subspan(i, 1));
    while (closing.size() < engine.windows_evaluated()) {
      closing.push_back(static_cast<double>(i));
    }
  }
  engine.finish();
  while (closing.size() < engine.windows_evaluated()) closing.push_back(-1);
  return closing;
}

/// Per-window output of the engine fed in the CLI's chunks. The chunking
/// matters: flows take their domains from what the resolver knows when
/// they are drained, so the alerts depend on how far ingest has read.
WindowLog chunked_reference(ModelHandle& handle, const WatchOptions& opts,
                            std::span<const Packet> packets) {
  WindowLog log;
  WatchEngine engine(handle, make_resolver(), opts);
  engine.set_window_sink([&log](const WatchWindowReport& r) {
    log.flows.push_back(static_cast<double>(r.flows));
    log.alerts.push_back(static_cast<double>(r.alerts.size()));
    log.all_alerts.insert(log.all_alerts.end(), r.alerts.begin(),
                          r.alerts.end());
  });
  for (std::size_t i = 0; i < packets.size(); i += kChunk) {
    engine.ingest(packets.subspan(i, std::min(kChunk, packets.size() - i)));
  }
  engine.finish();
  return log;
}

/// Self-check of the closing-packet pass on a small capture: feeding in
/// chunks cut right before and right after each closing packet, the window
/// count must step exactly at that packet.
void check_closing_pass(ModelHandle& handle, const WatchOptions& opts,
                        std::span<const Packet> packets) {
  const auto closing = closing_packets(handle, opts, packets);
  WatchEngine engine(handle, make_resolver(), opts);
  std::size_t pos = 0;
  std::size_t checked = 0;
  for (std::size_t k = 0; k < closing.size(); ++k) {
    if (closing[k] < 0) break;
    const auto c = static_cast<std::size_t>(closing[k]);
    if (c < pos) continue;  // closed by the same packet as window k-1
    engine.ingest(packets.subspan(pos, c - pos));
    if (engine.windows_evaluated() != k) {
      throw std::runtime_error("closing-packet self-check: window " +
                               std::to_string(k) + " closed before its packet");
    }
    engine.ingest(packets.subspan(c, 1));
    if (engine.windows_evaluated() <= k) {
      throw std::runtime_error("closing-packet self-check: window " +
                               std::to_string(k) + " not closed by its packet");
    }
    pos = c + 1;
    ++checked;
  }
  if (checked < 3) {
    throw std::runtime_error("closing-packet self-check: too few windows");
  }
}

int cmd_setup_watch(const std::string& workload, std::uint64_t seed,
                    const std::string& dir) {
  if (workload != "replay" && workload != "live") {
    throw std::runtime_error("unknown watch workload " + workload);
  }
  std::filesystem::create_directories(dir);
  const std::string models_path = dir + "/models.bbm";
  const std::string capture_path = dir + "/capture.pcap";
  save_models_binary_file(models_path, make_watch_models(seed));
  {
    const auto capture =
        testbed::Datasets::uncontrolled_day(kWatchDay, sub_seed(seed, 8));
    const Timestamp end =
        workload == "replay" ? capture.start + seconds(kReplayHours * 3600.0)
                             : capture.end + seconds(1.0);
    PcapWriter writer(capture_path);
    for (const Packet& p : capture.packets) {
      if (p.ts < end) writer.write(p);
    }
    writer.close();
  }

  // Reference: the library's WatchEngine over exactly what the daemon will
  // read — the pcap read back, annotated as the CLI does, against the
  // model file loaded back.
  const std::vector<Packet> packets = read_annotated(capture_path);
  if (packets.empty()) throw std::runtime_error("empty capture");
  ModelHandle handle{BehaviorModelSet{}};
  handle.restore(load_models_binary_file(models_path), 1);
  const WatchOptions opts = watch_options(workload);
  const std::span<const Packet> all(packets);
  std::vector<double> closing;
  if (workload == "live") {
    // Self-check on the first three hours of the capture.
    const auto small_end =
        std::find_if(all.begin(), all.end(), [&](const Packet& p) {
          return p.ts.micros() - all.front().ts.micros() > seconds(3 * 3600.0);
        });
    check_closing_pass(
        handle, opts,
        all.first(static_cast<std::size_t>(small_end - all.begin())));
    closing = closing_packets(handle, opts, all);
  }
  const WindowLog log = chunked_reference(handle, opts, all);
  write_text(dir + "/reference_alerts.json", alerts_to_json(log.all_alerts));
  Json j;
  j.s("workload", workload);
  j.n("packets", static_cast<double>(packets.size()));
  j.n("bytes", static_cast<double>(std::filesystem::file_size(capture_path)));
  j.n("windows", static_cast<double>(log.flows.size()));
  j.n("window_s", kWindowS);
  j.n("retrain_every", static_cast<double>(opts.retrain_every_windows));
  j.n("chunk", static_cast<double>(kChunk));
  j.list("window_flows", log.flows);
  j.list("window_alerts", log.alerts);
  j.list("closing_packet", closing);
  write_text(dir + "/reference.json", j.str());
  return 0;
}

// ---------------------------------------------------- watch traced run

struct SinkStats {
  double render_bytes = 0;
  double write_calls = 0;
  double write_bytes = 0;
  double write_failed = 0;
  std::vector<double> checkpoint_bytes;
};

/// Engine pass: what `behaviot watch --alerts --metrics --checkpoint` does
/// per closed window, in the same order, with each call in a span.
void engine_pass(const std::string& workload, const std::string& dir,
                 const std::string& out_dir, std::size_t max_windows,
                 SpanLog& log, SinkStats& st, Json& m) {
  Scope pass(log, "engine_pass");
  std::filesystem::remove_all(out_dir);
  std::filesystem::create_directories(out_dir);
  WatchOptions opts = watch_options(workload);
  opts.max_windows = max_windows;
  ModelHandle handle{BehaviorModelSet{}};
  {
    Scope s(log, "model_io.load");
    const auto tl = Clock::now();
    handle.restore(load_models_binary_file(dir + "/models.bbm"), 1);
    m.n("model_io.load_ms", seconds_since(tl) * 1e3);
  }
  WatchEngine engine(handle, make_resolver(), opts);
  const auto& catalog = testbed::Catalog::standard();
  obs::SnapshotWriter alerts_writer(out_dir + "/alerts.json");
  obs::SnapshotWriter metrics_writer(out_dir + "/metrics.prom");
  const std::string ck_path = out_dir + "/ck.bbc";
  std::FILE* stdout_copy = std::fopen((out_dir + "/stdout.txt").c_str(), "w");
  if (stdout_copy == nullptr) {
    throw std::runtime_error("cannot open " + out_dir + "/stdout.txt");
  }
  std::vector<DeviationAlert> all_alerts;
  std::uint64_t input_offset = 0;

  auto write_snapshot = [&](obs::SnapshotWriter& w, const std::string& doc,
                            std::size_t index) {
    Scope s(log, "sink.write");
    st.write_calls += 1;
    st.write_bytes += static_cast<double>(doc.size());
    if (!w.write(doc, index)) st.write_failed += 1;
  };
  auto checkpoint = [&](std::size_t index, const obs::HealthSnapshot& health) {
    WatchCheckpoint cp;
    cp.options.window_us = opts.window_us;
    cp.options.retrain_every_windows = opts.retrain_every_windows;
    cp.options.burst_gap_us = opts.assembler.base.burst_gap_us;
    cp.options.drop_infrastructure = opts.assembler.base.drop_infrastructure;
    cp.options.max_ts_regression_us = opts.assembler.base.max_ts_regression_us;
    cp.options.reorder_horizon_us = opts.assembler.reorder_horizon_us;
    cp.options.max_open_flows = opts.assembler.max_open_flows;
    cp.options.max_buffered_packets = opts.assembler.max_buffered_packets;
    {
      Scope s(log, "checkpoint.export");
      cp.engine = engine.export_state();
    }
    std::string image;
    {
      Scope s(log, "checkpoint.serialize");
      cp.models_image = save_models_binary(*handle.acquire());
      cp.model_version = handle.version();
      cp.input_offset = input_offset;
      cp.alerts_json = alerts_to_json(all_alerts, &health);
      cp.health = health;
      image = save_checkpoint(cp);
    }
    // write_checkpoint_rotating's I/O (rotate to .prev, then an atomic
    // write) on the image serialised above, so serialisation and I/O are
    // timed apart without serialising twice.
    {
      Scope s(log, "checkpoint.write");
      std::error_code ec;
      if (std::filesystem::exists(ck_path, ec)) {
        std::filesystem::rename(ck_path, ck_path + ".prev", ec);
      }
      if (ec || !obs::write_file_atomic(ck_path, image)) {
        st.write_failed += 1;
      }
    }
    st.checkpoint_bytes.push_back(static_cast<double>(image.size()));
    // The daemon's own checkpoint telemetry, as the CLI records it.
    std::error_code ec;
    const auto size = std::filesystem::file_size(ck_path, ec);
    obs::counter("checkpoint.writes").inc();
    obs::gauge("checkpoint.bytes").set(ec ? 0.0 : static_cast<double>(size));
    obs::gauge("checkpoint.last_window").set(static_cast<double>(index));
  };
  auto render = [&](auto&& fn) {
    Scope s(log, "sink.render");
    std::string doc = fn();
    st.render_bytes += static_cast<double>(doc.size());
    return doc;
  };

  engine.set_window_sink([&](const WatchWindowReport& r) {
    Scope sink(log, "sink");
    std::string note;
    if (r.swapped) {
      note = "  [models v" + std::to_string(r.model_version) + " swapped in]";
    }
    std::fprintf(stdout_copy,
                 "window %4zu [%11.1fs, %11.1fs)  %5zu flows  %zu alert(s)%s\n",
                 r.index, static_cast<double>(r.start.micros()) / 1e6,
                 static_cast<double>(r.end.micros()) / 1e6, r.flows,
                 r.alerts.size(), note.c_str());
    for (const auto& a : r.alerts) {
      const char* device_name = a.device < catalog.size()
                                    ? catalog.by_id(a.device).name.c_str()
                                    : "(system)";
      std::fprintf(stdout_copy, "  [%s] %-18s score %6.2f (thr %4.2f)  %s\n",
                   to_string(a.source), device_name, a.score, a.threshold,
                   a.context.substr(0, 80).c_str());
    }
    all_alerts.insert(all_alerts.end(), r.alerts.begin(), r.alerts.end());
    const obs::HealthSnapshot health = obs::health().snapshot();
    write_snapshot(alerts_writer,
                   render([&] { return alerts_to_json(all_alerts, &health); }),
                   r.index);
    checkpoint(r.index, health);
    obs::update_process_gauges();
    const auto snap = obs::MetricsRegistry::global().snapshot();
    write_snapshot(metrics_writer,
                   render([&] { return obs::to_prometheus(snap, health); }),
                   r.index);
    std::fflush(stdout_copy);
  });

  std::ifstream input(dir + "/capture.pcap", std::ios::binary);
  PcapReader reader(input);
  std::vector<Packet> chunk;
  double packets = 0;
  auto flush_chunk = [&]() {
    if (chunk.empty()) return;
    {
      Scope s(log, "ingest.annotate");
      annotate(chunk);
    }
    input_offset = reader.consumed_offset();
    {
      Scope s(log, "watch.ingest");
      engine.ingest(chunk);
    }
    chunk.clear();
  };
  while (!engine.done()) {
    bool eof = false;
    {
      Scope s(log, "ingest.pcap");
      while (chunk.size() < kChunk) {
        auto p = reader.next();
        if (!p) {
          eof = true;
          break;
        }
        chunk.push_back(std::move(*p));
        packets += 1;
      }
    }
    if (eof) break;
    flush_chunk();
  }
  if (!engine.done()) flush_chunk();
  {
    Scope s(log, "watch.finish");
    engine.finish();
  }
  {
    Scope s(log, "sink");
    const obs::HealthSnapshot health = obs::health().snapshot();
    const std::size_t last =
        engine.windows_evaluated() == 0 ? 0 : engine.windows_evaluated() - 1;
    write_snapshot(alerts_writer,
                   render([&] { return alerts_to_json(all_alerts, &health); }),
                   last);
    obs::update_process_gauges();
    const auto snap = obs::MetricsRegistry::global().snapshot();
    write_snapshot(metrics_writer,
                   render([&] { return obs::to_prometheus(snap, health); }),
                   last);
    checkpoint(last, health);
  }
  std::fclose(stdout_copy);
  m.n("ingest.pcap.packets", packets);
  m.n("ingest.pcap.bytes", static_cast<double>(reader.consumed_offset()));
  m.n("watch.window.calls", static_cast<double>(engine.windows_evaluated()));
  m.n("flow.peak_buffered_packets",
      static_cast<double>(engine.assembler_stats().peak_buffered_packets));
  m.n("flow.flows",
      static_cast<double>(engine.assembler_stats().flows_emitted));
}

/// Component pass: the engine's loop rebuilt from the public pieces it
/// composes (pcap reader, streaming assembler, deviation monitor, periodic
/// retrain), so the engine's own time splits into layers. Retrains run
/// inline here. Returns the alerts, which must equal the reference.
std::vector<DeviationAlert> component_pass(const std::string& workload,
                                           const std::string& dir,
                                           std::size_t max_windows,
                                           SpanLog& log, Json& m) {
  Scope pass(log, "watch.components");
  const WatchOptions opts = watch_options(workload);
  ModelHandle handle{BehaviorModelSet{}};
  handle.restore(load_models_binary_file(dir + "/models.bbm"), 1);
  auto generation = handle.acquire();
  DomainResolver resolver = make_resolver();
  StreamingFlowAssembler assembler(opts.assembler, resolver);
  DeviationMonitor monitor(generation->periodic, generation->pfsm,
                           generation->short_term, opts.monitor);
  std::optional<BehaviorModelSet> pending;
  std::vector<FlowRecord> retrain_buffer;
  std::vector<DeviationAlert> alerts;
  std::optional<Timestamp> t0;
  std::size_t next_window = 0;
  Timestamp max_end{std::numeric_limits<std::int64_t>::min()};
  bool done = false;
  double retrains = 0, retrain_flows = 0, windows = 0;

  auto advance = [&](bool to_completion) {
    while (!done) {
      if (!t0) {
        t0 = assembler.first_release();
        if (!t0) break;
      }
      const Timestamp ws =
          *t0 + static_cast<std::int64_t>(next_window) * opts.window_us;
      const Timestamp we = ws + opts.window_us;
      if (to_completion) {
        const bool time_left =
            max_end.micros() != std::numeric_limits<std::int64_t>::min() &&
            ws < max_end + seconds(1.0);
        if (assembler.sealed_pending() == 0 && !time_left) break;
      } else {
        Scope s(log, "flow.drain");
        if (assembler.seal_watermark() < we) break;
      }
      if (pending) {
        handle.publish(std::move(*pending));
        pending.reset();
        generation = handle.acquire();
        monitor.rebind(generation->periodic, generation->pfsm,
                       generation->short_term);
      }
      std::vector<FlowRecord> flows;
      {
        Scope s(log, "flow.drain");
        flows = assembler.drain_sealed(we);
      }
      for (const FlowRecord& f : flows) max_end = std::max(max_end, f.end);
      {
        Scope s(log, "deviation.window");
        auto a = monitor.evaluate_window(ws, we, flows, {});
        alerts.insert(alerts.end(), a.begin(), a.end());
      }
      windows += 1;
      ++next_window;
      if (max_windows > 0 && next_window >= max_windows) done = true;
      if (opts.retrain_every_windows > 0) {
        retrain_buffer.insert(retrain_buffer.end(), flows.begin(), flows.end());
        if (next_window % opts.retrain_every_windows == 0) {
          Scope s(log, "watch.retrain");
          retrains += 1;
          retrain_flows += static_cast<double>(retrain_buffer.size());
          const double duration_s =
              static_cast<double>(opts.retrain_every_windows) *
              static_cast<double>(opts.window_us) / 1e6;
          PeriodicModelSet fresh =
              PeriodicModelSet::infer(retrain_buffer, duration_s);
          RetrainSummary summary;
          BehaviorModelSet next = *generation;
          next.periodic = merge_periodic_models(generation->periodic, fresh,
                                                summary, opts.retrain);
          pending = std::move(next);
          retrain_buffer.clear();
        }
      }
    }
  };

  std::ifstream input(dir + "/capture.pcap", std::ios::binary);
  PcapReader reader(input);
  std::vector<Packet> chunk;
  while (!done) {
    bool eof = false;
    {
      Scope s(log, "ingest.pcap");
      while (chunk.size() < kChunk) {
        auto p = reader.next();
        if (!p) {
          eof = true;
          break;
        }
        chunk.push_back(std::move(*p));
      }
    }
    {
      Scope s(log, "ingest.annotate");
      annotate(chunk);
    }
    {
      Scope s(log, "flow.assemble");
      assembler.feed(chunk);
    }
    chunk.clear();
    advance(false);
    if (eof) break;
  }
  if (!done) {
    {
      Scope s(log, "flow.assemble");
      assembler.finish();
    }
    advance(true);
  }
  m.n("deviation.alerts", static_cast<double>(alerts.size()));
  m.n("watch.retrain.calls", retrains);
  m.n("watch.retrain.flows", retrain_flows);
  m.n("deviation.window.calls", windows);
  return alerts;
}

int cmd_trace_watch(const std::string& workload, const std::string& dir,
                    std::size_t max_windows, const std::string& out,
                    const std::string& spans_path) {
  // The daemon records its metrics when --metrics is given; so does the
  // engine pass.
  obs::MetricsRegistry::set_enabled(true);
  Json m;
  SpanLog log;
  SinkStats st;
  std::vector<DeviationAlert> component_alerts;
  {
    Scope root(log, "run");
    // CPU time, not wall time, is compared with the untraced daemon's: the
    // daemon's wall clock follows the live schedule or the disk.
    const double cpu0 = cpu_seconds();
    engine_pass(workload, dir, dir + "/traced", max_windows, log, st, m);
    m.n("trace.engine_pass_cpu_s", cpu_seconds() - cpu0);
    // The engine pass's counters alone: the component pass repeats its work.
    counter_metrics(m);
    component_alerts = component_pass(workload, dir, max_windows, log, m);
  }
  m.n("sink.render.bytes", st.render_bytes);
  m.n("sink.write.calls", st.write_calls);
  m.n("sink.write.bytes", st.write_bytes);
  m.n("sink.write.failed", st.write_failed);
  double ck_max = 0, ck_sum = 0;
  for (const double b : st.checkpoint_bytes) {
    ck_max = std::max(ck_max, b);
    ck_sum += b;
  }
  m.n("checkpoint.bytes_max", ck_max);
  m.n("checkpoint.bytes_mean",
      st.checkpoint_bytes.empty()
          ? 0.0
          : ck_sum / static_cast<double>(st.checkpoint_bytes.size()));
  span_metrics(log, m, spans_path);

  write_text(dir + "/component_alerts.json", alerts_to_json(component_alerts));
  write_text(out, m.str());
  return 0;
}

// ------------------------------------------------------------------ meta

std::string fs_name(long type) {
  switch (static_cast<unsigned long>(type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(type));
      return buf;
    }
  }
}

int cmd_meta(const std::string& out, const std::vector<std::string>& paths) {
  Json j;
  j.s("build_type", PERFBENCH_BUILD_TYPE);
  j.s("cxx_flags", PERFBENCH_CXX_FLAGS);
  j.s("compiler", PERFBENCH_COMPILER);
  struct utsname u {};
  if (::uname(&u) == 0) {
    j.s("kernel", std::string(u.sysname) + " " + u.release + " " + u.machine);
  }
  j.n("runtime_threads", static_cast<double>(runtime::global_threads()));
  Json fs;
  for (const auto& p : paths) {
    struct statfs s {};
    fs.s(p, ::statfs(p.c_str(), &s) == 0 ? fs_name(s.f_type) : "unknown");
  }
  j.raw("filesystems", fs.str());
  write_text(out, j.str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness batch|setup-watch|"
                         "trace-watch|meta [--flag value]...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  std::map<std::string, std::string> flags;
  std::vector<std::string> rest;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0 && i + 1 < argc) {
      flags[argv[i] + 2] = argv[i + 1];
      ++i;
    } else {
      rest.push_back(argv[i]);
    }
  }
  auto flag = [&](const char* name) {
    const auto it = flags.find(name);
    if (it == flags.end()) {
      throw std::runtime_error(std::string("missing --") + name);
    }
    return it->second;
  };
  try {
    if (cmd == "batch") {
      return cmd_batch(std::stoull(flag("seed")), std::stod(flag("seconds")),
                       flag("trace") == "1", flag("out"),
                       flags.count("spans") ? flags.at("spans") : "");
    }
    if (cmd == "setup-watch") {
      return cmd_setup_watch(flag("workload"), std::stoull(flag("seed")),
                             flag("dir"));
    }
    if (cmd == "trace-watch") {
      return cmd_trace_watch(flag("workload"), flag("dir"),
                             std::stoull(flag("max-windows")), flag("out"),
                             flag("spans"));
    }
    if (cmd == "meta") return cmd_meta(flag("out"), rest);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
  return 2;
}
