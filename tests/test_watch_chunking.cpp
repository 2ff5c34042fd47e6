// Chunk independence of the `behaviot watch` engine: how a capture is split
// into ingest() calls must not change a single window report, alert or
// model swap. Uncontrolled days are the hard case — DNS/SNI bindings there
// often arrive after the flows they name — so the property is checked on
// them, with and without a retrain, and through a checkpoint taken between
// two chunk boundaries. The last test drives the CLI's --follow tail, which
// hands the engine whatever each EOF poll found.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "behaviot/analysis/alert_report.hpp"
#include "behaviot/core/binary_io.hpp"
#include "behaviot/core/checkpoint.hpp"
#include "behaviot/core/model_handle.hpp"
#include "behaviot/core/serialize_binary.hpp"
#include "behaviot/core/watch_engine.hpp"
#include "behaviot/flow/assembler.hpp"
#include "behaviot/net/pcap.hpp"
#include "behaviot/testbed/datasets.hpp"

namespace behaviot {
namespace {

constexpr std::int64_t kWindowUs = 10 * 60 * 1'000'000LL;  // 10 min
constexpr std::size_t kRetrainEvery = 24;                   // every 4 h

/// Idle models (1 day, seed 11) and two uncontrolled days to stream against
/// them, built once per binary.
struct ChunkingFixture {
  BehaviorModelSet models;
  std::vector<Packet> day20;
  std::vector<Packet> day30;
};

const ChunkingFixture& fixture() {
  static const ChunkingFixture* fx = [] {
    auto* f = new ChunkingFixture;
    const auto train = testbed::Datasets::idle(/*seed=*/11, /*days=*/1.0);
    DomainResolver train_resolver;
    const auto train_flows =
        FlowAssembler().assemble(train.packets, train_resolver);
    f->models.periodic = PeriodicModelSet::infer(train_flows, 86400.0);
    f->day20 = testbed::Datasets::uncontrolled_day(20).packets;
    f->day30 = testbed::Datasets::uncontrolled_day(30).packets;
    return f;
  }();
  return *fx;
}

WatchOptions options(std::size_t retrain_every) {
  WatchOptions opts;
  opts.window_us = kWindowUs;
  opts.retrain_every_windows = retrain_every;
  return opts;
}

/// Feeds `packets` to `engine` in `chunk`-sized ingest() calls (0 = one call
/// for everything), then finishes the stream.
void feed(WatchEngine& engine, std::span<const Packet> packets,
          std::size_t chunk) {
  if (chunk == 0) chunk = std::max<std::size_t>(packets.size(), 1);
  for (std::size_t i = 0; i < packets.size() && !engine.done(); i += chunk) {
    engine.ingest(packets.subspan(i, std::min(chunk, packets.size() - i)));
  }
  engine.finish();
}

std::vector<WatchWindowReport> run(const BehaviorModelSet& models,
                                   std::span<const Packet> packets,
                                   const WatchOptions& opts,
                                   std::size_t chunk) {
  ModelHandle handle(models);
  WatchEngine engine(handle, DomainResolver{}, opts);
  std::vector<WatchWindowReport> reports;
  engine.set_window_sink(
      [&reports](const WatchWindowReport& r) { reports.push_back(r); });
  feed(engine, packets, chunk);
  return reports;
}

void expect_same_reports(const std::vector<WatchWindowReport>& a,
                         const std::vector<WatchWindowReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "window " << a[i].index);
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].end, b[i].end);
    EXPECT_EQ(a[i].flows, b[i].flows);
    EXPECT_EQ(a[i].model_version, b[i].model_version);
    EXPECT_EQ(a[i].swapped, b[i].swapped);
    ASSERT_EQ(a[i].alerts.size(), b[i].alerts.size());
    for (std::size_t k = 0; k < a[i].alerts.size(); ++k) {
      const DeviationAlert& x = a[i].alerts[k];
      const DeviationAlert& y = b[i].alerts[k];
      EXPECT_EQ(x.source, y.source) << k;
      EXPECT_EQ(x.when, y.when) << k;
      EXPECT_EQ(x.device, y.device) << k;
      EXPECT_EQ(x.score, y.score) << k;  // byte-identical, not near
      EXPECT_EQ(x.threshold, y.threshold) << k;
      EXPECT_EQ(x.context, y.context) << k;
    }
  }
}

std::size_t total_alerts(const std::vector<WatchWindowReport>& reports) {
  std::size_t n = 0;
  for (const auto& r : reports) n += r.alerts.size();
  return n;
}

// ---------------------------------------------------------------------------
// Property: every chunking of a capture yields the same run.

TEST(WatchChunking, AnyChunkingYieldsIdenticalWindowsAndAlerts) {
  const auto& fx = fixture();
  const std::pair<const char*, const std::vector<Packet>*> days[] = {
      {"day 20", &fx.day20}, {"day 30", &fx.day30}};
  std::size_t alerts_seen = 0;
  for (const auto& [name, packets] : days) {
    for (const std::size_t retrain : {std::size_t{0}, kRetrainEvery}) {
      const WatchOptions opts = options(retrain);
      const auto reference = run(fx.models, *packets, opts, 1024);
      ASSERT_GE(reference.size(), 140u) << name;  // a whole day of windows
      alerts_seen += total_alerts(reference);
      if (retrain > 0) {
        EXPECT_GT(reference.back().model_version, 1u) << name;
      }
      for (const std::size_t chunk :
           {std::size_t{1}, std::size_t{7}, std::size_t{0}}) {
        SCOPED_TRACE(::testing::Message()
                     << name << ", retrain every " << retrain << ", chunk "
                     << (chunk == 0 ? std::string("whole capture")
                                    : std::to_string(chunk)));
        expect_same_reports(run(fx.models, *packets, opts, chunk), reference);
      }
    }
  }
  EXPECT_GT(alerts_seen, 0u) << "no alerts: the comparison is vacuous";
}

// ---------------------------------------------------------------------------
// Resume from a checkpoint taken at a packet offset no 1024-packet chunking
// would produce, continued with unrelated chunkings.

struct Taken {
  std::string bbc;
  std::size_t fed = 0;  ///< packets inside engine state at the snapshot
  std::size_t window = 0;
};

WatchCheckpoint make_checkpoint(const WatchEngine& engine,
                                const ModelHandle& handle,
                                const WatchOptions& opts, std::size_t fed,
                                std::span<const DeviationAlert> alerts) {
  WatchCheckpoint cp;
  cp.options.window_us = opts.window_us;
  cp.options.retrain_every_windows = opts.retrain_every_windows;
  cp.options.burst_gap_us = opts.assembler.base.burst_gap_us;
  cp.options.drop_infrastructure = opts.assembler.base.drop_infrastructure;
  cp.options.max_ts_regression_us = opts.assembler.base.max_ts_regression_us;
  cp.options.reorder_horizon_us = opts.assembler.reorder_horizon_us;
  cp.options.max_open_flows = opts.assembler.max_open_flows;
  cp.options.max_buffered_packets = opts.assembler.max_buffered_packets;
  cp.engine = engine.export_state();
  cp.models_image = save_models_binary(*handle.acquire());
  cp.model_version = handle.version();
  cp.input_offset = fed;
  cp.alerts_json = alerts_to_json(alerts);
  return cp;
}

std::vector<WatchWindowReport> resume(const std::string& bbc,
                                      std::span<const Packet> packets,
                                      std::size_t chunk) {
  WatchCheckpoint cp = load_checkpoint(binio::as_bytes(bbc));
  ModelHandle handle{BehaviorModelSet{}};
  handle.restore(load_models_binary(binio::as_bytes(cp.models_image)),
                 cp.model_version);
  WatchOptions opts = options(
      static_cast<std::size_t>(cp.options.retrain_every_windows));
  opts.window_us = cp.options.window_us;
  WatchEngine engine(handle, DomainResolver{}, opts);
  engine.import_state(std::move(cp.engine));
  std::vector<WatchWindowReport> reports;
  engine.set_window_sink(
      [&reports](const WatchWindowReport& r) { reports.push_back(r); });
  feed(engine, packets.subspan(static_cast<std::size_t>(cp.input_offset)),
       chunk);
  return reports;
}

TEST(WatchChunking, MidChunkCheckpointResumesExactlyUnderAnyChunking) {
  const auto& fx = fixture();
  const WatchOptions opts = options(kRetrainEvery);
  const std::span<const Packet> all(fx.day20);
  // Kill points: right before a retrain launch (the resume replays it), and
  // late in the day after several swaps.
  const std::vector<std::size_t> kill_windows = {23, 100};

  // The uninterrupted run: 7-packet ingests, a snapshot at each kill point.
  std::vector<WatchWindowReport> uninterrupted;
  std::vector<Taken> taken;
  {
    ModelHandle handle(fx.models);
    WatchEngine engine(handle, DomainResolver{}, opts);
    std::vector<DeviationAlert> alerts;
    std::size_t fed = 0;
    engine.set_window_sink([&](const WatchWindowReport& r) {
      uninterrupted.push_back(r);
      alerts.insert(alerts.end(), r.alerts.begin(), r.alerts.end());
      if (std::find(kill_windows.begin(), kill_windows.end(), r.index) !=
          kill_windows.end()) {
        taken.push_back({save_checkpoint(make_checkpoint(engine, handle, opts,
                                                         fed, alerts)),
                         fed, r.index});
      }
    });
    constexpr std::size_t kChunk = 7;
    for (std::size_t i = 0; i < all.size() && !engine.done(); i += kChunk) {
      const auto part = all.subspan(i, std::min(kChunk, all.size() - i));
      fed = i + part.size();
      engine.ingest(part);
    }
    engine.finish();
  }
  ASSERT_EQ(taken.size(), kill_windows.size());

  for (const Taken& k : taken) {
    ASSERT_NE(k.fed % 1024, 0u) << "offset must fall inside a 1024 chunk";
    // The round trip through bytes must itself be exact.
    ASSERT_EQ(save_checkpoint(load_checkpoint(binio::as_bytes(k.bbc))), k.bbc);
    const std::vector<WatchWindowReport> expected(
        uninterrupted.begin() + static_cast<std::ptrdiff_t>(k.window) + 1,
        uninterrupted.end());
    ASSERT_FALSE(expected.empty());
    for (const std::size_t chunk :
         {std::size_t{1024}, std::size_t{333}, std::size_t{0}}) {
      SCOPED_TRACE(::testing::Message() << "kill after window " << k.window
                                        << " at packet " << k.fed
                                        << ", resumed in chunks of " << chunk);
      expect_same_reports(resume(k.bbc, all, chunk), expected);
    }
  }
}

// ---------------------------------------------------------------------------
// The CLI tail: a window whose closing packet is followed by fewer than 1024
// packets must still be emitted while the daemon waits for more input.

std::string cli_path() {
  const auto self = std::filesystem::read_symlink("/proc/self/exe");
  return (self.parent_path().parent_path() / "tools" / "behaviot").string();
}

std::string read_file(const std::string& path) {
  std::string text;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return text;
  std::array<char, 512> buf{};
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0) {
    text.append(buf.data(), n);
  }
  std::fclose(f);
  return text;
}

/// Runs the CLI with stdout+stderr in `log`; returns its exit status, or -1
/// when it had to be killed at `deadline`.
int run_cli_with_deadline(std::vector<std::string> args,
                          const std::string& log,
                          std::chrono::seconds deadline) {
  // Everything the child needs is built before fork(): only
  // async-signal-safe calls run between fork() and exec().
  std::string cli = cli_path();
  std::vector<char*> argv;
  argv.push_back(cli.data());
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execv(cli.c_str(), argv.data());
    _exit(127);
  }
  if (pid < 0) return -2;
  const auto until = std::chrono::steady_clock::now() + deadline;
  int status = 0;
  while (::waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() >= until) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(WatchChunking, FollowEmitsAWindowWithoutWaitingForAFullChunk) {
  const auto& fx = fixture();
  WatchOptions opts = options(0);
  opts.max_windows = 1;
  const std::span<const Packet> all(fx.day20);

  // Packet whose arrival closes window 0, found one packet at a time.
  std::size_t closing = all.size();
  {
    ModelHandle handle(fx.models);
    WatchEngine engine(handle, DomainResolver{}, opts);
    for (std::size_t i = 0; i < all.size(); ++i) {
      engine.ingest(all.subspan(i, 1));
      if (engine.windows_evaluated() == 1) {
        closing = i;
        break;
      }
    }
  }
  ASSERT_LT(closing, all.size());
  // Keep the tail inside the 1024-packet chunk holding the closing packet:
  // a reader that waits for full chunks never hands it to the engine.
  const std::size_t room = 1023 - closing % 1024;
  ASSERT_GT(room, 1u);
  const std::size_t end = closing + 1 + room / 2;

  const std::string dir =
      ::testing::TempDir() + "/behaviot_watch_chunking_follow";
  std::filesystem::create_directories(dir);
  const std::string models = dir + "/models.bbm";
  const std::string capture = dir + "/head.pcap";
  const std::string log = dir + "/watch.log";
  save_models_binary_file(models, fx.models);
  {
    PcapWriter writer(capture);
    for (std::size_t i = 0; i < end; ++i) writer.write(all[i]);
  }

  const int code = run_cli_with_deadline(
      {"watch", "--models", models, "--capture", capture, "--window-s", "600",
       "--follow", "1", "--poll-ms", "20", "--max-windows", "1"},
      log, std::chrono::seconds(60));
  const std::string text = read_file(log);
  EXPECT_EQ(code, 0) << "daemon did not stop on its own\n" << text;
  EXPECT_NE(text.find("window    0 ["), std::string::npos) << text;
  EXPECT_NE(text.find("watched 1 windows"), std::string::npos) << text;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace behaviot
