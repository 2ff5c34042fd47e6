// Crash-safety tests for the `.bbc` checkpoint journal and the kill/resume
// invariant: a daemon killed with SIGKILL at any point of a checkpoint
// append — at every record boundary, or mid-record leaving a torn tail — and
// resumed from the journal it left must produce an alert stream identical
// to the uninterrupted run, at any thread count and any ingest chunking.
// The format half of the suite hammers the journal itself: replay equals
// the full export at every window, truncations, bit flips, missing and
// unknown records and sections, version-1 refusal, bounded growth.
#include "behaviot/core/checkpoint.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "behaviot/analysis/alert_report.hpp"
#include "behaviot/core/binary_io.hpp"
#include "behaviot/core/model_handle.hpp"
#include "behaviot/core/serialize_binary.hpp"
#include "behaviot/core/watch_engine.hpp"
#include "behaviot/flow/assembler.hpp"
#include "behaviot/obs/health.hpp"
#include "behaviot/runtime/runtime.hpp"
#include "behaviot/testbed/datasets.hpp"

namespace behaviot {
namespace {

constexpr std::int64_t kWindowUs = 30 * 60 * 1'000'000LL;

/// Shared fixture, built once per binary (heavy: trains real periodic
/// models from generated idle traffic; mirrors test_watch so alerts exist).
struct CheckpointFixture {
  BehaviorModelSet models;
  std::vector<Packet> eval_packets;
};

const CheckpointFixture& fixture() {
  static const CheckpointFixture* fx = [] {
    auto* f = new CheckpointFixture;
    const auto train = testbed::Datasets::idle(/*seed=*/11, /*days=*/0.5);
    DomainResolver train_resolver;
    const auto train_flows =
        FlowAssembler().assemble(train.packets, train_resolver);
    f->models.periodic = PeriodicModelSet::infer(train_flows, 0.5 * 86400.0);
    f->eval_packets =
        testbed::Datasets::routine_week(/*seed=*/23, /*days=*/0.25).packets;
    return f;
  }();
  return *fx;
}

WatchOptions watch_options() {
  WatchOptions opts;
  opts.window_us = kWindowUs;
  opts.retrain_every_windows = 4;
  return opts;
}

std::string temp_path(const std::string& name) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "behaviot_checkpoint";
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// What the window sink hands the journal: everything but engine state and
/// models. The health block is synthetic so it round-trips real content.
WatchCheckpoint sink_checkpoint(const WatchOptions& opts,
                                std::uint64_t input_offset,
                                std::span<const DeviationAlert> alerts) {
  WatchCheckpoint cp;
  cp.options = checkpoint_options(opts);
  cp.input_offset = input_offset;
  cp.alerts_json = alerts_to_json(alerts);
  obs::ComponentHealth synthetic;
  synthetic.component = "watch.test";
  synthetic.state = obs::ComponentState::kDegraded;
  synthetic.reasons = {"synthetic incident for round-trip coverage"};
  synthetic.incidents = 3;
  cp.health.components = {synthetic};
  return cp;
}

/// The same checkpoint with the full engine export and model image, as one
/// compacted image: what the journal must replay to.
std::string full_image(const WatchEngine& engine, const ModelHandle& handle,
                       const WatchOptions& opts, std::uint64_t input_offset,
                       std::span<const DeviationAlert> alerts) {
  WatchCheckpoint cp = sink_checkpoint(opts, input_offset, alerts);
  cp.engine = engine.export_state();
  cp.models_image = save_models_binary(*handle.acquire());
  cp.model_version = handle.version();
  return save_checkpoint(cp);
}

/// One window's checkpoint in the reference run: the journal file right
/// after the commit, where that commit's records start (0 when it compacted
/// the journal), the full image it must replay to, and the number of packets
/// inside engine state (the engine-level stand-in for the CLI's pcap byte
/// offset).
struct TakenCheckpoint {
  std::string journal;
  std::size_t append_start = 0;
  std::string image;
  std::size_t fed = 0;
};

struct ReferenceRun {
  std::vector<DeviationAlert> alerts;
  std::vector<TakenCheckpoint> checkpoints;
  std::uint64_t compactions = 0;
};

/// The uninterrupted run: ingest in `chunk`-sized pieces and commit a
/// checkpoint to a journal at every window sink — exactly where the CLI
/// does. The fed-packet count is captured before each ingest() because the
/// sink fires inside it, with the whole chunk in engine state.
ReferenceRun run_checkpointed(const BehaviorModelSet& models,
                              const std::vector<Packet>& packets,
                              const WatchOptions& opts, std::size_t chunk,
                              const std::string& journal_path) {
  std::filesystem::remove(journal_path);
  ModelHandle handle(models);
  WatchEngine engine(handle, DomainResolver{}, opts);
  CheckpointJournal journal(journal_path);
  ReferenceRun run;
  std::size_t fed = 0;
  engine.set_window_sink([&](const WatchWindowReport& r) {
    run.alerts.insert(run.alerts.end(), r.alerts.begin(), r.alerts.end());
    std::string error;
    ASSERT_TRUE(journal.commit(sink_checkpoint(opts, fed, run.alerts), engine,
                               handle, &error))
        << error;
    TakenCheckpoint taken;
    taken.journal = read_file(journal_path);
    EXPECT_EQ(taken.journal.size(), journal.journal_bytes());
    taken.append_start = journal.last_commit_compacted()
                             ? 0
                             : taken.journal.size() -
                                   journal.last_commit_bytes();
    taken.image = full_image(engine, handle, opts, fed, run.alerts);
    taken.fed = fed;
    run.checkpoints.push_back(std::move(taken));
  });
  const std::span<const Packet> all(packets);
  for (std::size_t i = 0; i < all.size() && !engine.done(); i += chunk) {
    const auto part = all.subspan(i, std::min(chunk, all.size() - i));
    fed = i + part.size();
    engine.ingest(part);
  }
  engine.finish();
  run.compactions = journal.compactions();
  return run;
}

const ReferenceRun& reference_run() {
  static const ReferenceRun* run = new ReferenceRun(run_checkpointed(
      fixture().models, fixture().eval_packets, watch_options(), 1024,
      temp_path("reference.bbc")));
  return *run;
}

struct ResumeResult {
  std::vector<DeviationAlert> alerts;  ///< emitted after the resume point
  std::size_t alerts_before = 0;       ///< checkpointed alert count
  std::string journal;                 ///< continued journal (if any)
};

/// The kill -9 + resume side: everything the fresh process has is the
/// journal file and the capture tail. Models come from the replayed MODELS
/// record, the engine from import_state(), and the remaining packets replay
/// from the checkpointed position. With `continue_journal`, the resumed run
/// keeps appending to the journal it loaded, as `watch --resume F
/// --checkpoint F` does.
ResumeResult resume_and_finish(const std::string& path,
                               const std::vector<Packet>& packets,
                               std::size_t chunk,
                               bool continue_journal = false) {
  JournalExtent extent;
  WatchCheckpoint cp = load_checkpoint_file(path, &extent);
  ModelHandle handle{BehaviorModelSet{}};
  handle.restore(load_models_binary(binio::as_bytes(cp.models_image)),
                 cp.model_version);
  WatchOptions opts;
  apply_checkpoint_options(cp.options, opts);
  WatchEngine engine(handle, DomainResolver{}, opts);
  ResumeResult result;
  result.alerts_before = cp.engine.alerts;
  engine.import_state(std::move(cp.engine));
  std::optional<CheckpointJournal> journal;
  if (continue_journal) journal.emplace(path, extent);
  // The alerts document continues from the checkpointed one, as the CLI's.
  std::vector<DeviationAlert> all_alerts =
      continue_journal ? alerts_from_json(cp.alerts_json)
                       : std::vector<DeviationAlert>{};
  std::size_t fed = static_cast<std::size_t>(cp.input_offset);
  engine.set_window_sink([&](const WatchWindowReport& r) {
    result.alerts.insert(result.alerts.end(), r.alerts.begin(),
                         r.alerts.end());
    if (!journal) return;
    all_alerts.insert(all_alerts.end(), r.alerts.begin(), r.alerts.end());
    std::string error;
    ASSERT_TRUE(journal->commit(sink_checkpoint(opts, fed, all_alerts),
                                engine, handle, &error))
        << error;
    // No torn byte survives under the appended records.
    EXPECT_EQ(std::filesystem::file_size(path), journal->journal_bytes());
  });
  const std::span<const Packet> rest =
      std::span<const Packet>(packets).subspan(
          static_cast<std::size_t>(cp.input_offset));
  for (std::size_t i = 0; i < rest.size() && !engine.done(); i += chunk) {
    const auto part = rest.subspan(i, std::min(chunk, rest.size() - i));
    fed = static_cast<std::size_t>(cp.input_offset) + i + part.size();
    engine.ingest(part);
  }
  engine.finish();
  if (journal) result.journal = read_file(path);
  return result;
}

void expect_same_alerts(std::span<const DeviationAlert> a,
                        std::span<const DeviationAlert> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source) << i;
    EXPECT_EQ(a[i].when, b[i].when) << i;
    EXPECT_EQ(a[i].device, b[i].device) << i;
    EXPECT_EQ(a[i].score, b[i].score) << i;  // byte-identical, not near
    EXPECT_EQ(a[i].threshold, b[i].threshold) << i;
    EXPECT_EQ(a[i].context, b[i].context) << i;
  }
}

/// Loads `journal` (in `policy`) and re-saves what it commits as one
/// compacted image.
std::string replayed(std::string_view journal,
                     ParsePolicy policy = ParsePolicy::kStrict,
                     JournalExtent* extent = nullptr) {
  return save_checkpoint(load_checkpoint(
      {reinterpret_cast<const std::uint8_t*>(journal.data()), journal.size()},
      policy, nullptr, extent));
}

/// Offsets where each complete record of `journal` ends.
std::vector<std::size_t> record_ends(const std::string& journal) {
  std::vector<std::size_t> ends;
  std::size_t pos = kCkptHeaderSize;
  while (journal.size() - pos >= kCkptRecordOverhead) {
    std::uint64_t size = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      size |= std::uint64_t{static_cast<std::uint8_t>(journal[pos + 4 + i])}
              << (8 * i);
    }
    if (size > journal.size() - pos - kCkptRecordOverhead) break;
    pos += kCkptRecordOverhead + static_cast<std::size_t>(size);
    ends.push_back(pos);
  }
  return ends;
}

/// One framed record (or, without the CRC, one STATE section).
std::string frame(std::uint32_t id, std::string_view payload,
                  bool with_crc = true) {
  std::string out;
  binio::put_u32(out, id);
  binio::put_u64(out, payload.size());
  out.append(payload);
  if (with_crc) binio::put_u32(out, crc32_ieee(binio::as_bytes(out)));
  return out;
}

/// The records of a journal as (kind, payload) pairs, and back.
std::vector<std::pair<std::uint32_t, std::string>> split_frames(
    std::string_view bytes, bool with_crc) {
  std::vector<std::pair<std::uint32_t, std::string>> out;
  const std::size_t trailer = with_crc ? 4 : 0;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    std::uint32_t id = 0;
    std::uint64_t size = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      id |= std::uint32_t{static_cast<std::uint8_t>(bytes[pos + i])} << (8 * i);
    }
    for (std::size_t i = 0; i < 8; ++i) {
      size |= std::uint64_t{static_cast<std::uint8_t>(bytes[pos + 4 + i])}
              << (8 * i);
    }
    out.emplace_back(id, std::string(bytes.substr(pos + 12, size)));
    pos += 12 + static_cast<std::size_t>(size) + trailer;
  }
  return out;
}

/// The first appended window whose resume still has half the capture to
/// replay.
std::size_t mid_capture_append(const ReferenceRun& run) {
  const std::size_t half = fixture().eval_packets.size() / 2;
  for (std::size_t k = 1; k < run.checkpoints.size(); ++k) {
    const auto& ck = run.checkpoints[k];
    if (ck.append_start != 0 && ck.fed >= half) return k;
  }
  ADD_FAILURE() << "no appended window in the middle of the capture";
  return run.checkpoints.size() - 1;
}

/// A mid-run compacted image with real content in every record (taken
/// after a retrain swap).
const std::string& reference_image() {
  const auto& run = reference_run();
  EXPECT_GE(run.checkpoints.size(), 6u);
  return run.checkpoints[run.checkpoints.size() / 2].image;
}

std::string join_records(
    const std::vector<std::pair<std::uint32_t, std::string>>& records) {
  std::string out = reference_image().substr(0, kCkptHeaderSize);
  for (const auto& [kind, payload] : records) out += frame(kind, payload);
  return out;
}

std::vector<std::pair<std::uint32_t, std::string>> reference_records() {
  return split_frames(
      std::string_view(reference_image()).substr(kCkptHeaderSize), true);
}

// ---------------------------------------------------------------------------
// The tentpole invariant: kill anywhere in a checkpoint append, resume, and
// the alert stream continues identically — at 1 and 8 threads, under two
// unrelated chunkings, across every kill point.

TEST(CheckpointKillMatrix, JournalReplaysToTheFullExportAtEveryWindow) {
  const auto& run = reference_run();
  ASSERT_GE(run.checkpoints.size(), 8u);
  std::size_t appends = 0;
  for (std::size_t k = 0; k < run.checkpoints.size(); ++k) {
    const auto& ck = run.checkpoints[k];
    SCOPED_TRACE(::testing::Message() << "window " << k);
    JournalExtent extent;
    EXPECT_EQ(replayed(ck.journal, ParsePolicy::kStrict, &extent), ck.image);
    EXPECT_EQ(extent.committed_bytes, ck.journal.size());
    if (ck.append_start == 0) continue;
    ++appends;
    // An append never rewrites what the previous checkpoint left.
    ASSERT_GT(k, 0u);
    EXPECT_EQ(ck.journal.substr(0, ck.append_start),
              run.checkpoints[k - 1].journal);
  }
  // The cadence is mostly appends; compactions follow retrains and growth.
  EXPECT_GT(appends, 0u);
  EXPECT_GT(run.compactions, 1u);
}

TEST(CheckpointKillMatrix, EveryRecordBoundaryReplaysToACommittedWindow) {
  // A kill between two records of one window's append leaves that window's
  // MODELS/FLOWS records without their STATE: the journal still replays to
  // the previous window, exactly.
  const auto& run = reference_run();
  std::size_t boundaries = 0;
  for (std::size_t k = 1; k < run.checkpoints.size(); ++k) {
    const auto& ck = run.checkpoints[k];
    if (ck.append_start == 0) continue;
    for (const std::size_t end : record_ends(ck.journal)) {
      if (end <= ck.append_start) continue;
      const std::string prefix = ck.journal.substr(0, end);
      const std::string& want = end == ck.journal.size()
                                    ? ck.image
                                    : run.checkpoints[k - 1].image;
      EXPECT_EQ(replayed(prefix), want) << "window " << k << " cut " << end;
      ++boundaries;
    }
  }
  EXPECT_GT(boundaries, run.checkpoints.size() / 2);
}

TEST(CheckpointKillMatrix, EveryTornAppendOffsetReplaysToThePreviousWindow) {
  // kill -9 mid-write(2): every byte offset inside the last appended
  // window's records, in both policies, replays to the previous window and
  // reports where its committed journal ends.
  const auto& run = reference_run();
  std::size_t k = run.checkpoints.size() - 1;
  while (k > 0 && run.checkpoints[k].append_start == 0) --k;
  ASSERT_GT(k, 0u);
  const auto& ck = run.checkpoints[k];
  const std::string& previous = run.checkpoints[k - 1].image;
  for (std::size_t cut = ck.append_start + 1; cut < ck.journal.size();
       ++cut) {
    const std::string_view prefix = std::string_view(ck.journal).substr(0, cut);
    for (const auto policy : {ParsePolicy::kStrict, ParsePolicy::kLenient}) {
      JournalExtent extent;
      ASSERT_EQ(replayed(prefix, policy, &extent), previous) << "cut " << cut;
      ASSERT_EQ(extent.committed_bytes, ck.append_start) << "cut " << cut;
    }
  }
}

TEST(CheckpointKillMatrix, ResumeMatchesUninterruptedRunAtEveryKillPoint) {
  // Every committed window (each one a journal prefix a kill can leave, by
  // the two tests above) resumes into the uninterrupted run's remaining
  // alerts.
  const auto& fx = fixture();
  const std::size_t before = runtime::global_threads();
  const std::string path = temp_path("kill_point.bbc");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    runtime::set_global_threads(threads);
    for (const std::size_t chunk : {std::size_t{311}, std::size_t{1024}}) {
      const auto base = run_checkpointed(fx.models, fx.eval_packets,
                                         watch_options(), chunk,
                                         temp_path("matrix_base.bbc"));
      ASSERT_GE(base.checkpoints.size(), 8u);
      ASSERT_FALSE(base.alerts.empty());
      for (std::size_t k = 0; k < base.checkpoints.size(); ++k) {
        write_file(path, base.checkpoints[k].journal);
        const auto resumed = resume_and_finish(path, fx.eval_packets, chunk);
        ASSERT_LE(resumed.alerts_before, base.alerts.size())
            << "kill point " << k;
        SCOPED_TRACE(::testing::Message()
                     << "threads " << threads << " chunk " << chunk
                     << " kill point " << k);
        expect_same_alerts(resumed.alerts,
                           std::span<const DeviationAlert>(base.alerts)
                               .subspan(resumed.alerts_before));
      }
    }
  }
  runtime::set_global_threads(before);
}

TEST(CheckpointKillMatrix, ResumeTruncatesATornTailAndKeepsAppending) {
  // `watch --resume F --checkpoint F` after a torn append: the resumed run
  // drops the tail, appends after the last committed STATE, and ends with a
  // journal that replays to the uninterrupted run's final checkpoint — at 1
  // and 8 threads. Both runs feed 1024-packet chunks from offsets that are
  // multiples of 1024, so even the checkpointed input offsets agree.
  const auto& fx = fixture();
  const auto& run = reference_run();
  const auto& torn = run.checkpoints[mid_capture_append(run)];
  const std::size_t cut =
      torn.append_start + (torn.journal.size() - torn.append_start) / 2;
  const std::size_t before = runtime::global_threads();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    runtime::set_global_threads(threads);
    const std::string path = temp_path("torn.bbc");
    write_file(path, std::string_view(torn.journal).substr(0, cut));
    const auto resumed = resume_and_finish(path, fx.eval_packets, 1024,
                                           /*continue_journal=*/true);
    expect_same_alerts(resumed.alerts,
                       std::span<const DeviationAlert>(run.alerts)
                           .subspan(resumed.alerts_before));
    JournalExtent extent;
    EXPECT_EQ(replayed(resumed.journal, ParsePolicy::kStrict, &extent),
              run.checkpoints.back().image);
    EXPECT_EQ(extent.committed_bytes, resumed.journal.size());
    // Resuming the continued journal at its end emits nothing new.
    EXPECT_TRUE(resume_and_finish(path, fx.eval_packets, 1024).alerts.empty());
  }
  runtime::set_global_threads(before);
}

TEST(CheckpointKillMatrix, CrashBeforeTheCompactionRenameResumesTheOldJournal) {
  // A kill between the compaction's temp write and its rename leaves the old
  // journal in place plus a stray temp file: the resume reads the old
  // journal, and the next compaction replaces the stray file's role.
  const auto& run = reference_run();
  std::size_t k = 1;
  while (k < run.checkpoints.size() && run.checkpoints[k].append_start != 0) {
    ++k;
  }
  ASSERT_LT(k, run.checkpoints.size()) << "no compaction after window 0";
  const std::string path = temp_path("compact_crash.bbc");
  write_file(path, run.checkpoints[k - 1].journal);
  write_file(path + ".tmp." + std::to_string(::getpid()),
             run.checkpoints[k].journal);
  JournalExtent extent;
  const WatchCheckpoint cp = load_checkpoint_file(path, &extent);
  EXPECT_EQ(save_checkpoint(cp), run.checkpoints[k - 1].image);
  EXPECT_EQ(extent.committed_bytes, run.checkpoints[k - 1].journal.size());
  const auto resumed = resume_and_finish(path, fixture().eval_packets, 1024,
                                         /*continue_journal=*/true);
  expect_same_alerts(resumed.alerts,
                     std::span<const DeviationAlert>(run.alerts)
                         .subspan(resumed.alerts_before));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp." +
                                       std::to_string(::getpid())));
}

TEST(CheckpointKillMatrix, ResumeChunkingIsIrrelevant) {
  // The resumed process need not replay with the chunking the dead one
  // used: boundaries carry no meaning, so a 1024-chunk run resumed with
  // 311-packet chunks still continues identically.
  const auto& run = reference_run();
  const std::string path = temp_path("chunking.bbc");
  write_file(path, run.checkpoints[mid_capture_append(run)].journal);
  const auto resumed = resume_and_finish(path, fixture().eval_packets, 311);
  expect_same_alerts(resumed.alerts,
                     std::span<const DeviationAlert>(run.alerts)
                         .subspan(resumed.alerts_before));
}

TEST(CheckpointJournal, StaysBoundedWithoutRetrain) {
  // 144 windows, no retrain: nothing ever hands the buffer off, so only the
  // growth rule compacts. The journal never exceeds twice its compacted size
  // plus one window's records, and its running size matches the file.
  const auto& fx = fixture();
  WatchOptions opts;
  opts.window_us = 150 * 1'000'000LL;  // 0.25 days / 150 s = 144 windows
  const std::string path = temp_path("bounded.bbc");
  std::filesystem::remove(path);
  ModelHandle handle(fx.models);
  WatchEngine engine(handle, DomainResolver{}, opts);
  CheckpointJournal journal(path);
  std::vector<DeviationAlert> alerts;
  std::size_t windows = 0;
  engine.set_window_sink([&](const WatchWindowReport& r) {
    ++windows;
    alerts.insert(alerts.end(), r.alerts.begin(), r.alerts.end());
    std::string error;
    ASSERT_TRUE(journal.commit(sink_checkpoint(opts, windows, alerts), engine,
                               handle, &error))
        << error;
    ASSERT_EQ(journal.journal_bytes(), std::filesystem::file_size(path));
    if (!journal.last_commit_compacted()) {
      EXPECT_LE(journal.journal_bytes(),
                2 * journal.compacted_bytes() + journal.last_commit_bytes())
          << "window " << r.index;
    }
  });
  engine.ingest(fx.eval_packets);
  engine.finish();
  ASSERT_GE(windows, 144u);
  EXPECT_GT(journal.compactions(), 1u);
  EXPECT_EQ(load_checkpoint_file(path).engine.windows,
            engine.windows_evaluated());
}

TEST(CheckpointJournal, ResumeRefusesAJournalThatShrankSinceItsLoad) {
  const std::string path = temp_path("shrunk.bbc");
  const std::string& journal = reference_run().checkpoints.back().journal;
  write_file(path, journal);
  JournalExtent extent;
  (void)load_checkpoint_file(path, &extent);
  write_file(path, std::string_view(journal).substr(0, journal.size() / 2));
  EXPECT_THROW(CheckpointJournal(path, extent), SerializationError);
}

// ---------------------------------------------------------------------------
// Format round-trip and damage handling.

TEST(CheckpointFormat, SaveLoadSaveIsByteIdentical) {
  const std::string& image = reference_image();
  const WatchCheckpoint cp = load_checkpoint(binio::as_bytes(image));
  EXPECT_EQ(save_checkpoint(cp), image);
  // Spot-check the restored content is real, not default.
  EXPECT_GT(cp.engine.windows, 0u);
  EXPECT_EQ(cp.options.window_us, kWindowUs);
  EXPECT_EQ(cp.options.retrain_every_windows, 4u);
  EXPECT_FALSE(cp.models_image.empty());
  EXPECT_FALSE(cp.engine.monitor.last_seen.empty());
  EXPECT_FALSE(cp.health.components.empty());
  EXPECT_EQ(cp.health.components.front().component, "watch.test");
  const BehaviorModelSet models =
      load_models_binary(binio::as_bytes(cp.models_image));
  EXPECT_GT(models.periodic.size(), 0u);
  // A compacted image is exactly one MODELS, one FLOWS and one STATE record.
  const auto records = reference_records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].first, kCkptRecordModels);
  EXPECT_EQ(records[1].first, kCkptRecordFlows);
  EXPECT_EQ(records[2].first, kCkptRecordState);
}

TEST(CheckpointFormat, EveryPrefixOfACompactedImageThrowsInBothPolicies) {
  // A compacted image lands by rename, never by append, so any prefix of it
  // is structural damage: no policy may salvage it, and none may crash or
  // allocate unboundedly on it.
  const std::string& image = reference_image();
  std::vector<std::size_t> cuts = {0, 1, 3, 5, kCkptHeaderSize - 1,
                                   kCkptHeaderSize, kCkptHeaderSize + 5};
  for (const std::size_t end : record_ends(image)) {
    cuts.push_back(end - 1);
    cuts.push_back(end);
    cuts.push_back(end + 7);
  }
  for (const std::size_t cut : cuts) {
    if (cut >= image.size()) continue;
    const auto prefix = binio::as_bytes(image).first(cut);
    EXPECT_THROW((void)load_checkpoint(prefix, ParsePolicy::kStrict),
                 SerializationError)
        << "cut at " << cut;
    EXPECT_THROW((void)load_checkpoint(prefix, ParsePolicy::kLenient),
                 SerializationError)
        << "cut at " << cut;
  }
}

TEST(CheckpointFormat, BitFlipsNeverPassTheStrictLoad) {
  const std::string& image = reference_image();
  for (std::size_t at = 4; at < image.size(); at += 101) {
    std::string damaged = image;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x5a);
    EXPECT_THROW(
        (void)load_checkpoint(binio::as_bytes(damaged), ParsePolicy::kStrict),
        SerializationError)
        << "flip at " << at;
  }
}

TEST(CheckpointFormat, LenientLoadStopsAtADamagedRecord) {
  // A CRC-damaged record after a committed window: strict refuses the
  // journal, lenient keeps the last STATE before the damage.
  const auto& run = reference_run();
  std::size_t k = 1;
  while (k < run.checkpoints.size() && run.checkpoints[k].append_start == 0) {
    ++k;
  }
  ASSERT_LT(k, run.checkpoints.size());
  std::string damaged = run.checkpoints[k].journal;
  damaged[damaged.size() - 1] ^= 0x01;  // the last record's CRC
  EXPECT_THROW(
      (void)load_checkpoint(binio::as_bytes(damaged), ParsePolicy::kStrict),
      SerializationError);
  ParseStats stats;
  const WatchCheckpoint cp = load_checkpoint(binio::as_bytes(damaged),
                                             ParsePolicy::kLenient, &stats);
  EXPECT_EQ(stats.malformed, 1u);
  EXPECT_EQ(save_checkpoint(cp), run.checkpoints[k - 1].image);
}

TEST(CheckpointFormat, UnknownRecordsAndSectionsAreSkippedForForwardCompat) {
  auto records = reference_records();
  auto sections = split_frames(records[2].second, false);
  sections.emplace_back(99u, "section from a future version");
  std::string state;
  for (const auto& [id, payload] : sections) state += frame(id, payload, false);
  records[2].second = state;
  records.insert(records.begin() + 1, {77u, "record from a future version"});
  const WatchCheckpoint cp =
      load_checkpoint(binio::as_bytes(join_records(records)));
  // Everything the loader understands round-trips untouched.
  EXPECT_EQ(save_checkpoint(cp), reference_image());
}

TEST(CheckpointFormat, MissingRequiredStateSectionThrowsByName) {
  for (const std::uint32_t drop :
       {kCkptSectionEngine, kCkptSectionAssembler, kCkptSectionMonitor,
        kCkptSectionResolver, kCkptSectionFrontend}) {
    auto records = reference_records();
    std::string state;
    for (const auto& [id, payload] : split_frames(records[2].second, false)) {
      if (id != drop) state += frame(id, payload, false);
    }
    records[2].second = state;
    const std::string gutted = join_records(records);
    for (const auto policy : {ParsePolicy::kStrict, ParsePolicy::kLenient}) {
      try {
        (void)load_checkpoint(binio::as_bytes(gutted), policy);
        FAIL() << "section " << drop << " missing but load succeeded";
      } catch (const SerializationError& e) {
        EXPECT_NE(std::string(e.what()).find("missing required STATE section"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(CheckpointFormat, StateWithoutModelsThrows) {
  auto records = reference_records();
  records.erase(records.begin());  // drop MODELS
  EXPECT_THROW(
      (void)load_checkpoint(binio::as_bytes(join_records(records))),
      SerializationError);
}

TEST(CheckpointFormat, DamagedHealthSectionIsDroppedOnlyLeniently) {
  // Chop bytes off the (optional) health payload and rebuild, so the CRC is
  // valid and only that one section is internally broken: a resume cannot
  // be blocked by damaged telemetry, but strict parsing must still object.
  auto records = reference_records();
  std::string state;
  bool found = false;
  for (auto [id, payload] : split_frames(records[2].second, false)) {
    if (id == kCkptSectionHealth) {
      EXPECT_GE(payload.size(), 4u);
      payload.resize(payload.size() - 3);
      found = true;
    }
    state += frame(id, payload, false);
  }
  ASSERT_TRUE(found);
  records[2].second = state;
  const std::string damaged = join_records(records);
  EXPECT_THROW(
      (void)load_checkpoint(binio::as_bytes(damaged), ParsePolicy::kStrict),
      SerializationError);
  ParseStats stats;
  const WatchCheckpoint cp =
      load_checkpoint(binio::as_bytes(damaged), ParsePolicy::kLenient, &stats);
  EXPECT_EQ(stats.sections_dropped, 1u);
  EXPECT_TRUE(cp.health.components.empty());
  EXPECT_GT(cp.engine.windows, 0u);  // the rest loaded intact
}

TEST(CheckpointFormat, VersionOneCheckpointIsRefusedByVersion) {
  // Format 1 stored one whole section-tabled image per checkpoint. It shares
  // the magic, so the refusal names the version instead of "bad magic".
  const binio::ImageFormat v1{kCheckpointMagic, 1, "bbc", "watch checkpoint"};
  const std::pair<std::uint32_t, std::string> sections[] = {
      {1u, std::string(16, '\0')}};
  const std::string old = binio::build_image(v1, sections);
  try {
    (void)load_checkpoint(binio::as_bytes(old));
    FAIL() << "a version-1 checkpoint loaded";
  } catch (const SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find("format version 1"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.offset(), 4u);
  }
}

// ---------------------------------------------------------------------------
// Cross-version compatibility: the checked-in compacted image must keep
// loading (the CI compat job resumes from it standalone).

TEST(CheckpointGolden, CheckedInCheckpointStillLoads) {
  const std::string path =
      std::string(BEHAVIOT_TEST_DATA_DIR) + "/golden_checkpoint.bbc";
  const std::string image = read_file(path);
  ASSERT_FALSE(image.empty()) << "missing golden checkpoint: " << path;
  const WatchCheckpoint cp = load_checkpoint(binio::as_bytes(image));
  EXPECT_GT(cp.engine.windows, 0u);
  EXPECT_GT(cp.input_offset, 0u);
  EXPECT_FALSE(cp.models_image.empty());
  const BehaviorModelSet models =
      load_models_binary(binio::as_bytes(cp.models_image));
  EXPECT_GT(models.periodic.size(), 0u);
  // The byte-identity contract extends to re-serialization: writing the
  // loaded golden back out reproduces it exactly.
  EXPECT_EQ(save_checkpoint(cp), image);
}

}  // namespace
}  // namespace behaviot
