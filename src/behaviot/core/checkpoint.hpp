// Versioned watch-checkpoint journal (`.bbc`) — durable crash-safe state of
// a running `behaviot watch` daemon.
//
// A checkpoint captures, between two windows, everything a fresh process
// needs to continue the stream as if the crash never happened:
//
//   - the WatchEngine streaming state (window-grid cursor, seal watermark,
//     assembler clamp slot + reorder heap + open/sealed flows, deviation
//     monitor timers and dedup sets, retrain buffer, counters),
//   - the pinned model generation, embedded verbatim as a `.bbm` image
//     (core/serialize_binary.hpp) so resume scores against bit-identical
//     models even if the on-disk model store moved on,
//   - the resolver's learned DNS/SNI bindings,
//   - the capture-side cursor: the byte offset up to which the input pcap
//     was consumed, and the accumulated --alerts JSON document so the
//     resumed daemon's snapshot files continue byte-identically,
//   - the health registry snapshot, preserving escalate-only semantics
//     across the restart.
//
// Format version 2 is an append-only journal, so a window persists only
// what changed since the previous one:
//
//   offset  size  field
//   0       4     magic "BBC1" (u32 LE)
//   4       2     format version = 2 (u16 LE)
//   6       2     flags (reserved, must be 0)
//   8       ...   records, back to back:
//                   kind u32 | payload size u64 | payload | CRC-32 u32
//                 (the CRC covers kind, size and payload)
//
// Record kinds:
//   MODELS  model handle version + the generation's `.bbm` image; written
//           only when the handle version changed.
//   FLOWS   retrain-buffer flows added since the previous record set.
//   STATE   everything else: options, engine/assembler/monitor/resolver
//           state, input offset, alerts document, health. A STATE record
//           commits the records before it.
//
// Replay (load_checkpoint): the last complete STATE wins, its retrain
// buffer is every FLOWS record before it, its models the last MODELS record
// before it. Records after the last STATE — a torn tail from a kill -9
// mid-append, or a window's records whose STATE never landed — are ignored;
// JournalExtent reports where the committed prefix ends so a resuming
// writer truncates the tail before appending again.
//
// A compacted image (save_checkpoint) is the same journal holding exactly
// one MODELS, one FLOWS and one STATE record. CheckpointJournal restarts the
// file as a compacted image, written to a temp file and renamed over the
// journal, when the retrain buffer was handed to a retrain or when the bytes
// appended since the last compaction exceed the compacted size; every other
// checkpoint is one write(2) appended to the file.
//
// Parse policy. kStrict throws on a complete record whose CRC fails or on
// any damaged state a resume needs; kLenient stops at the first damaged
// record (counted in stats->malformed) and keeps the last STATE before it,
// and drops a damaged health section (stats->sections_dropped). Unknown
// record kinds and STATE section ids are skipped (forward compatibility).
// Format version 1 (one whole image per checkpoint) is refused by name.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "behaviot/core/model_handle.hpp"
#include "behaviot/core/serialize_binary.hpp"
#include "behaviot/core/watch_engine.hpp"
#include "behaviot/net/parse_policy.hpp"
#include "behaviot/obs/health.hpp"

namespace behaviot {

inline constexpr std::uint16_t kCheckpointFormatVersion = 2;
/// "BBC1" when read as little-endian u32 (shared by every format version).
inline constexpr std::uint32_t kCheckpointMagic = 0x31434242u;

/// Journal header: magic, version, flags.
inline constexpr std::size_t kCkptHeaderSize = 8;
/// Bytes a record adds around its payload: kind + size before, CRC after.
inline constexpr std::size_t kCkptRecordHeaderSize = 12;
inline constexpr std::size_t kCkptRecordOverhead = kCkptRecordHeaderSize + 4;

/// Record kinds of checkpoint format version 2.
inline constexpr std::uint32_t kCkptRecordModels = 1;
inline constexpr std::uint32_t kCkptRecordFlows = 2;
inline constexpr std::uint32_t kCkptRecordState = 3;

/// Section ids inside a STATE record (each section: id u32, size u64,
/// payload). Required: engine, assembler, monitor, resolver, frontend;
/// health is optional.
inline constexpr std::uint32_t kCkptSectionEngine = 1;
inline constexpr std::uint32_t kCkptSectionAssembler = 2;
inline constexpr std::uint32_t kCkptSectionMonitor = 3;
inline constexpr std::uint32_t kCkptSectionResolver = 4;
inline constexpr std::uint32_t kCkptSectionFrontend = 6;
inline constexpr std::uint32_t kCkptSectionHealth = 8;

/// The deterministic option grid a checkpoint pins. On resume these win
/// over whatever flags the restarted process was given — window geometry,
/// retrain cadence and assembler behavior must match the checkpointed run
/// exactly or the continuation diverges. Operational knobs (--follow,
/// --max-windows, --until, snapshot paths, telemetry port) stay
/// CLI-provided.
struct CheckpointOptions {
  std::int64_t window_us = 0;
  std::uint64_t retrain_every_windows = 0;
  std::int64_t burst_gap_us = 0;
  bool drop_infrastructure = false;
  std::int64_t max_ts_regression_us = 0;
  std::int64_t reorder_horizon_us = 0;
  std::uint64_t max_open_flows = 0;
  std::uint64_t max_buffered_packets = 0;
};

/// The grid of `opts` as a checkpoint pins it.
[[nodiscard]] CheckpointOptions checkpoint_options(const WatchOptions& opts);
/// Overwrites the deterministic knobs of `opts` with the pinned grid.
void apply_checkpoint_options(const CheckpointOptions& pinned,
                              WatchOptions& opts);

/// One complete daemon snapshot, in memory.
struct WatchCheckpoint {
  CheckpointOptions options;
  WatchEngineState engine;
  /// The pinned generation as a `.bbm` image (save_models_binary), plus the
  /// ModelHandle version to restore so post-resume publishes number their
  /// generations exactly as the uninterrupted run would.
  std::string models_image;
  std::uint64_t model_version = 1;
  /// Consumed byte offset in the input capture: every byte before it is
  /// fully inside the checkpointed engine state; replay starts here.
  std::uint64_t input_offset = 0;
  /// The accumulated --alerts JSON document at checkpoint time (empty when
  /// the daemon writes no alerts file).
  std::string alerts_json;
  obs::HealthSnapshot health;
};

/// Where a loaded journal stands: what a CheckpointJournal needs to keep
/// appending to it.
struct JournalExtent {
  /// End of the last complete STATE record. Bytes after it are a torn or
  /// uncommitted tail.
  std::uint64_t committed_bytes = 0;
  /// End of the first STATE record: the compacted image the journal
  /// restarted from.
  std::uint64_t compacted_bytes = 0;
  /// Model version of the last committed MODELS record.
  std::uint64_t model_version = 0;
  /// Retrain-buffer flows the committed FLOWS records hold.
  std::size_t flows = 0;
};

/// Serializes a checkpoint to a compacted journal: one MODELS, one FLOWS
/// and one STATE record.
[[nodiscard]] std::string save_checkpoint(const WatchCheckpoint& cp);

/// Replays a `.bbc` journal into the checkpoint its last complete STATE
/// record commits. See the header comment for what each policy tolerates;
/// a journal without a committed STATE, and a format version other than 2,
/// throw SerializationError (with the absolute byte offset of the damage).
/// `extent` (when non-null) receives where the committed journal ends.
WatchCheckpoint load_checkpoint(std::span<const std::uint8_t> bytes,
                                ParsePolicy policy = ParsePolicy::kStrict,
                                ParseStats* stats = nullptr,
                                JournalExtent* extent = nullptr);

/// Reads the file at `path` and replays it strictly (see load_checkpoint).
WatchCheckpoint load_checkpoint_file(const std::string& path,
                                     JournalExtent* extent = nullptr);

/// The writer side: owns one `.bbc` journal file and appends one window's
/// records per commit(). Single-threaded; call commit() from the window
/// sink, where no retrain is in flight.
class CheckpointJournal {
 public:
  /// A new journal at `path`. The first commit writes a compacted image over
  /// whatever file is there.
  explicit CheckpointJournal(std::string path);
  /// Continues the journal a resume loaded from `path`: truncates the tail
  /// after `extent.committed_bytes` now, then appends after it. Throws
  /// SerializationError when the file cannot be truncated.
  CheckpointJournal(std::string path, const JournalExtent& extent);
  ~CheckpointJournal();
  CheckpointJournal(const CheckpointJournal&) = delete;
  CheckpointJournal& operator=(const CheckpointJournal&) = delete;

  /// Persists one checkpoint. `cp` carries the options, input offset,
  /// alerts document and health; the journal fills in the rest: the engine
  /// state without its retrain buffer, the buffer's flows added since the
  /// last commit (read straight from engine.retrain_buffer()), and the
  /// model image when `models.version()` changed. Appends those records in
  /// one write, or compacts (see the header comment). Opens the
  /// checkpoint.export / .serialize / .write spans. Returns false (with a
  /// one-line reason in `error`) on I/O failure; the next commit then
  /// compacts. Never throws on I/O.
  [[nodiscard]] bool commit(WatchCheckpoint cp, const WatchEngine& engine,
                            const ModelHandle& models,
                            std::string* error = nullptr);

  /// Bytes the last successful commit wrote (its append, or the whole
  /// compacted image).
  [[nodiscard]] std::uint64_t last_commit_bytes() const {
    return last_commit_bytes_;
  }
  /// True when the last successful commit compacted the journal.
  [[nodiscard]] bool last_commit_compacted() const {
    return last_commit_compacted_;
  }
  /// Current journal file size, kept as a running total.
  [[nodiscard]] std::uint64_t journal_bytes() const { return journal_bytes_; }
  /// Size of the compacted image the journal last restarted from.
  [[nodiscard]] std::uint64_t compacted_bytes() const {
    return compacted_bytes_;
  }
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }

 private:
  bool compact(const WatchCheckpoint& cp, const WatchEngine& engine,
               std::string* error);
  bool append(const std::string& records, std::string* error);
  void close_fd();

  std::string path_;
  int fd_ = -1;  ///< append handle on path_, opened lazily
  bool needs_compaction_ = true;
  std::uint64_t journal_bytes_ = 0;
  std::uint64_t compacted_bytes_ = 0;
  /// engine.retrain_handoffs() at the last commit: a change means the
  /// journaled flows went to a retrain.
  std::uint64_t handoffs_ = 0;
  /// Flows of the engine's current retrain buffer already in the journal.
  std::size_t journaled_flows_ = 0;
  /// Model version of the newest MODELS record in the journal.
  std::uint64_t journaled_version_ = 0;
  /// The current generation's image, serialized once per version.
  std::string models_image_;
  std::uint64_t image_version_ = 0;
  std::uint64_t last_commit_bytes_ = 0;
  bool last_commit_compacted_ = false;
  std::uint64_t compactions_ = 0;
};

}  // namespace behaviot
