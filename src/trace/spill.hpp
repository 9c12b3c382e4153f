/**
 * @file
 * Disk-spilled trace capture (the out-of-core half of sharded runs).
 *
 * A sharded run captures each segment's trace (a slice's run of
 * consecutive units) into a TraceLog and replays the logs in unit
 * order on the coordinator; resident memory therefore grows with the
 * captured trace not yet replayed — for a SuiteSparse-scale input that
 * is gigabytes of Event records alive at once. The spill layer bounds
 * it: each segment's capture bus drains its log to an append-only file
 * of its own whenever the buffered frame crosses a size threshold
 * (Shore-MT's partitioned-log idiom: one log partition per capture, no
 * cross-thread contention, coordinator merges by replaying partitions
 * in unit order), and the coordinator streams the frames back one at
 * a time. Peak resident trace becomes O(threads x segmentBytes)
 * instead of O(total trace).
 *
 * Frames are cut only at walk boundaries (SpillSink::onWalkBoundary),
 * so every frame satisfies the TraceLog invariants on its own:
 * walkEnds and logicalWalkEnds are frame-relative, and the
 * coordinator's replay fixup runs frame-locally with its state (the
 * interior output nodes already announced) persisting across frames
 * exactly as it persists across segments. Replaying the frames of a
 * file in order, then the segment's residual in-memory tail, delivers
 * a stream byte-identical to the unspilled capture's.
 *
 * Event records hold borrowed pointers (tensor-name strings owned by
 * the plan, PackedTensor identities); they remain valid for the whole
 * run, so frames round-trip through disk as raw bytes — the file is
 * scratch, meaningful only to the process that wrote it (and deleted
 * by it, unless RunOptions::spillKeep).
 *
 * Failure surface: segment write/flush errors (disk full) throw
 * DiagnosticError(section "spill") keyed by the segment path, from
 * inside the emitting walk — the run fails like any engine error and
 * the writer's destructor removes the partial file. Failpoint
 * `trace.spill.write_error` arms that branch for tests.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>

#include "trace/batch.hpp"

namespace teaal::trace
{

/** Aggregate spill counters for one run (SimulationResult::spill). */
struct SpillStats
{
    std::uint64_t files = 0;  ///< segment captures that hit disk
    std::uint64_t frames = 0; ///< frames written across all files
    std::uint64_t bytes = 0;  ///< total bytes written
};

class SpillWriter;

/**
 * Per-run spill configuration and shared counters: the executor asks
 * it for one SpillWriter per capture segment; the writers report
 * their totals back here. Thread-safe.
 */
class SpillContext
{
  public:
    SpillContext(std::string dir, std::size_t segmentBytes, bool keep)
        : dir_(std::move(dir)),
          segmentBytes_(segmentBytes == 0 ? 1 : segmentBytes),
          keep_(keep)
    {
    }

    /** New segment writer (unique path under dir()). */
    std::unique_ptr<SpillWriter> makeWriter();

    const std::string& dir() const { return dir_; }
    std::size_t segmentBytes() const { return segmentBytes_; }
    bool keep() const { return keep_; }

    SpillStats
    stats() const
    {
        SpillStats s;
        s.files = files_.load(std::memory_order_relaxed);
        s.frames = frames_.load(std::memory_order_relaxed);
        s.bytes = bytes_.load(std::memory_order_relaxed);
        return s;
    }

  private:
    friend class SpillWriter;

    std::string dir_;
    std::size_t segmentBytes_;
    bool keep_;
    std::atomic<std::uint64_t> counter_{0};
    std::atomic<std::uint64_t> files_{0};
    std::atomic<std::uint64_t> frames_{0};
    std::atomic<std::uint64_t> bytes_{0};
};

/**
 * One capture segment's log partition: drains the segment's TraceLog
 * to an append-only file, one frame per walk-boundary crossing of the
 * size threshold. The file is created lazily on the first frame — a
 * segment whose whole trace fits in one threshold's worth of events
 * never touches disk and replays through the ordinary resident path.
 *
 * Used by one thread during capture, then by the coordinator (after
 * the segment's `done` handshake) for seal/replay — no internal
 * locking needed.
 */
class SpillWriter final : public SpillSink
{
  public:
    SpillWriter(SpillContext& ctx, std::string path)
        : ctx_(&ctx), path_(std::move(path))
    {
    }

    /** Removes the segment file unless the context keeps artifacts. */
    ~SpillWriter() override;

    SpillWriter(const SpillWriter&) = delete;
    SpillWriter& operator=(const SpillWriter&) = delete;

    /** SpillSink: cut a frame iff the buffered log crossed the
     *  segment-size threshold. Throws DiagnosticError("spill") on
     *  write failure, leaving the log untouched. */
    bool onWalkBoundary(TraceLog& log) override;

    /** Flush and verify the stream before reading it back. */
    void seal();

    /** Close and delete the file now (no-op in keep mode, or when
     *  nothing spilled); frees disk as soon as a segment is replayed. */
    void discard();

    const std::string& path() const { return path_; }

    /** Frames written so far; 0 means fully resident. */
    std::uint64_t frames() const { return frames_; }

  private:
    void writeFrame(TraceLog& log);

    SpillContext* ctx_;
    std::string path_;
    std::ofstream out_;
    std::uint64_t frames_ = 0;
    bool created_ = false; ///< file exists on disk (even partial)
    bool discarded_ = false;
};

/**
 * Streams the frames of one segment file back, oldest first. Each
 * frame arrives as a self-contained TraceLog (single chunk,
 * frame-relative walkEnds) ready for the coordinator's fixup+replay.
 * next() overwrites every field of the frame it fills, reusing its
 * buffers, so one TraceLog serves a whole segment.
 */
class SpillReader
{
  public:
    /** Throws DiagnosticError("spill") if the file cannot be opened. */
    explicit SpillReader(const std::string& path);

    /** Fill @p frame with the next frame; false at end-of-file.
     *  Throws DiagnosticError("spill") on a truncated or corrupt
     *  segment. */
    bool next(TraceLog& frame);

  private:
    std::ifstream in_;
    std::string path_;
};

} // namespace teaal::trace
