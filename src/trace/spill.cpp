#include "trace/spill.hpp"

#include <unistd.h>

#include <cstdio>

#include "util/diagnostic.hpp"
#include "util/failpoint.hpp"

namespace teaal::trace
{

namespace
{

/// First 8 bytes of every frame, a cheap torn-file detector. The digit
/// names the Event record layout the frame's raw records use.
constexpr std::uint64_t kFrameMagic = 0x344C4C4950535424ULL; // "$TSPILL4"

/// Followed by `walkEnds` logged boundary indices, as many logical
/// ones, then the frame's `events` raw records.
struct FrameHeader
{
    std::uint64_t magic = kFrameMagic;
    std::uint64_t events = 0;
    std::uint64_t walkEnds = 0;
    std::uint64_t logicalEvents = 0;
};

static_assert(sizeof(FrameHeader) == 32, "frame header layout");

} // namespace

// ------------------------------------------------------- SpillContext

std::unique_ptr<SpillWriter>
SpillContext::makeWriter()
{
    const std::uint64_t id =
        counter_.fetch_add(1, std::memory_order_relaxed);
    std::string path = dir_;
    if (!path.empty() && path.back() != '/')
        path += '/';
    path += "teaal-spill-";
    path += std::to_string(static_cast<long>(::getpid()));
    path += '-';
    path += std::to_string(id);
    path += ".seg";
    return std::make_unique<SpillWriter>(*this, std::move(path));
}

// -------------------------------------------------------- SpillWriter

SpillWriter::~SpillWriter()
{
    try {
        discard();
    } catch (...) {
    }
}

bool
SpillWriter::onWalkBoundary(TraceLog& log)
{
    // Buffered frame size: every chunk but the last is full (push()
    // only opens a new chunk when the previous one reached capacity).
    if (log.chunks.empty())
        return false;
    const std::size_t events =
        (log.chunks.size() - 1) * TraceLog::kChunkEvents +
        log.chunks.back().size();
    if (events * sizeof(Event) < ctx_->segmentBytes())
        return false;
    writeFrame(log);
    // Drain the records and boundaries; `pool` and the `spill` hook
    // itself stay.
    if (log.pool != nullptr) {
        for (std::vector<Event>& c : log.chunks)
            log.pool->release(std::move(c));
    }
    log.chunks.clear();
    log.walkEnds.clear();
    log.logicalWalkEnds.clear();
    return true;
}

void
SpillWriter::writeFrame(TraceLog& log)
{
    if (!created_) {
        out_.open(path_, std::ios::binary | std::ios::trunc);
        if (!out_.is_open())
            diagError("spill", path_,
                      "cannot open spill segment for writing");
        created_ = true;
        ctx_->files_.fetch_add(1, std::memory_order_relaxed);
    }

    FrameHeader h;
    std::size_t events = 0;
    for (const auto& c : log.chunks)
        events += c.size();
    h.events = events;
    h.walkEnds = log.walkEnds.size();
    // The frame ends exactly at a walk boundary, so its logical span
    // is that boundary's logical index.
    h.logicalEvents = log.logicalWalkEnds.back();

    const auto put = [&](const void* p, std::size_t n) {
        out_.write(static_cast<const char*>(p),
                   static_cast<std::streamsize>(n));
    };
    put(&h, sizeof(h));
    put(log.walkEnds.data(),
        log.walkEnds.size() * sizeof(std::size_t));
    put(log.logicalWalkEnds.data(),
        log.logicalWalkEnds.size() * sizeof(std::size_t));
    std::uint64_t frame_bytes =
        sizeof(h) +
        (log.walkEnds.size() + log.logicalWalkEnds.size()) *
            sizeof(std::size_t);
    for (const auto& c : log.chunks) {
        put(c.data(), c.size() * sizeof(Event));
        frame_bytes += c.size() * sizeof(Event);
    }

    if (TEAAL_FAILPOINT_TRIGGERED("trace.spill.write_error") || !out_)
        diagError("spill", path_,
                  "spill segment write failed (disk full?)");

    ++frames_;
    ctx_->frames_.fetch_add(1, std::memory_order_relaxed);
    ctx_->bytes_.fetch_add(frame_bytes, std::memory_order_relaxed);
}

void
SpillWriter::seal()
{
    if (!out_.is_open())
        return;
    out_.flush();
    if (!out_)
        diagError("spill", path_,
                  "spill segment flush failed (disk full?)");
    out_.close();
}

void
SpillWriter::discard()
{
    if (discarded_)
        return;
    discarded_ = true;
    if (out_.is_open())
        out_.close();
    // Remove whenever the file exists — a write that failed mid-frame
    // (frames_ still 0) must not leak a partial segment.
    if (created_ && !ctx_->keep())
        std::remove(path_.c_str());
}

// -------------------------------------------------------- SpillReader

SpillReader::SpillReader(const std::string& path)
    : in_(path, std::ios::binary), path_(path)
{
    if (!in_.is_open())
        diagError("spill", path_, "cannot open spill segment");
}

bool
SpillReader::next(TraceLog& frame)
{
    FrameHeader h;
    in_.read(reinterpret_cast<char*>(&h),
             static_cast<std::streamsize>(sizeof(h)));
    if (in_.gcount() == 0 && in_.eof())
        return false;
    if (static_cast<std::size_t>(in_.gcount()) != sizeof(h) ||
        h.magic != kFrameMagic)
        diagError("spill", path_, "truncated or corrupt spill segment");

    const auto get = [&](void* p, std::size_t n) {
        in_.read(static_cast<char*>(p),
                 static_cast<std::streamsize>(n));
        if (static_cast<std::size_t>(in_.gcount()) != n)
            diagError("spill", path_,
                      "truncated or corrupt spill segment");
    };

    frame.walkEnds.resize(h.walkEnds);
    get(frame.walkEnds.data(), h.walkEnds * sizeof(std::size_t));
    frame.logicalWalkEnds.resize(h.walkEnds);
    get(frame.logicalWalkEnds.data(), h.walkEnds * sizeof(std::size_t));

    // One chunk per frame: replay and fixup only care about event
    // order and the (frame-relative) walkEnds indices, not the
    // capture-time chunk partitioning. The previous frame's chunk is
    // reused, so a segment streams back through one buffer.
    frame.chunks.resize(1);
    frame.chunks[0].resize(static_cast<std::size_t>(h.events));
    get(frame.chunks[0].data(), h.events * sizeof(Event));

    frame.logicalEvents = static_cast<std::size_t>(h.logicalEvents);
    return true;
}

} // namespace teaal::trace
