#include "trace/batch.hpp"

namespace teaal::trace
{

void
BatchBus::flush()
{
    if (log_ != nullptr) {
        // Capture mode: nothing to deliver, but stamp the logical
        // stream length so the replay can account for the records
        // the shard accumulator consumed.
        log_->logicalEvents = events_;
        return;
    }
    if (pendingLogical_ == 0 && batch_.events.empty())
        return;
    // The logical stream delivers a batch here; count it even when
    // every record in it became no Event, so batchCount() stays
    // serial-identical.
    ++batches_;
    if (!batch_.events.empty()) {
        obs_->onEventBatch(batch_);
        batch_.events.clear();
    }
    pendingLogical_ = 0;
}

// NOTE: fixupReplayLog (exec/executor.cpp) mirrors this chunk/walkEnds
// traversal for its in-place rewrite — change them together (the
// thread-equivalence tests compare batch boundaries).
void
BatchBus::replay(const TraceLog& log)
{
    // The log holds only the records the capture kept; the logical
    // stream (datapath records included — handed, in-shard, to the
    // capture bus's datapath sink, or only counted) is reconstructed
    // arithmetically from logicalWalkEnds/logicalEvents, so events_,
    // pendingLogical_, and therefore every flush decision and
    // batchCount() land exactly where the serial bus put them.
    std::size_t we = 0;
    std::size_t base = 0;    // logged index of the current chunk start
    std::size_t logical = 0; // logical records accounted so far
    auto account = [&](std::size_t upto) {
        events_ += upto - logical;
        pendingLogical_ += upto - logical;
        logical = upto;
    };
    for (const std::vector<Event>& chunk : log.chunks) {
        std::size_t i = 0;
        while (i < chunk.size()) {
            while (we < log.walkEnds.size() &&
                   log.walkEnds[we] == base + i) {
                account(log.logicalWalkEnds[we]);
                if (pendingLogical_ >= threshold_)
                    flush();
                ++we;
            }
            // Bulk-copy the run up to the next walk boundary.
            std::size_t stop = chunk.size();
            if (we < log.walkEnds.size())
                stop = std::min(stop, log.walkEnds[we] - base);
            batch_.events.insert(batch_.events.end(),
                                 chunk.begin() +
                                     static_cast<std::ptrdiff_t>(i),
                                 chunk.begin() +
                                     static_cast<std::ptrdiff_t>(stop));
            i = stop;
        }
        base += chunk.size();
    }
    while (we < log.walkEnds.size() && log.walkEnds[we] == base) {
        account(log.logicalWalkEnds[we]);
        if (pendingLogical_ >= threshold_)
            flush();
        ++we;
    }
    account(log.logicalEvents);
}

} // namespace teaal::trace
