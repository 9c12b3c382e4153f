/**
 * @file
 * Streaming trace interface (paper §4.3 "trace generation").
 *
 * The executor streams events to an observer while running the mapped
 * loop nest on real fibertrees, in batches (trace/batch.hpp); models
 * derive action counts online. This replaces the paper's
 * generate-then-consume trace files with a streaming pipeline that
 * produces identical counts without materializing traces. In a
 * pipeline run the observer is the performance model's storage tier
 * (plus any RunOptions::observers), and it receives only the
 * order-dependent records: the bus routes the datapath records to the
 * model's accumulators as they are produced.
 *
 * Events carry the PE id derived from the mapping's space ranks so
 * models can capture load imbalance.
 */
#pragma once

#include <cstdint>
#include <string>

#include "fibertree/types.hpp"

namespace teaal::trace
{

struct EventBatch;

/** Receiver of execution events. Default implementations ignore. */
class Observer
{
  public:
    virtual ~Observer() = default;

    /**
     * A batch of events from the engine's trace bus (see
     * trace/batch.hpp). This is the only call the engine makes on the
     * hot path; the default implementation (batch.cpp) replays the
     * records through the per-event methods below in original order,
     * so observers written against the streaming interface see
     * bit-identical counts. Batch-aware observers override this.
     */
    virtual void onEventBatch(const EventBatch& batch);

    /** A new coordinate was entered at loop rank @p loop. */
    virtual void
    onLoopEnter(std::size_t loop, ft::Coord c)
    {
        (void)loop;
        (void)c;
    }

    /**
     * A co-iteration walk finished at loop rank @p loop.
     * @param steps   Total element advances over all drivers.
     * @param matches Coordinates produced.
     * @param drivers Number of co-iterated fibers (>= 2 means the walk
     *                needed an intersection/union unit; 0 = dense).
     */
    virtual void
    onCoIterate(std::size_t loop, std::size_t steps, std::size_t matches,
                std::size_t drivers, std::uint64_t pe)
    {
        (void)loop;
        (void)steps;
        (void)matches;
        (void)drivers;
        (void)pe;
    }

    /** Coordinates of one driver scanned during a walk. */
    virtual void
    onCoordScan(int input, std::size_t level, std::size_t count,
                std::uint64_t pe)
    {
        (void)input;
        (void)level;
        (void)count;
        (void)pe;
    }

    /**
     * A payload of input @p input was read (descend at @p level,
     * coordinate @p c). @p key is a stable identity usable for reuse
     * modeling. The element's full context (its source
     * storage::PackedTensor and position) travels on the batch Event
     * (`packed`/`a`), which batch-aware observers consume.
     */
    virtual void
    onTensorAccess(int input, const std::string& tensor, std::size_t level,
                   ft::Coord c, const void* key, std::uint64_t pe)
    {
        (void)input;
        (void)tensor;
        (void)level;
        (void)c;
        (void)key;
        (void)pe;
    }

    /**
     * The output was written at @p level.
     * @param inserted An interior write (fiber insert): true if it
     *                 created the node. A leaf write: true exactly on
     *                 the first write of that leaf in the run, at
     *                 every thread count.
     * @param at_leaf  True for scalar writes (else fiber inserts).
     * @param path_key Hash of the coordinate path (stable identity).
     */
    virtual void
    onOutputWrite(const std::string& tensor, std::size_t level, ft::Coord c,
                  std::uint64_t path_key, bool inserted, bool at_leaf,
                  std::uint64_t pe)
    {
        (void)tensor;
        (void)level;
        (void)c;
        (void)path_key;
        (void)inserted;
        (void)at_leaf;
        (void)pe;
    }

    /** @p count compute operations of kind @p op ('m' or 'a') on @p pe. */
    virtual void
    onCompute(char op, std::uint64_t pe, std::size_t count)
    {
        (void)op;
        (void)pe;
        (void)count;
    }

    /**
     * A rank swizzle was performed on @p tensor. Online swizzles (on
     * intermediates) are charged to the merger/sort hardware; offline
     * swizzles are free preprocessing (§3.2.2).
     */
    virtual void
    onSwizzle(const std::string& tensor, std::size_t elements,
              std::size_t ways, bool online)
    {
        (void)tensor;
        (void)elements;
        (void)ways;
        (void)online;
    }

    /** Whole-tensor copy (e.g. P1 = P0). */
    virtual void
    onTensorCopy(const std::string& from, const std::string& to,
                 std::size_t elements)
    {
        (void)from;
        (void)to;
        (void)elements;
    }
};

} // namespace teaal::trace
