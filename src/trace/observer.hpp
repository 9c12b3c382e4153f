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

namespace teaal::trace
{

struct EventBatch;

/** Receiver of execution events. The default ignores them, so a bare
 *  Observer is a null sink. */
class Observer
{
  public:
    virtual ~Observer() = default;

    /**
     * A batch of events from the engine's trace bus (see
     * trace/batch.hpp, which documents each record kind on
     * trace::Event). This is the only call the engine makes on an
     * observer; the records arrive in emission order.
     */
    virtual void
    onEventBatch(const EventBatch& batch)
    {
        (void)batch;
    }
};

} // namespace teaal::trace
