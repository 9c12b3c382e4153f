/**
 * @file
 * FanoutObserver: one trace sink that forwards every delivered batch
 * to a list of downstream observers. RunOptions uses it to attach
 * extra observers (loggers, counters, ring buffers) next to the
 * performance model's storage tier without the engine knowing about
 * multiplexing.
 *
 * Batches are forwarded as batches, in delivery order, to every
 * downstream's onEventBatch.
 */
#pragma once

#include <vector>

#include "trace/batch.hpp"
#include "trace/observer.hpp"

namespace teaal::trace
{

class FanoutObserver : public Observer
{
  public:
    FanoutObserver() = default;

    /** Add a downstream sink; must outlive this observer. */
    void add(Observer* obs) { sinks_.push_back(obs); }

    void
    onEventBatch(const EventBatch& batch) override
    {
        for (Observer* o : sinks_)
            o->onEventBatch(batch);
    }

  private:
    std::vector<Observer*> sinks_;
};

} // namespace teaal::trace
