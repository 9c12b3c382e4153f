#include "model/model.hpp"

#include "trace/batch.hpp"

namespace teaal::model
{

ModelObserver::ModelObserver(const ir::EinsumPlan& plan,
                             const arch::Topology& topo,
                             const binding::EinsumBinding& eb,
                             const fmt::FormatSpec& formats,
                             const std::set<std::string>& on_chip)
    : tables_(ModelTables::build(plan, topo, eb, formats, on_chip)),
      accum_(tables_), replay_(tables_)
{
}

void
ModelObserver::onEventBatch(const trace::EventBatch& batch)
{
    // One virtual call per batch; per-record routing below is
    // non-virtual. Record order is preserved within each tier, and
    // the datapath tier is order-free, so every count (cache hits
    // included) is bit-identical to the streaming path.
    ++traceBatches_;
    traceEvents_ += batch.events.size();
    using trace::Event;
    const trace::RecordClassifier& cls = tables_.classifier;
    for (const Event& e : batch.events) {
        switch (e.kind) {
          case Event::Kind::LoopEnter:
            if (cls.loopStateful(e.loop))
                replay_.loopEnter(e.loop);
            break;
          case Event::Kind::CoIterate:
            accum_.coIterate(e.a, e.b, e.c, e.pe);
            break;
          case Event::Kind::CoordScan:
            accum_.coordScan(e.input, e.level, e.a);
            break;
          case Event::Kind::TensorAccess:
            if (cls.accessStateful(e.input, e.level))
                replay_.tensorAccess(e.input, e.level, e.ptr,
                                     e.payload(), e.packed, e.a);
            else
                accum_.tensorAccess(e.input, e.level);
            break;
          case Event::Kind::OutputWrite:
            replay_.outputWrite(e.key, e.flagB);
            break;
          case Event::Kind::Compute:
            accum_.compute(e.op, e.pe, e.a);
            break;
          case Event::Kind::Swizzle:
            replay_.swizzle(e.a, e.b, e.flagA);
            break;
          case Event::Kind::TensorCopy:
            replay_.tensorCopy(*e.name, *e.name2, e.a);
            break;
        }
    }
}

void
ModelObserver::onLoopEnter(std::size_t loop, ft::Coord c)
{
    (void)c;
    if (tables_.classifier.loopStateful(loop))
        replay_.loopEnter(loop);
}

void
ModelObserver::onCoIterate(std::size_t loop, std::size_t steps,
                           std::size_t matches, std::size_t drivers,
                           std::uint64_t pe)
{
    (void)loop;
    accum_.coIterate(steps, matches, drivers, pe);
}

void
ModelObserver::onCoordScan(int input, std::size_t level,
                           std::size_t count, std::uint64_t pe)
{
    (void)pe;
    accum_.coordScan(input, level, count);
}

void
ModelObserver::onTensorAccess(int input, const std::string& tensor,
                              std::size_t level, ft::Coord c,
                              const void* key, const ft::Payload* payload,
                              std::uint64_t pe)
{
    (void)tensor;
    (void)c;
    (void)pe;
    if (tables_.classifier.accessStateful(input, level))
        replay_.tensorAccess(input, level, key, payload, nullptr, 0);
    else
        accum_.tensorAccess(input, level);
}

void
ModelObserver::onOutputWrite(const std::string& tensor, std::size_t level,
                             ft::Coord c, std::uint64_t path_key,
                             bool inserted, bool at_leaf, std::uint64_t pe)
{
    (void)tensor;
    (void)level;
    (void)c;
    (void)inserted;
    (void)pe;
    replay_.outputWrite(path_key, at_leaf);
}

void
ModelObserver::onCompute(char op, std::uint64_t pe, std::size_t count)
{
    accum_.compute(op, pe, count);
}

void
ModelObserver::onSwizzle(const std::string& tensor, std::size_t elements,
                         std::size_t ways, bool online)
{
    (void)tensor;
    replay_.swizzle(elements, ways, online);
}

void
ModelObserver::onTensorCopy(const std::string& from, const std::string& to,
                            std::size_t elements)
{
    replay_.tensorCopy(from, to, elements);
}

std::vector<trace::Observer*>
ModelObserver::makeShardSinks(std::size_t n)
{
    shardAccums_.clear();
    std::vector<trace::Observer*> sinks;
    sinks.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
        shardAccums_.emplace_back(tables_);
        sinks.push_back(&shardAccums_.back());
    }
    return sinks;
}

EinsumRecord
ModelObserver::finalize(const exec::ExecutionStats& stats)
{
    EinsumRecord record = tables_.skeleton;

    // Deterministic merge: the coordinator's own accumulator first,
    // then the shard accumulators in shard-index order. (The sums are
    // exact regardless — see the file comment — the fixed order makes
    // that property unnecessary rather than load-bearing.)
    for (const ShardAccumulator& sa : shardAccums_)
        accum_.merge(sa);
    accum_.mergeInto(record);
    replay_.finalizeInto(record);

    record.execStats = stats;
    // Standalone (non-pipeline) use: what this observer received. The
    // pipeline overwrites these with the executor bus's counts, which
    // also account for shard-consumed records at threads >= 2.
    record.traceEvents = traceEvents_;
    record.traceBatches = traceBatches_;
    return record;
}

} // namespace teaal::model
