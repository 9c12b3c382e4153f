#include "model/model.hpp"

namespace teaal::model
{

EinsumModel::EinsumModel(const ir::EinsumPlan& plan,
                         const arch::Topology& topo,
                         const binding::EinsumBinding& eb,
                         const fmt::FormatSpec& formats,
                         const std::set<std::string>& on_chip)
    : tables_(ModelTables::build(plan, topo, eb, formats, on_chip)),
      accum_(tables_), replay_(tables_)
{
}

exec::ModelHooks
EinsumModel::hooks()
{
    exec::ModelHooks h;
    h.classifier = &tables_.classifier;
    h.coordinatorSink = &accum_;
    // One accumulator per shard; the deque keeps their addresses
    // stable.
    h.makeShardSinks = [this](std::size_t shards) {
        shardAccums_.clear();
        std::vector<trace::DatapathSink*> sinks;
        sinks.reserve(shards);
        for (std::size_t s = 0; s < shards; ++s) {
            shardAccums_.emplace_back(tables_);
            sinks.push_back(&shardAccums_.back());
        }
        return sinks;
    };
    return h;
}

EinsumRecord
EinsumModel::finalize(const exec::ExecutionStats& stats)
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
    return record;
}

} // namespace teaal::model
