#include "model/accumulator.hpp"

namespace teaal::model
{

ShardAccumulator::ShardAccumulator(const ModelTables& t)
    : t_(t), unitAccess_(t.units.size()),
      inputRead_(t.plan->inputs.size(), 0.0)
{
}

void
ShardAccumulator::coIterate(std::size_t steps, std::size_t matches,
                            std::size_t drivers, std::uint64_t pe)
{
    if (!t_.seqName.empty()) {
        // The sequencer walks fibers at one element per cycle.
        seqSteps_.add(static_cast<double>(steps));
        seqPerPe_[peSlot(t_.seqInstances, pe)] +=
            static_cast<double>(steps);
    }
    if (drivers >= 2 && !t_.unionCombine && !t_.isectName.empty()) {
        isectSteps_.add(static_cast<double>(steps));
        isectMatches_.add(static_cast<double>(matches));
        const double cycles =
            isectCycles(t_.isectType, static_cast<double>(steps),
                        static_cast<double>(matches));
        isectCycles_.add(cycles);
        isectPerPe_[peSlot(t_.isectInstances, pe)] += cycles;
    }
}

void
ShardAccumulator::coordScan(int input, std::size_t level,
                            std::size_t count)
{
    if (input < 0 || count == 0)
        return;
    const std::size_t i = static_cast<std::size_t>(input);
    const ModelTables::LevelRoute& r = t_.routes[i][level];
    const double bytes = r.coordBytes * static_cast<double>(count);
    if (bytes <= 0)
        return;
    if (r.unit >= 0) {
        if (r.unitIsCache || !r.absorbed)
            unitAccess_[static_cast<std::size_t>(r.unit)].add(bytes);
        if (!r.absorbed && !r.unitEager && t_.inputOnChip[i] == 0) {
            // Lazily bound coordinates stream through the buffer.
            inputRead_[i] += bytes;
            dramRead_.add(bytes);
        }
    } else if (t_.inputOnChip[i] == 0) {
        inputRead_[i] += bytes;
        dramRead_.add(bytes);
    }
}

void
ShardAccumulator::compute(char op, std::uint64_t pe, std::size_t count)
{
    if (op == 'm') {
        if (t_.mulName.empty())
            return;
        mulOps_.add(static_cast<double>(count));
        mulPerPe_[peSlot(t_.mulInstances, pe)] +=
            static_cast<double>(count);
    } else {
        if (t_.addName.empty())
            return;
        addOps_.add(static_cast<double>(count));
        addPerPe_[peSlot(t_.addInstances, pe)] +=
            static_cast<double>(count);
    }
}

void
ShardAccumulator::tensorAccess(int input, std::size_t level)
{
    if (input < 0)
        return;
    const std::size_t i = static_cast<std::size_t>(input);
    const ModelTables::LevelRoute& r = t_.routes[i][level];
    if (r.unit < 0) {
        if (t_.inputOnChip[i] == 0) {
            inputRead_[i] += r.payloadBytes;
            dramRead_.add(r.payloadBytes);
        }
        return;
    }
    // Absorbed by an eager fill above: on-chip hit. Caches pay a port
    // access per use; explicitly orchestrated buffets feed
    // registers/multicast networks, so re-uses are free. (The
    // non-absorbed unit-routed case is order-dependent and never
    // reaches this tier — the classifier sends it to StorageReplay.)
    if (r.absorbed && r.unitIsCache)
        unitAccess_[static_cast<std::size_t>(r.unit)].add(
            r.payloadBytes);
}

void
ShardAccumulator::merge(const ShardAccumulator& o)
{
    seqSteps_.merge(o.seqSteps_);
    seqPerPe_.merge(o.seqPerPe_);
    isectSteps_.merge(o.isectSteps_);
    isectMatches_.merge(o.isectMatches_);
    isectCycles_.merge(o.isectCycles_);
    isectPerPe_.merge(o.isectPerPe_);
    mulOps_.merge(o.mulOps_);
    mulPerPe_.merge(o.mulPerPe_);
    addOps_.merge(o.addOps_);
    addPerPe_.merge(o.addPerPe_);
    for (std::size_t u = 0; u < unitAccess_.size(); ++u)
        unitAccess_[u].merge(o.unitAccess_[u]);
    for (std::size_t i = 0; i < inputRead_.size(); ++i)
        inputRead_[i] += o.inputRead_[i];
    dramRead_.merge(o.dramRead_);
}

void
ShardAccumulator::mergeInto(EinsumRecord& record) const
{
    if (!t_.seqName.empty()) {
        ComponentActions& seq = record.components[t_.seqName];
        seqSteps_.mergeInto(seq, "steps");
        seq.perPe.merge(seqPerPe_);
    }
    if (!t_.isectName.empty()) {
        ComponentActions& isect = record.components[t_.isectName];
        isectSteps_.mergeInto(isect, "steps");
        isectMatches_.mergeInto(isect, "matches");
        isectCycles_.mergeInto(isect, "cycles");
        isect.perPe.merge(isectPerPe_);
    }
    if (!t_.mulName.empty()) {
        ComponentActions& mul = record.components[t_.mulName];
        mulOps_.mergeInto(mul, "mul_ops");
        mul.perPe.merge(mulPerPe_);
    }
    if (!t_.addName.empty()) {
        ComponentActions& add = record.components[t_.addName];
        addOps_.mergeInto(add, "add_ops");
        add.perPe.merge(addPerPe_);
    }
    for (std::size_t u = 0; u < unitAccess_.size(); ++u) {
        if (!unitAccess_[u].touched)
            continue;
        unitAccess_[u].mergeInto(
            record.components[t_.units[u].component], "access_bytes");
    }
    for (std::size_t i = 0; i < inputRead_.size(); ++i) {
        if (inputRead_[i] != 0)
            record.traffic[t_.plan->inputs[i].name].readBytes +=
                inputRead_[i];
    }
    if (!t_.dramName.empty())
        dramRead_.mergeInto(record.components[t_.dramName],
                            "read_bytes");
}

} // namespace teaal::model
