#include "model/storage_replay.hpp"

#include <algorithm>
#include <cmath>

#include "storage/packed.hpp"

namespace teaal::model
{

namespace
{

std::uint64_t
keyHash(const void* key)
{
    return reinterpret_cast<std::uint64_t>(key);
}

} // namespace

StorageReplay::StorageReplay(const ModelTables& t) : t_(t)
{
    units_.resize(t.units.size());
    for (std::size_t u = 0; u < t.units.size(); ++u) {
        const ModelTables::UnitInfo& info = t.units[u];
        if (info.isCache) {
            auto& shared = componentCaches_[info.component];
            if (shared == nullptr)
                shared = std::make_unique<LruCache>(info.cacheBytes);
            units_[u].cache = shared.get();
        }
    }

    // Pre-resolve traffic rows (map nodes are address-stable). Rows
    // stay local to this tier until finalizeInto folds them into the
    // record next to the accumulator tier's charges.
    const ir::EinsumPlan& plan = *t.plan;
    for (std::size_t i = 0; i < plan.inputs.size(); ++i) {
        inputTrafficOrNull_.push_back(
            t.inputOnChip[i] != 0 ? nullptr
                                  : &traffic_[plan.inputs[i].name]);
    }
    outTrafficOrNull_ =
        t.outputOnChip ? nullptr : &traffic_[plan.output.name];
    for (const ModelTables::UnitInfo& info : t.units) {
        unitTrafficOrNull_.push_back(
            info.onChipTensor ? nullptr : &traffic_[info.tensor]);
    }
}

void
StorageReplay::onEventBatch(const trace::EventBatch& batch)
{
    for (const trace::Event& e : batch.events)
        consume(e);
}

void
StorageReplay::chargeDramTo(TensorTraffic* tt, double bytes, bool write,
                            bool partial)
{
    if (tt == nullptr)
        return;
    if (write) {
        tt->writeBytes += bytes;
        dramWrite_.add(bytes);
    } else {
        tt->readBytes += bytes;
        dramRead_.add(bytes);
    }
    if (partial)
        tt->poBytes += bytes;
}

void
StorageReplay::chargeDram(const std::string& tensor, double bytes,
                          bool write, bool partial)
{
    if (t_.onChip.count(tensor))
        return;
    chargeDramTo(&traffic_[tensor], bytes, write, partial);
}

double
StorageReplay::subtreeBytes(const ModelTables::UnitInfo& unit,
                            const storage::PackedTensor* packed,
                            std::size_t level, std::size_t pos,
                            const void* key)
{
    const auto it = subtreeBytesCache_.find(key);
    if (it != subtreeBytesCache_.end())
        return it->second;
    double bytes =
        static_cast<double>(packed->subtreeBits(*unit.format, level,
                                                pos)) /
        8.0;
    if (unit.interleaved && level + 1 < packed->numRanks()) {
        bytes = std::max(bytes,
                         kInterleavedTransactionBytes *
                             static_cast<double>(
                                 packed->leafCountBelow(level, pos)));
    }
    subtreeBytesCache_[key] = bytes;
    return bytes;
}

void
StorageReplay::loopEnter(std::size_t loop)
{
    for (std::size_t u = 0; u < units_.size(); ++u) {
        const ModelTables::UnitInfo& info = t_.units[u];
        if (info.evictLoop != static_cast<int>(loop) || info.isCache)
            continue;
        const Buffet::DrainResult drained = units_[u].buffet.evictAll();
        const double total = drained.firstBytes + drained.againBytes;
        if (total > 0) {
            chargeDramTo(unitTrafficOrNull_[u], drained.firstBytes,
                         true, false);
            chargeDramTo(unitTrafficOrNull_[u], drained.againBytes,
                         true, true);
            units_[u].drain.add(total);
        }
    }
}

void
StorageReplay::tensorAccess(int input, std::size_t level, const void* key,
                            const void* packed, std::size_t pos)
{
    if (input < 0)
        return;
    const std::size_t i = static_cast<std::size_t>(input);
    const ModelTables::LevelRoute& r = t_.routes[i][level];
    if (r.unit < 0 || r.absorbed)
        return; // order-free: the accumulator tier's case
    const std::size_t u = static_cast<std::size_t>(r.unit);
    const ModelTables::UnitInfo& info = t_.units[u];
    UnitState& state = units_[u];
    double bytes = r.payloadBytes;
    if (info.eager && info.boundLevel == static_cast<int>(level)) {
        bytes = subtreeBytes(
            info, static_cast<const storage::PackedTensor*>(packed), level,
            pos, key);
    }
    bool hit;
    if (info.isCache)
        hit = state.cache->access(key, bytes);
    else
        hit = state.buffet.read(keyHash(key), bytes);
    state.access.add(bytes);
    if (!hit) {
        state.fill.add(bytes);
        chargeDramTo(inputTrafficOrNull_[i], bytes, false);
    }
}

void
StorageReplay::outputWrite(std::uint64_t path_key, bool first,
                           bool at_leaf)
{
    if (!at_leaf)
        return;
    const double bytes = t_.outLeafBytes;
    if (t_.outUnit >= 0) {
        const std::size_t u = static_cast<std::size_t>(t_.outUnit);
        UnitState& state = units_[u];
        const double resident_before = state.buffet.residentBytes();
        const bool revisit = state.buffet.write(path_key, bytes, first);
        // Repeat writes to a resident partial accumulate in
        // registers/adder trees; the buffer port is paid on
        // allocation (and again at drain).
        if (state.buffet.residentBytes() != resident_before)
            state.access.add(bytes);
        if (revisit) {
            // Partial result re-fetched from DRAM.
            chargeDramTo(outTrafficOrNull_, bytes, false, true);
        }
        return;
    }
    // Streaming output: every write goes to memory; writes after the
    // first are partial-output read-modify-writes.
    const double dram_bytes =
        t_.outLineBytes > 0 ? t_.outLineBytes : bytes;
    if (first) {
        chargeDramTo(outTrafficOrNull_, dram_bytes, true, false);
    } else {
        chargeDramTo(outTrafficOrNull_, dram_bytes, false, true);
        chargeDramTo(outTrafficOrNull_, dram_bytes, true, true);
    }
}

void
StorageReplay::swizzle(std::size_t elements, std::size_t ways, bool online)
{
    if (!online)
        return;
    if (t_.mergerName.empty()) {
        // No merger hardware: the swizzle still happens (e.g. via
        // memory round trips); charge the sequencer.
        if (!t_.seqName.empty())
            seqSwizzleElems_.add(static_cast<double>(elements));
        return;
    }
    const double passes = std::max(
        1.0, std::ceil(std::log(static_cast<double>(std::max<std::size_t>(
                           ways, 2))) /
                       std::log(static_cast<double>(t_.mergerRadix))));
    mergeElems_.add(static_cast<double>(elements) * passes);
    mergeSwizzles_.add(1);
}

void
StorageReplay::tensorCopy(const std::string& from, const std::string& to,
                          std::size_t elements)
{
    const fmt::TensorFormat& tf = t_.formats->getLenient(from);
    fmt::RankFormat leaf; // default compressed
    const double bytes =
        static_cast<double>(elements) *
        (tf.rankFormat("_leaf").coordBits() + leaf.payloadBits(true)) /
        8.0;
    chargeDram(from, bytes, false);
    chargeDram(to, bytes, true);
}

void
StorageReplay::finalizeInto(EinsumRecord& record)
{
    // Drain every output buffet.
    for (std::size_t u = 0; u < units_.size(); ++u) {
        const ModelTables::UnitInfo& info = t_.units[u];
        if (info.isCache)
            continue;
        const Buffet::DrainResult drained = units_[u].buffet.evictAll();
        const double total = drained.firstBytes + drained.againBytes;
        if (total > 0) {
            chargeDram(info.tensor, drained.firstBytes, true, false);
            chargeDram(info.tensor, drained.againBytes, true, true);
            units_[u].drain.add(total);
        }
    }

    for (std::size_t u = 0; u < units_.size(); ++u) {
        ComponentActions& ca =
            record.components[t_.units[u].component];
        units_[u].access.mergeInto(ca, "access_bytes");
        units_[u].fill.mergeInto(ca, "fill_bytes");
        units_[u].drain.mergeInto(ca, "drain_bytes");
    }

    if (!t_.mergerName.empty()) {
        // The skeleton pre-created the merger row (identity,
        // instances, class) — only the counters land here.
        ComponentActions& merger = record.components[t_.mergerName];
        mergeElems_.mergeInto(merger, "merge_elems");
        mergeSwizzles_.mergeInto(merger, "swizzles");
    }
    if (!t_.seqName.empty())
        seqSwizzleElems_.mergeInto(record.components[t_.seqName],
                                   "swizzle_elems");

    for (const auto& [tensor, tt] : traffic_) {
        TensorTraffic& row = record.traffic[tensor];
        row.readBytes += tt.readBytes;
        row.writeBytes += tt.writeBytes;
        row.poBytes += tt.poBytes;
    }
    if (!t_.dramName.empty()) {
        ComponentActions& dram = record.components[t_.dramName];
        dramRead_.mergeInto(dram, "read_bytes");
        dramWrite_.mergeInto(dram, "write_bytes");
    }
}

} // namespace teaal::model
