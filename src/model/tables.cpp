#include "model/tables.hpp"

#include <algorithm>

#include "mapping/mapping.hpp"
#include "util/error.hpp"

namespace teaal::model
{

namespace
{

/**
 * Tolerant binding-rank resolution against a list of (possibly
 * partitioned/flattened) rank ids. Exact match wins, then base match,
 * then flattened-constituent match.
 */
int
resolveRankLevel(const std::vector<ft::RankInfo>& ranks,
                 const std::string& rank)
{
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        if (ranks[i].id == rank)
            return static_cast<int>(i);
    }
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        if (mapping::baseOfDerived(ranks[i].id) == rank ||
            ranks[i].id == mapping::baseOfDerived(rank))
            return static_cast<int>(i);
    }
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        const auto& flat = ranks[i].flatIds;
        if (std::find(flat.begin(), flat.end(), rank) != flat.end())
            return static_cast<int>(i);
    }
    return -1;
}

} // namespace

IsectType
isectTypeOf(const std::string& type)
{
    if (type == "skip-ahead")
        return IsectType::SkipAhead;
    if (type == "leader-follower")
        return IsectType::LeaderFollower;
    return IsectType::TwoFinger;
}

ModelTables
ModelTables::build(const ir::EinsumPlan& plan, const arch::Topology& topo,
                   const binding::EinsumBinding& eb,
                   const fmt::FormatSpec& formats,
                   const std::set<std::string>& on_chip)
{
    ModelTables t;
    t.plan = &plan;
    t.topo = &topo;
    t.formats = &formats;
    t.onChip = on_chip;
    t.unionCombine = plan.unionCombine;

    EinsumRecord& record = t.skeleton;
    record.output = plan.expr.output.name;
    record.topologyName = topo.name;
    record.clock = topo.clock;
    for (const ir::LoopRank& lr : plan.loops) {
        record.loopOrder.push_back(lr.name);
        if (lr.isSpace)
            break;
        record.temporalPrefix.push_back(lr.name);
    }

    // ------------------------- resolve the functional components
    for (const auto& [comp, instances] : topo.allComponents()) {
        switch (comp->cls) {
          case arch::ComponentClass::DRAM:
            if (t.dramName.empty())
                t.dramName = comp->name;
            break;
          case arch::ComponentClass::Sequencer:
            if (t.seqName.empty())
                t.seqName = comp->name;
            break;
          case arch::ComponentClass::Intersection:
            if (t.isectName.empty())
                t.isectName = comp->name;
            break;
          case arch::ComponentClass::Merger:
            if (t.mergerName.empty())
                t.mergerName = comp->name;
            break;
          case arch::ComponentClass::Compute: {
            const std::string type = comp->attrString("type", "mul");
            if (type == "mul" && t.mulName.empty())
                t.mulName = comp->name;
            if (type == "add" && t.addName.empty())
                t.addName = comp->name;
            break;
          }
          case arch::ComponentClass::Buffer:
            break;
        }
        (void)instances;
    }
    // Compute fallbacks: a mul-only datapath still executes adds.
    if (t.mulName.empty())
        t.mulName = t.addName;
    if (t.addName.empty())
        t.addName = t.mulName;

    // Op bindings override the defaults.
    for (const binding::ComponentBinding& cb : eb.components) {
        for (const binding::OpBinding& op : cb.ops) {
            if (op.op == "mul")
                t.mulName = cb.component;
            else if (op.op == "add")
                t.addName = cb.component;
            else if (op.op == "intersect")
                t.isectName = cb.component;
            else if (op.op == "merge" || op.op == "sort")
                t.mergerName = cb.component;
            else if (op.op == "seq")
                t.seqName = cb.component;
            record.nonStorageComponents.insert(cb.component);
        }
    }

    // Unit parameters come from the component the op landed on.
    if (const arch::Component* isect =
            topo.findComponent(t.isectName, nullptr)) {
        t.isectType =
            isectTypeOf(isect->attrString("type", "two-finger"));
    }
    if (const arch::Component* merger =
            topo.findComponent(t.mergerName, nullptr)) {
        t.mergerRadix =
            std::max(2L, merger->attrLong("comparator_radix", 2));
    }

    // Pre-create component records with instance counts.
    auto ensure = [&](const std::string& name, long* instances_out) {
        if (name.empty())
            return;
        long instances = 1;
        const arch::Component* comp =
            topo.findComponent(name, &instances);
        ComponentActions& ca = record.components[name];
        ca.name = name;
        ca.instances = instances;
        if (comp != nullptr)
            ca.cls = comp->cls;
        if (instances_out != nullptr)
            *instances_out = instances;
    };
    ensure(t.dramName, nullptr);
    ensure(t.seqName, &t.seqInstances);
    ensure(t.isectName, &t.isectInstances);
    ensure(t.mergerName, nullptr);
    ensure(t.mulName, &t.mulInstances);
    ensure(t.addName, &t.addInstances);
    for (const ir::TensorPlan& tp : plan.inputs)
        record.traffic[tp.name];
    record.traffic[plan.output.name];
    // Pre-populating the traffic map inserts zero rows; they are
    // harmless (the benches skip zero-traffic tensors).

    // ------------------------------------ storage units and routes
    for (const binding::ComponentBinding& cb : eb.components) {
        long instances = 1;
        const arch::Component* comp =
            topo.findComponent(cb.component, &instances);
        if (comp == nullptr) {
            if (!cb.storage.empty())
                specError("binding references unknown component '",
                          cb.component, "'");
            continue;
        }
        if (comp->cls != arch::ComponentClass::Buffer)
            continue;
        ComponentActions& ca = record.components[cb.component];
        ca.name = cb.component;
        ca.instances = instances;
        ca.cls = comp->cls;

        for (const binding::StorageBinding& sb : cb.storage) {
            UnitInfo unit;
            unit.component = cb.component;
            unit.tensor = sb.tensor;
            unit.eager = sb.style == binding::Style::Eager;
            unit.isCache = comp->attrString("type", "buffet") == "cache";
            // Output partials always use buffet (drain) semantics,
            // even when held in a cache-type component: eviction of a
            // partial result writes it back.
            if (sb.tensor == plan.output.name)
                unit.isCache = false;
            if (unit.isCache) {
                double bytes = comp->attrDouble("size", 0);
                if (bytes == 0) {
                    bytes = comp->attrDouble("width", 64) *
                            comp->attrDouble("depth", 1024) / 8.0;
                }
                // Replicated caches are simulated as one pool of the
                // aggregate capacity, shared per component.
                unit.cacheBytes =
                    bytes * static_cast<double>(instances);
            }
            unit.format = sb.config.empty()
                              ? &formats.getLenient(sb.tensor)
                              : &formats.get(sb.tensor, sb.config);

            // Locate the tensor.
            if (sb.tensor == plan.output.name) {
                unit.input = -1;
                if (!plan.output.productionOrder.empty() &&
                    !sb.rank.empty()) {
                    std::vector<ft::RankInfo> ranks;
                    for (std::size_t i = 0;
                         i < plan.output.productionOrder.size(); ++i) {
                        ranks.push_back(
                            {plan.output.productionOrder[i],
                             plan.output.shapes[i],
                             {},
                             {}});
                    }
                    unit.boundLevel = resolveRankLevel(ranks, sb.rank);
                }
            } else {
                for (std::size_t i = 0; i < plan.inputs.size(); ++i) {
                    if (plan.inputs[i].name == sb.tensor)
                        unit.input = static_cast<int>(i);
                }
                if (unit.input < 0)
                    continue; // tensor not used by this Einsum
                if (!sb.rank.empty()) {
                    unit.boundLevel = resolveRankLevel(
                        plan.inputs[static_cast<std::size_t>(unit.input)]
                            .ranks,
                        sb.rank);
                }
                if (unit.boundLevel < 0)
                    unit.boundLevel = 0;
            }
            if (!sb.evictOn.empty()) {
                for (std::size_t l = 0; l < plan.loops.size(); ++l) {
                    if (plan.loops[l].name == sb.evictOn ||
                        mapping::baseOfDerived(plan.loops[l].name) ==
                            sb.evictOn)
                        unit.evictLoop = static_cast<int>(l);
                }
            }
            if (unit.input < 0 && sb.tensor == plan.output.name)
                t.outUnit = static_cast<int>(t.units.size());
            // Linked-list style layouts pay DRAM transaction
            // granularity per element when chased.
            for (const auto& [rid, rf] : unit.format->ranks) {
                (void)rid;
                if (rf.layout == fmt::RankFormat::Layout::Interleaved)
                    unit.interleaved = true;
            }
            unit.onChipTensor = on_chip.count(sb.tensor) != 0;
            t.units.push_back(std::move(unit));
        }
    }

    // Routes: per input, per level, pick the deepest covering unit.
    t.routes.resize(plan.inputs.size());
    for (std::size_t i = 0; i < plan.inputs.size(); ++i) {
        const ir::TensorPlan& tp = plan.inputs[i];
        const fmt::TensorFormat& tf = formats.getLenient(tp.name);
        const std::size_t nr = tp.ranks.size();
        t.routes[i].resize(nr);
        for (std::size_t lvl = 0; lvl < nr; ++lvl) {
            LevelRoute& r = t.routes[i][lvl];
            const fmt::RankFormat& rf =
                tf.rankFormat(tp.ranks[lvl].id);
            r.coordBytes = rf.coordBits() / 8.0;
            r.payloadBytes = rf.payloadBits(lvl + 1 == nr) / 8.0;
            int best = -1;
            for (std::size_t u = 0; u < t.units.size(); ++u) {
                const UnitInfo& unit = t.units[u];
                if (unit.input != static_cast<int>(i))
                    continue;
                if (unit.boundLevel <= static_cast<int>(lvl) &&
                    (best < 0 ||
                     unit.boundLevel >
                         t.units[static_cast<std::size_t>(best)]
                             .boundLevel)) {
                    best = static_cast<int>(u);
                }
            }
            r.unit = best;
            if (best >= 0) {
                const UnitInfo& unit =
                    t.units[static_cast<std::size_t>(best)];
                r.absorbed = unit.eager &&
                             unit.boundLevel < static_cast<int>(lvl);
                r.unitIsCache = unit.isCache;
                r.unitEager = unit.eager;
                r.unitBoundLevel = unit.boundLevel;
            }
        }
    }

    // On-chip flags per consumer slot.
    for (const ir::TensorPlan& tp : plan.inputs)
        t.inputOnChip.push_back(on_chip.count(tp.name) != 0 ? 1 : 0);
    t.outputOnChip = on_chip.count(plan.output.name) != 0;

    // Output leaf element size.
    {
        const fmt::TensorFormat& tf =
            formats.getLenient(plan.output.name);
        const std::string leaf_rank =
            plan.output.productionOrder.empty()
                ? std::string("_S")
                : plan.output.productionOrder.back();
        const fmt::RankFormat& rf = tf.rankFormat(leaf_rank);
        t.outLeafBytes = (rf.coordBits() + rf.payloadBits(true) +
                          rf.headerBits()) /
                         8.0;
        if (rf.layout == fmt::RankFormat::Layout::Interleaved) {
            // Each linked-list append is its own DRAM transaction.
            t.outLineBytes =
                std::max(t.outLeafBytes, kInterleavedTransactionBytes);
        }
    }

    // ------------------------------------------- record classifier
    // A LoopEnter is order-dependent exactly when a buffet is drained
    // by that loop; a TensorAccess exactly when it routes to live
    // buffet/cache state (neither absorbed by an eager fill above nor
    // streamed past every unit).
    t.classifier.statefulLoopEnter.assign(plan.loops.size(), 0);
    for (const UnitInfo& unit : t.units) {
        if (!unit.isCache && unit.evictLoop >= 0 &&
            unit.evictLoop < static_cast<int>(plan.loops.size()))
            t.classifier.statefulLoopEnter[static_cast<std::size_t>(
                unit.evictLoop)] = 1;
    }
    t.classifier.statefulAccess.resize(plan.inputs.size());
    for (std::size_t i = 0; i < plan.inputs.size(); ++i) {
        const auto& lvls = t.routes[i];
        t.classifier.statefulAccess[i].assign(lvls.size(), 0);
        for (std::size_t lvl = 0; lvl < lvls.size(); ++lvl) {
            if (lvls[lvl].unit >= 0 && !lvls[lvl].absorbed)
                t.classifier.statefulAccess[i][lvl] = 1;
        }
    }

    return t;
}

} // namespace teaal::model
