/**
 * @file
 * Unit tests for the performance-model building blocks: buffer
 * simulators, fusion-block inference, component timing, the energy
 * tables, and the resolution of bound functional units.
 */
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <vector>

#include "binding/binding.hpp"
#include "compiler/pipeline.hpp"
#include "energy/energy.hpp"
#include "mapping/mapping.hpp"
#include "model/buffer_sim.hpp"
#include "model/perf.hpp"
#include "model/tables.hpp"
#include "workloads/datasets.hpp"
#include "yaml/yaml.hpp"

namespace teaal::model
{
namespace
{

// ------------------------------------------------------------ LruCache

TEST(LruCache, HitsAfterFill)
{
    LruCache cache(1024);
    int a, b;
    EXPECT_FALSE(cache.access(&a, 100));
    EXPECT_TRUE(cache.access(&a, 100));
    EXPECT_FALSE(cache.access(&b, 100));
    EXPECT_TRUE(cache.access(&a, 100));
    EXPECT_EQ(cache.counters().hits, 2u);
    EXPECT_EQ(cache.counters().misses, 2u);
    EXPECT_DOUBLE_EQ(cache.counters().fillBytes, 200);
    EXPECT_DOUBLE_EQ(cache.counters().accessBytes, 400);
}

TEST(LruCache, EvictsLeastRecentlyUsed)
{
    LruCache cache(250);
    int a, b, c;
    cache.access(&a, 100);
    cache.access(&b, 100);
    cache.access(&a, 100); // a is now MRU
    cache.access(&c, 100); // evicts b
    EXPECT_TRUE(cache.access(&a, 100));
    EXPECT_TRUE(cache.access(&c, 100));
    EXPECT_FALSE(cache.access(&b, 100)); // b was the victim
}

TEST(LruCache, UnboundedNeverEvicts)
{
    LruCache cache(0);
    int keys[64];
    for (int& k : keys)
        cache.access(&k, 1e6);
    for (int& k : keys)
        EXPECT_TRUE(cache.access(&k, 1e6));
}

TEST(LruCache, ResetForgets)
{
    LruCache cache(1024);
    int a;
    cache.access(&a, 10);
    cache.reset();
    EXPECT_FALSE(cache.access(&a, 10));
}

// -------------------------------------------------------------- Buffet

TEST(Buffet, ReadFillsOncePerResidency)
{
    Buffet buf;
    EXPECT_FALSE(buf.read(1, 64));
    EXPECT_TRUE(buf.read(1, 64));
    EXPECT_DOUBLE_EQ(buf.counters().fillBytes, 64);
    buf.evictAll();
    EXPECT_FALSE(buf.read(1, 64));
    EXPECT_DOUBLE_EQ(buf.counters().fillBytes, 128);
}

TEST(Buffet, WriteDrainsOnEvict)
{
    Buffet buf;
    buf.write(7, 16, true);
    buf.write(7, 16, false); // same element: hit
    EXPECT_DOUBLE_EQ(buf.residentBytes(), 16);
    const auto drained = buf.evictAll();
    EXPECT_DOUBLE_EQ(drained.firstBytes, 16);
    EXPECT_DOUBLE_EQ(drained.againBytes, 0);
    EXPECT_DOUBLE_EQ(buf.counters().drainBytes, 16);
}

TEST(Buffet, RevisitAfterDrainIsPartialOutput)
{
    Buffet buf;
    buf.write(7, 16, true);
    buf.evictAll();
    // The revisit must report a partial-output re-fetch.
    EXPECT_TRUE(buf.write(7, 16, false));
    const auto drained = buf.evictAll();
    EXPECT_DOUBLE_EQ(drained.firstBytes, 0);
    EXPECT_DOUBLE_EQ(drained.againBytes, 16);
}

TEST(Buffet, ReadsAreDroppedNotDrained)
{
    Buffet buf;
    buf.read(3, 32);
    const auto drained = buf.evictAll();
    EXPECT_DOUBLE_EQ(drained.firstBytes + drained.againBytes, 0);
}

/**
 * The buffet as specified before writes carried the first-write bit:
 * one table of resident entries and a set of every key ever drained,
 * which decides revisits and splits first drains from re-drains.
 */
class ReferenceBuffet
{
  public:
    BufferCounters counters;
    double residentBytes = 0;

    bool
    read(std::uint64_t key, double bytes)
    {
        counters.accessBytes += bytes;
        if (!resident_.try_emplace(key, Entry{bytes, false}).second) {
            ++counters.hits;
            return true;
        }
        order_.push_back(key);
        ++counters.misses;
        counters.fillBytes += bytes;
        residentBytes += bytes;
        return false;
    }

    bool
    write(std::uint64_t key, double bytes)
    {
        counters.accessBytes += bytes;
        const auto [it, inserted] =
            resident_.try_emplace(key, Entry{bytes, true});
        if (!inserted) {
            it->second.written = true;
            ++counters.hits;
            return false;
        }
        order_.push_back(key);
        residentBytes += bytes;
        const bool revisit = everDrained_.count(key) != 0;
        if (revisit) {
            counters.fillBytes += bytes;
            ++counters.misses;
        }
        return revisit;
    }

    Buffet::DrainResult
    evictAll()
    {
        Buffet::DrainResult result;
        for (const std::uint64_t key : order_) {
            const Entry& e = resident_.at(key);
            if (!e.written)
                continue;
            counters.drainBytes += e.bytes;
            if (everDrained_.insert(key).second)
                result.firstBytes += e.bytes;
            else
                result.againBytes += e.bytes;
        }
        resident_.clear();
        order_.clear();
        residentBytes = 0;
        return result;
    }

  private:
    struct Entry
    {
        double bytes;
        bool written;
    };
    std::map<std::uint64_t, Entry> resident_;
    std::vector<std::uint64_t> order_; // insertion order
    std::set<std::uint64_t> everDrained_;
};

/** Seeded random read/write/evict sequences: the first-write-bit
 *  buffet must reproduce the reference's hits, revisits, drain split
 *  and counters at every step, including long runs before the first
 *  drain (where it keeps written entries as byte totals only). */
TEST(Buffet, FirstWriteBitMatchesEverDrainedReference)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng(seed);
        Buffet buf;
        ReferenceBuffet ref;
        std::set<std::uint64_t> written;
        // Small key pools force hits, revisits and re-drains; reads
        // and writes use disjoint keys (a buffet holds one tensor).
        const std::uint64_t write_keys = 4 + rng() % 60;
        const std::uint64_t read_keys = 1 + rng() % 40;
        // Every third seed holds the first eviction back for a long
        // run, so most writes land before any drain.
        const std::size_t quiet = seed % 3 == 0 ? 2000 : 0;
        const std::size_t evict_every = 8 + rng() % 200;
        for (std::size_t step = 0; step < 4000; ++step) {
            const double bytes = static_cast<double>(1 + rng() % 64) / 8;
            const std::uint64_t op = rng() % evict_every;
            if (op == 0 && step >= quiet) {
                const auto got = buf.evictAll();
                const auto want = ref.evictAll();
                ASSERT_EQ(got.firstBytes, want.firstBytes) << step;
                ASSERT_EQ(got.againBytes, want.againBytes) << step;
            } else if (op % 3 == 1) {
                const std::uint64_t key = 1000 + rng() % read_keys;
                ASSERT_EQ(buf.read(key, bytes), ref.read(key, bytes))
                    << step;
            } else {
                const std::uint64_t key = rng() % write_keys;
                const bool first = written.insert(key).second;
                ASSERT_EQ(buf.write(key, bytes, first),
                          ref.write(key, bytes))
                    << step;
            }
            ASSERT_EQ(buf.residentBytes(), ref.residentBytes) << step;
        }
        const auto got = buf.evictAll();
        const auto want = ref.evictAll();
        EXPECT_EQ(got.firstBytes, want.firstBytes);
        EXPECT_EQ(got.againBytes, want.againBytes);
        const BufferCounters& c = buf.counters();
        EXPECT_EQ(c.hits, ref.counters.hits);
        EXPECT_EQ(c.misses, ref.counters.misses);
        EXPECT_EQ(c.accessBytes, ref.counters.accessBytes);
        EXPECT_EQ(c.fillBytes, ref.counters.fillBytes);
        EXPECT_EQ(c.drainBytes, ref.counters.drainBytes);
    }
}

// ------------------------------------------------------- fusion blocks

namespace
{

einsum::EinsumSpec
gammaEinsums()
{
    return einsum::EinsumSpec::parse(yaml::parse(
        "declaration:\n"
        "  A: [K, M]\n"
        "  B: [K, N]\n"
        "  T: [K, M, N]\n"
        "  Z: [M, N]\n"
        "expressions:\n"
        "  - T[k, m, n] = take(A[k, m], B[k, n], 1)\n"
        "  - Z[m, n] = T[k, m, n] * A[k, m]\n"));
}

mapping::MappingSpec
gammaMapping()
{
    return mapping::MappingSpec::parse(yaml::parse(
        "loop-order:\n"
        "  T: [M1, M0, K1, K0, N]\n"
        "  Z: [M1, M0, K1, N, K0]\n"
        "spacetime:\n"
        "  T:\n"
        "    space: [M0, K1]\n"
        "    time: [M1, K0, N]\n"
        "  Z:\n"
        "    space: [M0, K1]\n"
        "    time: [M1, N, K0]\n"));
}

} // namespace

TEST(Fusion, GammaEinsumsFuse)
{
    // Same (empty) topology, equal temporal prefix [M1], disjoint
    // non-storage components -> one block (paper §5 "the two Einsums
    // in the cascade are fused").
    const auto blocks = inferBlocks(gammaEinsums(), gammaMapping(),
                                    binding::BindingSpec());
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0], (std::vector<std::size_t>{0, 1}));
}

TEST(Fusion, DifferentTopologiesDoNotFuse)
{
    // OuterSPACE reorganizes between phases: no fusion.
    binding::BindingSpec bindings;
    binding::EinsumBinding t;
    t.topology = "Multiply";
    binding::EinsumBinding z;
    z.topology = "Merge";
    bindings.setEinsum("T", t);
    bindings.setEinsum("Z", z);
    const auto blocks =
        inferBlocks(gammaEinsums(), gammaMapping(), bindings);
    ASSERT_EQ(blocks.size(), 2u);
}

TEST(Fusion, DifferentTemporalPrefixDoesNotFuse)
{
    // Built manually: T's loop order starts [K1, ...] while Z's starts
    // [M1, ...], so the temporal prefixes differ.
    mapping::MappingSpec m2;
    {
        mapping::EinsumMapping t;
        t.loopOrder = {"K1", "M1", "M0", "K0", "N"};
        t.space = {{"M0", false}};
        t.time = {{"K1", false}, {"M1", false}, {"K0", false},
                  {"N", false}};
        mapping::EinsumMapping z;
        z.loopOrder = {"M1", "M0", "K1", "N", "K0"};
        z.space = {{"M0", false}};
        z.time = {{"M1", false}, {"K1", false}, {"N", false},
                  {"K0", false}};
        m2.setEinsum("T", t);
        m2.setEinsum("Z", z);
    }
    const auto blocks =
        inferBlocks(gammaEinsums(), m2, binding::BindingSpec());
    ASSERT_EQ(blocks.size(), 2u);
}

TEST(Fusion, SharedNonStorageComponentDoesNotFuse)
{
    binding::BindingSpec bindings;
    binding::EinsumBinding t;
    binding::ComponentBinding cb;
    cb.component = "ALU";
    cb.ops.push_back({"mul", ""});
    t.components.push_back(cb);
    bindings.setEinsum("T", t);
    bindings.setEinsum("Z", t); // same component bound to both
    const auto blocks =
        inferBlocks(gammaEinsums(), gammaMapping(), bindings);
    ASSERT_EQ(blocks.size(), 2u);
}

// ----------------------------------------------------- componentTimes

TEST(Perf, ComponentTimesUseBandwidthAndClock)
{
    arch::Topology topo;
    topo.name = "X";
    topo.clock = 2e9;
    topo.root.name = "Sys";
    arch::Component dram;
    dram.name = "DRAM0";
    dram.cls = arch::ComponentClass::DRAM;
    dram.attributes["bandwidth"] = "100"; // GB/s
    topo.root.local.push_back(dram);
    arch::Component alu;
    alu.name = "ALU";
    alu.cls = arch::ComponentClass::Compute;
    topo.root.local.push_back(alu);

    EinsumRecord record;
    record.clock = topo.clock;
    ComponentActions& d = record.components["DRAM0"];
    d.name = "DRAM0";
    d.cls = arch::ComponentClass::DRAM;
    d.counts["read_bytes"] = 50e9;
    d.counts["write_bytes"] = 50e9;
    ComponentActions& a = record.components["ALU"];
    a.name = "ALU";
    a.cls = arch::ComponentClass::Compute;
    a.perPe[0] = 4e9;

    const auto times = componentTimes(record, topo);
    EXPECT_DOUBLE_EQ(times.at("DRAM0"), 1.0); // 100 GB over 100 GB/s
    EXPECT_DOUBLE_EQ(times.at("ALU"), 2.0);   // 4e9 cycles at 2 GHz
}

TEST(Perf, AnalyzePicksBottleneckAndSumsBlocks)
{
    arch::ArchSpec arch_spec;
    arch::Topology topo;
    topo.name = "X";
    topo.clock = 1e9;
    topo.root.name = "Sys";
    arch::Component dram;
    dram.name = "DRAM0";
    dram.cls = arch::ComponentClass::DRAM;
    dram.attributes["bandwidth"] = "1";
    topo.root.local.push_back(dram);
    arch_spec.add(topo);

    EinsumRecord r1;
    r1.output = "T";
    r1.topologyName = "X";
    r1.clock = 1e9;
    r1.components["DRAM0"].name = "DRAM0";
    r1.components["DRAM0"].cls = arch::ComponentClass::DRAM;
    r1.components["DRAM0"].counts["read_bytes"] = 1e9; // 1 s
    EinsumRecord r2 = r1;
    r2.output = "Z";
    r2.components["DRAM0"].counts["read_bytes"] = 2e9; // 2 s

    // Separate blocks: total = 3 s.
    auto perf = analyze({r1, r2}, arch_spec, {{0}, {1}});
    EXPECT_DOUBLE_EQ(perf.totalSeconds, 3.0);
    EXPECT_EQ(perf.einsums[0].bottleneck, "DRAM0");
    // Fused: component sums -> still 3 s for a shared DRAM.
    perf = analyze({r1, r2}, arch_spec, {{0, 1}});
    EXPECT_DOUBLE_EQ(perf.totalSeconds, 3.0);
    EXPECT_EQ(perf.blocks[0].bottleneck, "DRAM0");
}

// --------------------------------------------------------------- energy

TEST(Energy, DramDominatesForTrafficHeavyRecords)
{
    arch::Topology topo;
    topo.name = "X";
    topo.root.name = "Sys";
    arch::Component dram;
    dram.name = "DRAM0";
    dram.cls = arch::ComponentClass::DRAM;
    topo.root.local.push_back(dram);
    arch::Component alu;
    alu.name = "ALU";
    alu.cls = arch::ComponentClass::Compute;
    topo.root.local.push_back(alu);

    EinsumRecord record;
    record.components["DRAM0"].name = "DRAM0";
    record.components["DRAM0"].cls = arch::ComponentClass::DRAM;
    record.components["DRAM0"].counts["read_bytes"] = 1e6;
    record.components["ALU"].name = "ALU";
    record.components["ALU"].cls = arch::ComponentClass::Compute;
    record.components["ALU"].counts["mul_ops"] = 1e6;

    const auto breakdown = energy::energyOf(record, topo);
    EXPECT_GT(breakdown.totalJoules, 0);
    EXPECT_GT(breakdown.byComponent.at("DRAM0"),
              breakdown.byComponent.at("ALU"));
}

TEST(Energy, BufferEnergyScalesWithCapacityClass)
{
    arch::Topology topo;
    topo.name = "X";
    topo.root.name = "Sys";
    arch::Component small;
    small.name = "SmallBuf";
    small.cls = arch::ComponentClass::Buffer;
    small.attributes["size"] = "1024";
    arch::Component large;
    large.name = "LargeBuf";
    large.cls = arch::ComponentClass::Buffer;
    large.attributes["size"] = "33554432";
    topo.root.local.push_back(small);
    topo.root.local.push_back(large);

    EinsumRecord record;
    for (const char* name : {"SmallBuf", "LargeBuf"}) {
        record.components[name].name = name;
        record.components[name].cls = arch::ComponentClass::Buffer;
        record.components[name].counts["access_bytes"] = 1e6;
    }
    const auto breakdown = energy::energyOf(record, topo);
    EXPECT_GT(breakdown.byComponent.at("LargeBuf"),
              breakdown.byComponent.at("SmallBuf"));
}

TEST(Energy, BreakdownAccumulates)
{
    energy::EnergyBreakdown a, b;
    a.byComponent["X"] = 1.0;
    a.totalJoules = 1.0;
    b.byComponent["X"] = 2.0;
    b.byComponent["Y"] = 3.0;
    b.totalJoules = 5.0;
    a += b;
    EXPECT_DOUBLE_EQ(a.totalJoules, 6.0);
    EXPECT_DOUBLE_EQ(a.byComponent["X"], 3.0);
    EXPECT_DOUBLE_EQ(a.byComponent["Y"], 3.0);
}

// ------------------------------------------- bound functional units

/**
 * An inner-product SpMSpM whose loop order (N, M, K) produces Z in
 * (N, M) order, so the run ends with an online swizzle the merger is
 * charged for. The topology declares two intersection units of
 * different types and two mergers of different radix; @p bind_first
 * binds the intersect and merge ops to the first of each instead of
 * the second, and @p only_bound drops the unbound pair.
 */
compiler::Specification
twoUnitSpec(bool bind_first, bool only_bound)
{
    std::string text = "einsum:\n"
                       "  declaration:\n"
                       "    A: [K, M]\n"
                       "    B: [K, N]\n"
                       "    Z: [M, N]\n"
                       "  expressions:\n"
                       "    - Z[m, n] = A[k, m] * B[k, n]\n"
                       "mapping:\n"
                       "  loop-order:\n"
                       "    Z: [N, M, K]\n"
                       "architecture:\n"
                       "  accel:\n"
                       "    subtree:\n"
                       "      - name: System\n"
                       "        local:\n"
                       "          - name: Memory\n"
                       "            class: DRAM\n"
                       "          - name: Mul\n"
                       "            class: compute\n";
    const auto unit = [&](const char* name, const char* cls,
                          const char* attr, const char* value) {
        text += std::string("          - name: ") + name + "\n" +
                "            class: " + cls + "\n" +
                "            attributes:\n" + "              " + attr +
                ": " + value + "\n";
    };
    if (bind_first || !only_bound) {
        unit("FingerIsect", "Intersection", "type", "two-finger");
        unit("NarrowMerger", "Merger", "comparator_radix", "2");
    }
    if (!bind_first || !only_bound) {
        unit("SkipIsect", "Intersection", "type", "skip-ahead");
        unit("WideMerger", "Merger", "comparator_radix", "64");
    }
    text += std::string("binding:\n"
                        "  Z:\n"
                        "    components:\n"
                        "      - component: ") +
            (bind_first ? "FingerIsect" : "SkipIsect") +
            "\n"
            "        bindings:\n"
            "          - op: intersect\n"
            "      - component: " +
            (bind_first ? "NarrowMerger" : "WideMerger") +
            "\n"
            "        bindings:\n"
            "          - op: merge\n"
            "            tensor: Z\n";
    return compiler::Specification::parse(text);
}

/** The bound units' rows of @p r: intersection steps, matches and
 *  cycles, then merger elements. */
std::vector<double>
boundUnitCounts(const EinsumRecord& r, bool bind_first)
{
    const ComponentActions& isect =
        r.components.at(bind_first ? "FingerIsect" : "SkipIsect");
    const ComponentActions& merger =
        r.components.at(bind_first ? "NarrowMerger" : "WideMerger");
    return {isect.count("steps"), isect.count("matches"),
            isect.count("cycles"), merger.count("merge_elems")};
}

/** Both model tiers charge the intersection type and merger radix of
 *  the unit an op is bound to, not of the first unit of its class in
 *  the topology: binding the second of two units gives exactly the
 *  counts of a topology holding only that unit. */
TEST(BoundUnits, IntersectionTypeAndMergerRadixFollowTheBinding)
{
    compiler::Workload w;
    w.add("A", workloads::uniformMatrix("A", 40, 32, 300, 7, {"K", "M"}))
        .add("B",
             workloads::uniformMatrix("B", 40, 36, 300, 8, {"K", "N"}));

    auto second = compiler::compile(twoUnitSpec(false, false));
    auto alone = compiler::compile(twoUnitSpec(false, true));
    auto first = compiler::compile(twoUnitSpec(true, false));

    // Trace tier.
    const auto traced = [&](compiler::CompiledModel& m, bool bind_first) {
        const compiler::SimulationResult r = m.run(w);
        return boundUnitCounts(r.records.at(0), bind_first);
    };
    const std::vector<double> t_second = traced(second, false);
    const std::vector<double> t_alone = traced(alone, false);
    const std::vector<double> t_first = traced(first, true);
    EXPECT_EQ(t_second, t_alone);
    EXPECT_GT(t_second[1], 0); // the walk intersected
    EXPECT_EQ(t_second[2],
              isectCycles(IsectType::SkipAhead, t_second[0],
                          t_second[1]));
    // The data tell the two units apart.
    EXPECT_NE(t_second[2], t_first[2]);
    EXPECT_NE(t_second[3], t_first[3]);

    // Analytic tier.
    const auto estimated = [&](compiler::CompiledModel& m,
                               bool bind_first) {
        return boundUnitCounts(m.estimate(w).records.at(0), bind_first);
    };
    const std::vector<double> a_second = estimated(second, false);
    EXPECT_EQ(a_second, estimated(alone, false));
    EXPECT_EQ(a_second[2],
              isectCycles(IsectType::SkipAhead, a_second[0],
                          a_second[1]));
    const std::vector<double> a_first = estimated(first, true);
    EXPECT_NE(a_second[2], a_first[2]);
    EXPECT_NE(a_second[3], a_first[3]);
}

} // namespace
} // namespace teaal::model
