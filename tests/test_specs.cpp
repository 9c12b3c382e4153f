/**
 * @file
 * Unit tests for the mapping, format, architecture, and binding
 * specification layers (paper §4.1).
 */
#include <gtest/gtest.h>

#include "arch/arch.hpp"
#include "binding/binding.hpp"
#include "format/format.hpp"
#include "mapping/mapping.hpp"
#include "util/error.hpp"
#include "yaml/yaml.hpp"

namespace teaal
{
namespace
{

// ---------------------------------------------------------------- mapping

TEST(Mapping, ParseDirectives)
{
    mapping::ParamMap params{{"K1", 64}};
    const auto flat =
        mapping::PartitionDirective::parse("flatten()", params);
    EXPECT_EQ(flat.kind, mapping::PartitionDirective::Kind::Flatten);

    const auto shape =
        mapping::PartitionDirective::parse("uniform_shape(128)", params);
    EXPECT_EQ(shape.kind,
              mapping::PartitionDirective::Kind::UniformShape);
    EXPECT_EQ(shape.tile, 128);

    const auto sym =
        mapping::PartitionDirective::parse("uniform_shape(K1)", params);
    EXPECT_EQ(sym.tile, 64);

    const auto occ = mapping::PartitionDirective::parse(
        "uniform_occupancy(A.256)", params);
    EXPECT_EQ(occ.kind,
              mapping::PartitionDirective::Kind::UniformOccupancy);
    EXPECT_EQ(occ.leader, "A");
    EXPECT_EQ(occ.chunk, 256u);
}

TEST(Mapping, DirectiveErrors)
{
    mapping::ParamMap params;
    EXPECT_THROW(mapping::PartitionDirective::parse("bogus(1)", params),
                 SpecError);
    EXPECT_THROW(
        mapping::PartitionDirective::parse("uniform_shape(K9)", params),
        SpecError);
    EXPECT_THROW(mapping::PartitionDirective::parse(
                     "uniform_occupancy(A256)", params),
                 SpecError);
    EXPECT_THROW(
        mapping::PartitionDirective::parse("uniform_shape(0)", params),
        SpecError);
}

TEST(Mapping, ResultRankNames)
{
    mapping::RankPartitioning one;
    one.sourceRanks = {"K"};
    one.directives = {mapping::PartitionDirective::parse(
        "uniform_shape(4)", {})};
    EXPECT_EQ(one.resultRanks(),
              (std::vector<std::string>{"K1", "K0"}));

    mapping::RankPartitioning two;
    two.sourceRanks = {"K"};
    two.directives = {
        mapping::PartitionDirective::parse("uniform_shape(16)", {}),
        mapping::PartitionDirective::parse("uniform_shape(4)", {})};
    EXPECT_EQ(two.resultRanks(),
              (std::vector<std::string>{"K2", "K1", "K0"}));

    mapping::RankPartitioning flat;
    flat.sourceRanks = {"K", "M"};
    flat.directives = {
        mapping::PartitionDirective::parse("flatten()", {})};
    EXPECT_TRUE(flat.flattenOnly());
    EXPECT_EQ(flat.baseRank(), "KM");
    EXPECT_EQ(flat.resultRanks(), (std::vector<std::string>{"KM"}));

    // SIGMA's MK0 partitioned by occupancy -> MK01, MK00.
    mapping::RankPartitioning nested;
    nested.sourceRanks = {"MK0"};
    nested.directives = {mapping::PartitionDirective::parse(
        "uniform_occupancy(T.16384)", {})};
    EXPECT_EQ(nested.resultRanks(),
              (std::vector<std::string>{"MK01", "MK00"}));
}

TEST(Mapping, BaseOfDerivedStripsEveryTrailingDigit)
{
    EXPECT_EQ(mapping::baseOfDerived("K0"), "K");
    EXPECT_EQ(mapping::baseOfDerived("KM2"), "KM");
    EXPECT_EQ(mapping::baseOfDerived("MK01"), "MK");
    EXPECT_EQ(mapping::baseOfDerived("N1"), "N");
    EXPECT_EQ(mapping::baseOfDerived("K"), "K");
}

TEST(Mapping, ParseOuterSpaceFigure3)
{
    const std::string text =
        "rank-order:\n"
        "  A: [K, M]\n"
        "  T: [M, K, N]\n"
        "partitioning:\n"
        "  T:\n"
        "    (K, M): [flatten()]\n"
        "    KM: [uniform_occupancy(A.256), uniform_occupancy(A.16)]\n"
        "  Z:\n"
        "    M: [uniform_occupancy(T.128), uniform_occupancy(T.8)]\n"
        "loop-order:\n"
        "  T: [KM2, KM1, KM0, N]\n"
        "  Z: [M2, M1, M0, N, K]\n"
        "spacetime:\n"
        "  T:\n"
        "    space: [KM1, KM0]\n"
        "    time: [KM2, N]\n"
        "  Z:\n"
        "    space: [M1, M0]\n"
        "    time: [M2, N, K]\n";
    const auto spec = mapping::MappingSpec::parse(yaml::parse(text));
    EXPECT_EQ(spec.rankOrder("A"), (std::vector<std::string>{"K", "M"}));
    EXPECT_EQ(spec.rankOrder("T"),
              (std::vector<std::string>{"M", "K", "N"}));
    EXPECT_TRUE(spec.rankOrder("Q").empty());

    const auto& t = spec.einsum("T");
    ASSERT_EQ(t.partitioning.size(), 2u);
    EXPECT_EQ(t.partitioning[0].baseRank(), "KM");
    EXPECT_TRUE(t.partitioning[0].flattenOnly());
    EXPECT_EQ(t.partitioning[1].resultRanks(),
              (std::vector<std::string>{"KM2", "KM1", "KM0"}));
    EXPECT_EQ(t.loopOrder,
              (std::vector<std::string>{"KM2", "KM1", "KM0", "N"}));
    ASSERT_EQ(t.space.size(), 2u);
    EXPECT_EQ(t.space[0].rank, "KM1");
    EXPECT_EQ(t.time[0].rank, "KM2");

    const auto* group = t.groupFor("KM");
    ASSERT_NE(group, nullptr);
    EXPECT_EQ(group->baseRank(), "KM");
}

TEST(Mapping, SpacetimeMustCoverLoopOrder)
{
    const std::string text = "loop-order:\n"
                             "  Z: [M, N, K]\n"
                             "spacetime:\n"
                             "  Z:\n"
                             "    space: [M]\n"
                             "    time: [N]\n";
    EXPECT_THROW(mapping::MappingSpec::parse(yaml::parse(text)),
                 SpecError);
}

TEST(Mapping, CoordTagParsed)
{
    const auto e = mapping::SpaceTimeEntry::parse("N.coord");
    EXPECT_EQ(e.rank, "N");
    EXPECT_TRUE(e.coordSpace);
    const auto f = mapping::SpaceTimeEntry::parse("K1");
    EXPECT_FALSE(f.coordSpace);
}

TEST(Mapping, TuplePartitioningRequiresFlatten)
{
    const std::string text =
        "partitioning:\n"
        "  T:\n"
        "    (K, M): [uniform_shape(4)]\n";
    EXPECT_THROW(mapping::MappingSpec::parse(yaml::parse(text)),
                 SpecError);
}

// ----------------------------------------------------------------- format

TEST(Format, ParseOuterSpaceLinkedLists)
{
    // Paper Figure 5b.
    const std::string text = "T:\n"
                             "  LinkedLists:\n"
                             "    M:\n"
                             "      format: U\n"
                             "      pbits: 32\n"
                             "    K:\n"
                             "      format: C\n"
                             "    N:\n"
                             "      format: C\n"
                             "      fhbits: 32\n"
                             "      layout: interleaved\n"
                             "      cbits: 32\n"
                             "      pbits: 64\n";
    const auto spec = fmt::FormatSpec::parse(yaml::parse(text));
    ASSERT_TRUE(spec.hasTensor("T"));
    const auto& tf = spec.get("T", "LinkedLists");
    EXPECT_EQ(tf.rankFormat("M").type, fmt::RankFormat::Type::U);
    EXPECT_EQ(tf.rankFormat("M").payloadBits(false), 32);
    EXPECT_EQ(tf.rankFormat("N").layout,
              fmt::RankFormat::Layout::Interleaved);
    EXPECT_EQ(tf.rankFormat("N").headerBits(), 32);
    // Partitioned rank falls back to its base.
    EXPECT_EQ(tf.rankFormat("N0").headerBits(), 32);
}

TEST(Format, DefaultsPerType)
{
    fmt::RankFormat u;
    u.type = fmt::RankFormat::Type::U;
    EXPECT_EQ(u.coordBits(), 0);
    fmt::RankFormat c;
    EXPECT_EQ(c.coordBits(), 32);
    EXPECT_EQ(c.payloadBits(true), 64);
    EXPECT_EQ(c.payloadBits(false), 32);
    fmt::RankFormat b;
    b.type = fmt::RankFormat::Type::B;
    EXPECT_EQ(b.coordBits(), 1);
}

TEST(Format, FiberBitsByType)
{
    fmt::RankFormat c; // compressed, defaults: 32c + 64p at leaf
    EXPECT_EQ(fmt::fiberBits(c, 10, 1000, true), 10u * (32 + 64));
    fmt::RankFormat u;
    u.type = fmt::RankFormat::Type::U;
    u.pbits = 32;
    // Uncompressed: sized by shape regardless of occupancy.
    EXPECT_EQ(fmt::fiberBits(u, 10, 100, false), 100u * 32);
    fmt::RankFormat b;
    b.type = fmt::RankFormat::Type::B;
    b.pbits = 64;
    EXPECT_EQ(fmt::fiberBits(b, 10, 100, true), 100u * 1 + 10u * 64);
}

TEST(Format, TensorBitsCsrLike)
{
    // 2x4 matrix [M, K], 3 nnz, CSR-like: U row pointers + C columns.
    const auto t = ft::Tensor::fromCoo(
        "A", {"M", "K"}, {2, 4},
        {{{0, 1}, 1.0}, {{0, 3}, 2.0}, {{1, 2}, 3.0}});
    fmt::TensorFormat tf;
    tf.config = "CSR";
    fmt::RankFormat rows;
    rows.type = fmt::RankFormat::Type::U;
    rows.pbits = 32;
    fmt::RankFormat cols;
    cols.type = fmt::RankFormat::Type::C;
    cols.cbits = 32;
    cols.pbits = 64;
    tf.ranks["M"] = rows;
    tf.ranks["K"] = cols;
    // M rank: 2 (shape) * 32; K rank: 3 nnz * (32 + 64).
    EXPECT_EQ(fmt::tensorBits(tf, t), 2u * 32 + 3u * 96);
}

TEST(Format, SubtreeBitsForEagerLoads)
{
    const auto t = ft::Tensor::fromCoo(
        "A", {"M", "K"}, {2, 4},
        {{{0, 1}, 1.0}, {{0, 3}, 2.0}, {{1, 2}, 3.0}});
    fmt::TensorFormat tf; // all-default compressed
    const auto& root = *t.root();
    // Subtree under M=0: a K fiber with 2 leaves: 2 * (32 + 64).
    const auto pos = root.find(0);
    ASSERT_TRUE(pos.has_value());
    EXPECT_EQ(fmt::subtreeBits(tf, t.rankIds(), root.payloadAt(*pos), 1),
              2u * 96);
}

TEST(Format, MissingTensorGetsDefault)
{
    fmt::FormatSpec spec;
    const auto& tf = spec.get("Unknown");
    EXPECT_EQ(tf.config, "default");
    EXPECT_EQ(tf.rankFormat("X").coordBits(), 32);
}

TEST(Format, AmbiguousConfigThrows)
{
    fmt::FormatSpec spec;
    fmt::TensorFormat a;
    a.config = "one";
    fmt::TensorFormat b;
    b.config = "two";
    spec.add("T", a);
    spec.add("T", b);
    EXPECT_THROW(spec.get("T"), SpecError);
    EXPECT_NO_THROW(spec.get("T", "one"));
    EXPECT_THROW(spec.get("T", "three"), SpecError);
}

// ------------------------------------------------------------------- arch

namespace
{

const char* kOuterSpaceMergeArch = R"(
Merge:
  clock: 1.5e9
  subtree:
    - name: System
      local:
        - name: HBM
          class: DRAM
          attributes:
            bandwidth: 128
      subtree:
        - name: PT
          num: 16
          local:
            - name: L0Cache
              class: Buffer
              attributes:
                type: cache
                width: 64
                depth: 2048
          subtree:
            - name: PE
              num: 8
              local:
                - name: ALU
                  class: Compute
                  attributes:
                    type: add
)";

} // namespace

TEST(Arch, ParseHierarchy)
{
    const auto spec = arch::ArchSpec::parse(yaml::parse(
        kOuterSpaceMergeArch));
    const auto& topo = spec.topology("Merge");
    EXPECT_DOUBLE_EQ(topo.clock, 1.5e9);
    EXPECT_EQ(topo.root.name, "System");
    long instances = 0;
    const auto* alu = topo.findComponent("ALU", &instances);
    ASSERT_NE(alu, nullptr);
    EXPECT_EQ(alu->cls, arch::ComponentClass::Compute);
    EXPECT_EQ(instances, 16 * 8);
    const auto* cache = topo.findComponent("L0Cache", &instances);
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(instances, 16);
    EXPECT_EQ(cache->attrString("type", ""), "cache");
    EXPECT_EQ(cache->attrLong("depth", 0), 2048);
    EXPECT_EQ(topo.findComponent("nonexistent"), nullptr);
}

TEST(Arch, AllComponentsEnumerated)
{
    const auto spec = arch::ArchSpec::parse(yaml::parse(
        kOuterSpaceMergeArch));
    const auto all = spec.topology("Merge").allComponents();
    EXPECT_EQ(all.size(), 3u);
}

TEST(Arch, AttributeAccessors)
{
    arch::Component c;
    c.name = "M";
    c.attributes["bandwidth"] = "68.256";
    EXPECT_DOUBLE_EQ(c.attrDouble("bandwidth", 0), 68.256);
    EXPECT_DOUBLE_EQ(c.attrDouble("missing", 1.5), 1.5);
    EXPECT_DOUBLE_EQ(c.requireDouble("bandwidth"), 68.256);
    EXPECT_THROW(c.requireDouble("missing"), SpecError);
}

TEST(Arch, ClassNames)
{
    EXPECT_EQ(arch::componentClassFromString("dram"),
              arch::ComponentClass::DRAM);
    EXPECT_EQ(arch::componentClassFromString("Merger"),
              arch::ComponentClass::Merger);
    EXPECT_THROW(arch::componentClassFromString("gpu"), SpecError);
    EXPECT_EQ(arch::componentClassName(arch::ComponentClass::Buffer),
              "Buffer");
}

TEST(Arch, SingleTopologyDefaultLookup)
{
    const auto spec = arch::ArchSpec::parse(yaml::parse(
        kOuterSpaceMergeArch));
    EXPECT_EQ(spec.topology().name, "Merge");
    EXPECT_EQ(spec.topologyNames(),
              (std::vector<std::string>{"Merge"}));
}

// ---------------------------------------------------------------- binding

TEST(Binding, ParseStorageAndOps)
{
    const std::string text = "Z:\n"
                             "  config: Merge\n"
                             "  components:\n"
                             "    - component: L0Cache\n"
                             "      bindings:\n"
                             "        - tensor: T\n"
                             "          config: LinkedLists\n"
                             "          rank: N\n"
                             "          type: elem\n"
                             "          style: lazy\n"
                             "          evict-on: M\n"
                             "    - component: ALU\n"
                             "      bindings:\n"
                             "        - op: add\n";
    const auto spec = binding::BindingSpec::parse(yaml::parse(text));
    ASSERT_TRUE(spec.hasEinsum("Z"));
    const auto& eb = spec.einsum("Z");
    EXPECT_EQ(eb.topology, "Merge");
    const auto* cache = eb.findComponent("L0Cache");
    ASSERT_NE(cache, nullptr);
    ASSERT_EQ(cache->storage.size(), 1u);
    EXPECT_EQ(cache->storage[0].tensor, "T");
    EXPECT_EQ(cache->storage[0].config, "LinkedLists");
    EXPECT_EQ(cache->storage[0].rank, "N");
    EXPECT_EQ(cache->storage[0].type, binding::DataType::Elem);
    EXPECT_EQ(cache->storage[0].style, binding::Style::Lazy);
    EXPECT_EQ(cache->storage[0].evictOn, "M");
    const auto* alu = eb.findComponent("ALU");
    ASSERT_NE(alu, nullptr);
    ASSERT_EQ(alu->ops.size(), 1u);
    EXPECT_EQ(alu->ops[0].op, "add");
    EXPECT_EQ(eb.findComponent("zzz"), nullptr);
}

TEST(Binding, DefaultsWhenAbsent)
{
    binding::BindingSpec spec;
    EXPECT_FALSE(spec.hasEinsum("Q"));
    EXPECT_TRUE(spec.einsum("Q").components.empty());
}

TEST(Binding, BadEnumsThrow)
{
    const std::string text = "Z:\n"
                             "  components:\n"
                             "    - component: X\n"
                             "      bindings:\n"
                             "        - tensor: T\n"
                             "          type: bogus\n";
    EXPECT_THROW(binding::BindingSpec::parse(yaml::parse(text)),
                 SpecError);
}

} // namespace
} // namespace teaal
