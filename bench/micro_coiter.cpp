/**
 * @file
 * Co-iteration strategy microbenchmark: two-finger vs gallop vs
 * dense-drive on uniform and skewed fiber pairs, at the strategy layer
 * (raw walks) and through the full engine (planned vs forced).
 *
 * The headline row is the skewed case (one driver >= 32x denser):
 * galloping intersection must beat the two-finger merge there, since
 * the sparse leader's binary-search leaps skip runs of the dense
 * fiber that two-finger walks element by element.
 *
 * Emits the human table plus bench::jsonRow machine-readable lines.
 */
#include <iostream>
#include <vector>

#include "common.hpp"
#include "compiler/pipeline.hpp"
#include "exec/coiter_strategy.hpp"
#include "exec/executor.hpp"
#include "ir/plan.hpp"
#include "util/random.hpp"

namespace
{

using namespace teaal;

/** Up to @p nnz ascending random coordinates in [0, @p space). */
std::vector<ft::Coord>
randomCoords(std::size_t nnz, ft::Coord space, std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    std::vector<ft::Coord> crd;
    crd.reserve(nnz);
    const auto gap = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(space) / nnz);
    ft::Coord c = 0;
    for (std::size_t i = 0; i < nnz; ++i) {
        c += 1 + static_cast<ft::Coord>(rng.below(2 * gap - 1));
        if (c >= space)
            break; // keep every coordinate in [0, shape)
        crd.push_back(c);
    }
    return crd;
}

/** A view of the whole coordinate array @p crd, of shape @p space. */
ft::FiberView
coordView(const std::vector<ft::Coord>& crd, ft::Coord space)
{
    ft::FiberView v;
    v.crd = crd.data();
    v.hi = crd.size();
    v.shapeHint = space;
    return v;
}

struct WalkResult
{
    double seconds = 0;
    std::size_t matches = 0;
};

WalkResult
timeStrategy(ir::CoiterStrategy s, const std::vector<ft::FiberView>& views,
             int iters)
{
    std::vector<std::size_t> pos(2), scans(2);
    std::vector<bool> present(2);
    WalkResult r;
    auto run = [&]() {
        std::size_t matches = 0;
        pos[0] = views[0].lo;
        pos[1] = views[1].lo;
        scans.assign(2, 0);
        switch (s) {
          case ir::CoiterStrategy::TwoFinger:
            exec::intersectTwoFinger(views, pos, scans,
                                     [&](ft::Coord) {
                                         ++matches;
                                         return true;
                                     });
            break;
          case ir::CoiterStrategy::Gallop: {
            const std::size_t lead =
                views[0].size() <= views[1].size() ? 0 : 1;
            exec::gallopIntersect(
                views[lead], views[1 - lead], scans[lead],
                scans[1 - lead],
                [&](ft::Coord, std::size_t, std::size_t) {
                    ++matches;
                    return true;
                });
            break;
          }
          case ir::CoiterStrategy::DenseDrive: {
            const ft::Coord extent =
                std::max(views[0].shape(), views[1].shape());
            exec::denseProbe(views, extent, false, pos, scans, present,
                             [&](ft::Coord) {
                                 ++matches;
                                 return true;
                             });
            break;
          }
        }
        r.matches = matches;
    };
    r.seconds = bench::bestSeconds(run, iters);
    return r;
}

/** Engine-level: SpMSpM with the K loop forced to each strategy via
 *  ExecOptions overrides — the shared plan is never copied or
 *  mutated, exactly how RunOptions::coiterOverrides ablates a
 *  compiled model. */
double
timeEngine(const ir::EinsumPlan& plan, ir::CoiterStrategy s, int iters)
{
    exec::ExecOptions opts;
    for (const ir::LoopRank& lr : plan.loops) {
        if (!lr.isUpperPartition)
            opts.coiterOverrides[lr.name] = s;
    }
    return bench::bestSeconds(
        [&]() {
            trace::Observer obs;
            exec::Executor ex(plan, obs, exec::Semiring::arithmetic(),
                              opts);
            ex.run();
        },
        iters);
}

} // namespace

int
main()
{
    using namespace teaal;

    std::cout << "# micro_coiter: co-iteration strategy comparison\n"
              << "# skewed case: one driver >= 32x denser; gallop must "
                 "win there\n\n";

    struct Case
    {
        std::string name;
        std::size_t nnzA;
        std::size_t nnzB;
    };
    const ft::Coord space = 1 << 20;
    const std::vector<Case> cases{
        {"uniform", 1u << 16, 1u << 16},
        {"skewed32x", 1u << 16, 1u << 11},
        {"skewed128x", 1u << 17, 1u << 10},
    };

    TextTable table("raw 2-fiber intersection walks");
    table.setHeader({"case", "strategy", "matches", "us/walk",
                     "vs 2finger"});
    for (const Case& c : cases) {
        const std::vector<ft::Coord> ca = randomCoords(c.nnzA, space, 7);
        const std::vector<ft::Coord> cb = randomCoords(c.nnzB, space, 9);
        const std::vector<ft::FiberView> views{coordView(ca, space),
                                               coordView(cb, space)};
        const WalkResult two =
            timeStrategy(ir::CoiterStrategy::TwoFinger, views, 20);
        for (const auto s :
             {ir::CoiterStrategy::TwoFinger, ir::CoiterStrategy::Gallop,
              ir::CoiterStrategy::DenseDrive}) {
            // Dense probing a 1M-coordinate space is deliberately
            // included: it shows why the planner never picks it for
            // sparse drivers.
            const int iters =
                s == ir::CoiterStrategy::DenseDrive ? 3 : 20;
            const WalkResult r = timeStrategy(s, views, iters);
            const double speedup = two.seconds / r.seconds;
            table.addRow({c.name, ir::coiterStrategyName(s),
                          std::to_string(r.matches),
                          TextTable::num(r.seconds * 1e6, 1),
                          TextTable::num(speedup, 2) + "x"});
            bench::jsonRow(
                std::cout, "micro_coiter",
                {{"case", c.name},
                 {"strategy", ir::coiterStrategyName(s)}},
                {{"matches", static_cast<double>(r.matches)},
                 {"us_per_walk", r.seconds * 1e6},
                 {"speedup_vs_two_finger", speedup}},
                /*threads=*/1, /*wall_ms=*/r.seconds * 1e3);
        }
    }
    std::cout << "\n" << table.render() << "\n";

    // ---------------------------------------- engine-level comparison
    // SpMSpM where A's K fibers are dense and B's are sparse: the
    // planner picks gallop for the K loop on its own. Note the forced
    // TwoFinger row still benefits from the engine's runtime
    // leader-follower escape (>= 8x size skew per fiber pair), so the
    // end-to-end gap is smaller than the raw-walk gap above — the raw
    // table is the pure merge-vs-gallop comparison.
    const ft::Tensor a = workloads::uniformMatrix("A", 1 << 11, 256,
                                                  220000, 21, {"K", "M"});
    const ft::Tensor b = workloads::uniformMatrix("B", 1 << 11, 256, 6000,
                                                  23, {"K", "N"});
    const char* yaml_text = "einsum:\n"
                            "  declaration:\n"
                            "    A: [K, M]\n"
                            "    B: [K, N]\n"
                            "    Z: [M, N]\n"
                            "  expressions:\n"
                            "    - Z[m, n] = A[k, m] * B[k, n]\n";
    auto model =
        compiler::compile(compiler::Specification::parse(yaml_text));
    compiler::Workload w;
    w.add("A", a).add("B", b);
    const ir::EinsumPlan& plan = model.plans(w)[0];

    std::string planned = "2finger";
    for (const ir::LoopRank& lr : plan.loops) {
        if (lr.coiter == ir::CoiterStrategy::Gallop)
            planned = "gallop";
    }

    TextTable engine_table("engine SpMSpM (skewed drivers), K forced");
    engine_table.setHeader({"strategy", "ms/run", "vs 2finger"});
    const double two =
        timeEngine(plan, ir::CoiterStrategy::TwoFinger, 5);
    for (const auto s : {ir::CoiterStrategy::TwoFinger,
                         ir::CoiterStrategy::Gallop}) {
        const double secs = timeEngine(plan, s, 5);
        engine_table.addRow({ir::coiterStrategyName(s),
                             TextTable::num(secs * 1e3, 2),
                             TextTable::num(two / secs, 2) + "x"});
        bench::jsonRow(std::cout, "micro_coiter_engine",
                       {{"strategy", ir::coiterStrategyName(s)},
                        {"planned", planned}},
                       {{"ms_per_run", secs * 1e3},
                        {"speedup_vs_two_finger", two / secs}},
                       /*threads=*/1, /*wall_ms=*/secs * 1e3);
    }
    std::cout << "\n"
              << engine_table.render() << "\nplanner selected: " << planned
              << " for the skewed K loop\n";
    return 0;
}
