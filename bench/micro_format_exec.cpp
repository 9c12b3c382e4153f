/**
 * @file
 * Format-aware execution microbenchmark: the same Gamma-dataflow
 * SpMSpM (row-wise Gustavson loop order M, K, N) executed over
 * pointer fibertrees vs packed rank stores (storage/packed.hpp).
 *
 * Both backends run the identical plan, strategies, and trace stream;
 * the packed walk reads flat coordinate/segment arrays instead of
 * chasing per-fiber allocations, so its advantage is pure memory
 * locality. The headline row reports the packed:pointer wall-time
 * ratio; the bench also verifies the two backends' outputs are equal
 * and that the packed bind performs zero Tensor::clone() calls.
 *
 * Emits the human table plus bench::jsonRow machine-readable lines
 * (keyed by backend + threads) for ci/perf_diff.py.
 */
#include <iostream>

#include "common.hpp"
#include "exec/executor.hpp"
#include "ir/plan.hpp"
#include "storage/packed.hpp"

namespace
{

using namespace teaal;

/** Batch-aware no-op sink: absorbs whole batches so the bench times
 *  the walk, not per-event virtual dispatch. */
class NullSink : public trace::Observer
{
  public:
    void
    onEventBatch(const trace::EventBatch& batch) override
    {
        (void)batch;
    }
};

/** No-op datapath sink: drops the records the bus routes to it. */
class NullDatapath final : public trace::DatapathSink
{
  public:
    void coIterate(std::size_t, std::size_t, std::size_t,
                   std::uint64_t) override {}
    void coordScan(int, std::size_t, std::size_t) override {}
    void compute(char, std::uint64_t, std::size_t) override {}
    void tensorAccess(int, std::size_t) override {}
};

double
timeRun(const ir::EinsumPlan& plan, unsigned threads, int iters)
{
    // Model hooks with a default classifier and no-op sinks: the
    // executor shards only when hooks are set. The sinks drop the
    // datapath records; NullDatapath has no state, so the shards can
    // all share one.
    const trace::RecordClassifier classifier;
    NullDatapath datapath;
    exec::ExecOptions opts;
    opts.threads = threads;
    opts.modelHooks.classifier = &classifier;
    opts.modelHooks.coordinatorSink = &datapath;
    opts.modelHooks.makeShardSinks = [&datapath](std::size_t shards) {
        return std::vector<trace::DatapathSink*>(shards, &datapath);
    };
    return bench::bestSeconds(
        [&]() {
            NullSink sink;
            exec::Executor ex(plan, sink, exec::Semiring::arithmetic(),
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

    std::cout
        << "# micro_format_exec: packed rank stores vs pointer "
           "fibertrees\n"
        << "# Gamma-dataflow SpMSpM (loop order M, K, N), identical "
           "plans and trace streams on both backends\n\n";

    // Row-major Gustavson: A [M, K] drives rows, B [K, N] is fetched
    // row by row. A hyper-sparse B (256k rows of ~4 nonzeros, tree
    // larger than the LLC) makes the per-row descend the hot path:
    // the pointer tree dereferences one heap allocation per fetched
    // row, the packed store reads two contiguous segment entries —
    // the shape real Gustavson SpMSpM has on SuiteSparse matrices.
    const ft::Coord m = 1 << 13;
    const ft::Coord k = 1 << 18;
    const ft::Coord n = 256;
    const std::size_t nnz_a = 1000000;
    const std::size_t nnz_b = 1000000;
    const ft::Tensor a =
        workloads::uniformMatrix("A", m, k, nnz_a, 31, {"M", "K"});
    const ft::Tensor b =
        workloads::uniformMatrix("B", k, n, nnz_b, 33, {"K", "N"});
    std::cout << "# A " << m << "x" << k << " nnz " << a.nnz() << ", B "
              << k << "x" << n << " nnz " << b.nnz() << "\n\n";

    const char* yaml_text = "einsum:\n"
                            "  declaration:\n"
                            "    A: [M, K]\n"
                            "    B: [K, N]\n"
                            "    Z: [M, N]\n"
                            "  expressions:\n"
                            "    - Z[m, n] = A[k, m] * B[k, n]\n"
                            "mapping:\n"
                            "  rank-order:\n"
                            "    A: [M, K]\n"
                            "    B: [K, N]\n"
                            "    Z: [M, N]\n"
                            "  loop-order:\n"
                            "    Z: [M, K, N]\n"
                            "  spacetime:\n"
                            "    Z:\n"
                            "      space: [M]\n"
                            "      time: [K, N]\n";
    auto model =
        compiler::compile(compiler::Specification::parse(yaml_text));

    // Pointer-backed plan.
    compiler::Workload pointer_w;
    pointer_w.add("A", a).add("B", b);
    const ir::EinsumPlan& pointer_plan = model.plans(pointer_w)[0];

    // Packed-backed plan: CSR-style formats, bound clone-free.
    fmt::TensorFormat csr;
    fmt::RankFormat u;
    u.type = fmt::RankFormat::Type::U;
    fmt::RankFormat c;
    c.type = fmt::RankFormat::Type::C;
    csr.ranks["M"] = u;
    csr.ranks["K"] = c;
    const auto packed_a = storage::PackedTensor::fromTensor(a, csr);
    fmt::TensorFormat csr_b;
    csr_b.ranks["K"] = u;
    csr_b.ranks["N"] = c;
    const auto packed_b = storage::PackedTensor::fromTensor(b, csr_b);
    compiler::Workload packed_w;
    packed_w.add("A", packed_a).add("B", packed_b);
    const std::uint64_t clones_before = ft::Tensor::cloneCount();
    const ir::EinsumPlan& packed_plan = model.plans(packed_w)[0];
    const std::uint64_t bind_clones =
        ft::Tensor::cloneCount() - clones_before;

    // Functional sanity: both backends produce the same output.
    {
        NullSink sink;
        exec::Executor pex(pointer_plan, sink,
                           exec::Semiring::arithmetic(), {});
        exec::Executor kex(packed_plan, sink,
                           exec::Semiring::arithmetic(), {});
        const ft::Tensor zp = pex.run();
        const ft::Tensor zk = kex.run();
        if (!zp.equals(zk)) {
            std::cerr << "FATAL: packed output diverged from pointer\n";
            return 1;
        }
    }

    TextTable table("Gamma SpMSpM walk: pointer fibertree vs packed");
    table.setHeader(
        {"backend", "threads", "ms/run", "vs pointer"});
    double pointer_ms_t1 = 0;
    for (const unsigned threads : {1u, 4u}) {
        const int iters = 3;
        const double pointer_s = timeRun(pointer_plan, threads, iters);
        const double packed_s = timeRun(packed_plan, threads, iters);
        if (threads == 1)
            pointer_ms_t1 = pointer_s * 1e3;
        const double ratio = pointer_s / packed_s;
        table.addRow({"pointer", std::to_string(threads),
                      TextTable::num(pointer_s * 1e3, 2), "1.00x"});
        table.addRow({"packed", std::to_string(threads),
                      TextTable::num(packed_s * 1e3, 2),
                      TextTable::num(ratio, 2) + "x"});
        bench::jsonRow(std::cout, "micro_format_exec",
                       {{"backend", "pointer"}}, {},
                       threads, pointer_s * 1e3);
        bench::jsonRow(std::cout, "micro_format_exec",
                       {{"backend", "packed"}},
                       {{"speedup_vs_pointer", ratio}}, threads,
                       packed_s * 1e3);
    }

    std::cout << "\n" << table.render() << "\n";
    std::cout << "packed bind Tensor::clone() calls: " << bind_clones
              << " (must be 0)\n";
    std::cout << "pointer t1 baseline: "
              << TextTable::num(pointer_ms_t1, 2) << " ms\n";
    return bind_clones == 0 ? 0 : 1;
}
