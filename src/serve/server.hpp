/**
 * @file
 * Simulation-as-a-service: a long-lived evaluation daemon serving
 * evaluate-this-mapping traffic — the ROADMAP's "millions of users"
 * scenario built on the substrate of PRs 2-6 (compile-once/run-many
 * pipeline, thread-safe plan cache, zero-copy packed binding, shared
 * util::ThreadPool).
 *
 * Protocol: newline-delimited JSON over TCP (loopback-oriented; no
 * external HTTP dependency, same spirit as the yaml/ mini-parser).
 * One request object per line, one response object per line, in
 * order per connection. Requests carry an `op` plus op-specific
 * fields; an optional `id` of any JSON type is echoed back verbatim.
 *
 *   {"op":"compile","accel":"gamma"}            -> {"ok":true,"model":"m1"}
 *   {"op":"compile","spec":"<yaml>","params":{"K1":64}}
 *   {"op":"load_dataset","path":"a.mtx","rank_ids":["K","M"]}
 *                      -> {"ok":true,"dataset":"d1","bytes":N,
 *                          "mapped":false}
 *   load_dataset sniffs the file: a packed store (teaal-pack output,
 *   storage/store.hpp) is mmap-ed read-only — millisecond cold-start,
 *   pages shared across processes, registry charged by file size,
 *   eviction unmaps — anything else parses as Matrix Market. Invalid
 *   stores (bad magic/version/checksum, truncation) answer with error
 *   section "store" keyed by the path.
 *   {"op":"evaluate","model":"m1",
 *    "bindings":{"A":"d1","B":"d2"},"threads":1}
 *        -> {"ok":true,"latency_ms":...,"exec_seconds":...,
 *            "traffic_bytes":...,"compute_muls":...,"cache":"hit"}
 *   {"op":"stats"}            -> registry/admission/plan-cache counters
 *   {"op":"sharding_report","model":"m1"} -> per-Einsum entries
 *                             (the compile-time estimate; a run may
 *                             split deeper, see SimulationResult::splits)
 *   {"op":"cancel","target":<id>}         -> {"ok":true,"cancelled":N}
 *
 * Evaluations accept an optional `deadline_ms`; the server clamps it
 * to ServerOptions::maxDeadlineMs (also the default when absent). The
 * deadline clock starts at request receipt, so queueing time counts.
 * Every evaluate response — success or error — reports `elapsed_ms`.
 * `cancel` cooperatively stops in-flight evaluations whose request
 * `id` equals `target`; they answer with code `cancelled`.
 *
 * Errors are structured, mirroring util::Diagnostic:
 *   {"ok":false,"error":{"code":"bad_request"|"unknown_id"|"evicted"|
 *                        "overloaded"|"shutting_down"|"cancelled"|
 *                        "deadline_exceeded"|"internal",
 *                        "section":"...","key":"...","message":"..."}}
 * `evicted` means "this id was registered and later LRU-evicted under
 * the memory budget — re-register it"; `overloaded` is admission
 * shedding (serve/admission.hpp); `cancelled` / `deadline_exceeded`
 * are cooperative-cancellation outcomes (util/cancel.hpp) and are
 * deliberately distinct from `overloaded` so clients can tell "shed
 * before running" from "stopped while running".
 *
 * Evaluations run through serve::Admission on the server's single
 * shared ThreadPool (also passed into RunOptions::pool, so sharded
 * runs draw from the same workers); control-plane ops (compile,
 * load_dataset, introspection) execute inline on the session thread.
 * Each request builds its own RunOptions — nothing mutable is shared
 * between requests.
 *
 * Graceful shutdown: stop() (the daemon calls it on SIGINT/SIGTERM)
 * stops accepting connections and new work, cancels in-flight
 * evaluations through the same token path (reason `shutdown`, so the
 * drain is bounded), lets every request write its response, then
 * joins all sessions.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/admission.hpp"
#include "serve/json.hpp"
#include "serve/registry.hpp"
#include "util/cancel.hpp"
#include "util/thread_pool.hpp"

namespace teaal::serve
{

struct ServerOptions
{
    /// Loopback TCP port; 0 asks the kernel for an ephemeral port
    /// (read it back via port()).
    int port = 0;

    /// Registry memory budget (models + packed datasets); cold
    /// entries are LRU-evicted past it.
    std::uint64_t memoryBudgetBytes = 256ull << 20;

    /// Admission cap: accepted-but-unfinished evaluations (queued +
    /// executing). Arrivals past it are shed with `overloaded`.
    unsigned maxInFlight = 64;

    /// Upper bound a request's `threads` field may ask for.
    unsigned maxEvalThreads = 8;

    /// Per-model plan-cache capacity (CompileOptions::
    /// workloadCacheCapacity) for models compiled through the server.
    std::size_t planCacheCapacity = 4;

    /// Bound-workload cache entries (model + binding-set combinations
    /// kept alive so repeated evaluations hit the plan cache).
    std::size_t workloadCacheEntries = 64;

    /// Deadline policy for evaluations, in milliseconds: the default
    /// applied when a request names no `deadline_ms`, and the cap a
    /// requested one is clamped to. 0 disables both (no deadline
    /// unless a request asks, uncapped). Expiry cancels the run
    /// cooperatively and answers `deadline_exceeded`.
    double maxDeadlineMs = 30000.0;
};

class Server
{
  public:
    explicit Server(ServerOptions opts = {});

    /** Stops and drains (idempotent with stop()). */
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /** Bind + listen on 127.0.0.1 and start accepting connections.
     *  Throws SpecError when the socket cannot be bound. */
    void start();

    /** The bound TCP port (valid after start()). */
    int port() const { return port_; }

    /**
     * Graceful shutdown: stop accepting connections, shed new
     * requests with `shutting_down`, finish and answer every
     * in-flight request, join all session threads. Idempotent.
     */
    void stop();

    bool running() const { return running_.load(); }

    /**
     * The protocol core, socket-free: handle one request line,
     * return one response line (no trailing newline). Sessions call
     * this per received line; tests and the latency bench may call
     * it directly to measure protocol cost without socket overhead.
     */
    std::string handleLine(const std::string& line);

    Registry& registry() { return registry_; }
    Admission& admission() { return *admission_; }

  private:
    struct Session
    {
        int fd = -1;
        std::thread thread;
        std::atomic<bool> done{false};
    };

    /// One cached bound workload: the stable Workload identity that
    /// turns repeated evaluations of the same (model, bindings) into
    /// plan-cache hits inside the model.
    struct BoundWorkload
    {
        compiler::Workload workload;
        std::set<std::string> refIds; ///< registry ids it pins
    };

    void acceptLoop();
    void sessionLoop(Session& session);
    void reapSessionsLocked();

    Json handle(const Json& request);
    Json handleCompile(const Json& request);
    Json handleLoadDataset(const Json& request);
    Json handleEvaluate(const Json& request);
    Json handleEstimate(const Json& request);
    Json handleCancel(const Json& request);
    Json handleStats(const Json& request);
    Json handleShardingReport(const Json& request);

    /** Get-or-create the cached Workload for (model, bindings);
     *  sets @p cache_hit. */
    std::shared_ptr<const BoundWorkload> boundWorkloadFor(
        const std::string& model_id, const Json& bindings,
        bool& cache_hit);

    /** Drop bound-workload entries pinning @p id (eviction hook). */
    void dropWorkloadsReferencing(const std::string& id);

    ServerOptions opts_;
    Registry registry_;
    util::ThreadPool pool_;
    std::unique_ptr<Admission> admission_;

    int listenFd_ = -1;
    int port_ = 0;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::thread acceptThread_;

    std::mutex sessionsMutex_;
    std::list<std::unique_ptr<Session>> sessions_;

    std::mutex workloadsMutex_;
    /// Key: "<model id>|<name>=<dataset id>,..." — LRU, bounded.
    std::list<std::pair<std::string,
                        std::shared_ptr<const BoundWorkload>>>
        workloads_;

    /// In-flight evaluations by serialized request `id` (empty key
    /// for id-less requests — uncancellable by op, still reached by
    /// shutdown). Multimap: duplicate ids cancel together.
    std::mutex inflightMutex_;
    std::multimap<std::string, std::shared_ptr<util::CancelToken>>
        inflight_;
};

} // namespace teaal::serve
