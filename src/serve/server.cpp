#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>

#include "accelerators/accelerators.hpp"
#include "storage/store.hpp"
#include "util/diagnostic.hpp"
#include "util/logging.hpp"
#include "workloads/mtx.hpp"

namespace teaal::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point g_start = Clock::now();

const Json&
requireField(const Json& req, const char* key)
{
    const Json* f = req.find(key);
    if (f == nullptr)
        diagError("protocol", key, "missing required field '", key,
                  "'");
    return *f;
}

std::string
requireString(const Json& req, const char* key)
{
    const Json& f = requireField(req, key);
    if (!f.isString())
        diagError("protocol", key, "field '", key,
                  "' must be a string");
    return f.str();
}

/** The request's `bindings` object (tensor name -> dataset id). */
const Json&
requireBindings(const Json& req)
{
    const Json& b = requireField(req, "bindings");
    if (!b.isObject())
        diagError("protocol", "bindings",
                  "field 'bindings' must be an object mapping tensor "
                  "names to dataset ids");
    return b;
}

bool
optionalBool(const Json& req, const char* key, bool fallback)
{
    const Json* f = req.find(key);
    if (f == nullptr)
        return fallback;
    if (!f->isBool())
        diagError("protocol", key, "field '", key,
                  "' must be a boolean");
    return f->boolean();
}

Json
errorResponse(const std::string& code, const std::string& section,
              const std::string& key, const std::string& message)
{
    Json e = Json::makeObject();
    e.set("code", Json::makeString(code));
    if (!section.empty())
        e.set("section", Json::makeString(section));
    if (!key.empty())
        e.set("key", Json::makeString(key));
    e.set("message", Json::makeString(message));
    Json r = Json::makeObject();
    r.set("ok", Json::makeBool(false));
    r.set("error", std::move(e));
    return r;
}

Json
okResponse()
{
    Json r = Json::makeObject();
    r.set("ok", Json::makeBool(true));
    return r;
}

} // namespace

Server::Server(ServerOptions opts)
    : opts_(opts), registry_(opts.memoryBudgetBytes), pool_(0),
      admission_(std::make_unique<Admission>(pool_, opts.maxInFlight))
{
    registry_.setEvictionHook([this](const std::string& id) {
        dropWorkloadsReferencing(id);
    });
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw SpecError("serve: socket() failed: " +
                        std::string(std::strerror(errno)));
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        throw SpecError("serve: bind(port " +
                        std::to_string(opts_.port) +
                        ") failed: " + std::strerror(errno));
    }
    if (::listen(listenFd_, 128) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        throw SpecError("serve: listen() failed: " +
                        std::string(std::strerror(errno)));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound),
                  &len);
    port_ = static_cast<int>(ntohs(bound.sin_port));
    running_.store(true);
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
Server::acceptLoop()
{
    for (;;) {
        pollfd pfd{};
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        const int pr = ::poll(&pfd, 1, 200);
        if (stopping_.load())
            break;
        if (pr <= 0)
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load())
                break;
            continue;
        }
        auto session = std::make_unique<Session>();
        session->fd = fd;
        Session* raw = session.get();
        {
            std::lock_guard<std::mutex> lk(sessionsMutex_);
            reapSessionsLocked();
            sessions_.push_back(std::move(session));
        }
        raw->thread = std::thread([this, raw] { sessionLoop(*raw); });
    }
}

void
Server::reapSessionsLocked()
{
    // Only ever called from the acceptor (or after it is joined), so
    // Session::thread is never touched from two threads at once.
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        Session& s = **it;
        if (s.done.load() && s.thread.joinable()) {
            s.thread.join();
            if (s.fd >= 0)
                ::close(s.fd);
            it = sessions_.erase(it);
        } else {
            ++it;
        }
    }
}

void
Server::sessionLoop(Session& session)
{
    std::string pending;
    char buf[4096];
    bool open = true;
    while (open) {
        const ssize_t n = ::recv(session.fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        pending.append(buf, static_cast<std::size_t>(n));
        std::size_t nl;
        while ((nl = pending.find('\n')) != std::string::npos) {
            std::string line = pending.substr(0, nl);
            pending.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            const std::string response = handleLine(line) + "\n";
            const char* p = response.data();
            std::size_t left = response.size();
            while (left > 0) {
                const ssize_t w =
                    ::send(session.fd, p, left, MSG_NOSIGNAL);
                if (w <= 0) {
                    open = false;
                    break;
                }
                p += w;
                left -= static_cast<std::size_t>(w);
            }
            if (!open)
                break;
        }
    }
    // The fd is closed by the reaper/stop() after the join, so a
    // concurrent stop() never shutdown()s a recycled descriptor.
    session.done.store(true);
}

void
Server::stop()
{
    if (stopping_.exchange(true)) {
        // Second caller: the first stop() owns the teardown.
        if (acceptThread_.joinable())
            acceptThread_.join();
        return;
    }
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    // Shed work not yet admitted; everything accepted observes
    // shutdown through the same cancellation path as a user `cancel`,
    // so the drain below is bounded by one poll interval instead of a
    // full run, and its session still writes the (structured
    // `cancelled`) response before exiting.
    admission_->close();
    {
        std::lock_guard<std::mutex> lk(inflightMutex_);
        for (auto& [key, token] : inflight_)
            token->cancel(util::CancelReason::Shutdown);
    }
    {
        std::lock_guard<std::mutex> lk(sessionsMutex_);
        for (const std::unique_ptr<Session>& s : sessions_) {
            if (s->fd >= 0)
                ::shutdown(s->fd, SHUT_RD);
        }
    }
    std::list<std::unique_ptr<Session>> gone;
    {
        std::lock_guard<std::mutex> lk(sessionsMutex_);
        gone.swap(sessions_);
    }
    for (const std::unique_ptr<Session>& s : gone) {
        if (s->thread.joinable())
            s->thread.join();
        if (s->fd >= 0)
            ::close(s->fd);
    }
    admission_->drain();
    running_.store(false);
    logInfo("serve: drained in-flight requests and stopped");
}

// ------------------------------------------------------------ protocol

std::string
Server::handleLine(const std::string& line)
{
    Json request;
    try {
        request = parseJson(line);
    } catch (const SpecError& e) {
        return errorResponse("bad_request", "protocol", "json",
                             detail::stripSpecPrefix(e.what()))
            .dump();
    }
    return handle(request).dump();
}

Json
Server::handle(const Json& request)
{
    const Json* id = request.find("id");
    Json response;
    try {
        if (!request.isObject())
            diagError("protocol", "",
                      "request must be a JSON object");
        const std::string op = requireString(request, "op");
        if (op == "compile")
            response = handleCompile(request);
        else if (op == "load_dataset")
            response = handleLoadDataset(request);
        else if (op == "evaluate")
            response = handleEvaluate(request);
        else if (op == "estimate")
            response = handleEstimate(request);
        else if (op == "cancel")
            response = handleCancel(request);
        else if (op == "stats")
            response = handleStats(request);
        else
            diagError("protocol", "op", "unknown op '", op, "'");
    } catch (const DiagnosticError& e) {
        response = errorResponse("bad_request", e.diagnostic().section,
                                 e.diagnostic().key,
                                 e.diagnostic().message);
    } catch (const std::exception& e) {
        response = errorResponse("internal", "", "", e.what());
    }
    if (id != nullptr)
        response.set("id", *id);
    return response;
}

Json
Server::handleCompile(const Json& request)
{
    compiler::Specification spec;
    std::uint64_t bytes = 64 * 1024; // nominal model overhead
    if (const Json* accel = request.find("accel")) {
        if (!accel->isString())
            diagError("protocol", "accel",
                      "field 'accel' must be a string");
        const std::string& name = accel->str();
        if (name == "outerspace")
            spec = accel::outerSpace();
        else if (name == "gamma")
            spec = accel::gamma();
        else if (name == "extensor")
            spec = accel::extensor();
        else if (name == "sigma")
            spec = accel::sigma();
        else
            diagError("protocol", "accel", "unknown accelerator '",
                      name,
                      "' (expected outerspace, gamma, extensor, or "
                      "sigma)");
    } else {
        const std::string text = requireString(request, "spec");
        mapping::ParamMap params;
        if (const Json* p = request.find("params")) {
            if (!p->isObject())
                diagError("protocol", "params",
                          "field 'params' must be an object of "
                          "numbers");
            for (const auto& [k, v] : p->object()) {
                if (!v.isNumber())
                    diagError("protocol", "params", "parameter '", k,
                              "' must be a number");
                params[k] = static_cast<long>(v.number());
            }
        }
        spec = compiler::Specification::parse(text, params);
        bytes += text.size();
    }

    compiler::CompileOptions co;
    co.workloadCacheCapacity = opts_.planCacheCapacity;
    auto model = std::make_shared<const compiler::CompiledModel>(
        compiler::compile(std::move(spec), co));
    const std::string id = registry_.addModel(std::move(model), bytes);

    Json r = okResponse();
    r.set("model", Json::makeString(id));
    return r;
}

Json
Server::handleLoadDataset(const Json& request)
{
    const std::string path = requireString(request, "path");
    std::string name = "A";
    if (const Json* n = request.find("name")) {
        if (!n->isString())
            diagError("protocol", "name",
                      "field 'name' must be a string");
        name = n->str();
    }
    std::vector<std::string> rank_ids{"K", "M"};
    if (const Json* r = request.find("rank_ids")) {
        if (!r->isArray())
            diagError("protocol", "rank_ids",
                      "field 'rank_ids' must be an array of strings");
        rank_ids.clear();
        for (const Json& v : r->array()) {
            if (!v.isString())
                diagError("protocol", "rank_ids",
                          "field 'rank_ids' must be an array of "
                          "strings");
            rank_ids.push_back(v.str());
        }
    }

    std::shared_ptr<const storage::PackedTensor> dataset;
    try {
        // Store files (teaal-pack output) mmap in milliseconds and
        // share the page cache across processes; anything else goes
        // through the streaming Matrix Market parser. Store errors
        // (bad magic past the sniff, version, checksum, truncation)
        // surface as DiagnosticError section "store" keyed by path.
        if (storage::isStoreFile(path)) {
            dataset = std::make_shared<const storage::PackedTensor>(
                storage::mapStore(path));
            if (dataset->name() != name)
                diagError("store", path,
                          "store holds tensor '", dataset->name(),
                          "', request asked for '", name,
                          "' (pass the packed name or repack)");
        } else {
            dataset = std::make_shared<const storage::PackedTensor>(
                workloads::readMatrixMarketPacked(path, name,
                                                  rank_ids));
        }
    } catch (const DiagnosticError&) {
        throw;
    } catch (const SpecError& e) {
        rethrowAsDiagnostic("protocol", "path", e);
    }

    Json r = okResponse();
    r.set("dataset",
          Json::makeString(registry_.addDataset(dataset)));
    // Mapped stores are charged by file size (the pages the mapping
    // can pin); parsed datasets by heap footprint. Eviction drops the
    // last owning reference, which unmaps.
    r.set("bytes", Json::makeNumber(
                       static_cast<double>(dataset->residentBytes())));
    r.set("nnz",
          Json::makeNumber(static_cast<double>(dataset->nnz())));
    r.set("mapped", Json::makeBool(dataset->mapped()));
    return r;
}

std::shared_ptr<const compiler::CompiledModel>
Server::modelFor(const std::string& id, Json& error)
{
    auto model = registry_.model(id);
    if (model != nullptr)
        return model;
    error = registry_.evicted(id)
                ? errorResponse("evicted", "workload", id,
                                "model '" + id +
                                    "' was evicted under memory "
                                    "pressure; re-register it with "
                                    "compile")
                : errorResponse("unknown_id", "workload", id,
                                "unknown model id '" + id + "'");
    return nullptr;
}

std::shared_ptr<const Server::BoundWorkload>
Server::boundWorkloadFor(const std::string& model_id,
                         const Json& bindings, bool& cache_hit,
                         Json& error)
{
    // Canonical key: the bindings object sorted by tensor name, so
    // {"A":"d1","B":"d2"} and {"B":"d2","A":"d1"} share a Workload
    // (and therefore a plan-cache entry in the model).
    std::vector<std::pair<std::string, std::string>> pairs;
    for (const auto& [tensor, did] : bindings.object()) {
        if (!did.isString()) {
            error = errorResponse("bad_request", "protocol", tensor,
                                  "binding of tensor '" + tensor +
                                      "' must be a dataset id string");
            return nullptr;
        }
        pairs.emplace_back(tensor, did.str());
    }
    std::sort(pairs.begin(), pairs.end());
    std::string key = model_id + "|";
    for (const auto& [tensor, did] : pairs)
        key += tensor + "=" + did + ",";

    // Resolve the datasets first (touches the registry LRU, surfaces
    // evicted/unknown ids) — outside workloadsMutex_ to keep the two
    // locks unordered.
    std::vector<
        std::pair<std::string,
                  std::shared_ptr<const storage::PackedTensor>>>
        resolved;
    for (const auto& [tensor, did] : pairs) {
        auto dataset = registry_.dataset(did);
        if (dataset == nullptr) {
            error = registry_.evicted(did)
                        ? errorResponse("evicted", "workload", did,
                                        "dataset '" + did +
                                            "' was evicted under "
                                            "memory pressure; "
                                            "re-register it with "
                                            "load_dataset")
                        : errorResponse("unknown_id", "workload", did,
                                        "unknown dataset id '" + did +
                                            "'");
            return nullptr;
        }
        resolved.emplace_back(tensor, std::move(dataset));
    }

    std::lock_guard<std::mutex> lk(workloadsMutex_);
    for (auto it = workloads_.begin(); it != workloads_.end(); ++it) {
        if (it->first == key) {
            workloads_.splice(workloads_.begin(), workloads_, it);
            cache_hit = true;
            return workloads_.front().second;
        }
    }
    cache_hit = false;
    auto bound = std::make_shared<BoundWorkload>();
    bound->refIds.insert(model_id);
    for (auto& [tensor, dataset] : resolved) {
        bound->workload.add(tensor, std::move(dataset));
    }
    for (const auto& [tensor, did] : pairs)
        bound->refIds.insert(did);
    workloads_.emplace_front(key, bound);
    while (workloads_.size() > std::max<std::size_t>(
                                   1, opts_.workloadCacheEntries))
        workloads_.pop_back();
    return bound;
}

void
Server::dropWorkloadsReferencing(const std::string& id)
{
    std::lock_guard<std::mutex> lk(workloadsMutex_);
    for (auto it = workloads_.begin(); it != workloads_.end();) {
        if (it->second->refIds.count(id) != 0)
            it = workloads_.erase(it);
        else
            ++it;
    }
}

Json
Server::handleEvaluate(const Json& request)
{
    // The deadline clock starts at receipt, so time spent queued in
    // admission counts against the request's budget.
    const Clock::time_point received = Clock::now();
    const auto elapsedMs = [received] {
        return std::chrono::duration<double, std::milli>(Clock::now() -
                                                         received)
            .count();
    };

    const std::string model_id = requireString(request, "model");
    const Json& bindings = requireBindings(request);

    unsigned threads = 1;
    if (const Json* t = request.find("threads")) {
        if (!t->isNumber())
            diagError("protocol", "threads",
                      "field 'threads' must be a number");
        const double v = t->number();
        if (v != std::floor(v) || v < 1.0 ||
            v > static_cast<double>(opts_.maxEvalThreads))
            diagError("protocol", "threads",
                      "field 'threads' must be an integer in [1, ",
                      opts_.maxEvalThreads, "]");
        threads = static_cast<unsigned>(v);
    }
    const bool validate = optionalBool(request, "validate", true);
    const bool cache = optionalBool(request, "cache", true);

    double deadline_ms = opts_.maxDeadlineMs;
    if (const Json* d = request.find("deadline_ms")) {
        if (!d->isNumber() || !(d->number() > 0.0))
            diagError("protocol", "deadline_ms",
                      "field 'deadline_ms' must be a positive number "
                      "of milliseconds");
        deadline_ms = opts_.maxDeadlineMs > 0.0
                          ? std::min(d->number(), opts_.maxDeadlineMs)
                          : d->number();
    }

    Json error;
    const auto model = modelFor(model_id, error);
    if (model == nullptr)
        return error;
    bool workload_cached = false;
    const auto bound =
        boundWorkloadFor(model_id, bindings, workload_cached, error);
    if (bound == nullptr)
        return error;

    // Register in the in-flight table so the `cancel` op and stop()
    // can reach this run through its token. Keyed by the serialized
    // request `id`; id-less requests sit under the empty key, out of
    // reach of `cancel` but still cancelled at shutdown.
    auto token = std::make_shared<util::CancelToken>();
    const Json* rid = request.find("id");
    std::multimap<std::string,
                  std::shared_ptr<util::CancelToken>>::iterator entry;
    {
        std::lock_guard<std::mutex> lk(inflightMutex_);
        entry = inflight_.emplace(
            rid != nullptr ? rid->dump() : std::string(), token);
    }
    struct Unregister
    {
        Server* server;
        std::multimap<std::string,
                      std::shared_ptr<util::CancelToken>>::iterator it;
        ~Unregister()
        {
            std::lock_guard<std::mutex> lk(server->inflightMutex_);
            server->inflight_.erase(it);
        }
    } unregister{this, entry};

    // Per-request RunOptions: nothing mutable is shared between
    // requests; the server's one pool hosts any intra-request shards.
    compiler::RunOptions ro;
    ro.threads = threads;
    ro.validateInputs = validate;
    ro.cacheState = cache;
    ro.pool = &pool_;
    ro.cancelToken = token.get();
    if (deadline_ms > 0.0)
        ro.deadline = util::Deadline::at(
            received + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               deadline_ms)));

    std::promise<Json> done;
    std::future<Json> future = done.get_future();
    const Admission::Reject rejected =
        admission_->submit([&model, &bound, &ro, &done,
                            workload_cached] {
            Json response;
            try {
                const Clock::time_point t0 = Clock::now();
                const compiler::SimulationResult result =
                    model->run(bound->workload, ro);
                const double ms =
                    std::chrono::duration<double, std::milli>(
                        Clock::now() - t0)
                        .count();
                double muls = 0;
                for (const auto& record : result.records)
                    muls += static_cast<double>(
                        record.execStats.computeMuls);
                response = okResponse();
                response.set("latency_ms", Json::makeNumber(ms));
                response.set(
                    "exec_seconds",
                    Json::makeNumber(result.perf.totalSeconds));
                response.set(
                    "traffic_bytes",
                    Json::makeNumber(result.totalTrafficBytes()));
                response.set("compute_muls", Json::makeNumber(muls));
                response.set(
                    "energy_joules",
                    Json::makeNumber(result.energy.totalJoules));
                response.set("cache",
                             Json::makeString(workload_cached
                                                  ? "hit"
                                                  : "miss"));
            } catch (const util::CancelledError& e) {
                // Distinct from `overloaded`: the run was admitted
                // and then stopped cooperatively.
                const bool deadline =
                    e.reason() == util::CancelReason::Deadline;
                response = errorResponse(
                    deadline ? "deadline_exceeded" : "cancelled",
                    e.diagnostic().section, e.diagnostic().key,
                    e.diagnostic().message);
                response.set("reason",
                             Json::makeString(util::cancelReasonName(
                                 e.reason())));
            } catch (const DiagnosticError& e) {
                response = errorResponse(
                    "bad_request", e.diagnostic().section,
                    e.diagnostic().key, e.diagnostic().message);
            } catch (const std::exception& e) {
                response = errorResponse("internal", "", "", e.what());
            }
            done.set_value(std::move(response));
        });
    if (rejected != Admission::Reject::None) {
        Json shed =
            rejected == Admission::Reject::Overloaded
                ? errorResponse("overloaded", "admission", "",
                                "in-flight evaluation cap reached; "
                                "retry later")
                : errorResponse("shutting_down", "admission", "",
                                "server is draining; not accepting "
                                "new evaluations");
        shed.set("elapsed_ms", Json::makeNumber(elapsedMs()));
        return shed;
    }
    Json response = future.get();
    response.set("elapsed_ms", Json::makeNumber(elapsedMs()));
    return response;
}

Json
Server::handleEstimate(const Json& request)
{
    // The analytic fast path: same model/bindings resolution and
    // error codes as `evaluate`, but the prediction comes from
    // CompiledModel::estimate — microseconds of closed-form
    // arithmetic, no fibertree walk — so the request bypasses
    // admission control, deadlines, and the cancel table entirely.
    const Clock::time_point received = Clock::now();
    const std::string model_id = requireString(request, "model");
    const Json& bindings = requireBindings(request);

    Json error;
    const auto model = modelFor(model_id, error);
    if (model == nullptr)
        return error;
    bool workload_cached = false;
    const auto bound =
        boundWorkloadFor(model_id, bindings, workload_cached, error);
    if (bound == nullptr)
        return error;

    // Estimate failures (section "analytic": constructs the closed
    // forms cannot express) propagate to handle()'s DiagnosticError
    // catch and come back in the standard {code,section,key,message}
    // shape — clients degrade to `evaluate`.
    const model::analytic::AnalyticEstimate est =
        model->estimate(bound->workload);

    Json response = okResponse();
    response.set("latency_ms",
                 Json::makeNumber(
                     std::chrono::duration<double, std::milli>(
                         Clock::now() - received)
                         .count()));
    response.set("exec_seconds_est", Json::makeNumber(est.seconds()));
    response.set("traffic_bytes_est",
                 Json::makeNumber(est.totalTrafficBytes()));
    response.set("compute_muls_est", Json::makeNumber(est.mulOps));
    response.set("cache", Json::makeString(est.cacheHit ? "hit"
                                                        : "miss"));
    return response;
}

Json
Server::handleCancel(const Json& request)
{
    // Cancels every in-flight evaluation whose request `id` equals
    // `target` (compared by serialized value, so any JSON id type
    // works). Already-finished requests are simply not in the table;
    // cancelling nothing is not an error — the caller learns the
    // count either way.
    const Json& target = requireField(request, "target");
    std::size_t n = 0;
    {
        std::lock_guard<std::mutex> lk(inflightMutex_);
        auto [lo, hi] = inflight_.equal_range(target.dump());
        for (auto it = lo; it != hi; ++it) {
            it->second->cancel(util::CancelReason::User);
            ++n;
        }
    }
    Json r = okResponse();
    r.set("cancelled", Json::makeNumber(static_cast<double>(n)));
    return r;
}

Json
Server::handleStats(const Json&)
{
    const Registry::Stats rs = registry_.stats();
    const Admission::Stats as = admission_->stats();

    Json registry = Json::makeObject();
    registry.set("models",
                 Json::makeNumber(static_cast<double>(rs.models)));
    registry.set("datasets",
                 Json::makeNumber(static_cast<double>(rs.datasets)));
    registry.set("resident_bytes", Json::makeNumber(static_cast<double>(
                                       rs.residentBytes)));
    registry.set("budget_bytes", Json::makeNumber(static_cast<double>(
                                     rs.budgetBytes)));
    registry.set("evictions",
                 Json::makeNumber(static_cast<double>(rs.evictions)));
    registry.set("hits",
                 Json::makeNumber(static_cast<double>(rs.hits)));
    registry.set("misses",
                 Json::makeNumber(static_cast<double>(rs.misses)));

    Json admission = Json::makeObject();
    admission.set("accepted",
                  Json::makeNumber(static_cast<double>(as.accepted)));
    admission.set("shed",
                  Json::makeNumber(static_cast<double>(as.shed)));
    admission.set("completed",
                  Json::makeNumber(static_cast<double>(as.completed)));
    admission.set("in_flight",
                  Json::makeNumber(static_cast<double>(as.inFlight)));
    admission.set("peak_in_flight", Json::makeNumber(static_cast<double>(
                                        as.peakInFlight)));
    admission.set("max_in_flight", Json::makeNumber(static_cast<double>(
                                       as.maxInFlight)));

    // Plan-cache counters aggregated over resident models (peek —
    // introspection must not reorder the LRU it reports on).
    compiler::PlanCacheStats agg;
    for (const auto& [id, model] : registry_.peekModels()) {
        const compiler::PlanCacheStats s = model->planCacheStats();
        agg.hits += s.hits;
        agg.misses += s.misses;
        agg.evictions += s.evictions;
        agg.entries += s.entries;
    }
    Json plan_cache = Json::makeObject();
    plan_cache.set("hits",
                   Json::makeNumber(static_cast<double>(agg.hits)));
    plan_cache.set("misses",
                   Json::makeNumber(static_cast<double>(agg.misses)));
    plan_cache.set("evictions", Json::makeNumber(static_cast<double>(
                                    agg.evictions)));
    plan_cache.set("entries",
                   Json::makeNumber(static_cast<double>(agg.entries)));

    Json r = okResponse();
    r.set("registry", std::move(registry));
    r.set("admission", std::move(admission));
    r.set("plan_cache", std::move(plan_cache));
    r.set("uptime_seconds",
          Json::makeNumber(std::chrono::duration<double>(Clock::now() -
                                                         g_start)
                               .count()));
    return r;
}

} // namespace teaal::serve
