/**
 * @file
 * Serving walkthrough: drive the simulation-as-a-service protocol end
 * to end — compile a model, register datasets, evaluate twice (the
 * second request hits the cached plan), and read the server's
 * counters. Exits nonzero when any request answers an error it did
 * not expect, so a smoke run of the session checks it.
 *
 * With no arguments it starts an in-process server on an ephemeral
 * port, so the example is self-contained; pass a port number to talk
 * to an already-running `teaal-serve` daemon instead:
 *
 *   ./teaal-serve --port 7471 &
 *   ./example_serve_client 7471
 *
 * Also demonstrates the robustness surface: a `deadline_ms` too small
 * for the run comes back as a structured `deadline_exceeded` (the
 * daemon stays healthy), and requestWithRetry() retries transient
 * `overloaded`/`evicted` answers with seeded exponential backoff.
 */
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workloads/datasets.hpp"
#include "workloads/mtx.hpp"

using namespace teaal;

int
main(int argc, char** argv)
{
    // An in-process server unless the caller points us at a daemon.
    std::unique_ptr<serve::Server> local;
    int port = 0;
    if (argc > 1) {
        port = std::atoi(argv[1]);
    } else {
        local = std::make_unique<serve::Server>();
        local->start();
        port = local->port();
        std::cout << "started in-process server on 127.0.0.1:" << port
                  << "\n";
    }

    // The protocol carries dataset *paths*, so materialize two small
    // synthetic operands as Matrix Market files.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "teaal_serve_example";
    std::filesystem::create_directories(dir);
    const workloads::DatasetInfo& info = workloads::dataset("wi");
    workloads::writeMatrixMarket(
        (dir / "a.mtx").string(),
        workloads::synthesize(info, "A", 11, 0.05, {"K", "M"}));
    workloads::writeMatrixMarket(
        (dir / "b.mtx").string(),
        workloads::synthesize(info, "B", 22, 0.05, {"K", "N"}));

    serve::Client client;
    client.connect(port);
    int failures = 0;
    // Send @p line; an error code other than @p allowed fails the run.
    const auto call = [&](const std::string& line,
                          const char* allowed = "") {
        std::cout << ">> " << line << "\n";
        const std::string response = client.requestLine(line);
        std::cout << "<< " << response << "\n";
        serve::Json parsed = serve::parseJson(response);
        const std::string code = serve::responseErrorCode(parsed);
        if (!code.empty() && code != allowed) {
            std::cerr << "unexpected error '" << code << "'\n";
            ++failures;
        }
        return parsed;
    };
    // A string field of an answer; "" for an error answer.
    const auto field = [](const serve::Json& response, const char* key) {
        const serve::Json* f = response.find(key);
        return f != nullptr && f->isString() ? f->str() : std::string();
    };

    // 1. Compile the Gamma accelerator model once.
    const std::string model =
        field(call(R"({"op":"compile","accel":"gamma","id":1})"), "model");

    // 2. Register both operands as resident packed datasets.
    const std::string da =
        field(call("{\"op\":\"load_dataset\",\"path\":\"" +
                   (dir / "a.mtx").string() +
                   "\",\"name\":\"A\",\"rank_ids\":[\"K\",\"M\"]}"),
              "dataset");
    const std::string db =
        field(call("{\"op\":\"load_dataset\",\"path\":\"" +
                   (dir / "b.mtx").string() +
                   "\",\"name\":\"B\",\"rank_ids\":[\"K\",\"N\"]}"),
              "dataset");

    // 3. Evaluate twice: the first request instantiates and caches
    //    the plan ("cache":"miss"), the second rides it ("hit").
    const std::string evaluate =
        "{\"op\":\"evaluate\",\"model\":\"" + model +
        "\",\"bindings\":{\"A\":\"" + da + "\",\"B\":\"" + db +
        "\"},\"threads\":1}";
    call(evaluate);
    call(evaluate);

    // 4. Introspection: the registry/admission/plan-cache counters.
    call(R"({"op":"stats"})");

    // 5. Deadlines: a budget far below the run's wall time comes back
    //    as a structured `deadline_exceeded` with `elapsed_ms` (or ok,
    //    when the run beats it) — and the daemon is immediately
    //    healthy for the next request.
    call("{\"op\":\"evaluate\",\"model\":\"" + model +
             "\",\"bindings\":{\"A\":\"" + da + "\",\"B\":\"" + db +
             "\"},\"deadline_ms\":0.01,\"id\":\"hurried\"}",
         "deadline_exceeded");

    // 6. Bounded retry with seeded exponential backoff: transient
    //    codes (`overloaded`, `evicted`) are retried, everything else
    //    passes through. Here the request succeeds on the first try;
    //    onRetry would log and approve each backoff step.
    serve::RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.baseDelayMs = 5.0;
    policy.seed = 42;
    policy.onRetry = [](const std::string& code, serve::Json&) {
        std::cout << "   retrying after transient '" << code << "'\n";
        return true;
    };
    unsigned attempts = 0;
    const serve::Json retried = client.requestWithRetry(
        serve::parseJson(evaluate), policy, &attempts);
    const std::string retried_code = serve::responseErrorCode(retried);
    std::cout << "requestWithRetry: " << attempts << " attempt(s), ok="
              << (retried_code.empty() ? "true" : "false") << "\n";
    if (!retried_code.empty())
        ++failures;

    client.close();
    if (local != nullptr)
        local->stop();
    std::filesystem::remove_all(dir);
    return failures == 0 ? 0 : 1;
}
