#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "accelerators/accelerators.hpp"

namespace teaal::bench
{

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double idx = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    double logs = 0;
    for (double x : v)
        logs += std::log(std::max(x, 1e-12));
    return std::exp(logs / static_cast<double>(v.size()));
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0;
}

unsigned
cappedThreads(unsigned want)
{
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    return std::min(want, cores);
}

// ------------------------------------------------------------- tracer

namespace
{

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::uint64_t> tlsOpen;

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index = next.fetch_add(1);
    return index;
}

std::atomic<std::uint64_t> nextSpanId{1};

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

Tracer::Tracer(bool enabled, std::string workload)
    : enabled_(enabled), workload_(std::move(workload))
{
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, const char* layer,
                     const std::string& config, long iteration)
    : tracer_(tracer)
{
    span_.name = name;
    span_.layer = layer;
    span_.config = config;
    span_.iteration = iteration;
    span_.id = nextSpanId.fetch_add(1);
    span_.parent = tlsOpen.empty() ? 0 : tlsOpen.back();
    span_.thread = threadIndex();
    tlsOpen.push_back(span_.id);
    span_.startUs =
        std::chrono::duration<double, std::micro>(Clock::now() -
                                                  tracer->origin_)
            .count();
}

Tracer::Scope::Scope(Scope&& other) noexcept
    : tracer_(other.tracer_), span_(std::move(other.span_))
{
    other.tracer_ = nullptr;
}

Tracer::Scope::~Scope()
{
    if (tracer_ == nullptr)
        return;
    span_.endUs = std::chrono::duration<double, std::micro>(
                      Clock::now() - tracer_->origin_)
                      .count();
    if (!tlsOpen.empty() && tlsOpen.back() == span_.id)
        tlsOpen.pop_back();
    tracer_->record(std::move(span_));
}

void
Tracer::record(Span span)
{
    std::lock_guard<std::mutex> lk(mutex_);
    spans_.push_back(std::move(span));
}

void
Tracer::writeChrome(const std::string& path) const
{
    std::ofstream out(path);
    out << std::setprecision(15) << "{\"traceEvents\":[";
    bool first = true;
    for (const Span& s : spans_) {
        out << (first ? "" : ",") << "\n{\"name\":\"" << jsonEscape(s.name)
            << "\",\"cat\":\"" << jsonEscape(s.layer)
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
            << ",\"ts\":" << s.startUs << ",\"dur\":" << s.endUs - s.startUs
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"workload\":\"" << jsonEscape(workload_)
            << "\",\"config\":\"" << jsonEscape(s.config)
            << "\",\"iteration\":" << s.iteration << "}}";
        first = false;
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    if (!out)
        throw std::runtime_error("cannot write trace file " + path);
}

std::map<std::string, std::pair<double, double>>
Tracer::timeByLayer() const
{
    std::map<std::uint64_t, double> childUs;
    for (const Span& s : spans_) {
        if (s.parent != 0)
            childUs[s.parent] += s.endUs - s.startUs;
    }
    std::map<std::string, std::pair<double, double>> out;
    for (const Span& s : spans_) {
        const double dur = s.endUs - s.startUs;
        const auto it = childUs.find(s.id);
        const double self = dur - (it == childUs.end() ? 0 : it->second);
        out[s.layer].first += dur / 1e3;
        out[s.layer].second += self / 1e3;
    }
    return out;
}

double
Tracer::spanCostNs()
{
    constexpr int kSpans = 20000;
    Tracer scratch(true, "cost");
    scratch.spans_.reserve(kSpans);
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i)
        auto s = scratch.span("span", "cost");
    return msSince(t0) * 1e6 / kSpans;
}

// -------------------------------------------------------- scratch dir

ScratchDir::ScratchDir(const std::filesystem::path& root)
{
    std::filesystem::create_directories(root);
    path_ = root / ("teaal-bench-" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

std::filesystem::path
ScratchDir::sub(const std::string& name) const
{
    const std::filesystem::path p = path_ / name;
    std::filesystem::remove_all(p);
    std::filesystem::create_directories(p);
    return p;
}

// ------------------------------------------------------------- report

void
Report::metric(const std::string& name, double value, const std::string& unit)
{
    std::lock_guard<std::mutex> lk(mutex_);
    metrics_.push_back({name, {value, unit}});
}

void
Report::samples(const std::string& name, std::size_t n)
{
    std::lock_guard<std::mutex> lk(mutex_);
    samples_.emplace_back(name, n);
}

void
Report::digest(const std::string& key, const std::string& value)
{
    std::lock_guard<std::mutex> lk(mutex_);
    digests_.emplace_back(key, value);
}

void
Report::share(const std::string& layer, double fraction)
{
    std::lock_guard<std::mutex> lk(mutex_);
    shares_.emplace_back(layer, fraction);
}

void
Report::fail(const std::string& what)
{
    std::lock_guard<std::mutex> lk(mutex_);
    std::cerr << "CHECK FAILED: " << what << "\n";
    failures_.push_back(what);
}

void
Report::print(const std::string& workload, std::uint64_t seed,
              double seconds, bool traced) const
{
    std::lock_guard<std::mutex> lk(mutex_);
    std::cout << "\n# " << workload << " seed " << seed << ": "
              << attempted_ << " ops attempted, " << failed_ << " failed, "
              << failures_.size() << " checks failed\n";
    for (const auto& [name, vu] : metrics_)
        std::cout << "  " << std::left << std::setw(28) << name << " "
                  << std::setprecision(6) << vu.first << " " << vu.second
                  << "\n";
    for (const auto& [name, n] : samples_)
        std::cout << "  samples " << name << ": " << n << "\n";
    for (const auto& [layer, frac] : shares_)
        std::cout << "  share " << std::left << std::setw(22) << layer
                  << " " << std::fixed << std::setprecision(1)
                  << frac * 100 << "%\n"
                  << std::defaultfloat;

    std::ostringstream js;
    js << std::setprecision(17) << "{\"workload\":\"" << workload
       << "\",\"seed\":" << seed << ",\"seconds\":" << seconds
       << ",\"traced\":" << (traced ? "true" : "false")
       << ",\"correct\":" << (failures_.empty() ? "true" : "false")
       << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
       << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i)
        js << (i ? "," : "") << "\"" << metrics_[i].first
           << "\":{\"value\":" << metrics_[i].second.first
           << ",\"unit\":\"" << metrics_[i].second.second << "\"}";
    js << "},\"samples\":{";
    for (std::size_t i = 0; i < samples_.size(); ++i)
        js << (i ? "," : "") << "\"" << samples_[i].first
           << "\":" << samples_[i].second;
    js << "},\"digests\":{";
    for (std::size_t i = 0; i < digests_.size(); ++i)
        js << (i ? "," : "") << "\"" << digests_[i].first << "\":\""
           << digests_[i].second << "\"";
    js << "},\"shares\":{";
    for (std::size_t i = 0; i < shares_.size(); ++i)
        js << (i ? "," : "") << "\"" << shares_[i].first
           << "\":" << shares_[i].second;
    js << "},\"checks_failed\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i)
        js << (i ? "," : "") << "\"" << jsonEscape(failures_[i]) << "\"";
    js << "]}";
    std::cout << js.str() << std::endl;
}

// ------------------------------------------------------------ helpers

std::vector<double>
OpTimes::of(const std::string& kind) const
{
    const auto it = byKind_.find(kind);
    return it == byKind_.end() ? std::vector<double>() : it->second;
}

void
OpTimes::report(Report& report) const
{
    std::vector<double> lowerQuartiles;
    std::size_t ops = 0;
    for (const auto& [kind, ms] : byKind_) {
        lowerQuartiles.push_back(quantile(ms, 0.25));
        ops += ms.size();
        std::cout << "  " << kind << ": " << ms.size() << " ops, p25 "
                  << lowerQuartiles.back() << " ms, median " << median(ms)
                  << " ms, p90 " << quantile(ms, 0.9) << " ms\n";
        report.samples("op." + kind, ms.size());
    }
    report.metric("op_ms_p25_geomean", geomean(lowerQuartiles), "ms");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    report.samples("ops", ops);
}

compiler::Specification
accelSpec(const std::string& name)
{
    if (name == "gamma")
        return accel::gamma();
    if (name == "extensor")
        return accel::extensor();
    if (name == "outerspace")
        return accel::outerSpace();
    if (name == "sigma")
        return accel::sigma();
    throw std::invalid_argument("unknown accelerator " + name);
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 finalizer over (seed, stream).
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

std::string
hashHex(const std::string& text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
simDigest(const compiler::SimulationResult& r)
{
    std::ostringstream os;
    os << std::setprecision(17) << r.perf.totalSeconds;
    for (const auto& [tensor, tt] : r.traffic)
        os << "|" << tensor << ":" << tt.readBytes << "," << tt.writeBytes
           << "," << tt.poBytes;
    for (const model::EinsumRecord& rec : r.records)
        os << "|" << rec.output << ":" << rec.execStats.computeMuls << ","
           << rec.execStats.computeAdds << "," << rec.execStats.leafVisits
           << "," << rec.execStats.outputWrites << "," << rec.traceEvents
           << "," << rec.traceBatches;
    return hashHex(os.str());
}

std::string
compareTensors(const ft::Tensor& got, const ft::Tensor& want, double relTol)
{
    using Leaf = std::pair<std::vector<ft::Coord>, ft::Value>;
    const auto leaves = [](const ft::Tensor& t) {
        std::vector<Leaf> out;
        t.forEachLeaf([&](std::span<const ft::Coord> p, ft::Value v) {
            if (v != 0)
                out.emplace_back(std::vector<ft::Coord>(p.begin(), p.end()),
                                 v);
        });
        return out;
    };
    const std::vector<Leaf> g = leaves(got);
    const std::vector<Leaf> w = leaves(want);
    if (g.size() != w.size())
        return "nnz " + std::to_string(g.size()) + " != reference " +
               std::to_string(w.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
        if (g[i].first != w[i].first)
            return "support differs at leaf " + std::to_string(i);
        const double a = g[i].second;
        const double b = w[i].second;
        if (std::abs(a - b) > relTol * std::max(std::abs(a), std::abs(b))) {
            std::ostringstream os;
            os << std::setprecision(17) << "value " << a << " != reference "
               << b << " at leaf " << i;
            return os.str();
        }
    }
    return {};
}

void
RunCounts::add(const compiler::SimulationResult& r)
{
    for (const model::EinsumRecord& rec : r.records) {
        muls += static_cast<double>(rec.execStats.computeMuls);
        leafVisits += static_cast<double>(rec.execStats.leafVisits);
        outputWrites += static_cast<double>(rec.execStats.outputWrites);
        traceEvents += static_cast<double>(rec.traceEvents);
        traceBatches += static_cast<double>(rec.traceBatches);
    }
}

RunCounts&
RunCounts::operator+=(const RunCounts& o)
{
    muls += o.muls;
    leafVisits += o.leafVisits;
    outputWrites += o.outputWrites;
    traceEvents += o.traceEvents;
    traceBatches += o.traceBatches;
    return *this;
}

} // namespace teaal::bench
