/**
 * @file
 * Shared machinery of the end-to-end benchmark (teaal-bench): sample
 * statistics, the span tracer, the per-run scratch directory, the
 * result report, and the correctness helpers every workload uses.
 *
 * Everything here sits outside the library and times only its public
 * calls; spans inside the library are a separate change.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "compiler/pipeline.hpp"
#include "fibertree/tensor.hpp"

namespace teaal::bench
{

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double
msSince(Clock::time_point from)
{
    return msBetween(from, Clock::now());
}

/** Linear-interpolated quantile, @p q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Geometric mean of positive samples. */
double geomean(const std::vector<double>& v);

/** Peak resident set (VmHWM) of this process in MB. */
double peakRssMb();

/** Worker threads and connections a workload may use: min(want, nproc). */
unsigned cappedThreads(unsigned want);

/**
 * Spans around the benchmark's calls into the library, kept in
 * memory and written as Chrome trace-event JSON at exit. One span per
 * public call: name, layer (the module the call belongs to), start,
 * end, the enclosing span on the same thread, and the config and
 * iteration it served. A disabled tracer records nothing.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::string layer;
        std::string config;
        long iteration = -1;
        double startUs = 0;
        double endUs = 0;
        std::uint64_t id = 0;
        std::uint64_t parent = 0; ///< 0 for a root span
        unsigned thread = 0;
    };

    /** RAII span; ends when destroyed. Move-only. */
    class Scope
    {
      public:
        Scope() = default;
        Scope(Tracer* tracer, const char* name, const char* layer,
              const std::string& config, long iteration);
        Scope(Scope&& other) noexcept;
        Scope& operator=(Scope&&) = delete;
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        ~Scope();

      private:
        Tracer* tracer_ = nullptr;
        Span span_;
    };

    Tracer(bool enabled, std::string workload);

    bool enabled() const { return enabled_; }

    Scope
    span(const char* name, const char* layer,
         const std::string& config = {}, long iteration = -1)
    {
        if (!enabled_)
            return Scope();
        return Scope(this, name, layer, config, iteration);
    }

    /** Write every recorded span as a Chrome trace-event file. */
    void writeChrome(const std::string& path) const;

    /** Total span time and self time (minus child spans) per layer,
     *  in ms. */
    std::map<std::string, std::pair<double, double>> timeByLayer() const;

    std::size_t spanCount() const { return spans_.size(); }

    /** What recording one span costs, in ns (timed on a scratch
     *  tracer). */
    static double spanCostNs();

  private:
    void record(Span span);

    bool enabled_;
    std::string workload_;
    Clock::time_point origin_ = Clock::now();
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/**
 * A scratch directory unique to this process, removed with everything
 * in it when the object goes away (failures included).
 */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::filesystem::path& root);
    ~ScratchDir();
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;

    /** A fresh empty subdirectory. */
    std::filesystem::path sub(const std::string& name) const;

  private:
    std::filesystem::path path_;
};

/**
 * Everything one workload run reports: metrics with units, operations
 * attempted and failed, failed correctness checks, simulated-statistics
 * digests, layer shares and sample counts. print() emits it as the
 * final JSON line that benchmark/run.py reads.
 */
class Report
{
  public:
    void metric(const std::string& name, double value,
                const std::string& unit);
    void samples(const std::string& name, std::size_t n);
    void digest(const std::string& key, const std::string& value);
    void share(const std::string& layer, double fraction);

    /** Record a failed correctness check (the run is then incorrect). */
    void fail(const std::string& what);

    /** Count one operation of the timed phase. */
    void
    attempted()
    {
        std::lock_guard<std::mutex> lk(mutex_);
        ++attempted_;
    }

    /** Count one operation that threw, was refused or failed a check. */
    void
    failed()
    {
        std::lock_guard<std::mutex> lk(mutex_);
        ++failed_;
    }

    bool correct() const { return failures_.empty(); }

    /** Human-readable summary, then the JSON line. */
    void print(const std::string& workload, std::uint64_t seed,
               double seconds, bool traced) const;

  private:
    mutable std::mutex mutex_;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
    std::vector<std::pair<std::string, std::size_t>> samples_;
    std::vector<std::pair<std::string, std::string>> digests_;
    std::vector<std::pair<std::string, double>> shares_;
    std::vector<std::string> failures_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
};

/** What every workload receives from main(). */
struct Context
{
    std::uint64_t seed = 1;
    double seconds = 20;
    Tracer& tracer;
    Report& report;
    const ScratchDir& scratch;
};

/**
 * A workload's set-up, made afresh @p reps times over the run, so that
 * `setup_s`, their median, samples the same phases of a shared host as
 * the timed operations do: once before the timed phase, then every
 * phaseSeconds / reps of it, between two rounds. Each set-up serves the
 * operations until the next replaces it. The old one is destroyed
 * first, so only one is ever alive, and its teardown is not timed.
 */
template <typename T>
class SpreadSetup
{
  public:
    SpreadSetup(int reps, double phaseSeconds, std::function<T()> make)
        : make_(std::move(make)), reps_(static_cast<std::size_t>(reps)),
          every_(phaseSeconds / reps)
    {
        renew();
    }

    /** The set-up in use; renew() replaces it. */
    T& get() { return *current_; }

    /** Replace the set-up with a fresh one, timed. */
    void
    renew()
    {
        current_.reset();
        const Clock::time_point t0 = Clock::now();
        current_.emplace(make_());
        secs_.push_back(msSince(t0) / 1e3);
    }

    /** Between rounds, @p phaseSeconds into the phase (renewals left
     *  out): renew the set-up if that is due. */
    void
    between(double phaseSeconds)
    {
        if (secs_.size() < reps_ &&
            phaseSeconds >= every_ * static_cast<double>(secs_.size())) {
            const Clock::time_point t0 = Clock::now();
            renew();
            spent_ += msSince(t0) / 1e3;
        }
    }

    /** Wall time, in seconds, that between() spent renewing. */
    double spentSeconds() const { return spent_; }

    void
    report(Report& report) const
    {
        report.metric("setup_s", median(secs_), "s");
        report.samples("setup_s", secs_.size());
    }

  private:
    std::function<T()> make_;
    std::size_t reps_;
    double every_;
    std::vector<double> secs_;
    double spent_ = 0;
    std::optional<T> current_;
};

/**
 * Operation times of a timed phase, by kind. report() gives
 * `op_ms_p25_geomean`, the geometric mean over kinds of each kind's
 * lower-quartile time, so every kind weighs the same, and
 * `peak_rss_mb`. The lower quartile rather than the median: on a
 * shared host a slow phase only ever adds time, and the fastest
 * quarter of many repeats of one operation tracks the code's own cost,
 * where the median tracks how much of the run the host was slow
 * (README.md, "Measured").
 */
class OpTimes
{
  public:
    void
    add(const std::string& kind, double ms)
    {
        byKind_[kind].push_back(ms);
    }

    /** Times of one kind (empty if none). */
    std::vector<double> of(const std::string& kind) const;

    void report(Report& report) const;

  private:
    std::map<std::string, std::vector<double>> byKind_;
};

/** The four workloads. */
void runTable1(const Context& ctx, bool warm);
void runExplore(const Context& ctx);
void runServeMixed(const Context& ctx);

/** A Table 1 accelerator with its default (Table 5) configuration:
 *  "gamma", "extensor", "outerspace" or "sigma". */
compiler::Specification accelSpec(const std::string& name);

/** Derive an independent generator seed from the run seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/** 64-bit FNV-1a of @p text, as 16 hex digits. */
std::string hashHex(const std::string& text);

/**
 * Digest of a run's simulated statistics: modeled seconds, per-tensor
 * traffic (partial-output bytes included), per-Einsum execution
 * counters, trace events and batches. Equal digests mean the model
 * counted the same work.
 */
std::string simDigest(const compiler::SimulationResult& r);

/**
 * Compare @p got with the reference @p want leaf by leaf: the same
 * nonzero points, and values equal within @p relTol (0 = exact).
 * Returns an empty string on a match, else what differed.
 */
std::string compareTensors(const ft::Tensor& got, const ft::Tensor& want,
                           double relTol);

/** Execution counters summed over runs' records. */
struct RunCounts
{
    double muls = 0;
    double leafVisits = 0;
    double outputWrites = 0;
    double traceEvents = 0;
    double traceBatches = 0;

    void add(const compiler::SimulationResult& r);
    RunCounts& operator+=(const RunCounts& o);
};

} // namespace teaal::bench
