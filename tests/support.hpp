/**
 * @file
 * Helpers shared by the test suites: a per-test scratch directory and
 * a recorder that turns a delivered trace stream into comparable text.
 */
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "trace/batch.hpp"
#include "trace/observer.hpp"

namespace teaal::test
{

/** A scratch directory path owned by the running test alone: ctest
 *  runs the tests of one suite concurrently, so a shared name would
 *  let one test's teardown delete another's inputs. */
inline std::filesystem::path
testScratchDir(const std::string& prefix)
{
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return std::filesystem::temp_directory_path() /
           (prefix + info->test_suite_name() + "_" + info->name());
}

/** testScratchDir, created empty and removed on destruction. */
class TempDir
{
  public:
    TempDir() : dir_(testScratchDir("teaal_test_"))
    {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    ~TempDir() { std::filesystem::remove_all(dir_); }

    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;

    std::string str() const { return dir_.string(); }

    std::string
    path(const std::string& file) const
    {
        return (dir_ / file).string();
    }

    std::size_t
    fileCount() const
    {
        std::size_t n = 0;
        for ([[maybe_unused]] const auto& e :
             std::filesystem::directory_iterator(dir_))
            ++n;
        return n;
    }

  private:
    std::filesystem::path dir_;
};

/**
 * Records a delivered trace stream — every batch boundary and every
 * record, replayed through the per-event callbacks — as a flat string
 * log with no pointers, so two runs can be compared for identical
 * streams.
 */
class StreamRecorder : public trace::Observer
{
  public:
    std::vector<std::string> log;

    void
    onEventBatch(const trace::EventBatch& batch) override
    {
        log.push_back("batch:" + std::to_string(batch.size()));
        trace::Observer::onEventBatch(batch); // replay per-event below
    }

    void
    onLoopEnter(std::size_t loop, ft::Coord c) override
    {
        add("L", loop, c);
    }
    void
    onCoIterate(std::size_t loop, std::size_t steps, std::size_t matches,
                std::size_t drivers, std::uint64_t pe) override
    {
        add("I", loop, steps, matches, drivers, pe);
    }
    void
    onCoordScan(int input, std::size_t level, std::size_t count,
                std::uint64_t pe) override
    {
        add("S", input, level, count, pe);
    }
    void
    onTensorAccess(int input, const std::string& tensor,
                   std::size_t level, ft::Coord c, const void* key,
                   std::uint64_t pe) override
    {
        (void)key;
        add("A", input, level, c, pe);
        log.back() += ":" + tensor;
    }
    void
    onOutputWrite(const std::string& tensor, std::size_t level,
                  ft::Coord c, std::uint64_t path_key, bool inserted,
                  bool at_leaf, std::uint64_t pe) override
    {
        add("W", level, c, path_key, inserted, at_leaf, pe);
        log.back() += ":" + tensor;
    }
    void
    onCompute(char op, std::uint64_t pe, std::size_t count) override
    {
        add("C", op, pe, count);
    }
    void
    onSwizzle(const std::string& tensor, std::size_t elements,
              std::size_t ways, bool online) override
    {
        add("Z", elements, ways, online);
        log.back() += ":" + tensor;
    }
    void
    onTensorCopy(const std::string& from, const std::string& to,
                 std::size_t elements) override
    {
        add("Y", elements);
        log.back() += ":" + from + ">" + to;
    }

  private:
    template <typename... Args>
    void
    add(const char* tag, Args... args)
    {
        std::ostringstream os;
        os << tag;
        ((os << ':' << args), ...);
        log.push_back(os.str());
    }
};

} // namespace teaal::test
