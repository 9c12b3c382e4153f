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
 * record — as a flat string log with no pointers, so two runs can be
 * compared for identical streams.
 */
class StreamRecorder : public trace::Observer
{
  public:
    std::vector<std::string> log;

    void
    onEventBatch(const trace::EventBatch& batch) override
    {
        using trace::Event;
        log.push_back("batch:" + std::to_string(batch.size()));
        for (const Event& e : batch.events) {
            switch (e.kind) {
              case Event::Kind::LoopEnter:
                add("L", e.loop, e.coord);
                break;
              case Event::Kind::TensorAccess:
                add("A", e.input, e.level, e.coord, e.pe);
                log.back() += ":" + *e.name;
                break;
              case Event::Kind::OutputWrite:
                add("W", e.level, e.coord, e.key, e.flagA, e.flagB, e.pe);
                log.back() += ":" + *e.name;
                break;
              case Event::Kind::Swizzle:
                add("Z", e.a, e.b, e.flagA);
                log.back() += ":" + *e.name;
                break;
              case Event::Kind::TensorCopy:
                add("Y", e.a);
                log.back() += ":" + *e.name + ">" + *e.name2;
                break;
            }
        }
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
