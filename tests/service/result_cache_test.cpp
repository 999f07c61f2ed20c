/**
 * @file
 * ResultCache tests: the persistent (cell key → MlpResult) tier of the
 * sweep service. Covers the memory-only mode, replay-on-reopen (a
 * restarted daemon starts warm), bit-exact round trips through the
 * storage form, and salvage of a log whose tail a crash tore — the
 * exact file state mlpsimd --kill-after leaves behind.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/result_json.hh"
#include "service/result_cache.hh"
#include "support/temp_path.hh"
#include "util/recordio.hh"

namespace mlpsim::service {
namespace {

std::string
tempPath(const std::string &tag)
{
    const std::string path =
        test::tempPath("mlpsim_result_cache_" + tag, ".rec");
    std::remove(path.c_str());
    return path;
}

core::MlpResult
sampleResult(uint64_t salt)
{
    core::MlpResult result;
    result.epochs = 40 + salt;
    result.usefulAccesses = 100 + 3 * salt;
    result.dmissAccesses = 80 + salt;
    result.imissAccesses = 15 + salt;
    result.pmissAccesses = 5 + salt;
    result.measuredInsts = 10000;
    result.inhibitors.record(core::Inhibitor::Maxwin);
    result.inhibitors.record(core::Inhibitor::MispredBr);
    result.accessesPerEpoch.add(1, 10 + salt);
    result.accessesPerEpoch.add(4, 30);
    return result;
}

std::string
dumpOf(const core::MlpResult &result)
{
    return core::resultToJson(result).dump(0);
}

TEST(ResultCacheTest, MemoryOnlyRecordAndLookup)
{
    ResultCache cache;
    EXPECT_FALSE(cache.persistent());
    EXPECT_EQ(cache.size(), 0u);

    const core::MlpResult stored = sampleResult(1);
    ASSERT_TRUE(cache.record("cell-a", stored).ok());
    EXPECT_EQ(cache.size(), 1u);

    core::MlpResult loaded;
    ASSERT_TRUE(cache.lookup("cell-a", &loaded));
    EXPECT_EQ(dumpOf(loaded), dumpOf(stored));
    EXPECT_FALSE(cache.lookup("cell-b", &loaded));
}

TEST(ResultCacheTest, DuplicateRecordIsIdempotent)
{
    ResultCache cache;
    ASSERT_TRUE(cache.record("cell-a", sampleResult(1)).ok());
    ASSERT_TRUE(cache.record("cell-a", sampleResult(2)).ok());
    EXPECT_EQ(cache.size(), 1u);

    // First write wins: a cell's result is immutable once recorded.
    core::MlpResult loaded;
    ASSERT_TRUE(cache.lookup("cell-a", &loaded));
    EXPECT_EQ(dumpOf(loaded), dumpOf(sampleResult(1)));
}

TEST(ResultCacheTest, ReopenReplaysEveryRecord)
{
    const std::string path = tempPath("reopen");
    {
        auto cache = ResultCache::open(path);
        ASSERT_TRUE(cache.ok()) << cache.status().toString();
        EXPECT_TRUE(cache->persistent());
        EXPECT_FALSE(cache->salvaged());
        ASSERT_TRUE(cache->record("cell-a", sampleResult(1)).ok());
        ASSERT_TRUE(cache->record("cell-b", sampleResult(2)).ok());
    }
    auto warm = ResultCache::open(path);
    ASSERT_TRUE(warm.ok()) << warm.status().toString();
    EXPECT_EQ(warm->size(), 2u);
    EXPECT_FALSE(warm->salvaged());

    core::MlpResult loaded;
    ASSERT_TRUE(warm->lookup("cell-a", &loaded));
    EXPECT_EQ(dumpOf(loaded), dumpOf(sampleResult(1)));
    ASSERT_TRUE(warm->lookup("cell-b", &loaded));
    EXPECT_EQ(dumpOf(loaded), dumpOf(sampleResult(2)));
}

TEST(ResultCacheTest, TornTailIsSalvagedAndAppendable)
{
    const std::string path = tempPath("torn");
    {
        auto cache = ResultCache::open(path);
        ASSERT_TRUE(cache.ok()) << cache.status().toString();
        ASSERT_TRUE(cache->record("cell-a", sampleResult(1)).ok());
        ASSERT_TRUE(cache->record("cell-b", sampleResult(2)).ok());
    }
    {
        // A crash mid-append: a length word promising more bytes than
        // the file holds (what --kill-after injects deliberately).
        std::ofstream out(path, std::ios::binary | std::ios::app);
        const char torn[] = {'\xe8', '\x03', '\x00', '\x00',
                             '\xde', '\xad', '\xbe', '\xef'};
        out.write(torn, sizeof(torn));
    }
    auto salvaged = ResultCache::open(path);
    ASSERT_TRUE(salvaged.ok()) << salvaged.status().toString();
    EXPECT_TRUE(salvaged->salvaged());
    EXPECT_EQ(salvaged->size(), 2u);

    core::MlpResult loaded;
    ASSERT_TRUE(salvaged->lookup("cell-a", &loaded));
    EXPECT_EQ(dumpOf(loaded), dumpOf(sampleResult(1)));

    // The salvaged log accepts new appends and replays them next open.
    ASSERT_TRUE(salvaged->record("cell-c", sampleResult(3)).ok());
    auto again = ResultCache::open(path);
    ASSERT_TRUE(again.ok()) << again.status().toString();
    EXPECT_EQ(again->size(), 3u);
    EXPECT_FALSE(again->salvaged());
    ASSERT_TRUE(again->lookup("cell-c", &loaded));
    EXPECT_EQ(dumpOf(loaded), dumpOf(sampleResult(3)));
}

/** Append a torn frame (a length word promising more bytes than the
 *  file holds) — the state a kill mid-append leaves behind. */
void
tearTail(const std::string &path)
{
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char torn[] = {'\xe8', '\x03', '\x00', '\x00',
                         '\xde', '\xad', '\xbe', '\xef'};
    out.write(torn, sizeof(torn));
}

TEST(ResultCacheTest, OpenCompactsDuplicateAndDeadRecords)
{
    const std::string path = tempPath("compact");
    {
        // Hand-build a log with frames ResultCache::record() would
        // never produce itself: a duplicate key and an unparseable
        // payload (CRC-valid junk, e.g. from a writer bug).
        auto log = RecordLog::open(path, "mlpsim-result-cache-v1");
        ASSERT_TRUE(log.ok()) << log.status().toString();
        ASSERT_TRUE(log->append(core::resultRecordToJson(
                                    "cell-a", sampleResult(1))
                                    .dump(0))
                        .ok());
        ASSERT_TRUE(log->append("this is not a json record").ok());
        ASSERT_TRUE(log->append(core::resultRecordToJson(
                                    "cell-a", sampleResult(2))
                                    .dump(0))
                        .ok());
        ASSERT_TRUE(log->append(core::resultRecordToJson(
                                    "cell-b", sampleResult(3))
                                    .dump(0))
                        .ok());
    }
    auto cache = ResultCache::open(path);
    ASSERT_TRUE(cache.ok()) << cache.status().toString();
    EXPECT_TRUE(cache->compacted());
    EXPECT_EQ(cache->size(), 2u);

    // Replay semantics are last-record-wins; compaction must keep
    // exactly that entry.
    core::MlpResult loaded;
    ASSERT_TRUE(cache->lookup("cell-a", &loaded));
    EXPECT_EQ(dumpOf(loaded), dumpOf(sampleResult(2)));

    // On disk: one frame per distinct key, nothing else.
    auto contents = readRecordFile(path);
    ASSERT_TRUE(contents.ok()) << contents.status().toString();
    EXPECT_FALSE(contents->truncated);
    EXPECT_EQ(contents->records.size(), 2u);

    // A clean log does not get rewritten again.
    auto again = ResultCache::open(path);
    ASSERT_TRUE(again.ok()) << again.status().toString();
    EXPECT_FALSE(again->compacted());
    EXPECT_EQ(again->size(), 2u);
}

TEST(ResultCacheTest, NonIntegerCountsAreSkippedAndCompactedAway)
{
    const std::string path = tempPath("non_integer");
    {
        // CRC-valid records whose counts are not non-negative
        // integers (a foreign or buggy writer): each is DataLoss on
        // replay, never an abort.
        auto log = RecordLog::open(path, "mlpsim-result-cache-v1");
        ASSERT_TRUE(log.ok()) << log.status().toString();
        metrics::JsonValue fractional =
            core::resultRecordToJson("cell-fraction", sampleResult(1));
        fractional.set("epochs", 1.5);
        metrics::JsonValue negative =
            core::resultRecordToJson("cell-negative", sampleResult(2));
        negative.set("measured_insts", int64_t(-3));
        ASSERT_TRUE(log->append(fractional.dump(0)).ok());
        ASSERT_TRUE(log->append(negative.dump(0)).ok());
        ASSERT_TRUE(log->append(core::resultRecordToJson(
                                    "cell-ok", sampleResult(3))
                                    .dump(0))
                        .ok());
    }
    auto cache = ResultCache::open(path);
    ASSERT_TRUE(cache.ok()) << cache.status().toString();
    EXPECT_TRUE(cache->compacted());
    EXPECT_EQ(cache->size(), 1u);

    core::MlpResult loaded;
    EXPECT_FALSE(cache->lookup("cell-fraction", &loaded));
    EXPECT_FALSE(cache->lookup("cell-negative", &loaded));
    ASSERT_TRUE(cache->lookup("cell-ok", &loaded));
    EXPECT_EQ(dumpOf(loaded), dumpOf(sampleResult(3)));

    auto contents = readRecordFile(path);
    ASSERT_TRUE(contents.ok()) << contents.status().toString();
    EXPECT_EQ(contents->records.size(), 1u);
}

TEST(ResultCacheTest, RepeatedKillCyclesNeverGrowTheLog)
{
    const std::string path = tempPath("killcycles");
    {
        auto cache = ResultCache::open(path);
        ASSERT_TRUE(cache.ok()) << cache.status().toString();
        ASSERT_TRUE(cache->record("cell-a", sampleResult(1)).ok());
        ASSERT_TRUE(cache->record("cell-b", sampleResult(2)).ok());
    }
    // Crash/restart loop (what repeated mlpsimd --kill-after runs do):
    // every cycle tears the tail, every reopen salvages + compacts,
    // and the steady state is exactly one frame per key — the log
    // must not accrete dead bytes across cycles.
    for (int cycle = 0; cycle < 5; ++cycle) {
        tearTail(path);
        auto cache = ResultCache::open(path);
        ASSERT_TRUE(cache.ok()) << cache.status().toString();
        EXPECT_TRUE(cache->salvaged()) << "cycle " << cycle;
        EXPECT_TRUE(cache->compacted()) << "cycle " << cycle;
        EXPECT_EQ(cache->size(), 2u) << "cycle " << cycle;

        core::MlpResult loaded;
        ASSERT_TRUE(cache->lookup("cell-a", &loaded));
        EXPECT_EQ(dumpOf(loaded), dumpOf(sampleResult(1)));

        auto contents = readRecordFile(path);
        ASSERT_TRUE(contents.ok()) << contents.status().toString();
        EXPECT_FALSE(contents->truncated);
        EXPECT_EQ(contents->records.size(), 2u) << "cycle " << cycle;
    }
}

} // namespace
} // namespace mlpsim::service
