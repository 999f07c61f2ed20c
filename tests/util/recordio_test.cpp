/**
 * @file
 * Record-file (util/recordio.hh) round-trip and corruption-recovery
 * tests: the storage guarantees the checkpoint/resume journal stands
 * on. The corruption cases (truncated tail, bit-flipped payload,
 * foreign magic, mismatched meta) mirror what a kill -9 or a stray
 * writer actually leaves behind.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "support/temp_path.hh"
#include "util/recordio.hh"

namespace mlpsim {
namespace {

std::string
tempPath(const std::string &tag)
{
    const std::string path = test::tempPath("mlpsim_recordio_" + tag, ".bin");
    std::remove(path.c_str());
    return path;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), std::streamsize(data.size()));
}

constexpr const char *kMeta = "test-log-v1;param=7";

TEST(RecordIoTest, MissingFileIsNotFound)
{
    const auto contents = readRecordFile(tempPath("missing"));
    ASSERT_FALSE(contents.ok());
    EXPECT_EQ(contents.status().code(), ErrorCode::NotFound);
}

TEST(RecordIoTest, FreshLogRoundTrips)
{
    const std::string path = tempPath("roundtrip");
    {
        auto log = RecordLog::open(path, kMeta);
        ASSERT_TRUE(log.ok()) << log.status().toString();
        EXPECT_TRUE(log->freshStart());
        EXPECT_FALSE(log->salvaged());
        EXPECT_TRUE(log->recovered().empty());
        ASSERT_TRUE(log->append("first record").ok());
        ASSERT_TRUE(log->append("").ok()); // empty payloads are legal
        ASSERT_TRUE(log->append("third\0binary\xff").ok());
    }
    const auto contents = readRecordFile(path);
    ASSERT_TRUE(contents.ok()) << contents.status().toString();
    EXPECT_EQ(contents->meta, kMeta);
    EXPECT_FALSE(contents->truncated);
    ASSERT_EQ(contents->records.size(), 3u);
    EXPECT_EQ(contents->records[0], "first record");
    EXPECT_EQ(contents->records[1], "");
    // The string literal stops at the embedded NUL; what was appended
    // is what must come back.
    EXPECT_EQ(contents->records[2], std::string("third"));
}

TEST(RecordIoTest, ReopenRecoversPriorRecordsAndAppends)
{
    const std::string path = tempPath("reopen");
    {
        auto log = RecordLog::open(path, kMeta);
        ASSERT_TRUE(log.ok());
        ASSERT_TRUE(log->append("one").ok());
        ASSERT_TRUE(log->append("two").ok());
    }
    {
        auto log = RecordLog::open(path, kMeta);
        ASSERT_TRUE(log.ok());
        EXPECT_FALSE(log->freshStart());
        EXPECT_FALSE(log->salvaged());
        ASSERT_EQ(log->recovered().size(), 2u);
        EXPECT_EQ(log->recovered()[0], "one");
        EXPECT_EQ(log->recovered()[1], "two");
        ASSERT_TRUE(log->append("three").ok());
    }
    const auto contents = readRecordFile(path);
    ASSERT_TRUE(contents.ok());
    ASSERT_EQ(contents->records.size(), 3u);
    EXPECT_EQ(contents->records[2], "three");
}

TEST(RecordIoTest, MetaMismatchDiscardsAndStartsFresh)
{
    const std::string path = tempPath("meta_mismatch");
    {
        auto log = RecordLog::open(path, "test-log-v1;param=7");
        ASSERT_TRUE(log.ok());
        ASSERT_TRUE(log->append("stale record").ok());
    }
    {
        // Same file, different parameters: half-trusting the old
        // records would mix incompatible results, so the log restarts.
        auto log = RecordLog::open(path, "test-log-v1;param=8");
        ASSERT_TRUE(log.ok());
        EXPECT_TRUE(log->freshStart());
        EXPECT_TRUE(log->recovered().empty());
        ASSERT_TRUE(log->append("new record").ok());
    }
    const auto contents = readRecordFile(path);
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(contents->meta, "test-log-v1;param=8");
    ASSERT_EQ(contents->records.size(), 1u);
    EXPECT_EQ(contents->records[0], "new record");
}

TEST(RecordIoTest, TruncatedTailIsDroppedAndSalvaged)
{
    const std::string path = tempPath("truncated");
    {
        auto log = RecordLog::open(path, kMeta);
        ASSERT_TRUE(log.ok());
        ASSERT_TRUE(log->append("intact-1").ok());
        ASSERT_TRUE(log->append("intact-2").ok());
        ASSERT_TRUE(log->append("will-be-torn").ok());
    }
    // Simulate a kill mid-append: chop the last frame in half.
    std::string bytes = slurp(path);
    ASSERT_GT(bytes.size(), 6u);
    spit(path, bytes.substr(0, bytes.size() - 6));

    {
        const auto contents = readRecordFile(path);
        ASSERT_TRUE(contents.ok());
        EXPECT_TRUE(contents->truncated);
        ASSERT_EQ(contents->records.size(), 2u);
    }
    {
        auto log = RecordLog::open(path, kMeta);
        ASSERT_TRUE(log.ok());
        EXPECT_TRUE(log->salvaged());
        EXPECT_FALSE(log->freshStart());
        ASSERT_EQ(log->recovered().size(), 2u);
        EXPECT_EQ(log->recovered()[0], "intact-1");
        EXPECT_EQ(log->recovered()[1], "intact-2");
        ASSERT_TRUE(log->append("appended-after-salvage").ok());
    }
    // The salvage rewrite must leave a fully valid file behind.
    const auto contents = readRecordFile(path);
    ASSERT_TRUE(contents.ok());
    EXPECT_FALSE(contents->truncated);
    ASSERT_EQ(contents->records.size(), 3u);
    EXPECT_EQ(contents->records[2], "appended-after-salvage");
}

TEST(RecordIoTest, BitFlippedRecordIsDroppedByCrc)
{
    const std::string path = tempPath("bitflip");
    {
        auto log = RecordLog::open(path, kMeta);
        ASSERT_TRUE(log.ok());
        ASSERT_TRUE(log->append("good").ok());
        ASSERT_TRUE(log->append("about to rot").ok());
    }
    // Flip one bit in the final record's payload; its CRC no longer
    // matches, so the parser must drop it (and everything after).
    std::string bytes = slurp(path);
    bytes[bytes.size() - 3] ^= 0x20;
    spit(path, bytes);

    const auto contents = readRecordFile(path);
    ASSERT_TRUE(contents.ok());
    EXPECT_TRUE(contents->truncated);
    ASSERT_EQ(contents->records.size(), 1u);
    EXPECT_EQ(contents->records[0], "good");

    auto log = RecordLog::open(path, kMeta);
    ASSERT_TRUE(log.ok());
    EXPECT_TRUE(log->salvaged());
    ASSERT_EQ(log->recovered().size(), 1u);
}

TEST(RecordIoTest, ForeignMagicIsDataLossForReadButFreshForOpen)
{
    const std::string path = tempPath("foreign");
    spit(path, "definitely not a record file\n");

    const auto contents = readRecordFile(path);
    ASSERT_FALSE(contents.ok());
    EXPECT_EQ(contents.status().code(), ErrorCode::DataLoss);

    // open() treats an unusable file as "no journal": it restarts
    // rather than failing the sweep over its own cache file.
    auto log = RecordLog::open(path, kMeta);
    ASSERT_TRUE(log.ok());
    EXPECT_TRUE(log->freshStart());
    ASSERT_TRUE(log->append("rewritten").ok());
    const auto reread = readRecordFile(path);
    ASSERT_TRUE(reread.ok());
    ASSERT_EQ(reread->records.size(), 1u);
}

TEST(RecordIoTest, CorruptMetaFrameStartsFresh)
{
    const std::string path = tempPath("corrupt_meta");
    {
        auto log = RecordLog::open(path, kMeta);
        ASSERT_TRUE(log.ok());
        ASSERT_TRUE(log->append("payload").ok());
    }
    // Corrupt the meta frame itself (right after the 8-byte magic):
    // the whole file is untrustworthy and must be discarded.
    std::string bytes = slurp(path);
    bytes[8 + 8] ^= 0xff; // first payload byte of frame 0
    spit(path, bytes);

    auto log = RecordLog::open(path, kMeta);
    ASSERT_TRUE(log.ok());
    EXPECT_TRUE(log->freshStart());
    EXPECT_TRUE(log->recovered().empty());
}

TEST(RecordIoTest, RewriteReplacesContentsAndResumesAppending)
{
    const std::string path = tempPath("rewrite");
    {
        auto log = RecordLog::open(path, kMeta);
        ASSERT_TRUE(log.ok());
        ASSERT_TRUE(log->append("a").ok());
        ASSERT_TRUE(log->append("b").ok());
        ASSERT_TRUE(log->append("c").ok());

        // Compact to one record; the in-memory view follows the file.
        ASSERT_TRUE(log->rewrite({"merged"}).ok());
        ASSERT_EQ(log->recovered().size(), 1u);
        EXPECT_EQ(log->recovered()[0], "merged");

        // Appends land after the rewritten contents, not the old ones.
        ASSERT_TRUE(log->append("after").ok());
    }
    const auto contents = readRecordFile(path);
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(contents->meta, kMeta);
    EXPECT_FALSE(contents->truncated);
    ASSERT_EQ(contents->records.size(), 2u);
    EXPECT_EQ(contents->records[0], "merged");
    EXPECT_EQ(contents->records[1], "after");

    auto reopened = RecordLog::open(path, kMeta);
    ASSERT_TRUE(reopened.ok());
    EXPECT_FALSE(reopened->salvaged());
    EXPECT_EQ(reopened->recovered().size(), 2u);
}

} // namespace
} // namespace mlpsim
