/** @file Binary trace file round-tripping and error handling. */
#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>
#include <string>

#include "support/trace_corruption.hh"
#include "trace/trace_io.hh"
#include "workloads/micro.hh"

#include <sys/stat.h>

namespace mlpsim::test {

using namespace mlpsim::trace;

namespace {

std::string
tempPath(const char *tag)
{
    return ::testing::TempDir() + "mlpsim_" + tag + ".trace";
}

} // namespace

TEST(TraceIo, RoundTripsEveryField)
{
    TraceBuffer buf("roundtrip");
    buf.append(makeLoad(0x1000, 3, 0xABCD, 2, 99));
    buf.append(makeStore(0x1004, 0x2000, 5, 4));
    buf.append(makeBranch(0x1008, 0x3000, true, 6, BranchKind::Call));
    buf.append(makePrefetch(0x100c, 0x4000, 7));
    buf.append(makeSerializing(0x1010, 0x5000, 1));
    buf.append(makeAlu(0x1014, 8, 9, 10));

    const std::string path = tempPath("roundtrip");
    ASSERT_TRUE(writeTrace(path, buf).ok());
    const auto loaded = readTrace(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    const TraceBuffer &read = *loaded;

    ASSERT_EQ(read.size(), buf.size());
    EXPECT_EQ(read.name(), "roundtrip");
    for (size_t i = 0; i < buf.size(); ++i) {
        const Instruction &a = buf.at(i);
        const Instruction &b = read.at(i);
        EXPECT_EQ(a.pc, b.pc);
        EXPECT_EQ(a.effAddr, b.effAddr);
        EXPECT_EQ(a.value(), b.value());
        EXPECT_EQ(a.target(), b.target());
        EXPECT_EQ(a.cls(), b.cls());
        EXPECT_EQ(a.dst, b.dst);
        EXPECT_EQ(a.taken(), b.taken());
        EXPECT_EQ(a.brKind(), b.brKind());
        for (unsigned s = 0; s < maxSrcRegs; ++s)
            EXPECT_EQ(a.src[s], b.src[s]);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, RoundTripsGeneratedWorkload)
{
    workloads::SerializingStormWorkload w;
    TraceBuffer buf("storm");
    buf.fill(w, 5000);
    const std::string path = tempPath("workload");
    ASSERT_TRUE(writeTrace(path, buf).ok());
    const auto loaded = readTrace(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    const TraceBuffer &read = *loaded;
    ASSERT_EQ(read.size(), buf.size());
    for (size_t i = 0; i < buf.size(); i += 97) {
        EXPECT_EQ(buf.at(i).pc, read.at(i).pc);
        EXPECT_EQ(buf.at(i).effAddr, read.at(i).effAddr);
        EXPECT_EQ(buf.at(i).cls(), read.at(i).cls());
    }
    std::remove(path.c_str());
}

TEST(TraceIo, StatusApiRoundTrips)
{
    TraceBuffer buf("statusapi");
    buf.append(makeLoad(0x1000, 3, 0xABCD, 2, 99));
    buf.append(makeAlu(0x1004, 4, 3));

    const std::string path = tempPath("statusapi");
    ASSERT_TRUE(writeTrace(path, buf).ok());
    const auto read = readTrace(path);
    ASSERT_TRUE(read.ok()) << read.status().toString();
    EXPECT_EQ(read->size(), buf.size());
    EXPECT_EQ(read->name(), "statusapi");
    std::remove(path.c_str());
}

TEST(TraceIo, CrcMismatchIsAStatusError)
{
    TraceBuffer buf("crc");
    for (int i = 0; i < 4; ++i)
        buf.append(makeAlu(0x100 + 4u * unsigned(i), 1));
    const std::string path = tempPath("crc");
    ASSERT_TRUE(writeTrace(path, buf).ok());

    auto bytes = readFileBytes(path);
    flipBit(bytes, v3ChunkOffset + v3ChunkHeaderSize + 8 + 5, 3);
    writeFileBytes(path, bytes);

    const auto read = readTrace(path);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), ErrorCode::DataLoss);
    EXPECT_NE(read.status().message().find("CRC"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIo, WriteIsAtomicAndLeavesNoTempFile)
{
    TraceBuffer buf("atomic");
    buf.append(makeAlu(0x100, 1));
    const std::string path = tempPath("atomic");
    ASSERT_TRUE(writeTrace(path, buf).ok());

    const std::string temp =
        path + ".tmp." + std::to_string(getpid());
    struct stat st;
    EXPECT_NE(::stat(temp.c_str(), &st), 0)
        << "temporary file left behind: " << temp;
    EXPECT_EQ(::stat(path.c_str(), &st), 0);
    std::remove(path.c_str());
}

TEST(TraceIo, FailedWriteLeavesExistingFileUntouched)
{
    TraceBuffer original("original");
    original.append(makeAlu(0x100, 1));
    const std::string path = tempPath("inplace");
    ASSERT_TRUE(writeTrace(path, original).ok());

    // Block the writer's temp path with a directory so the rewrite
    // fails before it can touch the destination.
    const std::string temp =
        path + ".tmp." + std::to_string(getpid());
    ASSERT_EQ(::mkdir(temp.c_str(), 0755), 0);
    TraceBuffer replacement("replacement");
    replacement.append(makeAlu(0x200, 2));
    replacement.append(makeAlu(0x204, 3));
    const Status st = writeTrace(path, replacement);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find(path), std::string::npos);
    ::rmdir(temp.c_str());

    const auto read = readTrace(path);
    ASSERT_TRUE(read.ok()) << read.status().toString();
    EXPECT_EQ(read->name(), "original");
    EXPECT_EQ(read->size(), 1u);
    std::remove(path.c_str());
}

TEST(TraceIo, WriteToMissingDirectoryIsAStatusError)
{
    TraceBuffer buf("nodir");
    buf.append(makeAlu(0x100, 1));
    const Status st = writeTrace("/nonexistent/dir/x.trace", buf);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::IoError);
    EXPECT_NE(st.message().find("/nonexistent/dir/x.trace"),
              std::string::npos);
}

} // namespace mlpsim::test
