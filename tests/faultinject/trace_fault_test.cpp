/**
 * @file
 * Fault-injection harness for the trace-file reader.
 *
 * Every test starts from a known-good file, programmatically corrupts
 * it (bit flips, truncation at each structural boundary, tampered
 * header fields, trailing garbage…) and asserts the defect is
 * *detected and reported* as a Status error — never a crash, abort,
 * or silently-wrong TraceBuffer. The whole suite also runs under
 * ASan/UBSan (faultinject_tests_san) so an out-of-bounds read on
 * corrupt input fails loudly rather than by luck.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/temp_path.hh"
#include "support/trace_corruption.hh"
#include "trace/trace_io.hh"

namespace mlpsim::test {

using namespace mlpsim::trace;

namespace {

std::string
tempPath(const char *tag)
{
    return test::tempPath(std::string("mlpsim_fault_") + tag, ".trace");
}

/** A small trace exercising every record field and class. */
TraceBuffer
sampleBuffer()
{
    TraceBuffer buf("faultinject");
    buf.append(makeLoad(0x1000, 3, 0xABCD, 2, 99));
    buf.append(makeStore(0x1004, 0x2000, 5, 4));
    buf.append(makeBranch(0x1008, 0x3000, true, 6, BranchKind::Call));
    buf.append(makePrefetch(0x100c, 0x4000, 7));
    buf.append(makeSerializing(0x1010, 0x5000, 1));
    buf.append(makeAlu(0x1014, 8, 9, 10));
    return buf;
}

/** The sample trace's on-disk image: one chunk of six records. */
std::vector<uint8_t>
freshImage(const std::string &path)
{
    const Status st = writeTrace(path, sampleBuffer());
    EXPECT_TRUE(st.ok()) << st.toString();
    std::vector<uint8_t> bytes = readFileBytes(path);
    EXPECT_EQ(bytes.size(),
              v3ChunkOffset + v3ChunkSectionSize(sampleBuffer().size()));
    return bytes;
}

/** Offset of column @p col (0 = pc, 1 = effAddr, 2 = payload) of
 *  record @p i in the sample image. */
size_t
wordOffset(size_t col, size_t i)
{
    return v3ChunkOffset + v3ChunkHeaderSize +
           8 * (col * sampleBuffer().size() + i);
}

/** The corruption must surface as a Status error, never a crash. */
testing::AssertionResult
rejects(const std::string &path, const char *expect_substring)
{
    const Expected<TraceBuffer> result = readTrace(path);
    if (result.ok()) {
        return testing::AssertionFailure()
               << "corrupt file was read back as "
               << result.value().size() << " valid records";
    }
    const std::string text = result.status().toString();
    if (text.find(expect_substring) == std::string::npos) {
        return testing::AssertionFailure()
               << "error does not mention '" << expect_substring
               << "': " << text;
    }
    return testing::AssertionSuccess();
}

} // namespace

TEST(TraceFault, HeaderMagicBitFlip)
{
    const std::string path = tempPath("magicflip");
    auto bytes = freshImage(path);
    flipBit(bytes, 0, 3);
    writeFileBytes(path, bytes);
    EXPECT_TRUE(rejects(path, "not an mlpsim trace"));
    std::remove(path.c_str());
}

TEST(TraceFault, WrongMagicEntirely)
{
    const std::string path = tempPath("badmagic");
    auto bytes = freshImage(path);
    std::memcpy(bytes.data(), "XXXX", 4);
    writeFileBytes(path, bytes);
    EXPECT_TRUE(rejects(path, "not an mlpsim trace"));
    std::remove(path.c_str());
}

TEST(TraceFault, UnsupportedVersion)
{
    const std::string path = tempPath("badversion");
    auto bytes = freshImage(path);
    const uint32_t version = 99;
    std::memcpy(bytes.data() + versionOffset, &version, sizeof(version));
    writeFileBytes(path, bytes);
    EXPECT_TRUE(rejects(path, "unsupported format version 99"));
    std::remove(path.c_str());
}

TEST(TraceFault, VersionZero)
{
    const std::string path = tempPath("version0");
    auto bytes = freshImage(path);
    const uint32_t version = 0;
    std::memcpy(bytes.data() + versionOffset, &version, sizeof(version));
    writeFileBytes(path, bytes);
    EXPECT_TRUE(rejects(path, "unsupported format version"));
    std::remove(path.c_str());
}

TEST(TraceFault, HeaderCrcDetectsTamperedCount)
{
    // Tamper with the record count *without* fixing the header CRC:
    // the checksum must catch it before any size reasoning happens.
    const std::string path = tempPath("countflip");
    auto bytes = freshImage(path);
    flipBit(bytes, countOffset, 0);
    writeFileBytes(path, bytes);
    EXPECT_TRUE(rejects(path, "header CRC mismatch"));
    std::remove(path.c_str());
}

TEST(TraceFault, RecordCountInflated)
{
    // A "plausible" tamper: bump the count and fix the header CRC so
    // only the size cross-check can catch it.
    const std::string path = tempPath("countup");
    auto bytes = freshImage(path);
    uint64_t count;
    std::memcpy(&count, bytes.data() + countOffset, sizeof(count));
    ++count;
    std::memcpy(bytes.data() + countOffset, &count, sizeof(count));
    fixHeaderCrc(bytes);
    writeFileBytes(path, bytes);
    EXPECT_TRUE(rejects(path, "truncated"));
    std::remove(path.c_str());
}

TEST(TraceFault, RecordCountDeflated)
{
    const std::string path = tempPath("countdown");
    auto bytes = freshImage(path);
    uint64_t count;
    std::memcpy(&count, bytes.data() + countOffset, sizeof(count));
    --count;
    std::memcpy(bytes.data() + countOffset, &count, sizeof(count));
    fixHeaderCrc(bytes);
    writeFileBytes(path, bytes);
    EXPECT_TRUE(rejects(path, "trailing bytes"));
    std::remove(path.c_str());
}

TEST(TraceFault, ImplausiblyHugeRecordCount)
{
    const std::string path = tempPath("hugecount");
    auto bytes = freshImage(path);
    const uint64_t count = UINT64_MAX / 2;
    std::memcpy(bytes.data() + countOffset, &count, sizeof(count));
    fixHeaderCrc(bytes);
    writeFileBytes(path, bytes);
    EXPECT_TRUE(rejects(path, "record count"));
    std::remove(path.c_str());
}

TEST(TraceFault, OversizedNameField)
{
    // A name filling all 64 bytes with no terminator must be refused,
    // not read past the end of the field.
    const std::string path = tempPath("bigname");
    auto bytes = freshImage(path);
    std::memset(bytes.data() + nameOffset, 'A', 64);
    fixHeaderCrc(bytes);
    writeFileBytes(path, bytes);
    EXPECT_TRUE(rejects(path, "NUL-terminated"));
    std::remove(path.c_str());
}

TEST(TraceFault, PayloadBitFlipsAtVariedOffsets)
{
    const std::string path = tempPath("payloadflip");
    const auto pristine = freshImage(path);
    const size_t count = sampleBuffer().size();
    // One flip per region: the prologue, the chunk's count word,
    // record 0's pc, a middle record's payload word, a meta byte, the
    // very last byte.
    const size_t offsets[] = {
        headerSize + 3,            // chunk capacity
        v3ChunkOffset,             // chunk count
        wordOffset(0, 0),          // record 0 pc
        wordOffset(2, 2) + 1,      // record 2 payload
        v3MetaOffset(count) + 3,   // record 3 meta byte
        pristine.size() - 1,       // very last byte
    };
    for (const size_t off : offsets) {
        auto bytes = pristine;
        flipBit(bytes, off, 5);
        writeFileBytes(path, bytes);
        // A CRC, a count cross-check or the meta range check fires;
        // each is an acceptable detection, a crash or success is not.
        const auto result = readTrace(path);
        EXPECT_FALSE(result.ok())
            << "payload flip at offset " << off << " was not detected";
    }
    std::remove(path.c_str());
}

TEST(TraceFault, PayloadCrcFieldItselfCorrupted)
{
    const std::string path = tempPath("crcfield");
    auto bytes = freshImage(path);
    flipBit(bytes, payloadCrcOffset, 7);
    fixHeaderCrc(bytes);
    writeFileBytes(path, bytes);
    EXPECT_TRUE(rejects(path, "payload CRC mismatch"));
    std::remove(path.c_str());
}

TEST(TraceFault, InvalidEnumSurvivesCrcFixup)
{
    // Corrupt an instruction class and *recompute* every CRC —
    // simulating a buggy writer rather than bit rot — so only the
    // per-record range check stands between us and an out-of-range
    // enum entering the simulator. The error names the record.
    const std::string path = tempPath("badenum");
    const size_t count = sampleBuffer().size();
    auto bytes = freshImage(path);
    bytes[v3MetaOffset(count) + 1] = 0x07; // InstClass 7
    fixV3Crcs(bytes, count);
    writeFileBytes(path, bytes);
    EXPECT_TRUE(rejects(path, "record 1: invalid instruction class"));

    auto bytes2 = freshImage(path);
    bytes2[v3MetaOffset(count) + 4] = 0x07 << 3; // BranchKind 7
    fixV3Crcs(bytes2, count);
    writeFileBytes(path, bytes2);
    EXPECT_TRUE(rejects(path, "record 4: invalid branch kind"));
    std::remove(path.c_str());
}

TEST(TraceFault, TruncationAtEveryStructuralBoundary)
{
    const std::string path = tempPath("truncate");
    const auto pristine = freshImage(path);
    const size_t count = sampleBuffer().size();
    const size_t cuts[] = {
        0,                            // empty file
        1,                            // mid-magic
        4,                            // magic only
        7,                            // mid-version
        8,                            // magic+version only
        15,                           // mid-count
        nameOffset + 10,              // mid-name
        payloadCrcOffset,             // name but no CRC words
        headerCrcOffset,              // header minus its CRC
        headerSize,                   // header but no payload
        headerSize + 7,               // mid-prologue
        v3ChunkOffset,                // prologue but no chunk section
        v3ChunkOffset + 5,            // mid chunk header
        wordOffset(0, 0) + 1,         // one byte into the pc column
        wordOffset(1, 0),             // pc column only
        wordOffset(2, 3) + 2,         // mid payload column
        v3MetaOffset(count) + 3,      // mid meta column
        pristine.size() - 1,          // last byte missing
    };
    for (const size_t cut : cuts) {
        std::vector<uint8_t> bytes(pristine.begin(),
                                   pristine.begin() + long(cut));
        writeFileBytes(path, bytes);
        const auto result = readTrace(path);
        EXPECT_FALSE(result.ok())
            << "truncation to " << cut << " bytes was not detected";
    }
    std::remove(path.c_str());
}

TEST(TraceFault, TrailingGarbage)
{
    const std::string path = tempPath("trailing");
    auto bytes = freshImage(path);
    bytes.insert(bytes.end(), {0xDE, 0xAD, 0xBE, 0xEF});
    writeFileBytes(path, bytes);
    EXPECT_TRUE(rejects(path, "trailing bytes"));
    std::remove(path.c_str());
}

TEST(TraceFault, ExhaustiveSingleBitFlipSweep)
{
    // The format's design property: EVERY single-bit flip anywhere in
    // the file is detected (header CRC covers the header, per-chunk and
    // payload CRCs cover the payload, and a flip inside any CRC field
    // mismatches the recomputation).
    const std::string path = tempPath("sweep");
    const auto pristine = freshImage(path);
    for (size_t byte = 0; byte < pristine.size(); ++byte) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            auto bytes = pristine;
            flipBit(bytes, byte, bit);
            writeFileBytes(path, bytes);
            const auto result = readTrace(path);
            ASSERT_FALSE(result.ok())
                << "flip of byte " << byte << " bit " << bit
                << " went undetected";
        }
    }
    std::remove(path.c_str());
}

TEST(TraceFault, MissingFileIsStatusNotCrash)
{
    const auto result = readTrace("/nonexistent/dir/x.trace");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::NotFound);
}

TEST(TraceFault, LegacyVersionsRejected)
{
    // Versions 1 and 2 (array-of-structs records) are no longer read.
    // The header CRC is valid, so only the version check can refuse
    // the file, and it must do so as a Status naming the version.
    const std::string path = tempPath("legacy");
    for (const uint32_t version : {1u, 2u}) {
        auto bytes = freshImage(path);
        std::memcpy(bytes.data() + versionOffset, &version,
                    sizeof(version));
        fixHeaderCrc(bytes);
        writeFileBytes(path, bytes);
        const auto result = readTrace(path);
        ASSERT_FALSE(result.ok()) << "version " << version;
        EXPECT_EQ(result.status().code(), ErrorCode::InvalidArgument);
        EXPECT_TRUE(rejects(path, ("unsupported format version " +
                                   std::to_string(version))
                                      .c_str()));
    }
    std::remove(path.c_str());
}

// ---- v3 (chunked structure-of-arrays) fault matrix ----

TEST(TraceFaultV3, FormatMatrixRoundTrips)
{
    // The one on-disk format loads back field-identical for every
    // record class (versions 1 and 2 are refused:
    // TraceFault.LegacyVersionsRejected).
    const TraceBuffer buf = sampleBuffer();
    const std::string path = tempPath("matrix_v3");
    ASSERT_TRUE(writeTrace(path, buf).ok());
    const auto read = readTrace(path);
    ASSERT_TRUE(read.ok()) << read.status().toString();
    ASSERT_EQ(read->size(), buf.size());
    EXPECT_EQ(read->name(), buf.name());
    for (size_t i = 0; i < buf.size(); ++i) {
        const Instruction a = buf.at(i);
        const Instruction b = read->at(i);
        EXPECT_EQ(a.pc, b.pc);
        EXPECT_EQ(a.effAddr, b.effAddr);
        EXPECT_EQ(a.value(), b.value());
        EXPECT_EQ(a.target(), b.target());
        EXPECT_EQ(a.cls(), b.cls());
        EXPECT_EQ(a.dst, b.dst);
        EXPECT_EQ(a.taken(), b.taken());
        EXPECT_EQ(a.brKind(), b.brKind());
        for (unsigned s = 0; s < trace::maxSrcRegs; ++s)
            EXPECT_EQ(a.src[s], b.src[s]);
    }
    std::remove(path.c_str());
}

TEST(TraceFaultV3, MultiChunkRoundTrip)
{
    // A trace spanning several chunks (including a partial tail
    // chunk) survives the chunked format losslessly.
    TraceBuffer buf("multichunk");
    const size_t n = size_t(TraceBuffer::chunkCapacity) * 2 + 1234;
    for (size_t i = 0; i < n; ++i)
        buf.append(makeLoad(0x1000 + 4 * i, uint8_t(i % 32),
                            0x10000 + 64 * i, 2, i));
    const std::string path = tempPath("multichunk");
    ASSERT_TRUE(writeTrace(path, buf).ok());
    const auto read = readTrace(path);
    ASSERT_TRUE(read.ok()) << read.status().toString();
    ASSERT_EQ(read->size(), n);
    for (size_t i = 0; i < n; i += 4099) {
        EXPECT_EQ(buf.at(i).pc, read->at(i).pc);
        EXPECT_EQ(buf.at(i).effAddr, read->at(i).effAddr);
        EXPECT_EQ(buf.at(i).value(), read->at(i).value());
    }
    std::remove(path.c_str());
}

TEST(TraceFaultV3, TruncatedTailRejected)
{
    const std::string path = tempPath("v3trunc");
    const auto pristine = freshImage(path);
    const size_t cuts[] = {
        headerSize,                 // header but no prologue
        headerSize + 7,             // mid-prologue
        v3ChunkOffset,             // prologue but no chunk section
        v3ChunkOffset + 3,         // mid chunk header
        v3ChunkOffset + v3ChunkHeaderSize + 5, // mid pc column
        pristine.size() - 1,          // last byte missing
    };
    for (const size_t cut : cuts) {
        std::vector<uint8_t> bytes(pristine.begin(),
                                   pristine.begin() + long(cut));
        writeFileBytes(path, bytes);
        EXPECT_TRUE(rejects(path, "truncated"))
            << "truncation to " << cut << " bytes";
    }
    std::remove(path.c_str());
}

TEST(TraceFaultV3, FlippedChunkCrcRejected)
{
    const std::string path = tempPath("v3chunkcrc");
    auto bytes = freshImage(path);
    // Flip a bit inside the stored per-chunk CRC word; the chunk CRC
    // check fires before the whole-payload CRC is even reachable.
    flipBit(bytes, v3ChunkOffset + 4, 2);
    writeFileBytes(path, bytes);
    EXPECT_TRUE(rejects(path, "CRC mismatch"));
    std::remove(path.c_str());
}

TEST(TraceFaultV3, FlippedColumnByteRejected)
{
    const std::string path = tempPath("v3column");
    const auto pristine = freshImage(path);
    const size_t count = sampleBuffer().size();
    const size_t offsets[] = {
        v3ChunkOffset + v3ChunkHeaderSize,      // first pc byte
        v3ChunkOffset + v3ChunkHeaderSize + 8 * count, // effAddr
        v3MetaOffset(count) + 2,                   // a meta byte
        pristine.size() - 1,                       // last src2 byte
    };
    for (const size_t off : offsets) {
        auto bytes = pristine;
        flipBit(bytes, off, 4);
        writeFileBytes(path, bytes);
        EXPECT_TRUE(rejects(path, "CRC mismatch"))
            << "column flip at offset " << off;
    }
    std::remove(path.c_str());
}

TEST(TraceFaultV3, InvalidMetaSurvivesCrcFixup)
{
    // A buggy writer rather than bit rot: corrupt the packed meta
    // byte and recompute every checksum, so only the meta range check
    // stands between the file and the simulators.
    const std::string path = tempPath("v3badmeta");
    const size_t count = sampleBuffer().size();

    auto bytes = freshImage(path);
    bytes[v3MetaOffset(count) + 1] = 0x06; // InstClass 6: out of range
    fixV3Crcs(bytes, count);
    writeFileBytes(path, bytes);
    EXPECT_TRUE(rejects(path, "invalid instruction class"));

    auto bytes2 = freshImage(path);
    bytes2[v3MetaOffset(count) + 2] = 0x05 << 3; // BranchKind 5
    fixV3Crcs(bytes2, count);
    writeFileBytes(path, bytes2);
    EXPECT_TRUE(rejects(path, "invalid branch kind"));

    auto bytes3 = freshImage(path);
    bytes3[v3MetaOffset(count) + 3] = 0x80; // reserved high bit
    fixV3Crcs(bytes3, count);
    writeFileBytes(path, bytes3);
    EXPECT_TRUE(rejects(path, "invalid meta byte"));
    std::remove(path.c_str());
}

TEST(TraceFaultV3, TamperedPrologueRejected)
{
    const std::string path = tempPath("v3prologue");

    // Zero chunk capacity (division guard), checksums fixed up.
    auto bytes = freshImage(path);
    std::memset(bytes.data() + headerSize, 0, 8);
    fixV3Crcs(bytes, sampleBuffer().size());
    writeFileBytes(path, bytes);
    EXPECT_TRUE(rejects(path, "chunk capacity"));

    // Chunk count inconsistent with the record count.
    auto bytes2 = freshImage(path);
    const uint64_t two = 2;
    std::memcpy(bytes2.data() + headerSize + 8, &two, sizeof(two));
    fixV3Crcs(bytes2, sampleBuffer().size());
    writeFileBytes(path, bytes2);
    EXPECT_TRUE(rejects(path, "chunk-count mismatch"));
    std::remove(path.c_str());
}

} // namespace mlpsim::test
