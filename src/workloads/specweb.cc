#include "specweb.hh"

namespace mlpsim::workloads {

namespace {

constexpr Reg rScratch = 1;
constexpr Reg rEntry = 10;
constexpr Reg rData = 12;
constexpr Reg rSink = 14;
constexpr Reg rNet = 15;


// Region bases carry distinct sub-megabyte offsets so the k-th lines
// of different tables do not all land in the same cache set (real
// heaps are not aligned to multi-megabyte boundaries).
constexpr uint64_t fileRegion = 0x60'0000'0000ULL + 0x0cc0;
constexpr uint64_t hashRegion = 0x70'0000'0000ULL + 0x4ac0;
constexpr uint64_t netRegion = 0x71'0000'0000ULL + 0x3e40;
constexpr uint64_t hotRegion = 0x72'0000'0000ULL + 0x2a700;

constexpr uint32_t fidAccept = 1;
constexpr uint32_t fidParse = 2;
constexpr uint32_t fidLookup = 3;
constexpr uint32_t fidSend = 4;
constexpr uint32_t fidHotBase = 16;
constexpr uint32_t fidColdBase = 128;

} // namespace

SpecWebWorkload::SpecWebWorkload(const SpecWebParams &params)
    : WorkloadBase("specweb99", params.seed), prm(params)
{
    MLPSIM_ASSERT(prm.minFileLines >= 1 &&
                      prm.minFileLines <= prm.maxFileLines,
                  "bad file size range");
}

uint64_t
SpecWebWorkload::fileBase(uint64_t file_id) const
{
    return fileRegion + file_id * uint64_t(prm.maxFileLines + 2) * 64;
}

unsigned
SpecWebWorkload::fileLines(uint64_t file_id) const
{
    const unsigned range = prm.maxFileLines - prm.minFileLines + 1;
    return prm.minFileLines + unsigned(splitMix64(file_id * 977) % range);
}

void
SpecWebWorkload::emitHelperCall()
{
    const uint64_t pick =
        random().zipf(prm.hotFunctions + prm.coldFunctions, prm.codeSkew);
    const uint32_t fid =
        pick < prm.hotFunctions
            ? fidHotBase + uint32_t(pick)
            : fidColdBase + uint32_t(pick - prm.hotFunctions);
    callFunction(fid);
    emitCompute(rScratch, 5);
    const uint64_t addr = hotRegion + (random()() % 2048) * 64;
    emitLoad(rScratch + 1, addr, trace::noReg, splitMix64(addr));
    emitCondBranch(random().chance(0.97), rScratch + 1, 2);
    emitCompute(rScratch + 2, 4);
    returnFromFunction();
}

void
SpecWebWorkload::emitParse()
{
    callFunction(fidParse);
    // Header parsing: hot loads (connection buffers), character-class
    // branches, checksum-ish compute.
    const unsigned chunks = prm.callsPerRequest;
    const unsigned per_chunk = prm.parseCompute / (chunks + 1);
    for (unsigned c = 0; c < chunks; ++c) {
        const uint64_t buf = netRegion + (random()() % 256) * 64;
        emitLoad(rScratch + 3, buf, trace::noReg, splitMix64(buf));
        emitCondBranch(random().chance(0.95), rScratch + 3, 2);
        emitHotWork(rScratch, per_chunk, hotRegion, 2048);
        emitHelperCall();
    }
    returnFromFunction();
}

uint64_t
SpecWebWorkload::emitLookup(uint64_t file_id, Reg entry_reg)
{
    callFunction(fidLookup);
    // Two dependent hops through the (hot) file-cache hash table:
    // bucket -> entry.
    const uint64_t bucket = hashRegion + (file_id % 1024) * 64;
    const uint64_t entry = hashRegion + (1ULL << 20) + 0x19780 +
                           (file_id % 1024) * 64;
    emitAlu(entry_reg);
    emitLoad(entry_reg, bucket, entry_reg, entry);
    emitLoad(entry_reg, entry, entry_reg, fileBase(file_id));
    emitCompute(rScratch, 6);
    returnFromFunction();
    return fileBase(file_id);
}

void
SpecWebWorkload::emitSendLoop(uint64_t file_base, unsigned file_lines,
                              Reg entry_reg)
{
    callFunction(fidSend);
    // Files are stored as chains of three-line chunks (buffer-cache
    // style): each chunk's header word -- an off-chip miss on a cold
    // file -- yields the pointer the rest of the chunk is read
    // through, so unprefetched demand misses form a dependent chain
    // while the software prefetches, which follow the sequential
    // layout, still run ahead of it.
    constexpr Reg rChain = 16;
    constexpr unsigned chunkLines = 3;
    emitAlu(rChain, entry_reg);
    const uint64_t head = loopHead();
    for (unsigned line = 0; line < file_lines; ++line) {
        const uint64_t line_addr = file_base + uint64_t(line) * 64;
        if (line % chunkLines == 0) {
            if (line > 0)
                emitAlu(rChain, rData); // previous chunk's data
            emitLoad(rChain, line_addr + 56, rChain,
                     line_addr + chunkLines * 64);
            // Chunked-encoding check on the (possibly missing) header:
            // when mispredicted during a cold burst it is unresolvable
            // and ends the window -- the branch behaviour the paper's
            // limit study removes with perfect branch prediction.
            emitCondBranch(random().chance(0.85), rChain, 2);
        }
        // Software prefetch a configurable distance ahead (SPECweb99's
        // binaries carry such prefetches; they are the paper's main
        // source of useful Pmisses).
        if (line % prm.prefetchEvery == 0 &&
            line + prm.prefetchDistance < file_lines) {
            emitPrefetch(line_addr + uint64_t(prm.prefetchDistance) * 64,
                         entry_reg);
        }
        // Copy the line: eight loads, fold, one store to the socket
        // buffer.
        for (unsigned w = 0; w < 8; ++w) {
            // Static file content; about half the words are zero
            // (sparse blocks), giving the missing-load value
            // predictor its Table 6 hit rate.
            const uint64_t word = splitMix64(line_addr + w * 8);
            emitLoad(rData, line_addr + w * 8, rChain,
                     (word % 100 < 55) ? 0 : (word | 1));
            emitAlu(rSink, rData, rSink);
        }
        emitStore(netRegion + (1ULL << 22) + 0x151c0 + (line % 1024) * 64,
                  rNet,
                  rSink);
        // Jittered per-line work (encryption blocks, ACK handling)
        // so window-size effects do not cliff on a fixed line length.
        emitCompute(rScratch,
                    prm.computePerLine + unsigned(random().below(25)));
        loopBack(head, line + 1 < file_lines, rScratch);
    }
    emitCompute(rScratch, 4);
    returnFromFunction();
}

void
SpecWebWorkload::generate()
{
    ++requestCounter;
    callFunction(fidAccept);
    emitCompute(rScratch, 8);

    emitParse();

    const uint64_t file_id =
        random().zipf(prm.numFiles, prm.fileSkew);
    const uint64_t base = emitLookup(file_id, rEntry);
    emitSendLoop(base, fileLines(file_id), rEntry);

    emitCompute(rScratch, 6);
    returnFromFunction();
}

SpecWebWorkload::SpecWebWorkload() : SpecWebWorkload(SpecWebParams{}) {}

} // namespace mlpsim::workloads
