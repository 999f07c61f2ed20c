#include "database.hh"

namespace mlpsim::workloads {

namespace {

// Register allocation (see trace::numArchRegs = 64):
//   r1-r7    scratch compute
//   r8       transaction context
//   r10+3p   probe p's chase register
//   r11+3p   probe p's key register
//   r12+3p   probe p's row-value register
//   r40-r47  row/field scratch
//   r50      log cursor, r51 lock base
constexpr Reg rScratch = 1;
constexpr Reg rTxn = 8;
constexpr Reg rField = 40;
constexpr Reg rLog = 50;
constexpr Reg rLock = 51;


// Region bases carry distinct sub-megabyte offsets so the k-th lines
// of different tables do not all land in the same cache set (real
// heaps are not aligned to multi-megabyte boundaries).
constexpr uint64_t btreeBase = 0x10'0000'0000ULL + 0x2e80;
constexpr uint64_t rowBase = 0x20'0000'0000ULL + 0x0b40;
constexpr uint64_t hotBase = 0x30'0000'0000ULL + 0x55c0;
constexpr uint64_t lockBase = 0x31'0000'0000ULL + 0x0c80;
constexpr uint64_t logBase = 0x32'0000'0000ULL + 0x1f00;

constexpr uint64_t nodeBytes = 256;
constexpr unsigned numLocks = 512;

// Function-id layout within the synthetic code segment.
constexpr uint32_t fidTxnBegin = 1;
constexpr uint32_t fidTxnEnd = 2;
constexpr uint32_t fidLog = 3;
constexpr uint32_t fidProbeBase = 8;    // one per probe slot
constexpr uint32_t fidHotBase = 32;     // hotFunctions dispatcher funcs
constexpr uint32_t fidColdBase = 256;   // coldFunctions Zipf tail

} // namespace

DatabaseWorkload::DatabaseWorkload(const DatabaseParams &params)
    : WorkloadBase("database", params.seed), prm(params)
{
    MLPSIM_ASSERT(prm.btreeLevels >= 2 && prm.btreeLevels <= 6,
                  "supported B-tree depths: 2..6");
    MLPSIM_ASSERT(prm.probesPerTxn >= 1 && prm.probesPerTxn <= 8,
                  "supported probes per transaction: 1..8");
}

uint64_t
DatabaseWorkload::levelNodes(unsigned level) const
{
    uint64_t n = 1;
    for (unsigned l = 0; l < level; ++l)
        n *= prm.btreeFanout;
    return n;
}

uint64_t
DatabaseWorkload::nodeAddr(unsigned level, uint64_t index) const
{
    // Levels are laid out contiguously; offset by the nodes of all
    // shallower levels.
    uint64_t offset = 0;
    for (unsigned l = 0; l < level; ++l)
        offset += levelNodes(l);
    return btreeBase + (offset + index) * nodeBytes;
}

void
DatabaseWorkload::emitHelperCall()
{
    // Zipf-popular helper function: hot helpers stay L2 resident, the
    // tail provides the instruction-side misses the paper reports.
    const uint64_t pick =
        random().zipf(prm.hotFunctions + prm.coldFunctions, prm.codeSkew);
    const uint32_t fid =
        pick < prm.hotFunctions
            ? fidHotBase + uint32_t(pick)
            : fidColdBase + uint32_t(pick - prm.hotFunctions);
    callFunction(fid);
    // A short body: compute, a couple of hot-metadata loads and a
    // predictable branch.
    emitCompute(rScratch, 6);
    const uint64_t hot_lines = prm.hotRegionBytes / 64;
    const uint64_t meta =
        hotBase + (random()() % hot_lines) * 64;
    emitLoad(rScratch + 1, meta, trace::noReg, splitMix64(meta));
    emitAlu(rScratch + 2, rScratch + 1, rScratch);
    emitCondBranch(true, rScratch + 2, 2);
    emitCompute(rScratch + 3, 4);
    returnFromFunction();
}

void
DatabaseWorkload::emitTxnBegin()
{
    callFunction(fidTxnBegin);
    emitCompute(rTxn, 5);
    // Lock acquire: CASA on a hot lock stripe (stays cache resident).
    const uint64_t lock =
        lockBase + (txnCounter % numLocks) * 64;
    emitAlu(rLock);
    emitAtomic(lock, rLock);
    emitCompute(rTxn, 4);
    returnFromFunction();
}

void
DatabaseWorkload::emitTxnEnd()
{
    callFunction(fidTxnEnd);
    emitCompute(rScratch, 4);
    emitMembar(); // commit barrier
    const uint64_t lock =
        lockBase + (txnCounter % numLocks) * 64;
    emitStore(lock, trace::noReg, rTxn); // lock release
    returnFromFunction();
}

void
DatabaseWorkload::emitLogAppend()
{
    callFunction(fidLog);
    // Sequential stores into the (hot, streaming) log buffer.
    for (unsigned w = 0; w < 4; ++w) {
        const uint64_t slot = logBase + (logCursor % (1 << 16)) * 8;
        emitStore(slot, trace::noReg, Reg(rField + (w & 3)));
        ++logCursor;
    }
    emitCompute(rScratch, 3);
    returnFromFunction();
}

void
DatabaseWorkload::emitRowAccess(unsigned probe_index, uint64_t row_addr,
                                Reg row_reg)
{
    const Reg field0 = Reg(rField + (probe_index & 3));
    const Reg field1 = Reg(rField + 4 + (probe_index & 3));
    const Reg detail = Reg(rField + 8 + (probe_index & 3));

    auto stable_value = [&](uint64_t site_constant) {
        return random().chance(prm.fieldValueStability)
                   ? site_constant
                   : (random()() | 1);
    };

    // Row header (usually an off-chip miss: the row region dwarfs the
    // L2). Its value is a skewed status field: reread stability feeds
    // the value predictor the way low-cardinality DB columns do.
    emitLoad(field0, row_addr, row_reg, stable_value(0x11));

    // A field chased off the header within the same row line: a true
    // dependent load. Config A blocks independent loads behind it
    // while it waits for the header; configs B/C do not (it is a load,
    // not a store). It lands on the already-fetched header line, so
    // it adds no off-chip access of its own.
    auto emit_same_line_detail = [&] {
        emitAlu(detail, field0);
        emitLoad(detail, row_addr + 40, detail, stable_value(0x23));
        emitAlu(detail, detail, field0);
    };

    // An overflow record chased off the header in a different row: a
    // dependent chain step that usually misses (runahead depth).
    auto emit_overflow_detail = [&] {
        emitAlu(detail, field0);
        const uint64_t detail_addr =
            rowBase + (splitMix64(row_addr ^ 0x9e3779b9ULL) %
                       (prm.rowRegionBytes / 128)) * 128;
        emitLoad(detail, detail_addr, detail, stable_value(0x23));
        emitAlu(detail, detail, field0);
    };

    // Independent second row line(s): overlappable with the header on
    // any machine whose window reaches them.
    auto emit_indep = [&] {
        for (unsigned l = 1; l <= prm.rowLinesTouched - 1; ++l) {
            // Not every row spills onto another line: 40% of these
            // reads land on the already-fetched header line.
            const uint64_t off =
                random().chance(0.4) ? 48 : uint64_t(l) * 64;
            emitLoad(field1, row_addr + off, row_reg,
                     stable_value(0x17 + l));
            emitAlu(field1, field1, field0);
        }
    };

    // An update whose slot address is computed from the (possibly
    // missing) header: config B stalls later loads on it, config C
    // speculates past it.
    auto emit_dep_store = [&] {
        emitAlu(rScratch + 6, field0);
        emitStore(row_addr + 8, Reg(rScratch + 6), field0);
    };

    // Three row shapes with distinct issue-policy signatures:
    //  - dependent same-line field between header and the second line:
    //    config A splits the pair, B/C overlap it;
    //  - header-addressed store between them: A and B split, C
    //    overlaps;
    //  - independent line first (plus an overflow chase): every
    //    policy overlaps, and a stall-on-use machine gets its small
    //    edge over stall-on-miss.
    const double shape = random().uniform();
    if (shape < 0.10) {
        emit_same_line_detail();
        emit_indep();
        emit_dep_store();
    } else if (shape < 0.55) {
        emit_dep_store();
        emit_indep();
        emit_same_line_detail();
    } else {
        emit_indep();
        emit_dep_store();
        emit_overflow_detail();
    }

    // Predicate on the header: data-dependent and occasionally
    // mispredicted while its operand is off-chip -- the paper's
    // unresolvable-branch window termination.
    emitCondBranch(random().chance(prm.predicateSkew), field0, 3);
    emitCompute(field1, 4);
}

Reg
DatabaseWorkload::emitIndexProbe(unsigned probe_index, Reg chain_input)
{
    const Reg ptr = Reg(10 + 3 * probe_index);
    const Reg key = Reg(11 + 3 * probe_index);
    const Reg out = Reg(12 + 3 * probe_index);

    callFunction(fidProbeBase + probe_index);

    // Key computation. A dependent probe derives its key from the
    // previous probe's row value (rowid lookup), serialising the two
    // probes' miss chains.
    if (chain_input != trace::noReg) {
        emitAlu(key, chain_input);
    } else {
        emitAlu(key);
    }
    emitCompute(key, 2);

    // Descend the tree. The chosen child index comes from the Zipf-
    // skewed key, fixed per level so the walk is a consistent path.
    const uint64_t leaf_count = levelNodes(prm.btreeLevels - 1);
    const uint64_t leaf_pick = random().zipf(leaf_count, prm.keySkew);

    uint64_t node_index = 0;
    for (unsigned level = 0; level < prm.btreeLevels; ++level) {
        // Child index on this level's path toward leaf_pick.
        uint64_t span = 1;
        for (unsigned l = level + 1; l < prm.btreeLevels; ++l)
            span *= prm.btreeFanout;
        const uint64_t addr = nodeAddr(level, node_index);
        const uint64_t child = (leaf_pick / span) % prm.btreeFanout;

        // Node header: keys/occupancy. The next hop's address is the
        // loaded child pointer -> a true dependent chain.
        const uint64_t next_index = node_index * prm.btreeFanout + child;
        const uint64_t next_addr =
            level + 1 < prm.btreeLevels
                ? nodeAddr(level + 1, next_index)
                : rowBase + (splitMix64(next_index) %
                             (prm.rowRegionBytes / 128)) * 128;

        emitLoad(ptr, addr, level == 0 ? key : ptr, addr + 16);
        emitAlu(rScratch + 4, ptr, key);        // key compare
        emitCondBranch((child & 7) != 0, rScratch + 4, 2); // skewed search direction
        emitLoad(ptr, addr + 16 + (child % 6) * 8, ptr, next_addr);
        emitCompute(rScratch + 5, 2);
        node_index = next_index;
    }

    // `ptr` now holds the row address (value of the leaf entry).
    const uint64_t row_addr = rowBase +
        (splitMix64(node_index) % (prm.rowRegionBytes / 128)) * 128;
    emitRowAccess(probe_index, row_addr, ptr);
    emitAlu(out, Reg(rField + (probe_index & 3)));

    returnFromFunction();
    return out;
}

void
DatabaseWorkload::generate()
{
    ++txnCounter;
    emitTxnBegin();

    // Parse/plan overhead: hot compute sprinkled with helper calls
    // into the Zipf-skewed code segment.
    unsigned overhead_left = prm.txnOverheadCompute;
    const unsigned chunk =
        prm.txnOverheadCompute / (prm.callsPerTxn + 1);
    for (unsigned c = 0; c < prm.callsPerTxn; ++c) {
        emitHotWork(rScratch, chunk, hotBase, prm.hotRegionBytes / 64);
        emitHelperCall();
        overhead_left -= std::min(overhead_left, chunk);
    }
    emitHotWork(rScratch, overhead_left, hotBase,
                prm.hotRegionBytes / 64);

    Reg prev_row = trace::noReg;
    for (unsigned p = 0; p < prm.probesPerTxn; ++p) {
        const bool dependent =
            p > 0 && random().chance(prm.probeDependentFrac);
        const Reg out =
            emitIndexProbe(p, dependent ? prev_row : trace::noReg);
        prev_row = out;
        emitHotWork(rScratch, prm.interProbeCompute, hotBase,
                    prm.hotRegionBytes / 64);
    }

    emitLogAppend();
    emitTxnEnd();
}

DatabaseWorkload::DatabaseWorkload() : DatabaseWorkload(DatabaseParams{}) {}

} // namespace mlpsim::workloads
