#include "specjbb.hh"

namespace mlpsim::workloads {

namespace {

constexpr Reg rScratch = 1;
constexpr Reg rTable = 9;
constexpr Reg rAlloc = 48;
constexpr Reg rLock = 49;


// Region bases carry distinct sub-megabyte offsets so the k-th lines
// of different tables do not all land in the same cache set (real
// heaps are not aligned to multi-megabyte boundaries).
constexpr uint64_t heapBase = 0x40'0000'0000ULL + 0x1c40;
constexpr uint64_t hotBase = 0x50'0000'0000ULL + 0x6e00;
constexpr uint64_t tableBase = 0x51'0000'0000ULL + 0x9d40;
constexpr uint64_t lockBase = 0x52'0000'0000ULL + 0x1b80;

constexpr unsigned objectBytes = 128;
constexpr unsigned numLockStripes = 256;

constexpr uint32_t fidOp = 1;
constexpr uint32_t fidAlloc = 2;
constexpr uint32_t fidTouchBase = 8;
constexpr uint32_t fidHotBase = 64;

} // namespace

SpecJbbWorkload::SpecJbbWorkload(const SpecJbbParams &params)
    : WorkloadBase("specjbb2000", params.seed), prm(params)
{
    MLPSIM_ASSERT(prm.objectsPerOp >= 1 && prm.objectsPerOp <= 10,
                  "supported objects per op: 1..10");
}

void
SpecJbbWorkload::emitHotCall()
{
    const uint32_t fid =
        fidHotBase + uint32_t(random().below(prm.hotFunctions));
    callFunction(fid);
    emitCompute(rScratch, 7);
    const uint64_t hot_lines = prm.hotBytes / 64;
    const uint64_t addr = hotBase + (random()() % hot_lines) * 64;
    emitLoad(rScratch + 1, addr, trace::noReg, splitMix64(addr));
    emitAlu(rScratch + 2, rScratch + 1);
    emitCondBranch(random().chance(0.97), rScratch + 2, 2);
    emitCompute(rScratch, 3);
    returnFromFunction();
}

void
SpecJbbWorkload::emitAllocation()
{
    callFunction(fidAlloc);
    // Bump-pointer allocation in the young generation: the allocation
    // pointer is hot; the initialising stores touch fresh lines
    // (write-allocate traffic that pressures the shared L2 without
    // itself counting toward MLP).
    emitLoad(rAlloc, tableBase + 64, trace::noReg, allocCursor);
    emitCompute(rAlloc, 2);
    const uint64_t obj =
        heapBase + (3ULL << 30) +
        (allocCursor % (prm.youngGenBytes / objectBytes)) * objectBytes;
    ++allocCursor;
    for (unsigned w = 0; w < objectBytes / 64; ++w)
        emitStore(obj + w * 64, rAlloc, rScratch);
    emitStore(tableBase + 64, trace::noReg, rAlloc);
    returnFromFunction();
}

void
SpecJbbWorkload::emitObjectTouch(unsigned slot)
{
    const Reg ref = Reg(16 + 3 * (slot % 10));
    const Reg field = Reg(17 + 3 * (slot % 10));

    callFunction(fidTouchBase + (slot % 8));

    // Object-table load (hot) yields the object reference: one
    // dependent hop to the object itself. Cold objects concentrate in
    // cold ops (a new-order touching many uncached warehouse rows),
    // which is what lets config E / runahead overlap misses across the
    // CASA locks separating the touches.
    const bool cold = random().chance(
        coldOp ? prm.coldObjectFrac : prm.hotOpColdFrac);
    const uint64_t heap_objects = prm.heapBytes / objectBytes;
    const uint64_t hot_objects = prm.hotBytes / objectBytes;
    const uint64_t obj =
        cold ? heapBase + (random()() % heap_objects) * objectBytes
             : hotBase + (2ULL << 30) + 0x12340 +
                   (random()() % (hot_objects / 2)) * objectBytes;

    const uint64_t table_slot =
        tableBase + (random()() % (1 << 13)) * 8;
    emitLoad(ref, table_slot, trace::noReg, obj);

    // Java object locking: CASA on the lock stripe -- the serializing
    // instruction density that dominates SPECjbb's MLP loss.
    const uint64_t lock =
        lockBase + (splitMix64(obj) % numLockStripes) * 64;
    emitAtomic(lock, ref);

    // Field reads of the (possibly cold) object; the first is the
    // header, the rest sit on the same line.
    const bool stable = random().chance(prm.valueStability);
    emitLoad(field, obj, ref, stable ? 0x2B : (random()() | 1));
    // Some objects read a link field through the header (same line,
    // so no extra access): under config A it blocks the second-line
    // miss below while the header is outstanding.
    if (random().chance(0.45)) {
        emitAlu(Reg(field + 2), field);
        emitLoad(Reg(field + 2), obj + 32, Reg(field + 2),
                 splitMix64(obj + 32));
    }
    for (unsigned f = 1; f < prm.fieldsPerObject; ++f) {
        // Some objects spill onto a second cache line; for a cold
        // object that line is another miss. Half the spills reach the
        // second line through a pointer in the header (a dependent
        // chain step -- the depth runahead exposes), half through the
        // original reference (overlappable with the header).
        const bool second_line = f + 1 == prm.fieldsPerObject &&
                                 random().chance(prm.secondLineFrac);
        const uint64_t field_off = second_line ? 72 : 8 * f;
        Reg addr_reg = ref;
        if (second_line && random().chance(0.7)) {
            emitAlu(Reg(field + 2), field);
            addr_reg = Reg(field + 2);
        }
        emitLoad(Reg(field + 1), obj + field_off, addr_reg,
                 random().chance(prm.valueStability)
                     ? 0x2C + f
                     : (random()() | 1));
        emitAlu(field, field, Reg(field + 1));
    }
    emitCondBranch(stable || random().chance(0.85), field, 3);
    emitHotWork(field, coldOp ? prm.computePerObject / 4
                              : prm.computePerObject,
                hotBase, prm.hotBytes / 64);

    // History update.
    emitStore(obj + 16, ref, field);
    returnFromFunction();
}

void
SpecJbbWorkload::generate()
{
    ++opCounter;
    coldOp = random().chance(prm.coldOpFrac);
    callFunction(fidOp);
    emitCompute(rTable, 6);

    unsigned locks_emitted = 0;
    const unsigned overhead_chunk =
        prm.opOverheadCompute / (prm.objectsPerOp + 1);

    if (coldOp) {
        // Cold ops scan their objects back-to-back (an order touching
        // many uncached rows): consecutive CASA-guarded touches sit a
        // few tens of instructions apart, so for configurations A-D
        // the locks are exactly what caps the overlap (Figure 5) and
        // config E / runahead get to reclaim it.
        for (unsigned slot = 0; slot < prm.objectsPerOp; ++slot) {
            emitObjectTouch(slot);
            ++locks_emitted;
        }
        for (unsigned slot = 0; slot < prm.objectsPerOp; ++slot) {
            emitHotWork(rScratch, overhead_chunk, hotBase,
                        prm.hotBytes / 64);
            emitHotCall();
        }
    } else {
        for (unsigned slot = 0; slot < prm.objectsPerOp; ++slot) {
            emitObjectTouch(slot);
            ++locks_emitted; // emitObjectTouch holds one CASA
            emitHotWork(rScratch, overhead_chunk, hotBase,
                        prm.hotBytes / 64);
            emitHotCall();
        }
    }
    for (unsigned a = 0; a < prm.allocationsPerOp; ++a)
        emitAllocation();

    // Remaining object locks (synchronized blocks without a cold
    // object touch).
    while (locks_emitted < prm.locksPerOp) {
        const uint64_t lock =
            lockBase + (random()() % numLockStripes) * 64;
        emitAtomic(lock, rLock);
        emitCompute(rScratch, 10);
        ++locks_emitted;
    }

    emitHotWork(rScratch, overhead_chunk, hotBase, prm.hotBytes / 64);
    returnFromFunction();
}

SpecJbbWorkload::SpecJbbWorkload() : SpecJbbWorkload(SpecJbbParams{}) {}

} // namespace mlpsim::workloads
