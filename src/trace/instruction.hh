/**
 * @file
 * The abstract dynamic-instruction record consumed by every simulator
 * in mlpsim.
 *
 * The epoch model of the paper (Section 3) only needs each
 * instruction's *class*, its register and memory dependences, its PC
 * stream (for the I-side) and, for value prediction, the value a load
 * returns. This record is therefore ISA-neutral: SPARC specifics such
 * as CASA/LDSTUB/MEMBAR all map onto InstClass::Serializing.
 *
 * The in-memory layout is packed to 32 bytes (two records per cache
 * line) because simulators stream millions of these per run: the
 * branch target and the loaded/stored value share one word (they are
 * mutually exclusive by class — only branches have targets, and
 * branches carry no value), and the class, branch kind and taken flag
 * share one byte. The structure-of-arrays chunks of trace_chunk.hh
 * keep the same packed word and meta byte as columns.
 */
#pragma once

#include <cstdint>

namespace mlpsim::trace {

/** Architectural register count of the abstract machine. */
constexpr unsigned numArchRegs = 64;

/** Sentinel meaning "no register operand". */
constexpr uint8_t noReg = 0xff;

/** Maximum number of source registers an instruction may name. */
constexpr unsigned maxSrcRegs = 3;

/** Flavours of control transfer (used by the branch predictor). */
enum class BranchKind : uint8_t {
    None,        //!< not a branch
    Conditional, //!< direction-predicted branch
    Call,        //!< always-taken call (pushes the return address)
    Return,      //!< return (target predicted by the RAS)
    Jump,        //!< unconditional direct jump
};

/** Instruction classes distinguished by the epoch model. */
enum class InstClass : uint8_t {
    Alu,         //!< register-to-register computation
    Load,        //!< memory read into a register
    Store,       //!< memory write (srcs: address regs + data reg)
    Branch,      //!< conditional or unconditional control transfer
    Prefetch,    //!< non-binding software prefetch (no destination)
    Serializing, //!< atomic / memory-barrier (CASA, LDSTUB, MEMBAR)
};

/** Printable mnemonic for an instruction class. */
const char *instClassName(InstClass cls);

/**
 * One dynamic instruction.
 *
 * Invariants: loads have a destination and an effective address;
 * stores have no destination; branches carry taken/target;
 * serializing instructions may optionally access memory (CASA-style)
 * via effAddr, in which case they also behave as a load+store to that
 * address.
 */
struct Instruction
{
    uint64_t pc = 0;        //!< virtual PC of the instruction
    uint64_t effAddr = 0;   //!< effective address (memory classes)

    uint8_t dst = noReg;    //!< destination register
    uint8_t src[maxSrcRegs] = {noReg, noReg, noReg};

    InstClass cls() const { return static_cast<InstClass>(meta & clsMask); }
    bool taken() const { return (meta & takenBit) != 0; }
    BranchKind brKind() const
    {
        return static_cast<BranchKind>((meta >> brKindShift) & clsMask);
    }

    /** Value loaded / stored (value prediction). Zero on branches. */
    uint64_t value() const { return isBranch() ? 0 : payload; }
    /** Branch target. Zero on every other class. */
    uint64_t target() const { return isBranch() ? payload : 0; }

    void setCls(InstClass c)
    {
        meta = uint8_t((meta & ~clsMask) | static_cast<uint8_t>(c));
    }
    void setTaken(bool t)
    {
        meta = uint8_t(t ? meta | takenBit : meta & ~takenBit);
    }
    void setBrKind(BranchKind k)
    {
        meta = uint8_t((meta & ~(clsMask << brKindShift)) |
                       (static_cast<uint8_t>(k) << brKindShift));
    }
    void setValue(uint64_t v) { payload = v; }
    void setTarget(uint64_t t) { payload = t; }

    bool isMem() const
    {
        const InstClass c = cls();
        return c == InstClass::Load || c == InstClass::Store ||
               c == InstClass::Prefetch ||
               (c == InstClass::Serializing && effAddr != 0);
    }

    bool isLoad() const { return cls() == InstClass::Load; }
    bool isStore() const { return cls() == InstClass::Store; }
    bool isBranch() const { return cls() == InstClass::Branch; }
    bool isPrefetch() const { return cls() == InstClass::Prefetch; }
    bool isSerializing() const { return cls() == InstClass::Serializing; }

    bool hasDst() const { return dst != noReg; }

    // Bits 0-2: InstClass; bits 3-5: BranchKind; bit 6: taken. Public
    // so the structure-of-arrays TraceChunk can decode its meta column
    // with the same constants (see trace/trace_chunk.hh).
    static constexpr uint8_t clsMask = 0x7;
    static constexpr unsigned brKindShift = 3;
    static constexpr uint8_t takenBit = 1 << 6;

    /**
     * Raw packed-byte accessors for the SoA trace chunk, which
     * stores the meta byte and the shared payload word as columns
     * rather than re-deriving them field by field.
     * Invariant-preserving: a round trip through
     * rawMeta()/rawPayload() reproduces the instruction exactly.
     */
    uint8_t rawMeta() const { return meta; }
    void setRawMeta(uint8_t m) { meta = m; }
    uint64_t rawPayload() const { return payload; }
    void setRawPayload(uint64_t p) { payload = p; }

  private:
    uint8_t meta = 0;       //!< InstClass::Alu, BranchKind::None
    uint64_t payload = 0;   //!< branch target or loaded/stored value
};

static_assert(sizeof(Instruction) == 32,
              "Instruction must stay two-per-cache-line; see the "
              "packed-layout notes in DESIGN.md section 12");

/** Compact factory helpers used by workloads and tests. */
Instruction makeAlu(uint64_t pc, uint8_t dst, uint8_t src0 = noReg,
                    uint8_t src1 = noReg);
Instruction makeLoad(uint64_t pc, uint8_t dst, uint64_t addr,
                     uint8_t addr_reg = noReg, uint64_t value = 0);
Instruction makeStore(uint64_t pc, uint64_t addr, uint8_t data_reg = noReg,
                      uint8_t addr_reg = noReg, uint64_t value = 0);
Instruction makePrefetch(uint64_t pc, uint64_t addr,
                         uint8_t addr_reg = noReg);
Instruction makeBranch(uint64_t pc, uint64_t target, bool taken,
                       uint8_t src0 = noReg,
                       BranchKind kind = BranchKind::Conditional);
Instruction makeSerializing(uint64_t pc, uint64_t addr = 0,
                            uint8_t src0 = noReg);

} // namespace mlpsim::trace
