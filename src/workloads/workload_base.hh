/**
 * @file
 * Framework for program-like synthetic workload generators.
 *
 * The paper's traces are proprietary (a commercial database,
 * SPECjbb2000, SPECweb99 on SPARC). What the epoch model actually
 * consumes is the *structure* of a trace: register/memory dependences,
 * the spatial/temporal locality of its address streams, the PC stream
 * (instruction footprint), branch behaviour, and the density of
 * serializing instructions. WorkloadBase lets each workload be written
 * like a small program — functions with stable PCs, loops with real
 * back-edges, loads/stores through a register file with true
 * dependences — so those structures arise the same way they do in real
 * code rather than from sampling distributions instruction by
 * instruction.
 *
 * Generators are deterministic functions of their seed: two generators
 * built with the same seed emit the identical stream, which is how a
 * streamed trace replays (trace/stream_source.hh).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace_source.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace mlpsim::workloads {

/** Abstract register id used by the emission helpers. */
using Reg = uint8_t;

/**
 * Base class for generator-backed trace sources.
 *
 * Derived classes build their synthetic state in the constructor and
 * implement generate() (emit the next unit of work, e.g. one
 * transaction, via the emit*() helpers).
 */
class WorkloadBase : public trace::TraceSource
{
  public:
    WorkloadBase(std::string workload_name, uint64_t seed);

    bool next(trace::Instruction &inst) final;
    /** Copies whole runs of generated instructions into @p out,
     *  calling generate() whenever the pending run is drained. */
    uint32_t nextBatch(trace::ChunkFiller &out, uint32_t max) final;
    std::string name() const final { return label; }

  protected:
    /** Emit at least one instruction (one unit of work). */
    virtual void generate() = 0;

    // ----- code layout ---------------------------------------------
    //
    // The synthetic code space is split into fixed-stride functions.
    // Entering a function positions the PC at its base; every emitted
    // instruction advances the PC by 4 within the function, so a
    // function's Nth instruction always has the same PC on every call
    // (which is what gives the workload a stable, finite instruction
    // footprint and trainable branches).

    /** Base of the synthetic code segment. */
    static constexpr uint64_t codeBase = 0x1000'0000ULL;

    /** Bytes reserved per synthetic function. */
    static constexpr uint64_t funcStride = 1024;

    /**
     * Call into function @p fid (emits the call branch).
     *
     * The call site's position inside the caller is a deterministic
     * function of the callee, modelling direct calls: distinct callees
     * are reached from distinct call sites, so the BTB can learn each
     * target (a single site cycling through many targets would behave
     * like a megamorphic indirect call).
     */
    void callFunction(uint32_t fid);

    /** Return to the caller (emits the return branch). */
    void returnFromFunction();

    /** PC of the current emission point. */
    uint64_t currentPc() const;

    /** Mark a loop head; returns a token for loopBack(). */
    uint64_t loopHead() const { return frame().pos; }

    /**
     * Emit the loop back-edge branch: taken (jumping to @p head) when
     * @p iterate, falling through otherwise.
     * @param cond_reg Optional register the loop condition reads.
     */
    void loopBack(uint64_t head, bool iterate,
                  Reg cond_reg = trace::noReg);

    // ----- instruction emission ------------------------------------

    void emitAlu(Reg dst, Reg src0 = trace::noReg,
                 Reg src1 = trace::noReg);

    /** Emit @p n dependent ALU ops dst <- f(dst). */
    void emitCompute(Reg dst, unsigned n);

    /**
     * Emit ~@p n instructions of realistic on-chip work: roughly one
     * load from the hot region per four ALU ops (cache-resident, so
     * none of it goes off-chip; it gives traces a program-like
     * instruction mix instead of pure ALU padding).
     */
    void emitHotWork(Reg dst, unsigned n, uint64_t hot_base,
                     uint64_t hot_lines);

    void emitLoad(Reg dst, uint64_t addr, Reg addr_reg,
                  uint64_t value = 0);
    void emitStore(uint64_t addr, Reg addr_reg,
                   Reg data_reg = trace::noReg);
    void emitPrefetch(uint64_t addr, Reg addr_reg = trace::noReg);

    /** Forward conditional branch within the current function. */
    void emitCondBranch(bool taken, Reg src = trace::noReg,
                        unsigned skip_insts = 4);

    /** CASA/LDSTUB-style atomic on @p addr (also a memory access). */
    void emitAtomic(uint64_t addr, Reg addr_reg = trace::noReg);

    /** MEMBAR-style pure barrier. */
    void emitMembar();

    Rng &random() { return rng; }

    uint64_t emittedInstructions() const { return emitted; }

  private:
    struct Frame
    {
        uint32_t fid = 0;
        uint64_t pos = 0; //!< instruction slot within the function
    };

    Frame &frame();
    const Frame &frame() const;
    uint64_t pcAt(const Frame &f) const;
    void push(const trace::Instruction &inst);
    /** Start a new pending run with the next unit of work. */
    void refill();

    std::string label;
    Rng rng;
    /** Generated instructions not yet handed out: [pendingHead, end).
     *  generate() runs only once the run is drained, so the stream is
     *  the same whichever of next() and nextBatch() reads it. */
    std::vector<trace::Instruction> pending;
    size_t pendingHead = 0;
    std::vector<Frame> callStack;
    uint64_t emitted = 0;
};

} // namespace mlpsim::workloads
