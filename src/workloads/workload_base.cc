#include "workload_base.hh"

#include <algorithm>

namespace mlpsim::workloads {

using trace::BranchKind;
using trace::Instruction;
using trace::noReg;

WorkloadBase::WorkloadBase(std::string workload_name, uint64_t seed)
    : label(std::move(workload_name)), rng(seed)
{
    callStack.push_back(Frame{0, 0});
}

void
WorkloadBase::refill()
{
    pending.clear();
    pendingHead = 0;
    while (pending.empty())
        generate();
}

bool
WorkloadBase::next(Instruction &inst)
{
    if (pendingHead == pending.size())
        refill();
    inst = pending[pendingHead++];
    return true;
}

uint32_t
WorkloadBase::nextBatch(trace::ChunkFiller &out, uint32_t max)
{
    uint32_t n = 0;
    while (n < max) {
        if (pendingHead == pending.size())
            refill();
        const uint32_t take = uint32_t(
            std::min<size_t>(pending.size() - pendingHead, max - n));
        out.append(pending.data() + pendingHead, take);
        pendingHead += take;
        n += take;
    }
    return n;
}

WorkloadBase::Frame &
WorkloadBase::frame()
{
    return callStack.back();
}

const WorkloadBase::Frame &
WorkloadBase::frame() const
{
    return callStack.back();
}

uint64_t
WorkloadBase::pcAt(const Frame &f) const
{
    // Wrap within the function's byte budget; real functions also have
    // bounded text.
    return codeBase + uint64_t(f.fid) * funcStride +
           (f.pos * 4) % funcStride;
}

uint64_t
WorkloadBase::currentPc() const
{
    return pcAt(frame());
}

void
WorkloadBase::push(const Instruction &inst)
{
    pending.push_back(inst);
    ++frame().pos;
    ++emitted;
}

void
WorkloadBase::callFunction(uint32_t fid)
{
    // Place the call site at a callee-specific position within the
    // caller (direct-call code layout; see the header comment).
    const uint64_t slots = funcStride / 4;
    frame().pos = (frame().pos & ~(slots - 1)) +
                  splitMix64(uint64_t(frame().fid) * 131071 + fid) %
                      slots;
    Frame callee{fid, 0};
    const uint64_t target = pcAt(callee);
    push(trace::makeBranch(currentPc(), target, true, noReg,
                           BranchKind::Call));
    callStack.push_back(callee);
}

void
WorkloadBase::returnFromFunction()
{
    MLPSIM_ASSERT(callStack.size() > 1, "return from the root frame");
    // The return target is the instruction after the call site.
    Frame caller = callStack[callStack.size() - 2];
    const uint64_t target = pcAt(caller);
    push(trace::makeBranch(currentPc(), target, true, noReg,
                           BranchKind::Return));
    callStack.pop_back();
}

void
WorkloadBase::loopBack(uint64_t head, bool iterate, Reg cond_reg)
{
    Frame target_frame = frame();
    target_frame.pos = head;
    const uint64_t target = pcAt(target_frame);
    push(trace::makeBranch(currentPc(), target, iterate, cond_reg,
                           BranchKind::Conditional));
    if (iterate)
        frame().pos = head;
}

void
WorkloadBase::emitAlu(Reg dst, Reg src0, Reg src1)
{
    push(trace::makeAlu(currentPc(), dst, src0, src1));
}

void
WorkloadBase::emitCompute(Reg dst, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        emitAlu(dst, dst);
}

void
WorkloadBase::emitHotWork(Reg dst, unsigned n, uint64_t hot_base,
                          uint64_t hot_lines)
{
    const Reg tmp =
        Reg(unsigned(dst) + 1 < trace::numArchRegs ? dst + 1 : dst);
    unsigned left = n;
    while (left > 0) {
        if (left >= 4) {
            const uint64_t addr =
                hot_base + (rng() % hot_lines) * 64 + (rng() % 8) * 8;
            emitLoad(tmp, addr, trace::noReg, splitMix64(addr));
            emitAlu(dst, dst, tmp);
            emitAlu(dst, dst);
            emitAlu(tmp, tmp);
            left -= 4;
        } else {
            emitAlu(dst, dst);
            --left;
        }
    }
}

void
WorkloadBase::emitLoad(Reg dst, uint64_t addr, Reg addr_reg,
                       uint64_t value)
{
    push(trace::makeLoad(currentPc(), dst, addr, addr_reg, value));
}

void
WorkloadBase::emitStore(uint64_t addr, Reg addr_reg, Reg data_reg)
{
    push(trace::makeStore(currentPc(), addr, data_reg, addr_reg));
}

void
WorkloadBase::emitPrefetch(uint64_t addr, Reg addr_reg)
{
    push(trace::makePrefetch(currentPc(), addr, addr_reg));
}

void
WorkloadBase::emitCondBranch(bool taken, Reg src, unsigned skip_insts)
{
    Frame target_frame = frame();
    target_frame.pos += 1 + skip_insts;
    const uint64_t target = pcAt(target_frame);
    push(trace::makeBranch(currentPc(), target, taken, src,
                           BranchKind::Conditional));
    if (taken)
        frame().pos += skip_insts;
}

void
WorkloadBase::emitAtomic(uint64_t addr, Reg addr_reg)
{
    push(trace::makeSerializing(currentPc(), addr, addr_reg));
}

void
WorkloadBase::emitMembar()
{
    push(trace::makeSerializing(currentPc(), 0));
}

} // namespace mlpsim::workloads
