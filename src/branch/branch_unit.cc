#include "branch_unit.hh"

#include <bit>

#include "trace/chunk_scan.hh"

namespace mlpsim::branch {

Status
validateConfig(const BranchConfig &config)
{
    if (config.gshareEntries == 0 ||
        !std::has_single_bit(uint64_t(config.gshareEntries))) {
        return Status::invalidArgument(
            "gshare entries must be a power of two, got ",
            config.gshareEntries);
    }
    if (config.historyBits > 16) {
        return Status::invalidArgument(
            "gshare history bits must be <= 16, got ",
            config.historyBits);
    }
    if (config.btbAssoc == 0 ||
        config.btbEntries % config.btbAssoc != 0) {
        return Status::invalidArgument(
            "BTB entries (", config.btbEntries,
            ") must divide into ", config.btbAssoc, " ways");
    }
    if (!std::has_single_bit(
            uint64_t(config.btbEntries / config.btbAssoc))) {
        return Status::invalidArgument(
            "BTB set count must be a power of two, got ",
            config.btbEntries / config.btbAssoc);
    }
    if (config.rasDepth == 0)
        return Status::invalidArgument("RAS depth must be positive");
    return Status::okStatus();
}

BranchUnit::BranchUnit(const BranchConfig &config)
    : cfg(config), gshare(config.gshareEntries, config.historyBits),
      btb(config.btbEntries, config.btbAssoc), ras(config.rasDepth)
{
}

bool
BranchUnit::predictAndUpdate(const trace::Instruction &inst)
{
    using trace::BranchKind;

    ++nBranches;
    if (cfg.perfect) {
        // Still maintain RAS/BTB state invariants are unnecessary when
        // everything is perfect; simply never mispredict.
        return false;
    }

    bool mispredict = false;
    switch (inst.brKind()) {
      case BranchKind::Conditional:
      {
        const bool pred_taken = gshare.predict(inst.pc);
        if (pred_taken != inst.taken()) {
            mispredict = true;
        } else if (inst.taken()) {
            uint64_t target = 0;
            if (!btb.lookup(inst.pc, target) || target != inst.target())
                mispredict = true;
        }
        gshare.update(inst.pc, inst.taken());
        if (inst.taken())
            btb.update(inst.pc, inst.target());
        break;
      }
      case BranchKind::Call:
      {
        uint64_t target = 0;
        if (!btb.lookup(inst.pc, target) || target != inst.target())
            mispredict = true;
        btb.update(inst.pc, inst.target());
        ras.push(inst.pc + 4);
        break;
      }
      case BranchKind::Return:
      {
        if (ras.pop() != inst.target())
            mispredict = true;
        break;
      }
      case BranchKind::Jump:
      {
        uint64_t target = 0;
        if (!btb.lookup(inst.pc, target) || target != inst.target())
            mispredict = true;
        btb.update(inst.pc, inst.target());
        break;
      }
      case BranchKind::None:
        break;
    }

    if (mispredict)
        ++nMispredicts;
    return mispredict;
}

double
BranchUnit::mispredictRate() const
{
    return nBranches ? double(nMispredicts) / double(nBranches) : 0.0;
}

void
BranchUnit::reset()
{
    gshare.reset();
    btb.reset();
    ras.reset();
    nBranches = 0;
    nMispredicts = 0;
}

void
BranchAnnotator::add(const trace::TraceChunk &chunk)
{
    if (chunk.end() > ann.mispredicted.size())
        ann.mispredicted.resize(chunk.end());
    // Vectorizable branch-select then sparse apply: commercial traces
    // are ~1/8 branches, so the predictor body runs an order of
    // magnitude fewer times than a dense class-dispatch walk visits.
    scanMask.assign(trace::scanWords(chunk.count), 0);
    trace::orClassMask(chunk, trace::classBit(trace::InstClass::Branch),
                       scanMask.data());
    trace::forEachSetBit(scanMask.data(), chunk.count, [&](uint32_t ci) {
        const size_t i = chunk.base + ci;
        const bool miss = unit.predictAndUpdate(chunk.get(ci));
        if (miss)
            ann.mispredicted[i] = 1;
        if (i >= warmup) {
            ++ann.branches;
            if (miss)
                ++ann.mispredicts;
        }
    });
}

} // namespace mlpsim::branch
