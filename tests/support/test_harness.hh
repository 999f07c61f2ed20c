/**
 * @file
 * Test support: hand-scripted traces with injected miss/mispredict/
 * value-prediction annotations, bypassing the cache and predictor
 * substrates so engine semantics can be asserted exactly.
 */
#pragma once

#include <vector>

#include "core/mlpsim.hh"

namespace mlpsim::test {

/** Off-chip behaviour injected for one scripted instruction. */
enum class Miss : uint8_t {
    None,
    Data,          //!< the data access goes off-chip
    Fetch,         //!< fetching this instruction goes off-chip
    UsefulPrefetch //!< useful off-chip software prefetch
};

/** A literal instruction sequence with injected annotations. */
class ScriptedTrace
{
  public:
    void
    add(const trace::Instruction &inst, Miss miss = Miss::None,
        bool mispredict = false,
        predictor::ValueOutcome value_outcome =
            predictor::ValueOutcome::NotApplicable)
    {
        buffer.append(inst);
        misses.push_back(miss);
        mispredicts.push_back(mispredict);
        valueOutcomes.push_back(value_outcome);
    }

    /** Materialise the annotations and run the epoch model. */
    core::MlpResult
    run(const core::MlpConfig &config)
    {
        build();
        return core::runMlp(config, context());
    }

    /** Borrowing context (valid until the next add()). */
    core::WorkloadContext
    context()
    {
        build();
        core::WorkloadContext ctx;
        ctx.source = &buffer;
        ctx.misses = &missAnn;
        ctx.branches = &brAnn;
        ctx.values = &valAnn;
        return ctx;
    }

    const trace::TraceBuffer &trace() const { return buffer; }

  private:
    void
    build()
    {
        const size_t n = buffer.size();
        missAnn.resetForBuild(n);
        brAnn.mispredicted.assign(n, 0);
        brAnn.branches = 0;
        brAnn.mispredicts = 0;
        valAnn.outcome.assign(n, predictor::ValueOutcome::NotApplicable);
        for (size_t i = 0; i < n; ++i) {
            switch (misses[i]) {
              case Miss::Data: missAnn.markDataMiss(i); break;
              case Miss::Fetch: missAnn.markFetchMiss(i); break;
              case Miss::UsefulPrefetch:
                missAnn.markUsefulPrefetch(i);
                break;
              case Miss::None: break;
            }
            if (buffer.at(i).isBranch()) {
                ++brAnn.branches;
                if (mispredicts[i]) {
                    brAnn.mispredicted[i] = 1;
                    ++brAnn.mispredicts;
                }
            }
            valAnn.outcome[i] = valueOutcomes[i];
        }
    }

    trace::TraceBuffer buffer{"scripted"};
    std::vector<Miss> misses;
    std::vector<bool> mispredicts;
    std::vector<predictor::ValueOutcome> valueOutcomes;
    memory::MissAnnotations missAnn;
    branch::BranchAnnotations brAnn;
    predictor::ValueAnnotations valAnn;
};

} // namespace mlpsim::test
