#include "value_predictor.hh"

#include <bit>

#include "util/logging.hh"

namespace mlpsim::predictor {

Status
validateConfig(const ValuePredictorConfig &config)
{
    if (config.entries == 0 ||
        !std::has_single_bit(uint64_t(config.entries))) {
        return Status::invalidArgument(
            "value predictor entries must be a power of two, got ",
            config.entries);
    }
    return Status::okStatus();
}

LastValuePredictor::LastValuePredictor(const ValuePredictorConfig &config)
    : cfg(config)
{
    validateConfig(config).orFatal();
    table.resize(config.entries);
}

ValueOutcome
LastValuePredictor::predictAndUpdate(uint64_t pc, uint64_t actual)
{
    if (cfg.perfect)
        return ValueOutcome::Correct;

    Entry &e = table[(pc >> 2) & (table.size() - 1)];
    ValueOutcome result;
    if (!e.valid || e.tag != pc) {
        result = ValueOutcome::NoPredict;
    } else if (e.value == actual) {
        result = ValueOutcome::Correct;
    } else {
        result = ValueOutcome::Wrong;
    }
    e.valid = true;
    e.tag = pc;
    e.value = actual;
    return result;
}

void
LastValuePredictor::reset()
{
    for (Entry &e : table)
        e.valid = false;
}

void
ValueAnnotator::add(const trace::TraceChunk &chunk)
{
    // Grown entries read back as NotApplicable (enum value 0).
    if (chunk.end() > ann.outcome.size())
        ann.outcome.resize(chunk.end());
    for (uint32_t ci = 0; ci < chunk.count; ++ci) {
        const size_t i = chunk.base + ci;
        // "Missing load" here: any instruction whose data read went
        // off-chip (demand loads and CASA-style atomics).
        if (!miss.dataMiss(i))
            continue;
        const ValueOutcome out =
            predictor.predictAndUpdate(chunk.pc[ci], chunk.value(ci));
        ann.outcome[i] = out;
        if (i < warmup)
            continue;
        ++ann.missingLoads;
        switch (out) {
          case ValueOutcome::Correct: ++ann.correct; break;
          case ValueOutcome::Wrong: ++ann.wrong; break;
          case ValueOutcome::NoPredict: ++ann.noPredict; break;
          case ValueOutcome::NotApplicable: break;
        }
    }
}

} // namespace mlpsim::predictor
