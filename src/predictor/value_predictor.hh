/**
 * @file
 * Missing-load value prediction (paper Section 3.6 / 5.5).
 *
 * The paper's predictor is a 16K-entry last-value predictor that is
 * queried and trained *only* on loads that miss off-chip, which keeps
 * the structure small. A correct prediction lets instructions dependent
 * on the missing load execute in the same epoch.
 *
 * Outcomes are precomputed per trace in program order (like the other
 * annotators) so all simulators agree on which missing loads predict
 * correctly.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "memory/access_profiler.hh"
#include "trace/trace_chunk.hh"
#include "util/bitvec.hh"
#include "util/status.hh"

namespace mlpsim::predictor {

/** Prediction outcome for one missing load. */
enum class ValueOutcome : uint8_t {
    NotApplicable, //!< instruction is not a missing load
    NoPredict,     //!< no table entry (cold or evicted by aliasing)
    Correct,       //!< predicted value matched
    Wrong,         //!< predicted value differed
};

/** Predictor configuration. */
struct ValuePredictorConfig
{
    unsigned entries = 16 * 1024; //!< direct-mapped, PC-tagged
    bool perfect = false;         //!< limit study: always correct
};

/** Recoverable form of the constructor's geometry checks. */
Status validateConfig(const ValuePredictorConfig &config);

/** Tagged direct-mapped last-value table. */
class LastValuePredictor
{
  public:
    explicit LastValuePredictor(const ValuePredictorConfig &config);

    /**
     * Predict-and-train on one missing load.
     * @param pc Load PC. @param actual Value the load returns.
     */
    ValueOutcome predictAndUpdate(uint64_t pc, uint64_t actual);

    void reset();

  private:
    struct Entry
    {
        uint64_t tag = 0;
        uint64_t value = 0;
        bool valid = false;
    };

    ValuePredictorConfig cfg;
    std::vector<Entry> table;
};

/** Per-trace value-prediction annotations and Table 6 statistics. */
struct ValueAnnotations
{
    /** Two bits per dynamic instruction (the four ValueOutcomes). */
    util::PackedEnumVector<ValueOutcome, 2> outcome;

    uint64_t missingLoads = 0;
    uint64_t correct = 0;
    uint64_t wrong = 0;
    uint64_t noPredict = 0;

    bool
    isCorrect(size_t i) const
    {
        return outcome[i] == ValueOutcome::Correct;
    }

    double fracCorrect() const { return frac(correct); }
    double fracWrong() const { return frac(wrong); }
    double fracNoPredict() const { return frac(noPredict); }

  private:
    double
    frac(uint64_t n) const
    {
        return missingLoads ? double(n) / double(missingLoads) : 0.0;
    }
};

/**
 * Chunk-incremental value annotator. Reads the profiler's dataMiss
 * plane at the indices of the chunk being added — those bits are set
 * by the profiler's pass over the *same* chunk and never
 * retroactively (only usefulPrefetchV is), so feeding each chunk to
 * the profiler first and this annotator second streams correctly.
 * Predictor table state carries across chunks, so outcomes are
 * bit-identical to a whole-trace pass for any chunking.
 */
class ValueAnnotator
{
  public:
    ValueAnnotator(const memory::MissAnnotations &misses,
                   const ValuePredictorConfig &config,
                   uint64_t warmup_insts)
        : miss(misses), predictor(config), warmup(warmup_insts)
    {
    }

    /** Feed the next chunk of the trace, in order. */
    void add(const trace::TraceChunk &chunk);

    /** The completed annotations; the annotator is spent afterwards. */
    ValueAnnotations finish() { return std::move(ann); }

  private:
    const memory::MissAnnotations &miss;
    LastValuePredictor predictor;
    uint64_t warmup;
    ValueAnnotations ann;
};

} // namespace mlpsim::predictor
