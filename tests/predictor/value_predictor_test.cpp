/** @file Missing-load last-value predictor and its annotator. */
#include <gtest/gtest.h>

#include "predictor/value_predictor.hh"
#include "trace/trace_buffer.hh"

namespace mlpsim::test {

using namespace mlpsim::predictor;
using namespace mlpsim::trace;

TEST(LastValuePredictor, ColdEntryIsNoPredict)
{
    LastValuePredictor p(ValuePredictorConfig{});
    EXPECT_EQ(p.predictAndUpdate(0x400, 7), ValueOutcome::NoPredict);
}

TEST(LastValuePredictor, RepeatValueIsCorrect)
{
    LastValuePredictor p(ValuePredictorConfig{});
    p.predictAndUpdate(0x400, 7);
    EXPECT_EQ(p.predictAndUpdate(0x400, 7), ValueOutcome::Correct);
    EXPECT_EQ(p.predictAndUpdate(0x400, 7), ValueOutcome::Correct);
}

TEST(LastValuePredictor, ChangedValueIsWrongThenCorrect)
{
    LastValuePredictor p(ValuePredictorConfig{});
    p.predictAndUpdate(0x400, 7);
    EXPECT_EQ(p.predictAndUpdate(0x400, 8), ValueOutcome::Wrong);
    EXPECT_EQ(p.predictAndUpdate(0x400, 8), ValueOutcome::Correct);
}

TEST(LastValuePredictor, TagConflictEvicts)
{
    ValuePredictorConfig cfg;
    cfg.entries = 16; // index = (pc>>2) & 15
    LastValuePredictor p(cfg);
    p.predictAndUpdate(0x400, 7);
    // Same index (0x400>>2 and (0x400+16*4)>>2 differ by 16), other tag.
    p.predictAndUpdate(0x400 + 16 * 4, 9);
    EXPECT_EQ(p.predictAndUpdate(0x400, 7), ValueOutcome::NoPredict);
}

TEST(LastValuePredictor, PerfectModeAlwaysCorrect)
{
    ValuePredictorConfig cfg;
    cfg.perfect = true;
    LastValuePredictor p(cfg);
    EXPECT_EQ(p.predictAndUpdate(0x400, 1), ValueOutcome::Correct);
    EXPECT_EQ(p.predictAndUpdate(0x404, 2), ValueOutcome::Correct);
}

TEST(LastValuePredictor, ResetForgets)
{
    LastValuePredictor p(ValuePredictorConfig{});
    p.predictAndUpdate(0x400, 7);
    p.reset();
    EXPECT_EQ(p.predictAndUpdate(0x400, 7), ValueOutcome::NoPredict);
}

TEST(LastValuePredictorDeath, RejectsNonPowerOfTwo)
{
    ValuePredictorConfig cfg;
    cfg.entries = 1000;
    EXPECT_EXIT(LastValuePredictor p(cfg), ::testing::ExitedWithCode(1),
                "power of two");
}

namespace {

/** Trace of repeated loads at one PC with chosen values; only the
 *  odd-indexed ones "miss". */
struct VpFixture
{
    trace::TraceBuffer buf;
    memory::MissAnnotations misses;

    explicit VpFixture(const std::vector<uint64_t> &values,
                       const std::vector<bool> &missing)
    {
        for (size_t i = 0; i < values.size(); ++i) {
            buf.append(makeLoad(0x400, 1, 0x1000, noReg, values[i]));
        }
        misses.resetForBuild(values.size());
        for (size_t i = 0; i < missing.size(); ++i) {
            if (missing[i])
                misses.markDataMiss(i);
        }
    }

    /** Feed the buffer's chunks, in order, through a fresh
     *  ValueAnnotator. */
    ValueAnnotations
    annotate(const ValuePredictorConfig &cfg,
             uint64_t warmup_insts = 0) const
    {
        ValueAnnotator pass(misses, cfg, warmup_insts);
        for (size_t ci = 0; ci < buf.numChunks(); ++ci)
            pass.add(buf.chunk(ci));
        return pass.finish();
    }
};

} // namespace

TEST(AnnotateValues, OnlyMissingLoadsParticipate)
{
    VpFixture f({5, 5, 5, 5}, {true, false, true, false});
    const auto ann = f.annotate(ValuePredictorConfig{});
    EXPECT_EQ(ann.missingLoads, 2u);
    EXPECT_EQ(ann.outcome[1], ValueOutcome::NotApplicable);
    EXPECT_EQ(ann.outcome[3], ValueOutcome::NotApplicable);
    // First miss trains, second predicts correctly.
    EXPECT_EQ(ann.outcome[0], ValueOutcome::NoPredict);
    EXPECT_EQ(ann.outcome[2], ValueOutcome::Correct);
    EXPECT_TRUE(ann.isCorrect(2));
}

TEST(AnnotateValues, StatsAddUp)
{
    VpFixture f({5, 6, 6, 7}, {true, true, true, true});
    const auto ann = f.annotate(ValuePredictorConfig{});
    EXPECT_EQ(ann.missingLoads, 4u);
    EXPECT_EQ(ann.noPredict, 1u);
    EXPECT_EQ(ann.wrong, 2u);  // 5->6 and 6->7
    EXPECT_EQ(ann.correct, 1u); // 6->6
    EXPECT_DOUBLE_EQ(ann.fracCorrect() + ann.fracWrong() +
                         ann.fracNoPredict(),
                     1.0);
}

TEST(AnnotateValues, WarmupTrainsSilently)
{
    VpFixture f({5, 5, 5}, {true, true, true});
    const auto ann = f.annotate(ValuePredictorConfig{}, 1);
    EXPECT_EQ(ann.missingLoads, 2u);
    EXPECT_EQ(ann.correct, 2u); // the no-predict happened in warm-up
}

TEST(AnnotateValues, PerfectEverythingCorrect)
{
    VpFixture f({1, 2, 3}, {true, true, true});
    ValuePredictorConfig cfg;
    cfg.perfect = true;
    const auto ann = f.annotate(cfg);
    EXPECT_EQ(ann.correct, 3u);
    EXPECT_DOUBLE_EQ(ann.fracCorrect(), 1.0);
}

} // namespace mlpsim::test
