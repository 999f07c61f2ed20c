#include "cycle_sim.hh"

#include <algorithm>
#include <bit>

#include "metrics/registry.hh"
#include "util/cancellation.hh"
#include "util/logging.hh"

namespace mlpsim::cyclesim {

using core::IssueConfig;

Status
CycleSimConfig::validate() const
{
    if (issue != IssueConfig::A && issue != IssueConfig::B &&
        issue != IssueConfig::C) {
        return Status::invalidArgument(
            "the cycle simulator supports issue configs A-C only "
            "(like the paper's reference simulator)");
    }
    if (fetchWidth == 0 || dispatchWidth == 0 || issueWidth == 0 ||
        commitWidth == 0) {
        return Status::invalidArgument(
            "pipeline widths must be >= 1 (fetch ", fetchWidth,
            ", dispatch ", dispatchWidth, ", issue ", issueWidth,
            ", commit ", commitWidth, ")");
    }
    if (fetchBufferSize == 0 || issueWindowSize == 0 || robSize == 0) {
        return Status::invalidArgument(
            "window structures must be non-empty (fetch buffer ",
            fetchBufferSize, ", issue window ", issueWindowSize,
            ", ROB ", robSize, ")");
    }
    if (aluLatency == 0 || l1Latency == 0 || l2Latency == 0 ||
        offChipLatency == 0) {
        return Status::invalidArgument(
            "execution latencies must be >= 1 so a value is never "
            "consumed in the cycle that produces it (alu ", aluLatency,
            ", l1 ", l1Latency, ", l2 ", l2Latency, ", off-chip ",
            offChipLatency, ")");
    }
    if (std::max({aluLatency, l1Latency, l2Latency, offChipLatency}) >
        maxLatency) {
        return Status::invalidArgument(
            "execution latencies must be <= ", maxLatency,
            " cycles (alu ", aluLatency, ", l1 ", l1Latency, ", l2 ",
            l2Latency, ", off-chip ", offChipLatency, ")");
    }
    return Status::okStatus();
}

std::string
CycleSimConfig::metricLabel() const
{
    std::string out = "cyc" + std::to_string(issueWindowSize) +
                      core::issueConfigName(issue);
    if (robSize != issueWindowSize)
        out += "-rob" + std::to_string(robSize);
    out += "-mp" + std::to_string(offChipLatency);
    if (perfectL2)
        out += "+perfL2";
    return out;
}

CycleSim::CycleSim(const CycleSimConfig &config,
                   const core::WorkloadContext &workload)
    : cfg(config), wl(workload), window(wl), dispatchCur(window),
      fetchCur(window),
      df(wl.size(), config.robSize, config.issue == IssueConfig::B)
{
    MLPSIM_ASSERT(wl.hasTrace() && wl.misses && wl.branches,
                  "workload context incomplete");
    const Status valid = cfg.validate();
    MLPSIM_ASSERT(valid.ok(), valid.message());
    memFifo.reset(256);
    branchFifo.reset(256);

    // Calendar ring: more buckets than the longest latency, so no two
    // pending events share one; at least one bitmap word.
    const uint64_t horizon = std::max(
        {cfg.aluLatency, cfg.l1Latency, cfg.l2Latency, cfg.offChipLatency});
    const uint64_t buckets =
        std::bit_ceil(std::max<uint64_t>(horizon + 1, 64));
    wheel.assign(size_t(buckets), Bucket{});
    wheelBusy.assign(size_t(buckets / 64), 0);
    wheelMask = buckets - 1;
}

CycleSim::Bucket &
CycleSim::bucketFor(uint64_t cycle)
{
    MLPSIM_ASSERT(cycle > now && cycle - now <= wheelMask,
                  "event scheduled beyond the calendar ring's horizon");
    const uint64_t b = cycle & wheelMask;
    wheelBusy[b >> 6] |= uint64_t(1) << (b & 63);
    return wheel[b];
}

unsigned
CycleSim::dataLatency(const RobEntry &entry) const
{
    if (entry.is(kDMiss))
        return cfg.perfectL2 ? cfg.l2Latency : cfg.offChipLatency;
    if (entry.is(kDL2))
        return cfg.l2Latency;
    return cfg.l1Latency;
}

void
CycleSim::makeEntry(uint64_t idx)
{
    // The window renames and links the entry; the pipeline adds its
    // annotation bits and its Table 2 queues.
    const trace::TraceChunk &ck = dispatchCur.at(idx);
    RobEntry &entry = df.dispatch(
        ck, uint32_t(idx - ck.base), [this](const RobEntry &producer) {
            return producer.is(kDone) && producer.completeCycle <= now;
        });
    if (wl.misses->dataMiss(idx))
        entry.flags |= kDMiss;
    if (wl.misses->usefulPrefetch(idx))
        entry.flags |= kUsefulPmiss;
    if (wl.misses->dataL2Hit(idx))
        entry.flags |= kDL2;

    // Config A keeps *all* memory operations in order — prefetches
    // included, unlike the epoch engine's idealised treatment — and
    // branches issue in order for every supported config.
    if (cfg.issue == IssueConfig::A && entry.is(kMemOp))
        memFifo.push(entry.seq);
    if (entry.is(kBranch))
        branchFifo.push(entry.seq);
}

void
CycleSim::recordOffChip(uint64_t idx, uint64_t complete_cycle)
{
    ++bucketFor(complete_cycle).offChipReturns;
    ++outstandingCount;
    if (idx >= cfg.warmupInsts)
        ++result.offChipAccesses;
}

void
CycleSim::drainDue()
{
    const uint64_t b = now & wheelMask;
    uint64_t &busy = wheelBusy[b >> 6];
    const uint64_t bit = uint64_t(1) << (b & 63);
    if ((busy & bit) == 0)
        return;
    busy &= ~bit;
    Bucket &bucket = wheel[b];
    outstandingCount -= bucket.offChipReturns;
    bucket.offChipReturns = 0;
    Seq seq = bucket.dueHead;
    bucket.dueHead = 0;
    // Delivery order within a cycle does not matter: every effect of
    // notifyConsumers (pending counts, the unresolved-store list, the
    // ready pool, which pops in seq order) depends only on the set of
    // producers completing this cycle.
    while (seq != 0) {
        RobEntry &entry = df.entryRef(seq);
        // A completion always fires no later than the cycle its entry
        // could first retire, so the slot cannot have been recycled.
        MLPSIM_ASSERT(entry.seq == seq, "completion for a recycled slot");
        seq = entry.nextDue;
        df.notifyConsumers(entry);
    }
}

bool
CycleSim::commitStage()
{
    bool any = false;
    for (unsigned n = 0; n < cfg.commitWidth && !df.empty(); ++n) {
        const RobEntry &head = df.oldest();
        if (!head.is(kDone) || head.completeCycle > now)
            break;
        if (serializeBlockSeq == head.seq)
            serializeBlockSeq = 0;
        df.retireOldest();
        ++committed;
        any = true;
        if (!measuring && committed >= cfg.warmupInsts) {
            measuring = true;
            measureStartCycle = now;
        }
    }
    return any;
}

void
CycleSim::issueEntry(RobEntry &entry)
{
    entry.flags |= kDone;
    MLPSIM_ASSERT(iwOccupancy > 0, "issue window underflow");
    --iwOccupancy;

    unsigned latency = cfg.aluLatency;
    if (entry.is(kPrefetch)) {
        latency = 1; // prefetches are fire-and-forget
    } else if (entry.is(kLoadLike)) {
        latency = dataLatency(entry);
    }
    entry.completeCycle = now + latency;
    Bucket &due = bucketFor(entry.completeCycle);
    entry.nextDue = due.dueHead;
    due.dueHead = entry.seq;

    const uint64_t idx = uint64_t(entry.seq) - 1;
    if (!cfg.perfectL2 && (entry.is(kDMiss) || entry.is(kUsefulPmiss)))
        recordOffChip(idx, now + cfg.offChipLatency);

    if (mispredBlockSeq == entry.seq) {
        // The blocking mispredicted branch now has a known resolution
        // time; convert the stall into a timed redirect.
        fetchResumeCycle =
            std::max(fetchResumeCycle,
                     entry.completeCycle + cfg.branchRedirectPenalty);
        mispredBlockSeq = 0;
    }

    // Advancing an in-order queue is itself a wake event: the next
    // queue head may have been dropped from the pool waiting for it.
    if (cfg.issue == IssueConfig::A && entry.is(kMemOp)) {
        memFifo.pop();
        if (!memFifo.empty())
            df.pushCandidate(df.entryRef(memFifo.front()));
    }
    if (entry.is(kBranch)) {
        branchFifo.pop();
        if (!branchFifo.empty())
            df.pushCandidate(df.entryRef(branchFifo.front()));
    }
}

bool
CycleSim::issueStage()
{
    // Drain ready candidates oldest-first. Each pop either issues
    // (counted against the issue width) or parks the entry on the wake
    // event that can next change its eligibility: operand completion,
    // an in-order FIFO advance, or the oldest unresolved store
    // resolving. Width exhaustion leaves the rest pooled for the next
    // cycle, which the old scan expressed by re-walking them. The
    // constraint predicates below reproduce the scan's "seen earlier
    // unissued/unresolved" flags: a flag was raised exactly when an
    // older entry of the guarded class had not issued by this cycle.
    bool any = false;
    unsigned issued_now = 0;
    while (issued_now < cfg.issueWidth && df.hasCandidates()) {
        RobEntry &entry = df.popCandidate();
        if (entry.is(kDone))
            continue;
        if (entry.pendingProds != 0)
            continue; // woken by a queue advance ahead of its operands
        if (cfg.issue == IssueConfig::A && entry.is(kMemOp) &&
            memFifo.front() != entry.seq)
            continue; // an older memory op has not issued
        if (entry.is(kBranch) && branchFifo.front() != entry.seq)
            continue; // an older branch has not issued
        if (entry.is(kLoadLike) && df.parkBehindUnresolvedStore(entry))
            continue; // an older store's address is unresolved
        issueEntry(entry);
        ++issued_now;
        any = true;
    }
    return any;
}

bool
CycleSim::dispatchStage()
{
    bool any = false;
    for (unsigned n = 0; n < cfg.dispatchWidth; ++n) {
        if (nextDispatchIdx >= nextFetchIdx)
            break;
        if (serializeBlockSeq != 0)
            break; // draining behind a serializing instruction
        if (df.occupancy() >= cfg.robSize ||
            iwOccupancy >= cfg.issueWindowSize) {
            break;
        }
        const trace::TraceChunk &ck = dispatchCur.at(nextDispatchIdx);
        if (ck.isSerializing(uint32_t(nextDispatchIdx - ck.base))) {
            // Straightforward drain: dispatch only into an empty ROB
            // and block younger dispatch until it commits.
            if (!df.empty())
                break;
            makeEntry(nextDispatchIdx);
            serializeBlockSeq = nextDispatchIdx + 1;
            ++iwOccupancy;
            ++nextDispatchIdx;
            any = true;
            break;
        }
        makeEntry(nextDispatchIdx);
        ++iwOccupancy;
        ++nextDispatchIdx;
        any = true;
    }
    // Everything below the dispatch point is dead to this pipeline:
    // the stream-backed window may drop those chunks.
    if (any)
        window.releaseBefore(nextDispatchIdx);
    return any;
}

bool
CycleSim::fetchStage()
{
    if (now < fetchResumeCycle || mispredBlockSeq != 0)
        return false;

    bool any = false;
    const uint64_t trace_size = wl.size();
    for (unsigned n = 0; n < cfg.fetchWidth; ++n) {
        if (nextFetchIdx >= trace_size ||
            nextFetchIdx - nextDispatchIdx >= cfg.fetchBufferSize) {
            break;
        }
        const uint64_t idx = nextFetchIdx;
        if (wl.misses->fetchMiss(idx) && !imissHandled) {
            imissHandled = true;
            const unsigned latency =
                cfg.perfectL2 ? cfg.l2Latency : cfg.offChipLatency;
            fetchResumeCycle = now + latency;
            if (!cfg.perfectL2)
                recordOffChip(idx, now + cfg.offChipLatency);
            any = true;
            break;
        }
        imissHandled = false;
        ++nextFetchIdx;
        any = true;

        const trace::TraceChunk &ck = fetchCur.at(idx);
        if (ck.isBranch(uint32_t(idx - ck.base)) &&
            wl.branches->isMispredict(idx)) {
            // Trace-driven wrong path: fetch stalls until the branch
            // resolves (wrong-path work would be useless anyway and
            // must not contribute to MLP).
            mispredBlockSeq = idx + 1;
            break;
        }
    }
    return any;
}

uint64_t
CycleSim::nextEventCycle() const
{
    uint64_t next = ~0ULL;
    // First busy bucket at or after now + 1, scanning the bitmap once
    // around: the start word again last, for the buckets below start.
    // Bucket now itself was drained this cycle, so it reads idle.
    const uint64_t start = (now + 1) & wheelMask;
    const size_t words = wheelBusy.size();
    size_t w = size_t(start >> 6);
    uint64_t bits = wheelBusy[w] & (~uint64_t(0) << (start & 63));
    for (size_t n = 0; n <= words; ++n) {
        if (bits != 0) {
            const uint64_t b = (uint64_t(w) << 6) | std::countr_zero(bits);
            next = now + 1 + ((b - start) & wheelMask);
            break;
        }
        w = (w + 1) & (words - 1);
        bits = wheelBusy[w];
    }
    if (fetchResumeCycle > now)
        next = std::min(next, fetchResumeCycle);
    return next;
}

void
CycleSim::accumulateMlp(uint64_t from_cycle, uint64_t to_cycle)
{
    // No off-chip access returns inside (from_cycle, to_cycle): each
    // return is a ring event, and the loop never skips one. Returns at
    // from_cycle were retired by drainDue().
    if (measuring && outstandingCount != 0) {
        result.mlpSum +=
            double(outstandingCount) * double(to_cycle - from_cycle);
        result.mlpCycles += to_cycle - from_cycle;
    }
}

CycleSimResult
CycleSim::run()
{
    const uint64_t trace_size = wl.size();
    result = CycleSimResult{};
    if (cfg.warmupInsts == 0) {
        measuring = true;
        measureStartCycle = 0;
    }

    // Livelock guard: generous upper bound on total simulated cycles,
    // computed with saturating arithmetic so a large --insts x large
    // --mp sweep cannot overflow it into a spurious (or absent) trip.
    uint64_t guard = uint64_t(cfg.offChipLatency) + 64;
    if (__builtin_mul_overflow(guard, trace_size, &guard) ||
        __builtin_add_overflow(guard, uint64_t(10'000'000), &guard))
        guard = ~uint64_t(0);

    // Cancellation poll cadence: every ~64K simulated cycles. Cheap
    // against the per-cycle work in between, frequent enough that a
    // deadline lands within a fraction of a second of wall time.
    uint64_t next_poll = now + 65536;

    while (committed < trace_size) {
        if (now >= next_poll) {
            pollCancellation();
            next_poll = now + 65536;
        }
        // Deliver every value due by this cycle before any stage looks
        // at readiness: a completion always lands no later than the
        // first cycle its entry could retire, so consumer links are
        // walked strictly before their slots can be recycled.
        drainDue();

        bool work = false;
        work |= commitStage();
        work |= issueStage();
        work |= dispatchStage();
        work |= fetchStage();

        uint64_t next = now + 1;
        if (!work) {
            const uint64_t event = nextEventCycle();
            if (event == ~0ULL)
                panic("cycle sim deadlock at cycle ", now, ", committed ",
                      committed, " of ", trace_size);
            next = std::max(next, event);
        }

        accumulateMlp(now, next);
        if (guard < next - now)
            panic("cycle sim livelock at cycle ", now);
        guard -= next - now;
        now = next;
    }

    result.cycles = measuring ? now - measureStartCycle : 0;
    // Guarded like epoch_engine.cc / inorder_model.cc: a warm-up at or
    // past the end of the trace measures nothing (instead of wrapping
    // to ~2^64 and poisoning CPI).
    result.instructions =
        committed > cfg.warmupInsts ? committed - cfg.warmupInsts : 0;

    if (metrics::enabled()) {
        auto &m = metrics::cur();
        m.add(metrics::scopedPath("cyclesim/runs"));
        m.add(metrics::scopedPath("cyclesim/cycles"), result.cycles);
        m.add(metrics::scopedPath("cyclesim/instructions"),
              result.instructions);
        m.add(metrics::scopedPath("cyclesim/offchip_accesses"),
              result.offChipAccesses);
        m.add(metrics::scopedPath("cyclesim/mlp_cycles"),
              result.mlpCycles);
        m.set(metrics::scopedPath("cyclesim/cpi"), result.cpi());
        m.set(metrics::scopedPath("cyclesim/mlp"), result.mlp());
    }
    return result;
}

} // namespace mlpsim::cyclesim
