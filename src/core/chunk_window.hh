/**
 * @file
 * Forward-windowed chunk access for the simulators.
 *
 * Engines consume the trace through a ChunkWindow instead of raw
 * buffer indexing so the same hot path serves every ChunkSource. The
 * window asks the source once, at construction, whether it is
 * materialised (ChunkSource::materialized()):
 *
 *  - materialised: chunkFor() is one divide into the TraceBuffer's
 *    chunk list and releaseBefore() is a no-op;
 *  - streamed: chunks are pulled on demand from a freshly opened
 *    ChunkStream (each engine run re-streams the generator — replay
 *    determinism) and retained in a small deque until the engine
 *    declares them dead with releaseBefore().
 *
 * Engine access is forward-monotonic per cursor and the live span is
 * bounded by the fetch buffer (fetch's cursor leads dispatch's by at
 * most fetchBufferSize instructions), so the stream-mode window holds
 * two or three chunks at any time. Seeking below the released window
 * is a logic error and asserts.
 *
 * InstCursor caches its current chunk so the per-instruction path is
 * one range check; chunks are held by shared_ptr, so a cursor's
 * cached chunk stays valid even after the window releases it.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "core/workload_context.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_chunk.hh"
#include "util/logging.hh"

namespace mlpsim::core {

/** Supplier of trace chunks by index, over any ChunkSource. */
class ChunkWindow
{
  public:
    explicit ChunkWindow(const WorkloadContext &wl)
    {
        MLPSIM_ASSERT(wl.source, "workload context has no trace");
        buf = wl.source->materialized();
        if (buf)
            return;
        if (wl.attached) {
            // Fan-out mode: consume the pre-opened shared-ring cursor
            // instead of opening (and regenerating) our own.
            src = wl.attached;
        } else {
            owned = wl.source->open();
            src = owned.get();
        }
    }

    /** The chunk containing global index @p idx (pulls as needed). */
    trace::ChunkPtr
    chunkFor(uint64_t idx)
    {
        if (buf) {
            return buf->chunkPtr(
                size_t(idx / trace::TraceBuffer::chunkCapacity));
        }
        while (window.empty() || window.back()->end() <= idx) {
            trace::ChunkPtr c = src->next();
            MLPSIM_ASSERT(c, "chunk stream ended before index ", idx);
            window.push_back(std::move(c));
        }
        const uint64_t front_base = window.front()->base;
        MLPSIM_ASSERT(idx >= front_base,
                      "seek below the released chunk window: index ", idx,
                      " < ", front_base);
        // Every windowed chunk except the last is full, so position is
        // one divide by the shared capacity.
        const size_t pos =
            size_t((idx - front_base) / window.front()->cap);
        return window[pos];
    }

    /** Indices below @p idx are dead; a streamed window drops their
     *  chunks. */
    void
    releaseBefore(uint64_t idx)
    {
        while (window.size() > 1 && window.front()->end() <= idx)
            window.pop_front();
    }

  private:
    const trace::TraceBuffer *buf = nullptr; //!< set: index it directly
    std::unique_ptr<trace::ChunkStream> owned;
    trace::ChunkStream *src = nullptr; //!< owned.get() or wl.attached
    std::deque<trace::ChunkPtr> window;
};

/** Per-consumer cached chunk cursor: one range check per access. */
class InstCursor
{
  public:
    explicit InstCursor(ChunkWindow &w) : win(&w) {}

    /** The chunk containing @p idx; local index is idx - base. */
    const trace::TraceChunk &
    at(uint64_t idx)
    {
        // Unsigned wrap makes idx < base land in the refill branch too.
        if (!cur || idx - cur->base >= cur->count)
            cur = win->chunkFor(idx);
        return *cur;
    }

  private:
    ChunkWindow *win;
    trace::ChunkPtr cur;
};

} // namespace mlpsim::core
