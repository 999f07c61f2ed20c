#include "trace_stats.hh"

#include <algorithm>

namespace mlpsim::trace {

TraceMix
measureMix(const ChunkSource &source, uint64_t max_insts)
{
    TraceMix mix;
    auto stream = source.open();
    while (mix.total < max_insts) {
        const ChunkPtr chunk = stream->next();
        if (!chunk)
            break;
        const uint32_t n =
            uint32_t(std::min<uint64_t>(chunk->count, max_insts - mix.total));
        for (uint32_t i = 0; i < n; ++i) {
            switch (chunk->cls(i)) {
              case InstClass::Alu: ++mix.alu; break;
              case InstClass::Load: ++mix.loads; break;
              case InstClass::Store: ++mix.stores; break;
              case InstClass::Branch:
                ++mix.branches;
                if (chunk->taken(i))
                    ++mix.takenBranches;
                break;
              case InstClass::Prefetch: ++mix.prefetches; break;
              case InstClass::Serializing: ++mix.serializing; break;
            }
        }
        mix.total += n;
    }
    return mix;
}

} // namespace mlpsim::trace
