#include "memsim/cache_sim.h"

#include <bit>

namespace sov {

std::uint64_t
CacheConfig::numSets() const
{
    SOV_ASSERT(std::has_single_bit(line_bytes) && associativity > 0 &&
               size_bytes > 0);
    SOV_ASSERT(size_bytes % (static_cast<std::uint64_t>(line_bytes) *
                             associativity) == 0);
    return size_bytes / (static_cast<std::uint64_t>(line_bytes) *
                         associativity);
}

CacheSim::CacheSim(const CacheConfig &config)
    : config_(config),
      line_shift_(static_cast<unsigned>(std::countr_zero(config.line_bytes))),
      num_sets_(config.numSets()),
      set_reciprocal_(~static_cast<unsigned __int128>(0) / num_sets_ + 1),
      ways_(config.associativity), lines_(num_sets_ * ways_),
      valid_(num_sets_)
{
}

void
CacheSim::reset()
{
    valid_.assign(valid_.size(), 0);
    stats_ = CacheStats{};
    first_touch_.clear();
}

} // namespace sov
