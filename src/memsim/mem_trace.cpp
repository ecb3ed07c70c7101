#include "memsim/mem_trace.h"

namespace sov {

std::vector<std::uint64_t>
MemTrace::pointReuseCounts(std::uint32_t cloud_id) const
{
    std::vector<std::uint64_t> counts;
    point_counts_.forEachPage(
        key(cloud_id, 0) >> kCountPageBits,
        key(cloud_id, 0xFFFF'FFFFu) >> kCountPageBits,
        [&counts](const std::uint64_t *page) {
            for (std::uint64_t i = 0; i < Counts::kPageSize; ++i) {
                if (page[i])
                    counts.push_back(page[i]);
            }
        });
    return counts;
}

Histogram
MemTrace::reuseHistogram(std::uint32_t cloud_id, double bin_width,
                         double max_reuse) const
{
    const std::size_t bins =
        static_cast<std::size_t>(max_reuse / bin_width);
    Histogram h(0.0, max_reuse, bins > 0 ? bins : 1);
    for (const auto c : pointReuseCounts(cloud_id))
        h.add(static_cast<double>(c));
    return h;
}

void
MemTrace::reset()
{
    total_ = 0;
    point_counts_.clear();
    node_counts_.clear();
    distinct_points_ = 0;
    distinct_nodes_ = 0;
}

} // namespace sov
