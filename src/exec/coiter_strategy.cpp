#include "exec/coiter_strategy.hpp"

namespace teaal::exec
{

int
gallopLeader(const std::vector<ft::FiberView>& views, bool unite)
{
    if (unite || views.size() != 2)
        return -1;
    if (views[0].size() > kRuntimeGallopRatio * views[1].size())
        return 1;
    if (views[1].size() > kRuntimeGallopRatio * views[0].size())
        return 0;
    return -1;
}

} // namespace teaal::exec
