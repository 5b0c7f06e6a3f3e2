#include "power/rack.hh"

#include <stdexcept>

namespace soc
{
namespace power
{

Rack::Rack(int id, Watts limit) : id_(id)
{
    setLimitWatts(limit);
}

void
Rack::setLimitWatts(Watts watts)
{
    // Checked in every build (a NaN fails the comparison).
    if (!(watts > Watts{0.0}))
        throw std::invalid_argument("Rack: limit must be > 0");
    limitWatts_ = watts;
}

Server &
Rack::addServer(const PowerModel *model, FrequencyLadder ladder)
{
    servers_.push_back(
        std::make_unique<Server>(nextServerId_++, model, ladder));
    return *servers_.back();
}

Watts
Rack::powerWatts() const
{
    Watts watts{0.0};
    for (const auto &server : servers_)
        watts += server->powerWatts();
    return watts;
}

double
Rack::utilization() const
{
    return powerWatts() / limitWatts_;
}

Watts
Rack::evenShareWatts() const
{
    return servers_.empty()
        ? limitWatts_
        : limitWatts_ / static_cast<double>(servers_.size());
}

} // namespace power
} // namespace soc
