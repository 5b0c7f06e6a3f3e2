/**
 * @file
 * Rack: a power-delivery unit aggregating servers under a shared
 * power limit (§II).  The rack owns its servers; the RackManager
 * (separate class) implements the warning/capping protocol.
 */

#ifndef SOC_POWER_RACK_HH
#define SOC_POWER_RACK_HH

#include <memory>
#include <vector>

#include "power/server.hh"

namespace soc
{
namespace power
{

/**
 * A rack of servers with a provisioned power limit.
 */
class Rack
{
  public:
    /**
     * @param id    Rack identifier.
     * @param limit Provisioned (possibly oversubscribed) limit.
     * @throws std::invalid_argument unless @p limit > 0 (NaN
     *         included), in every build.
     */
    Rack(int id, Watts limit);

    int id() const { return id_; }

    Watts limitWatts() const { return limitWatts_; }

    /** @throws std::invalid_argument, leaving the limit unchanged,
     *  unless @p watts > 0 (NaN included), in every build. */
    void setLimitWatts(Watts watts);

    /** Create and own a server using @p model. */
    Server &addServer(const PowerModel *model,
                      FrequencyLadder ladder = {});

    std::size_t serverCount() const { return servers_.size(); }

    Server &server(std::size_t idx) { return *servers_[idx]; }
    const Server &server(std::size_t idx) const
    {
        return *servers_[idx];
    }

    std::vector<std::unique_ptr<Server>> &servers()
    {
        return servers_;
    }
    const std::vector<std::unique_ptr<Server>> &servers() const
    {
        return servers_;
    }

    /** Instantaneous rack power draw: sum over servers. */
    Watts powerWatts() const;

    /** Power draw as a fraction of the limit. */
    double utilization() const;

    /** Even per-server share of the limit (the naive split, §III-Q4). */
    Watts evenShareWatts() const;

  private:
    int id_;
    Watts limitWatts_;
    int nextServerId_ = 0;
    std::vector<std::unique_ptr<Server>> servers_;
};

} // namespace power
} // namespace soc

#endif // SOC_POWER_RACK_HH
