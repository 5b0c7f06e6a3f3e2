/** @file Unit tests for the rack power-delivery model. */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "power/rack.hh"

using namespace soc::power;

namespace
{

const PowerModel &
model()
{
    static const PowerModel instance;
    return instance;
}

} // namespace

TEST(Rack, ServersGetSequentialIds)
{
    Rack rack(0, Watts{10000.0});
    Server &a = rack.addServer(&model());
    Server &b = rack.addServer(&model());
    EXPECT_EQ(a.id(), 0);
    EXPECT_EQ(b.id(), 1);
    EXPECT_EQ(rack.serverCount(), 2u);
}

TEST(Rack, PowerSumsServers)
{
    Rack rack(0, Watts{10000.0});
    Server &a = rack.addServer(&model());
    Server &b = rack.addServer(&model());
    a.addGroup(32, 0.5);
    b.addGroup(16, 0.8);
    EXPECT_NEAR(rack.powerWatts().count(),
                (a.powerWatts() + b.powerWatts()).count(), 1e-9);
}

TEST(Rack, UtilizationIsFractionOfLimit)
{
    Rack rack(0, Watts{1000.0});
    rack.addServer(&model()); // idles at 120 W
    EXPECT_NEAR(rack.utilization(), 0.12, 1e-9);
}

TEST(Rack, EvenShare)
{
    Rack rack(0, Watts{1200.0});
    rack.addServer(&model());
    rack.addServer(&model());
    rack.addServer(&model());
    EXPECT_NEAR(rack.evenShareWatts().count(), 400.0, 1e-9);
}

TEST(Rack, LimitIsMutable)
{
    Rack rack(0, Watts{1000.0});
    rack.setLimitWatts(Watts{500.0});
    EXPECT_EQ(rack.limitWatts(), Watts{500.0});
}

TEST(Rack, RejectsNonPositiveOrNaNLimit)
{
    EXPECT_THROW(Rack(0, Watts{0.0}), std::invalid_argument);
    EXPECT_THROW(Rack(0, Watts{-100.0}), std::invalid_argument);
    EXPECT_THROW(Rack(0, Watts{std::nan("")}), std::invalid_argument);
    EXPECT_NO_THROW(Rack(0, Watts{1.0}));
}

TEST(Rack, SetLimitRejectsNonPositiveOrNaNAndKeepsLimit)
{
    // The constructor's check, on a live rack: a bad limit would
    // reach utilization(), evenShareWatts() and the rack manager.
    Rack rack(0, Watts{1000.0});
    for (const double bad : {0.0, -1.0, std::nan("")}) {
        EXPECT_THROW(rack.setLimitWatts(Watts{bad}),
                     std::invalid_argument);
        EXPECT_EQ(rack.limitWatts(), Watts{1000.0});
    }
    rack.setLimitWatts(Watts{0.5});
    EXPECT_EQ(rack.limitWatts(), Watts{0.5});
}
