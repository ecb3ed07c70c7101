#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/config.h"

namespace sov {
namespace {

TEST(Config, FromArgsParsesKeyValuePairs)
{
    const char *argv[] = {"prog", "speed=5.6", "frames=100",
                          "verbose=true", "not-a-pair", "name=sov"};
    Config cfg = Config::fromArgs(6, argv);
    EXPECT_DOUBLE_EQ(cfg.getDouble("speed", 0.0), 5.6);
    EXPECT_EQ(cfg.getInt("frames", 0), 100);
    EXPECT_TRUE(cfg.getBool("verbose", false));
    EXPECT_EQ(cfg.getString("name", ""), "sov");
    EXPECT_FALSE(cfg.has("not-a-pair"));
}

TEST(Config, FallbacksWhenAbsent)
{
    Config cfg;
    EXPECT_DOUBLE_EQ(cfg.getDouble("missing", 1.25), 1.25);
    EXPECT_EQ(cfg.getInt("missing", -7), -7);
    EXPECT_FALSE(cfg.getBool("missing", false));
    EXPECT_EQ(cfg.getString("missing", "dflt"), "dflt");
}

TEST(Config, SetOverwrites)
{
    Config cfg;
    cfg.set("k", "1");
    cfg.set("k", "2");
    EXPECT_EQ(cfg.getInt("k", 0), 2);
}

TEST(Config, BoolSpellings)
{
    Config cfg;
    for (const char *t : {"1", "true", "yes", "on"}) {
        cfg.set("b", t);
        EXPECT_TRUE(cfg.getBool("b", false)) << t;
    }
    for (const char *f : {"0", "false", "no", "off"}) {
        cfg.set("b", f);
        EXPECT_FALSE(cfg.getBool("b", true)) << f;
    }
}

TEST(Config, KeysSorted)
{
    Config cfg;
    cfg.set("zeta", "1");
    cfg.set("alpha", "2");
    const auto keys = cfg.keys();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "alpha");
    EXPECT_EQ(keys[1], "zeta");
}

TEST(Config, UnreadKeysAreThoseNoLookupTouched)
{
    const char *argv[] = {"prog", "frames=8", "smoke=1", "flor=2",
                          "out=x.json"};
    const Config cfg = Config::fromArgs(5, argv);
    EXPECT_EQ(cfg.unreadKeys(),
              (std::vector<std::string>{"flor", "frames", "out", "smoke"}));
    EXPECT_EQ(cfg.getInt("frames", 0), 8);
    EXPECT_TRUE(cfg.has("smoke"));
    EXPECT_EQ(cfg.getString("out", ""), "x.json");
    // Looking up an absent key marks nothing.
    EXPECT_EQ(cfg.getDouble("floor", 1.5), 1.5);
    EXPECT_EQ(cfg.unreadKeys(), std::vector<std::string>{"flor"});
}

} // namespace
} // namespace sov
