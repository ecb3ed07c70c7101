/**
 * @file
 * Minimal typed key-value configuration store.
 *
 * Examples and benches accept "key=value" command-line overrides so
 * parameter sweeps don't require recompilation.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sov {

/**
 * String-keyed configuration with typed accessors and defaults.
 *
 * Every lookup (has() and the getters) marks its key as read, so a
 * caller can reject the keys nothing read — typically a mistyped
 * argument that would otherwise change nothing. The mark is not
 * synchronized: read one Config from one thread.
 */
class Config
{
  public:
    Config() = default;

    /** Parse "key=value" tokens (e.g. from argv); others are ignored. */
    static Config fromArgs(int argc, const char *const *argv);

    /** Set a raw string value, overwriting any previous one. */
    void set(const std::string &key, const std::string &value);

    bool has(const std::string &key) const;

    /** Typed getters returning @p fallback when the key is absent.
     *  A present-but-malformed value is a user error (fatal). */
    double getDouble(const std::string &key, double fallback) const;
    std::int64_t getInt(const std::string &key, std::int64_t fallback) const;
    bool getBool(const std::string &key, bool fallback) const;
    std::string getString(const std::string &key,
                          const std::string &fallback) const;

    /** All keys, sorted (for help/debug dumps). */
    std::vector<std::string> keys() const;

    /** Keys that no lookup has read yet, sorted. */
    std::vector<std::string> unreadKeys() const;

  private:
    struct Entry
    {
        std::string value;
        mutable bool read = false;
    };

    /** The value of @p key, marked read; nullptr when absent. */
    const std::string *lookup(const std::string &key) const;

    std::map<std::string, Entry> values_;
};

} // namespace sov
