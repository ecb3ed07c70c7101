#include "core/config.h"

#include <cstdlib>

#include "core/logging.h"

namespace sov {

Config
Config::fromArgs(int argc, const char *const *argv)
{
    Config cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        if (eq == std::string::npos || eq == 0)
            continue;
        cfg.set(arg.substr(0, eq), arg.substr(eq + 1));
    }
    return cfg;
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = Entry{value};
}

const std::string *
Config::lookup(const std::string &key) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return nullptr;
    it->second.read = true;
    return &it->second.value;
}

bool
Config::has(const std::string &key) const
{
    return lookup(key) != nullptr;
}

double
Config::getDouble(const std::string &key, double fallback) const
{
    const std::string *text = lookup(key);
    if (!text)
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(text->c_str(), &end);
    if (end == text->c_str() || *end != '\0')
        SOV_FATAL("config key '" + key + "' is not a number: " + *text);
    return v;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t fallback) const
{
    const std::string *text = lookup(key);
    if (!text)
        return fallback;
    char *end = nullptr;
    const long long v = std::strtoll(text->c_str(), &end, 10);
    if (end == text->c_str() || *end != '\0')
        SOV_FATAL("config key '" + key + "' is not an integer: " + *text);
    return v;
}

bool
Config::getBool(const std::string &key, bool fallback) const
{
    const std::string *text = lookup(key);
    if (!text)
        return fallback;
    const std::string &v = *text;
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    SOV_FATAL("config key '" + key + "' is not a boolean: " + v);
}

std::string
Config::getString(const std::string &key, const std::string &fallback) const
{
    const std::string *text = lookup(key);
    return text ? *text : fallback;
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &kv : values_)
        out.push_back(kv.first);
    return out;
}

std::vector<std::string>
Config::unreadKeys() const
{
    std::vector<std::string> out;
    for (const auto &kv : values_) {
        if (!kv.second.read)
            out.push_back(kv.first);
    }
    return out;
}

} // namespace sov
