#include "spec.h"

#include <cctype>
#include <cmath>
#include <exception>

namespace swordfish {

bool
parseFiniteDouble(const std::string& s, double& out)
{
    if (s.empty())
        return false;
    std::size_t pos = 0;
    double v = 0.0;
    try {
        v = std::stod(s, &pos);
    } catch (const std::exception&) {
        return false;
    }
    if (pos != s.size() || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

bool
parseU64(const std::string& s, std::uint64_t& out)
{
    if (s.empty())
        return false;
    std::size_t pos = 0;
    try {
        out = std::stoull(s, &pos);
    } catch (const std::exception&) {
        return false;
    }
    return pos == s.size();
}

bool
parseKeyValueSpec(
    const std::string& spec, const char* grammar, std::string& error,
    const std::function<bool(const std::string& key,
                             const std::string& value)>& on_pair)
{
    std::string token;
    auto consume = [&]() -> bool {
        if (token.empty())
            return true;
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0) {
            error = std::string(grammar) + " spec token '" + token
                + "' is not key=value";
            return false;
        }
        return on_pair(token.substr(0, eq), token.substr(eq + 1));
    };
    for (const char c : spec) {
        if (c == ',' || c == ';'
            || std::isspace(static_cast<unsigned char>(c))) {
            if (!consume())
                return false;
            token.clear();
        } else {
            token.push_back(c);
        }
    }
    return consume();
}

} // namespace swordfish
