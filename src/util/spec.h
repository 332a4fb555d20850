/**
 * @file
 * The shared tokenizer of the `key=value` spec grammars (SWORDFISH_FAULTS /
 * SWORDFISH_CHAOS, SWORDFISH_REFRESH, SWORDFISH_NOISE and their JobSpec
 * fields), plus the strict number parsers their values use.
 */

#ifndef SWORDFISH_UTIL_SPEC_H
#define SWORDFISH_UTIL_SPEC_H

#include <cstdint>
#include <functional>
#include <string>

namespace swordfish {

/**
 * Parse the whole of `s` as a finite double: false on an empty string,
 * trailing characters, out-of-range values, NaN or infinity.
 */
bool parseFiniteDouble(const std::string& s, double& out);

/** Parse the whole of `s` as an unsigned 64-bit integer. */
bool parseU64(const std::string& s, std::uint64_t& out);

/**
 * Walk a spec of `key=value` tokens separated by ',', ';' or whitespace
 * (empty tokens are skipped), calling `on_pair(key, value)` for each in
 * order. Stops at the first pair the callback rejects (it sets `error`
 * itself) or at a token without a key, for which `error` becomes
 * "<grammar> spec token '<token>' is not key=value". Returns true when
 * every token was accepted.
 */
bool parseKeyValueSpec(
    const std::string& spec, const char* grammar, std::string& error,
    const std::function<bool(const std::string& key,
                             const std::string& value)>& on_pair);

} // namespace swordfish

#endif // SWORDFISH_UTIL_SPEC_H
