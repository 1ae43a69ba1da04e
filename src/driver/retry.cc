#include "driver/retry.hh"

namespace l0vliw
{

static_assert(
    [] {
        for (int i = 0; i < kFailReasonCount; ++i)
            if (static_cast<int>(kFailReasons[i].reason) != i)
                return false;
        return true;
    }(),
    "kFailReasons must list every FailReason in enum order");

FailReason
failReasonFromName(const std::string &name)
{
    for (const FailReasonInfo &info : kFailReasons)
        if (info.reason != FailReason::None && name == info.name)
            return info.reason;
    return FailReason::None;
}

int
RetryPolicy::backoffMs(int attempt, Rng &rng) const
{
    if (baseBackoffMs <= 0)
        return 0;
    // Cap the shift, not just the product: attempt counts in the
    // hundreds must not overflow the multiply before the cap applies.
    long wait = baseBackoffMs;
    for (int i = 1; i < attempt && wait < maxBackoffMs; ++i)
        wait *= 2;
    if (wait > maxBackoffMs)
        wait = maxBackoffMs;
    double scale = 1.0 + jitterFrac * (2.0 * rng.real() - 1.0);
    long jittered = static_cast<long>(wait * scale);
    return jittered < 0 ? 0 : static_cast<int>(jittered);
}

} // namespace l0vliw
