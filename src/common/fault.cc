#include "fault.hh"

#include <atomic>
#include <cstdlib>
#include <string>

namespace pinte
{

namespace detail
{
bool faultArmed = false;
} // namespace detail

namespace
{

/** Parsed once from PINTE_INJECT_FAULT at start-up. */
struct FaultPlan
{
    bool armed = false;
    std::string kind;
    unsigned long long nth = 1;
    std::atomic<unsigned long long> hits{0};

    FaultPlan() { parse(std::getenv("PINTE_INJECT_FAULT")); }

    void
    parse(const char *spec)
    {
        armed = false;
        kind.clear();
        nth = 1;
        hits.store(0, std::memory_order_relaxed);
        if (!spec || !*spec)
            return;
        const std::string s(spec);
        const auto colon = s.rfind(':');
        kind = s.substr(0, colon);
        if (colon != std::string::npos) {
            const std::string n = s.substr(colon + 1);
            if (!n.empty() &&
                n.find_first_not_of("0123456789") == std::string::npos)
                nth = std::strtoull(n.c_str(), nullptr, 10);
        }
        if (nth == 0)
            nth = 1;
        armed = !kind.empty();
        detail::faultArmed = armed;
    }
};

FaultPlan &
plan()
{
    static FaultPlan p;
    return p;
}

/** Parse PINTE_INJECT_FAULT at start-up, so the inline armed flag is
 *  right before the first faultInjected() call. */
[[maybe_unused]] const bool planParsedAtStartup = plan().armed;

} // namespace

namespace detail
{

bool
faultHit(const char *kind)
{
    FaultPlan &p = plan();
    if (!p.armed || p.kind != kind)
        return false;
    return p.hits.fetch_add(1, std::memory_order_relaxed) + 1 == p.nth;
}

} // namespace detail

bool
faultArmedForCell(const char *kind, unsigned long long cell)
{
    const FaultPlan &p = plan();
    return p.armed && p.kind == kind && p.nth == cell + 1;
}

void
armFault(const char *spec)
{
    plan().parse(spec);
}

} // namespace pinte
