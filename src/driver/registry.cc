#include "driver/registry.hh"

#include <climits>

#include "common/decimal.hh"

namespace l0vliw::driver
{

namespace
{

/** Resolve the parametric "l0-..." label grammar. */
std::optional<ArchSpec>
parseL0Label(const std::string &label)
{
    if (label.rfind("l0-", 0) != 0)
        return std::nullopt;
    std::string rest = label.substr(3);

    // Leading size: "unbounded" (-1) or a positive integer.
    std::size_t dash = rest.find('-');
    std::string size = rest.substr(0, dash);
    std::string suffix =
        dash == std::string::npos ? "" : rest.substr(dash + 1);
    int entries = -1;
    if (size != "unbounded" && !parseDecimal(size, 1, INT_MAX, entries))
        return std::nullopt;

    if (suffix.empty())
        return ArchSpec::l0(entries);
    if (suffix == "nl0")
        return ArchSpec::l0(entries, sched::CoherenceMode::ForceNL0);
    if (suffix == "psr")
        return ArchSpec::l0(entries, sched::CoherenceMode::Psr);
    if (suffix == "allcand")
        return ArchSpec::l0AllCandidates(entries);
    if (suffix.rfind("pf", 0) == 0) {
        int d = 0;
        if (parseDecimal(suffix.substr(2), 0, INT_MAX, d))
            return ArchSpec::l0PrefetchDistance(entries, d);
    }
    return std::nullopt;
}

} // namespace

ArchRegistry &
archRegistry()
{
    static ArchRegistry *reg = [] {
        auto *r = new ArchRegistry(
            "architecture", parseL0Label,
            "unified, l0-<N>, l0-unbounded, "
            "l0-<N>-{nl0,psr,allcand,pf<D>}, multivliw, "
            "interleaved-1, interleaved-2");
        r->add("unified", [] { return ArchSpec::unified(); });
        r->add("multivliw", [] { return ArchSpec::multiVliw(); });
        r->add("interleaved-1", [] { return ArchSpec::interleaved1(); });
        r->add("interleaved-2", [] { return ArchSpec::interleaved2(); });
        // The L0 sizes the figures sweep, plus the ablation variants;
        // other l0-... labels resolve through the parametric grammar.
        for (int entries : {2, 4, 8, 16})
            r->add("l0-" + std::to_string(entries),
                   [entries] { return ArchSpec::l0(entries); });
        r->add("l0-unbounded", [] { return ArchSpec::l0(-1); });
        r->add("l0-8-nl0", [] {
            return ArchSpec::l0(8, sched::CoherenceMode::ForceNL0);
        });
        r->add("l0-8-psr", [] {
            return ArchSpec::l0(8, sched::CoherenceMode::Psr);
        });
        r->add("l0-4-allcand",
               [] { return ArchSpec::l0AllCandidates(4); });
        for (int d : {1, 2, 3})
            r->add("l0-8-pf" + std::to_string(d), [d] {
                return ArchSpec::l0PrefetchDistance(8, d);
            });
        return r;
    }();
    return *reg;
}

} // namespace l0vliw::driver
