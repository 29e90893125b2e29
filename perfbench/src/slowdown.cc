#include "slowdown.hh"

#include "decorators.hh"
#include "sim/scheme.hh"

namespace perfbench {

namespace {

/** Burns a fixed number of loop iterations before every access. */
class SlowOrg final : public ForwardingOrg
{
  public:
    using ForwardingOrg::ForwardingOrg;

    bool
    access(const acic::CacheAccess &a) override
    {
        for (unsigned i = 0; i < kSlowdownSpin; ++i)
            asm volatile("" ::: "memory");
        return inner_->access(a);
    }
};

} // namespace

void
installSlowdown()
{
    if (kSlowdownSpin == 0)
        return;
    acic::SchemeRegistry &registry = acic::SchemeRegistry::instance();
    const std::vector<acic::SchemeRegistry::Entry> entries =
        registry.entries();
    for (acic::SchemeRegistry::Entry entry : entries) {
        auto inner = entry.builder;
        entry.builder = [inner](const acic::SimConfig &config,
                                acic::ParamReader &reader,
                                const std::string &display)
            -> std::unique_ptr<acic::IcacheOrg> {
            return std::make_unique<SlowOrg>(
                inner(config, reader, display));
        };
        registry.add(std::move(entry));
    }
}

} // namespace perfbench
