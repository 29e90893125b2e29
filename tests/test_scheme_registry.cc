/**
 * @file
 * Tests of the spec-string layer and the scheme registry: kv-spec
 * grammar errors (duplicate keys, empty parens, unknown/out-of-range
 * parameters), toString round-trips, lenient legacy-name aliases,
 * near-miss suggestions, sweep-grid cartesian expansion, and
 * equivalence of registry-built parameterized organizations with the
 * hand-built makeAcicOrg path the sensitivity benches used before
 * the refactor.
 */

#include <gtest/gtest.h>

#include <set>

#include "cache/lru.hh"
#include "common/kv_spec.hh"
#include "driver/experiment.hh"
#include "sim/organizations.hh"
#include "sim/runner.hh"

using namespace acic;

// ------------------------------------------------------- kv grammar

TEST(KvSpec, ParsesBareAndParameterizedForms)
{
    const KvSpec bare = parseKvSpec("acic");
    EXPECT_EQ(bare.name, "acic");
    EXPECT_TRUE(bare.params.empty());

    const KvSpec kv = parseKvSpec(" acic( filter=32 , cshr=8 ) ");
    EXPECT_EQ(kv.name, "acic");
    ASSERT_EQ(kv.params.size(), 2u);
    EXPECT_EQ(kv.params[0].key, "filter");
    EXPECT_EQ(kv.params[0].value, "32");
    EXPECT_EQ(kv.params[1].key, "cshr");
    EXPECT_EQ(kv.params[1].value, "8");
    EXPECT_EQ(kv.toString(), "acic(filter=32,cshr=8)");
}

TEST(KvSpec, RejectsGrammarErrors)
{
    EXPECT_THROW(parseKvSpec(""), SpecError);
    EXPECT_THROW(parseKvSpec("acic()"), SpecError);
    EXPECT_THROW(parseKvSpec("acic(filter=8"), SpecError);
    EXPECT_THROW(parseKvSpec("(filter=8)"), SpecError);
    EXPECT_THROW(parseKvSpec("acic(filter)"), SpecError);
    EXPECT_THROW(parseKvSpec("acic(=8)"), SpecError);
    EXPECT_THROW(parseKvSpec("acic(filter=)"), SpecError);
    EXPECT_THROW(parseKvSpec("acic(filter=8)x"), SpecError);
    EXPECT_THROW(parseKvSpec("acic(a=1,a=2)"), SpecError);
    EXPECT_THROW(parseKvSpec("acic(a=(1))"), SpecError);
    EXPECT_THROW(parseKvSpec("acic(a=8})"), SpecError);
}

TEST(KvSpec, SplitTopLevelIgnoresNestedSeparators)
{
    const auto items =
        splitTopLevel("acic(filter={8,16},cshr=4),lru(kb=40),opt");
    ASSERT_EQ(items.size(), 3u);
    EXPECT_EQ(items[0], "acic(filter={8,16},cshr=4)");
    EXPECT_EQ(items[1], "lru(kb=40)");
    EXPECT_EQ(items[2], "opt");
}

// ---------------------------------------------------- param reader

TEST(ParamReader, ValidatesRangeUnknownAndDuplicates)
{
    const std::vector<ParamSpec> docs = {
        ParamSpec::count("filter", "16", 1, 1024, "slots"),
        ParamSpec::keyword("update", "pipelined",
                           {"pipelined", "instant"}, "timing"),
    };
    // Out of range.
    EXPECT_THROW(ParamReader("acic", docs, {{"filter", "0"}}),
                 SpecError);
    EXPECT_THROW(ParamReader("acic", docs, {{"filter", "2048"}}),
                 SpecError);
    // Non-numeric / non-integral.
    EXPECT_THROW(ParamReader("acic", docs, {{"filter", "ten"}}),
                 SpecError);
    EXPECT_THROW(ParamReader("acic", docs, {{"filter", "1.5"}}),
                 SpecError);
    // Unknown key names the valid ones.
    try {
        ParamReader("acic", docs, {{"fltr", "8"}});
        FAIL() << "unknown key accepted";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("filter"),
                  std::string::npos);
    }
    // Duplicate key.
    EXPECT_THROW(
        ParamReader("acic", docs,
                    {{"filter", "8"}, {"filter", "16"}}),
        SpecError);
    // Keyword outside the list; lenient folding inside it.
    EXPECT_THROW(ParamReader("acic", docs, {{"update", "now"}}),
                 SpecError);
    ParamReader ok("acic", docs,
                   {{"filter", "32"}, {"update", "Instant"}});
    EXPECT_EQ(ok.count("filter", 16), 32u);
    EXPECT_EQ(ok.keyword("update", "pipelined"), "instant");
    EXPECT_FALSE(ok.given("missing"));
    // Accessors read the same number validation accepted, whatever
    // the spelling (scientific/hex would silently truncate under a
    // base-10 integer reparse).
    ParamReader sci("acic", docs, {{"filter", "1e2"}});
    EXPECT_EQ(sci.count("filter", 16), 100u);
    ParamReader hex("acic", docs, {{"filter", "0x20"}});
    EXPECT_EQ(hex.count("filter", 16), 32u);
}

// -------------------------------------------------------- registry

TEST(SchemeRegistry, All22LegacyDisplayNamesResolve)
{
    static const char *const kLegacy[] = {
        "LRU", "SRRIP", "SHiP", "Harmony", "GHRP", "DSB", "OBM",
        "VVC", "VC3K", "VC8K", "36KB L1i", "40KB L1i", "OPT",
        "OPT Bypass", "ACIC", "ACIC (instant update)",
        "Always insert", "i-Filter only", "Access count",
        "Random bypass", "ACIC global-history", "ACIC bimodal"};
    const auto &presets = allSchemes();
    ASSERT_EQ(presets.size(), 22u);
    for (std::size_t i = 0; i < presets.size(); ++i) {
        const auto spec = schemeFromName(kLegacy[i]);
        ASSERT_TRUE(spec.has_value()) << kLegacy[i];
        EXPECT_EQ(*spec, presets[i]) << kLegacy[i];
        // Display names stay bit-identical to the legacy labels.
        EXPECT_EQ(schemeName(presets[i]), kLegacy[i]);
    }
}

TEST(SchemeRegistry, LenientAliasesKeepResolving)
{
    // '-'/'_'/case folding (legacy schemeFromName semantics).
    EXPECT_EQ(schemeFromName("opt_bypass")->key, "opt_bypass");
    EXPECT_EQ(schemeFromName("OPT-Bypass")->key, "opt_bypass");
    EXPECT_EQ(schemeFromName("opt bypass")->key, "opt_bypass");
    EXPECT_EQ(schemeFromName("36KB L1i")->key, "l1i36k");
    EXPECT_EQ(schemeFromName("36kb_l1i")->key, "l1i36k");
    EXPECT_EQ(schemeFromName("36kb")->key, "l1i36k");
    EXPECT_EQ(schemeFromName("ACIC (instant update)")->key,
              "acic_instant");
    EXPECT_EQ(schemeFromName("i-Filter only")->key, "ifilter_only");
    EXPECT_EQ(schemeFromName("I_FILTER_ONLY")->key, "ifilter_only");
    EXPECT_EQ(schemeFromName("hawkeye")->key, "harmony");
    EXPECT_EQ(schemeFromName("baseline")->key, "lru");
    EXPECT_FALSE(schemeFromName("no_such_scheme").has_value());
}

TEST(SchemeRegistry, UnknownNamesGetNearMissSuggestions)
{
    const auto hits = SchemeRegistry::instance().suggest("lruu");
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(hits.front(), "lru");
    try {
        parseScheme("acic_instnt");
        FAIL() << "unknown scheme accepted";
    } catch (const SpecError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("did you mean"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("acic_instant"), std::string::npos)
            << msg;
    }
}

TEST(SchemeRegistry, ParameterizedSpecsRoundTripThroughToString)
{
    const SchemeSpec spec =
        parseScheme("ACIC(filter=32, cshr=8, update=instant)");
    EXPECT_EQ(spec.key, "acic");
    EXPECT_EQ(spec.toString(),
              "acic(filter=32,cshr=8,update=instant)");
    EXPECT_EQ(schemeName(spec), spec.toString());
    EXPECT_EQ(parseScheme(spec.toString()), spec);

    // Bare presets round-trip too, via canonical keys.
    for (const SchemeSpec &preset : allSchemes())
        EXPECT_EQ(parseScheme(preset.toString()), preset);
}

TEST(SchemeRegistry, ParseRejectsBadParameters)
{
    EXPECT_THROW(parseScheme("acic(filter=0)"), SpecError);
    EXPECT_THROW(parseScheme("acic(filter=9999)"), SpecError);
    EXPECT_THROW(parseScheme("acic(bogus=1)"), SpecError);
    EXPECT_THROW(parseScheme("srrip(ways=4)"), SpecError);
    EXPECT_THROW(parseScheme("acic()"), SpecError);
    EXPECT_THROW(parseScheme("lru(kb=40,ways=10)"), SpecError);
    EXPECT_THROW(parseScheme("lru(kb=33)"), SpecError);
    // Cross-parameter CSHR geometry checks.
    EXPECT_THROW(parseScheme("acic(cshr=12)"), SpecError);
    EXPECT_THROW(parseScheme("acic(cshr_sets=3)"), SpecError);
    // Value sets only make sense in sweep grids.
    EXPECT_THROW(parseScheme("acic(filter={8,16})"), SpecError);
}

TEST(SchemeRegistry, SmallCshrShrinksSetsAutomatically)
{
    // 4-entry CSHR: the default 8 sets would not divide; the
    // builder follows the capacity down to 4 sets.
    const SchemeSpec spec = parseScheme("acic(cshr=4)");
    EXPECT_NO_THROW(makeScheme(spec, SimConfig{}));
}

// ------------------------------------------------------ sweep grids

TEST(SchemeRegistry, GridExpandsCartesianLeftmostSlowest)
{
    const auto grid = expandSchemeGrid(
        "acic(filter={8,16},cshr={64,256}),lru(ways={8,9})");
    ASSERT_EQ(grid.size(), 6u);
    EXPECT_EQ(grid[0].toString(), "acic(filter=8,cshr=64)");
    EXPECT_EQ(grid[1].toString(), "acic(filter=8,cshr=256)");
    EXPECT_EQ(grid[2].toString(), "acic(filter=16,cshr=64)");
    EXPECT_EQ(grid[3].toString(), "acic(filter=16,cshr=256)");
    EXPECT_EQ(grid[4].toString(), "lru(ways=8)");
    EXPECT_EQ(grid[5].toString(), "lru(ways=9)");
}

TEST(SchemeRegistry, GridValidatesEveryPoint)
{
    EXPECT_THROW(expandSchemeGrid("acic(filter={8,0})"), SpecError);
    EXPECT_THROW(expandSchemeGrid("acic(filter={})"), SpecError);
    EXPECT_THROW(expandSchemeGrid(""), SpecError);
    // A grid without sets is just a scheme list.
    const auto single = expandSchemeGrid("acic(filter=8)");
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0].toString(), "acic(filter=8)");
}

TEST(SchemeRegistry, ParseSchemeListHandlesAllAndParens)
{
    EXPECT_EQ(parseSchemeList("all").size(), 22u);
    const auto list =
        parseSchemeList("lru,acic(filter=32,cshr=64),opt");
    ASSERT_EQ(list.size(), 3u);
    EXPECT_EQ(list[1].toString(), "acic(filter=32,cshr=64)");
    EXPECT_THROW(parseSchemeList(""), SpecError);
}

// ------------------------------------------- behavioural equivalence

TEST(SchemeRegistry, RegistryAcicMatchesHandBuiltOrg)
{
    // The pre-refactor Fig. 15 loop built variants via makeAcicOrg;
    // the registry path must reproduce those results exactly.
    auto params = Workloads::byName("web_search");
    params.instructions = 40'000;
    const SharedWorkload workload(params);

    for (const std::uint32_t filter : {8u, 16u, 32u}) {
        auto hand = makeAcicOrg(workload.config(), PredictorConfig{},
                                CshrConfig{}, filter);
        const SimResult expected =
            workload.run(*hand, workload.wholeRun());
        const SimResult via_registry = workload.run(parseScheme(
            "acic(filter=" + std::to_string(filter) + ")"));
        EXPECT_EQ(via_registry.cycles, expected.cycles) << filter;
        EXPECT_EQ(via_registry.l1iMisses, expected.l1iMisses)
            << filter;
    }

    // Parameter defaults equal the bare preset.
    const SimResult bare = workload.run(parseScheme("acic"));
    const SimResult spelled = workload.run(parseScheme(
        "acic(filter=16,hrt=1024,history=4,counter=5,queue=10,"
        "update=pipelined,predictor=two_level,cshr=256,cshr_sets=8,"
        "tag=12,threshold=0)"));
    EXPECT_EQ(bare.cycles, spelled.cycles);
    EXPECT_EQ(bare.l1iMisses, spelled.l1iMisses);
}

TEST(SchemeRegistry, LruCapacityParamsMatchFixedPresets)
{
    auto params = Workloads::byName("tpcc");
    params.instructions = 40'000;
    const SharedWorkload workload(params);

    const SimResult preset36 = workload.run(parseScheme("36KB L1i"));
    const SimResult ways9 = workload.run(parseScheme("lru(ways=9)"));
    EXPECT_EQ(preset36.cycles, ways9.cycles);
    EXPECT_EQ(preset36.l1iMisses, ways9.l1iMisses);

    const SimResult preset40 = workload.run(parseScheme("40kb_l1i"));
    const SimResult kb40 = workload.run(parseScheme("lru(kb=40)"));
    EXPECT_EQ(preset40.cycles, kb40.cycles);
    EXPECT_EQ(preset40.l1iMisses, kb40.l1iMisses);
}

TEST(SchemeRegistry, SweepGridRunsThroughDriver)
{
    // Acceptance shape: a sweep grid through the experiment driver
    // reproduces the serial hand-built results for every point.
    auto params = Workloads::byName("web_search");
    params.instructions = 40'000;

    ExperimentSpec spec;
    spec.workloads = {params};
    spec.schemes = expandSchemeGrid("acic(filter={8,16,32})");
    spec.instructions = params.instructions;
    spec.threads = 2;
    const auto cells = ExperimentDriver(spec).run();
    ASSERT_EQ(cells.size(), 3u);

    const SharedWorkload serial(params);
    static const std::uint32_t kFilters[] = {8, 16, 32};
    for (std::size_t i = 0; i < cells.size(); ++i) {
        auto hand =
            makeAcicOrg(serial.config(), PredictorConfig{},
                        CshrConfig{}, kFilters[i]);
        const SimResult expected =
            serial.run(*hand, serial.wholeRun());
        EXPECT_EQ(cells[i].result.cycles, expected.cycles) << i;
        EXPECT_EQ(cells[i].result.l1iMisses, expected.l1iMisses)
            << i;
        // Parameterized display names label the driver output.
        EXPECT_EQ(schemeName(spec.schemes[i]),
                  "acic(filter=" + std::to_string(kFilters[i]) +
                      ")");
    }
}

TEST(SchemeRegistry, OpenRegistration)
{
    // The registry is open: a new scheme lands as data, is listable,
    // parseable, buildable, and replaceable — no enum edit involved.
    SchemeRegistry::Entry entry;
    entry.key = "test_tiny_lru";
    entry.display = "Tiny LRU";
    entry.summary = "registration test";
    // Keep golden "--schemes all" runs stable: addressable by name,
    // excluded from the "all" list.
    entry.listed = false;
    entry.params = {ParamSpec::count("ways", "2", 1, 8, "ways")};
    entry.builder = [](const SimConfig &config, ParamReader &p,
                       const std::string &display) {
        return std::make_unique<PlainIcache>(
            config.l1iSets,
            static_cast<std::uint32_t>(p.count("ways", 2)),
            std::make_unique<LruPolicy>(), display);
    };
    SchemeRegistry::instance().add(entry);

    const SchemeSpec spec = parseScheme("Test-Tiny-LRU(ways=4)");
    EXPECT_EQ(spec.key, "test_tiny_lru");
    auto org = makeScheme(spec, SimConfig{});
    EXPECT_EQ(org->name(), "test_tiny_lru(ways=4)");
    EXPECT_EQ(schemeFromName("Tiny LRU")->key, "test_tiny_lru");

    // Same-key re-registration replaces in place.
    entry.summary = "replaced";
    SchemeRegistry::instance().add(entry);
    std::size_t hits = 0;
    for (const auto &e : SchemeRegistry::instance().entries())
        if (e.key == "test_tiny_lru") {
            ++hits;
            EXPECT_EQ(e.summary, "replaced");
        }
    EXPECT_EQ(hits, 1u);

    // Unlisted registrations never widen the "all" list, so golden
    // "--schemes all" outputs stay at the 22 paper presets.
    EXPECT_EQ(allSchemes().size(), 22u);

    // A listed registration joins "all" immediately (live view) —
    // and leaves it again when replaced unlisted.
    entry.listed = true;
    SchemeRegistry::instance().add(entry);
    EXPECT_EQ(allSchemes().size(), 23u);
    entry.listed = false;
    SchemeRegistry::instance().add(entry);
    EXPECT_EQ(allSchemes().size(), 22u);
}
