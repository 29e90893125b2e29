/**
 * @file
 * Golden-run regression corpus. Each fixture under tests/golden/ pins
 * the complete writeGoldenDump() output — headline SimResult counters
 * plus every organization counter, sorted — of one (scheme x
 * synthetic-workload) pair, captured before the stats-handle refactor.
 * A live run must reproduce its fixture byte for byte at any later
 * commit; a divergence is reported as the first differing line with
 * surrounding context, so a broken counter is named directly instead
 * of drowning in a full-dump diff.
 *
 * Regenerating (only when an intentional simulation change lands):
 *   ACIC_REGEN_GOLDEN=1 ./acic_tests --gtest_filter='GoldenRun*'
 * or equivalently capture `acic_run run --dump-stats` output for the
 * same pairs (DESIGN.md section 7) and review the diff like code.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "driver/emitters.hh"
#include "sim/runner.hh"
#include "trace/workload_params.hh"

using namespace acic;

namespace {

/** Trace length of every golden pair; small enough for ctest. */
constexpr std::uint64_t kGoldenInstructions = 200'000;

/** One pinned (workload, scheme) pair. */
struct GoldenCase
{
    const char *workload; ///< synthetic preset name
    const char *scheme;   ///< registry spec string
    /** Front-end prefetcher of the pinned run (a SimConfig knob, not
     *  part of the scheme spec). */
    PrefetcherKind prefetcher = PrefetcherKind::Fdp;
};

/**
 * The corpus: ACIC twice (the hot-path refactor's main target), the
 * plain-LRU and SRRIP organizations, the instant-update ablation, the
 * oracle-driven OPT-bypass path, and one cell in front of the
 * entangling prefetcher (the Fig. 20/21 baseline, otherwise only
 * exercised by benches).
 */
const std::vector<GoldenCase> &
goldenCases()
{
    static const std::vector<GoldenCase> cases = {
        {"web_search", "lru"},
        {"web_search", "acic"},
        {"media_streaming", "acic"},
        {"media_streaming", "srrip"},
        {"tpcc", "acic_instant"},
        {"tpcc", "opt_bypass"},
        {"web_search", "acic", PrefetcherKind::Entangling},
    };
    return cases;
}

const char *
prefetcherTag(PrefetcherKind kind)
{
    switch (kind) {
      case PrefetcherKind::None: return "nopf";
      case PrefetcherKind::Fdp: return "";
      case PrefetcherKind::Entangling: return "entangling";
    }
    return "";
}

std::string
fixturePath(const GoldenCase &c)
{
    // "acic(filter=32)" would be hostile as a file name; the corpus
    // only uses bare presets, so the spec string is path-safe.
    std::string path = std::string(ACIC_GOLDEN_DIR) + "/" +
                       c.workload + "__" + c.scheme;
    const std::string tag = prefetcherTag(c.prefetcher);
    if (!tag.empty())
        path += "__" + tag;
    return path + ".txt";
}

/** Workloads are shared across cases; build each (preset, prefetcher)
 *  image+oracle once. Null when @p name is not a datacenter preset. */
SharedWorkload *
workloadNamed(const std::string &name, PrefetcherKind prefetcher)
{
    static std::map<std::string, std::unique_ptr<SharedWorkload>>
        cache;
    const std::string key =
        name + "/" + std::to_string(static_cast<int>(prefetcher));
    auto it = cache.find(key);
    if (it == cache.end()) {
        WorkloadParams params;
        bool found = false;
        for (const WorkloadParams &preset : Workloads::datacenter()) {
            if (preset.name == name) {
                params = preset;
                found = true;
            }
        }
        if (!found)
            return nullptr;
        // Fixed length on purpose: ACIC_TRACE_LEN must not be able to
        // invalidate the corpus (SharedWorkload ignores the env var).
        params.instructions = kGoldenInstructions;
        SimConfig config;
        config.prefetcher = prefetcher;
        it = cache
                 .emplace(key, std::make_unique<SharedWorkload>(
                                   params, config))
                 .first;
    }
    return it->second.get();
}

std::string
liveDump(const GoldenCase &c)
{
    SharedWorkload *workload =
        workloadNamed(c.workload, c.prefetcher);
    if (workload == nullptr)
        return ""; // caller asserts; avoids simulating garbage
    const SimResult result = workload->run(parseScheme(c.scheme));
    std::ostringstream out;
    writeGoldenDump(out, result);
    return out.str();
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/**
 * Readable first-divergence report: the earliest differing line with
 * two lines of context on each side, plus a length note when one dump
 * is a prefix of the other.
 */
std::string
firstDivergence(const std::string &expected, const std::string &actual)
{
    const std::vector<std::string> want = splitLines(expected);
    const std::vector<std::string> got = splitLines(actual);
    const std::size_t n = std::min(want.size(), got.size());
    std::size_t diff = n;
    for (std::size_t i = 0; i < n; ++i) {
        if (want[i] != got[i]) {
            diff = i;
            break;
        }
    }
    if (diff == n && want.size() == got.size())
        return "dumps are line-identical but differ in raw bytes "
               "(line endings?)";

    std::ostringstream out;
    out << "first divergence at line " << diff + 1 << ":\n";
    const std::size_t from = diff >= 2 ? diff - 2 : 0;
    for (std::size_t i = from; i <= diff; ++i) {
        out << "  fixture " << i + 1 << ": "
            << (i < want.size() ? want[i] : "<absent>") << '\n';
        out << "  live    " << i + 1 << ": "
            << (i < got.size() ? got[i] : "<absent>") << '\n';
    }
    out << "(fixture " << want.size() << " lines, live " << got.size()
        << " lines)";
    return out.str();
}

class GoldenRun : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(GoldenRun, MatchesFixture)
{
    const GoldenCase &c = goldenCases()[GetParam()];
    ASSERT_NE(workloadNamed(c.workload, c.prefetcher), nullptr)
        << "unknown golden preset " << c.workload;
    const std::string path = fixturePath(c);
    const std::string live = liveDump(c);

    if (std::getenv("ACIC_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << live;
        SUCCEED() << "regenerated " << path;
        return;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing fixture " << path
                    << "; regenerate with ACIC_REGEN_GOLDEN=1 "
                       "./acic_tests --gtest_filter='GoldenRun*'";
    std::ostringstream fixture;
    fixture << in.rdbuf();

    if (fixture.str() != live) {
        FAIL() << c.workload << " x " << c.scheme
               << " diverged from " << path << "\n"
               << firstDivergence(fixture.str(), live);
    }
}

std::string
caseName(const ::testing::TestParamInfo<std::size_t> &info)
{
    const GoldenCase &c = goldenCases()[info.param];
    std::string name = std::string(c.workload) + "__" + c.scheme;
    const std::string tag = prefetcherTag(c.prefetcher);
    if (!tag.empty())
        name += "__" + tag;
    return name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenRun,
                         ::testing::Range<std::size_t>(
                             0, goldenCases().size()),
                         caseName);

} // namespace
