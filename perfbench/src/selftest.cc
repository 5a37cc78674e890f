/**
 * @file
 * perfbench_selftest — the benchmark's own tests.
 *
 *   perfbench_selftest [--root DIR]
 *
 * Checks that the request generator and the offline inputs are pure
 * functions of the seed (byte-identical streams), that the metric
 * names and units in BENCHMARK.json are well formed and unique, and
 * that the span recorder builds well-formed trees with correct self
 * times — on a synthetic tree and on a real traced campaign pass.
 * Exit status 0 when every check passed.
 */

#include <cstdio>
#include <regex>
#include <set>
#include <sstream>
#include <fstream>
#include <string>

#include "harmonia/device.hh"
#include "harmonia/serve/json.hh"
#include "layers.hh"
#include "offline.hh"
#include "serve_load.hh"
#include "trace.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

std::string
streamText(uint64_t seed, uint64_t epoch)
{
    MixGenerator gen(seed, epoch);
    std::string text;
    std::vector<StreamRequest> reqs = gen.setup();
    const std::vector<StreamRequest> phase = gen.phase(kHighRate, 0.25);
    reqs.insert(reqs.end(), phase.begin(), phase.end());
    for (const StreamRequest &r : reqs)
        text += std::to_string(r.dueNs) + " " + std::to_string(r.conn) +
                " " + className(r.cls) + " " + r.line;
    return text;
}

std::string
suiteOrder(uint64_t seed)
{
    std::string names;
    for (const harmonia::Application &app : seededSuite(seed))
        names += app.name + ",";
    return names;
}

void
testDeterminism()
{
    expect(streamText(1, 0) == streamText(1, 0),
           "same seed gives a byte-identical request stream");
    expect(streamText(1, 3) == streamText(1, 3),
           "same seed and epoch give a byte-identical ladder stream");
    expect(streamText(1, 0) != streamText(2, 0),
           "another seed gives another request stream");
    expect(suiteOrder(7) == suiteOrder(7),
           "same seed gives the same offline pass inputs");
    expect(suiteOrder(7) != suiteOrder(8),
           "another seed gives another offline pass order");

    // Every generated request parses and names its class's verb.
    MixGenerator gen(5, 0);
    size_t counts[kRequestClasses] = {};
    bool parsed = true;
    for (const StreamRequest &r : gen.phase(kHighRate, 0.5)) {
        ++counts[static_cast<int>(r.cls)];
        parsed &= harmonia::serve::parseJson(r.line).ok();
    }
    expect(parsed, "every generated request is valid JSON");
    bool everyClass = true;
    for (const size_t c : counts)
        everyClass &= c > 0;
    expect(everyClass, "the mix contains every request class");
}

void
testBenchmarkJson(const std::string &root)
{
    std::ifstream in(root + "/BENCHMARK.json");
    std::stringstream ss;
    ss << in.rdbuf();
    harmonia::Result<harmonia::serve::JsonValue> doc =
        harmonia::serve::parseJson(ss.str());
    expect(in && doc.ok(), "BENCHMARK.json parses");
    if (!in || !doc.ok())
        return;
    const std::regex name("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    const std::regex unit("[A-Za-z0-9_/%.-]{1,16}");
    std::set<std::string> seen;
    bool namesOk = true, unitsOk = true, unique = true;
    for (const char *list : {"workloads", "end_to_end", "per_layer"}) {
        const harmonia::serve::JsonValue *items = doc.value().find(list);
        if (!items || !items->isArray()) {
            namesOk = false;
            continue;
        }
        for (const harmonia::serve::JsonValue &item : items->asArray()) {
            const std::string n = item.find("name")->asString();
            namesOk &= std::regex_match(n, name);
            unique &= seen.insert(n).second;
            if (const harmonia::serve::JsonValue *u = item.find("unit"))
                unitsOk &= std::regex_match(u->asString(), unit);
        }
    }
    expect(namesOk, "metric and workload names match [A-Za-z0-9_.-]+");
    expect(unitsOk, "metric units are well formed");
    expect(unique, "names are used once");
}

void
testSpans()
{
    // Synthetic tree: root [0,100] with children [10,30] and [20,50]
    // (overlapping) and grandchild [60,70] under a child [55,90].
    Tracer t;
    const int32_t root = t.record("root", 0, 100, -1);
    t.record("a", 10, 30, root);
    t.record("b", 20, 50, root);
    const int32_t c = t.record("c", 55, 90, root);
    t.record("d", 60, 70, c);
    const std::vector<int64_t> self = t.selfTimes();
    expect(t.validate().empty(), "synthetic span tree is well formed");
    expect(self[0] == 100 - 40 - 35 && self[3] == 25 && self[4] == 10,
           "self time subtracts the union of child intervals");

    Tracer bad;
    const int32_t r2 = bad.record("root", 0, 10, -1);
    bad.record("late", 5, 20, r2);
    expect(!bad.validate().empty(), "a child outside its parent is caught");

    // A real traced campaign pass forms a tree whose layers account
    // for its wall time.
    const harmonia::Device device = harmonia::Device::make("hd7970").value();
    Tracer pass;
    tracedCampaignPass(device.gpu(), seededSuite(1), pass);
    expect(pass.validate().empty(), "traced campaign pass is well formed");
    const std::vector<int64_t> passSelf = pass.selfTimes();
    int64_t layered = 0;
    for (size_t i = 1; i < passSelf.size(); ++i)
        layered += passSelf[i];
    const double coverage =
        static_cast<double>(layered) / pass.spans().front().durationNs();
    expect(coverage >= kMinCoverage && coverage <= 1.0,
           "layer self times cover the campaign pass (" +
               std::to_string(100 * coverage) + "%)");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    if (argc == 3 && std::string(argv[1]) == "--root")
        root = argv[2];
    testDeterminism();
    testBenchmarkJson(root);
    testSpans();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED",
                failures);
    return failures ? 1 : 0;
}
