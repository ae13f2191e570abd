/** @file
 * TraceEventRecorder tests. Timestamps are wall clock, so everything
 * here is structural: the Chrome object form, span/instant phases,
 * stable small-integer thread ids, and JSON string escaping. (The
 * inspect-side parseJsonFlatObject cannot validate full event lines —
 * it rejects the nested "args" object by design — hence the plain
 * substring checks.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>
#include <thread>

#include "runner/sweep_runner.hh"
#include "telemetry/trace_events.hh"
#include "workload/profiles.hh"

namespace rcache
{

namespace
{

std::string dump(const TraceEventRecorder &rec)
{
    std::ostringstream os;
    rec.write(os);
    return os.str();
}

/** The fields of one written span line the runner tests check. */
struct Span
{
    std::string label;
    long long ts = 0;
    long long dur = 0;
    int tid = 0;
    std::string group;
    int groupSize = 0;
};

/** Value after `"key":` on @p line: a bare number or a string. */
std::string field(const std::string &line, const std::string &key)
{
    const std::string tag = "\"" + key + "\":";
    const auto at = line.find(tag);
    if (at == std::string::npos)
        return "";
    std::size_t from = at + tag.size();
    if (line[from] == '"')
        return line.substr(from + 1, line.find('"', from + 1) - from - 1);
    std::size_t to = from;
    while (to < line.size() && (std::isdigit(line[to]) || line[to] == '-'))
        ++to;
    return line.substr(from, to - from);
}

/** Every complete span of a written recorder (one event per line). */
std::vector<Span> spans(const TraceEventRecorder &rec)
{
    std::vector<Span> out;
    std::istringstream is(dump(rec));
    std::string line;
    while (std::getline(is, line)) {
        if (line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        Span s;
        s.label = field(line, "label");
        s.ts = std::stoll(field(line, "ts"));
        s.dur = std::stoll(field(line, "dur"));
        s.tid = std::stoi(field(line, "tid"));
        s.group = field(line, "group");
        s.groupSize = std::stoi(field(line, "group_size"));
        out.push_back(s);
    }
    return out;
}

} // namespace

TEST(TraceEventsTest, EmptyRecorderWritesAnEmptyObject)
{
    TraceEventRecorder rec;
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(dump(rec), "{\"traceEvents\":[\n]}\n");
}

TEST(TraceEventsTest, SpansAndInstantsHaveTheChromeShape)
{
    TraceEventRecorder rec;
    const auto begin = rec.now();
    rec.completeSpan("cell", begin, rec.now(),
                     {{"point", "cell=0;app=gcc"}, {"jobs", "3"}});
    rec.instant("chunk-flush", {{"cells", "1"}});
    EXPECT_EQ(rec.size(), 2u);

    const std::string out = dump(rec);
    EXPECT_EQ(out.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(out.find("{\"name\":\"cell\",\"ph\":\"X\",\"ts\":"),
              std::string::npos);
    EXPECT_NE(out.find("\"dur\":"), std::string::npos);
    EXPECT_NE(out.find("\"args\":{\"point\":\"cell=0;app=gcc\","
                       "\"jobs\":\"3\"}"),
              std::string::npos);
    EXPECT_NE(out.find("{\"name\":\"chunk-flush\",\"ph\":\"i\",\"ts\":"),
              std::string::npos);
    // Instants need a scope for the viewers to render them.
    EXPECT_NE(out.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(out.find("\"pid\":0,\"tid\":0"), std::string::npos);
    EXPECT_EQ(out.substr(out.size() - 4), "\n]}\n");
}

TEST(TraceEventsTest, SpanDurationsAreNonNegativeAndOrdered)
{
    TraceEventRecorder rec;
    const auto begin = rec.now();
    rec.completeSpan("a", begin, rec.now());
    const std::string out = dump(rec);
    // ts is relative to recorder creation, so both fields are plain
    // non-negative integers (no leading '-').
    EXPECT_EQ(out.find("\"ts\":-"), std::string::npos);
    EXPECT_EQ(out.find("\"dur\":-"), std::string::npos);
}

TEST(TraceEventsTest, EscapesQuotesBackslashesAndControlChars)
{
    TraceEventRecorder rec;
    rec.instant("quo\"te\\path\nline\ttab\x01"
                "bell");
    const std::string out = dump(rec);
    EXPECT_NE(out.find("\"name\":\"quo\\\"te\\\\path\\nline\\ttab"
                       "\\u0001bell\""),
              std::string::npos);
    // The raw control characters must not leak into the JSON: the
    // writer's own newlines separate events, so the name's must be
    // gone entirely.
    EXPECT_EQ(out.find("line\t"), std::string::npos);
    EXPECT_EQ(out.find('\x01'), std::string::npos);
}

TEST(TraceEventsTest, ThreadsGetSmallStableTids)
{
    TraceEventRecorder rec;
    rec.instant("main-1");
    std::thread([&] { rec.instant("worker"); }).join();
    rec.instant("main-2");

    const std::string out = dump(rec);
    // First-appearance order: the main thread is tid 0 both times,
    // the worker is tid 1.
    EXPECT_NE(out.find("{\"name\":\"main-1\",\"ph\":\"i\",\"ts\":"),
              std::string::npos);
    const auto worker = out.find("\"name\":\"worker\"");
    ASSERT_NE(worker, std::string::npos);
    EXPECT_NE(out.find("\"tid\":1", worker), std::string::npos);
    const auto main2 = out.find("\"name\":\"main-2\"");
    ASSERT_NE(main2, std::string::npos);
    EXPECT_NE(out.find("\"tid\":0", main2), std::string::npos);
    EXPECT_EQ(rec.size(), 3u);
}

TEST(TraceEventsTest, ConcurrentRecordingIsSafeAndComplete)
{
    TraceEventRecorder rec;
    constexpr int kThreads = 4;
    constexpr int kEach = 50;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&rec, t] {
            for (int i = 0; i < kEach; ++i) {
                const auto b = rec.now();
                rec.completeSpan("t" + std::to_string(t), b, rec.now());
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(rec.size(),
              static_cast<std::size_t>(kThreads) * kEach);
    // All tids are in [0, kThreads).
    const std::string out = dump(rec);
    EXPECT_EQ(out.find("\"tid\":" + std::to_string(kThreads)),
              std::string::npos);
}

TEST(TraceEventsTest, LockstepGroupSpansTileTheirWorkersWindows)
{
    // Two streams of 10 full-detail jobs each plus a sampled job: at
    // two workers the runner forms groups of five, and the sampled
    // job, the only one under its engine, runs alone.
    std::vector<RunJob> jobs;
    for (const char *app : {"gcc", "swim"}) {
        for (unsigned level = 0; level < 10; ++level) {
            RunJob job;
            job.label = std::string(app) + "/L" + std::to_string(level);
            job.profile = profileByName(app);
            job.insts = 20000;
            job.cfg.dl1Org = Organization::SelectiveWays;
            job.cfg.dl1.assoc = 16;
            job.dl1.strategy = Strategy::Static;
            job.dl1.staticLevel = level;
            jobs.push_back(job);
        }
    }
    RunJob sampled = jobs.front();
    sampled.label = "sampled";
    sampled.engine = EngineSpec::makeSampled(10000, 1000, 2000);
    jobs.push_back(sampled);

    TraceEventRecorder rec;
    SweepRunner runner(2);
    runner.setTrace(&rec);
    runner.run(jobs);

    const std::vector<Span> all = spans(rec);
    // Exactly one span per job.
    ASSERT_EQ(all.size(), jobs.size());
    std::map<std::string, int> per_label;
    for (const Span &s : all)
        ++per_label[s.label];
    for (const RunJob &job : jobs)
        EXPECT_EQ(per_label[job.label], 1) << job.label;

    // Group ids and sizes agree with the plan: four groups of five
    // and the sampled job alone.
    std::map<std::string, std::vector<Span>> groups;
    for (const Span &s : all)
        groups[s.group].push_back(s);
    ASSERT_EQ(groups.size(), 5u);
    for (auto &[id, members] : groups) {
        SCOPED_TRACE("group " + id);
        EXPECT_EQ(static_cast<int>(members.size()),
                  members.front().groupSize);
        EXPECT_EQ(members.front().label == "sampled" ? 1 : 5,
                  members.front().groupSize);
        // A group's spans run back to back on one worker: together
        // they cover its window once, not once per job.
        for (std::size_t k = 1; k < members.size(); ++k) {
            EXPECT_EQ(members[k].tid, members.front().tid);
            EXPECT_EQ(members[k].ts,
                      members[k - 1].ts + members[k - 1].dur);
        }
    }

    // Spans on one worker never overlap.
    std::map<int, std::vector<Span>> by_tid;
    for (const Span &s : all)
        by_tid[s.tid].push_back(s);
    for (auto &[tid, list] : by_tid) {
        std::sort(list.begin(), list.end(),
                  [](const Span &a, const Span &b) { return a.ts < b.ts; });
        for (std::size_t k = 1; k < list.size(); ++k)
            EXPECT_LE(list[k - 1].ts + list[k - 1].dur, list[k].ts)
                << "tid " << tid;
    }
}

} // namespace rcache
