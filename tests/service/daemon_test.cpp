/**
 * @file
 * Daemon tests over a real framed pipe pair: the full serve() loop
 * short of a process boundary. Each case queues frames into the input
 * pipe, runs serve() to clean EOF (or shutdown), and inspects the
 * emitted frame stream — so the batching, caching, error-classification
 * and event behaviour are all exercised through the same code path
 * mlpsimd --stdio runs in production.
 */
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "metrics/json.hh"
#include "service/daemon.hh"
#include "service/framing.hh"
#include "service/wire.hh"
#include "support/temp_path.hh"
#include "util/status.hh"

namespace mlpsim::service {
namespace {

using metrics::JsonValue;

std::string
requestPayload(const std::string &id, const std::string &workload,
               const std::string &config_body, uint64_t insts = 1000)
{
    return "{\"schema\":\"mlpsim-sweep-request-v1\",\"id\":\"" + id +
           "\",\"workload\":\"" + workload +
           "\",\"warmup\":200,\"insts\":" + std::to_string(insts) +
           ",\"configs\":[" + config_body + "]}";
}

struct Session
{
    Status served;                    //!< serve()'s verdict
    std::vector<std::string> frames;  //!< every emitted frame, raw
    std::vector<std::string> responses; //!< response frames only
    std::vector<JsonValue> events;    //!< event frames, parsed
};

/**
 * Queue @p payloads into a pipe, serve them to EOF, and collect the
 * emitted frames. Payload and response volume must stay well under
 * the pipe buffer (the tests use ~1 KB frames), since both sides run
 * on this one thread.
 */
Session
runSession(Daemon &daemon, const std::vector<std::string> &payloads)
{
    int in[2], out[2];
    EXPECT_EQ(::pipe(in), 0);
    EXPECT_EQ(::pipe(out), 0);
    {
        FrameWriter writer(in[1]);
        for (const std::string &payload : payloads) {
            const Status sent = writer.write(payload);
            EXPECT_TRUE(sent.ok()) << sent.toString();
        }
    }
    ::close(in[1]);

    Session session;
    session.served = daemon.serve(in[0], out[1]);
    ::close(in[0]);
    ::close(out[1]);

    FrameReader reader(out[0]);
    std::string frame;
    while (true) {
        auto more = reader.read(&frame);
        EXPECT_TRUE(more.ok()) << more.status().toString();
        if (!more.ok() || !*more)
            break;
        session.frames.push_back(frame);
        auto doc = JsonValue::parse(frame);
        EXPECT_TRUE(doc.ok()) << doc.status().toString();
        const JsonValue *schema = doc->find("schema");
        if (!schema || !schema->isString()) {
            ADD_FAILURE() << "frame without a schema: " << frame;
            continue;
        }
        if (schema->string() == sweepResponseSchema)
            session.responses.push_back(frame);
        else if (schema->string() == sweepEventSchema)
            session.events.push_back(*std::move(doc));
    }
    ::close(out[0]);
    return session;
}

size_t
cellDoneCount(const Session &session)
{
    size_t count = 0;
    for (const JsonValue &event : session.events)
        count += event.find("event")->string() == "cell-done";
    return count;
}

std::unique_ptr<Daemon>
memoryDaemon()
{
    DaemonConfig config;
    config.jobs = 2;
    auto daemon = Daemon::create(config);
    EXPECT_TRUE(daemon.ok()) << daemon.status().toString();
    return *std::move(daemon);
}

TEST(DaemonTest, AnswersRequestsInFrameOrder)
{
    auto daemon = memoryDaemon();
    const Session session = runSession(
        *daemon,
        {requestPayload("first", "database", "{}"),
         requestPayload("second", "specweb99", "{\"window\":32}")});
    ASSERT_TRUE(session.served.ok()) << session.served.toString();
    ASSERT_EQ(session.responses.size(), 2u);

    for (size_t i = 0; i < 2; ++i) {
        const JsonValue doc =
            JsonValue::parse(session.responses[i]).orFatal();
        const Status valid = validateSweepResponse(doc);
        EXPECT_TRUE(valid.ok()) << valid.toString();
        EXPECT_EQ(doc.find("status")->string(), "ok");
        EXPECT_EQ(doc.find("id")->string(),
                  i == 0 ? "first" : "second");
    }
    EXPECT_EQ(daemon->stats().requests, 2u);
    EXPECT_EQ(daemon->stats().cells, 2u);
    EXPECT_EQ(daemon->stats().cellsComputed, 2u);

    // One "planned" event per request precedes execution.
    size_t planned = 0;
    for (const JsonValue &event : session.events)
        planned += event.find("event")->string() == "planned";
    EXPECT_EQ(planned, 2u);
}

/** Index of the first frame of @p session matching both needles. */
size_t
frameIndex(const Session &session, const std::string &a,
           const std::string &b)
{
    for (size_t i = 0; i < session.frames.size(); ++i) {
        const std::string &frame = session.frames[i];
        if (frame.find(a) != std::string::npos &&
            frame.find(b) != std::string::npos)
            return i;
    }
    ADD_FAILURE() << "no frame holds " << a << " and " << b;
    return session.frames.size();
}

TEST(DaemonTest, AnswersInFrameOrderWhenALaterRequestFinishesFirst)
{
    // A runahead cell at a large budget, then a cheap cell over another
    // trace: the cheap cell starts while its trace's build overlaps the
    // slow one, and ends first, yet its answer waits its turn.
    auto daemon = memoryDaemon();
    const Session session = runSession(
        *daemon,
        {requestPayload("slow", "database", "{\"mode\":\"runahead\"}",
                        1'000'000),
         requestPayload("fast", "specweb99", "{}")});
    ASSERT_TRUE(session.served.ok()) << session.served.toString();
    ASSERT_EQ(session.responses.size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
        const JsonValue doc =
            JsonValue::parse(session.responses[i]).orFatal();
        EXPECT_EQ(doc.find("status")->string(), "ok");
        EXPECT_EQ(doc.find("id")->string(), i == 0 ? "slow" : "fast");
    }
    EXPECT_LT(frameIndex(session, "\"cell-done\"", "specweb99/"),
              frameIndex(session, "\"id\":\"slow\"", "\"results\""));
}

TEST(DaemonTest, DuplicateOfAnInFlightCellSharesItsJob)
{
    // --batch-max 1 starts each frame's cells before the next frame
    // is planned, so the duplicate finds the slow cell running, not in
    // the result cache: it must join that job, not compute it again.
    DaemonConfig config;
    config.jobs = 2;
    config.maxBatch = 1;
    auto daemon = Daemon::create(config);
    ASSERT_TRUE(daemon.ok()) << daemon.status().toString();
    const std::string slow = requestPayload(
        "dup", "database", "{\"mode\":\"runahead\"}", 1'000'000);
    const Session session = runSession(**daemon, {slow, slow});
    ASSERT_TRUE(session.served.ok()) << session.served.toString();
    ASSERT_EQ(session.responses.size(), 2u);
    EXPECT_EQ(session.responses[0], session.responses[1]);
    EXPECT_EQ((*daemon)->stats().cellsComputed, 1u);
    EXPECT_EQ((*daemon)->stats().cellHits, 1u);
    EXPECT_EQ(cellDoneCount(session), 1u);

    // The duplicate was planned while the first request was still
    // outstanding: its planned event precedes the first answer.
    size_t planned = 0, second_planned = session.frames.size();
    for (size_t i = 0; i < session.frames.size(); ++i) {
        if (session.frames[i].find("\"planned\"") != std::string::npos &&
            ++planned == 2)
            second_planned = i;
    }
    EXPECT_LT(second_planned,
              frameIndex(session, "\"id\":\"dup\"", "\"results\""));
}

TEST(DaemonTest, DuplicateInOneBatchIsDedupedAndByteIdentical)
{
    auto daemon = memoryDaemon();
    const std::string payload = requestPayload("dup", "database", "{}");
    const Session session = runSession(*daemon, {payload, payload});
    ASSERT_TRUE(session.served.ok()) << session.served.toString();
    ASSERT_EQ(session.responses.size(), 2u);
    EXPECT_EQ(session.responses[0], session.responses[1]);
    EXPECT_EQ(daemon->stats().cells, 2u);
    EXPECT_EQ(daemon->stats().cellsComputed, 1u);
    EXPECT_EQ(daemon->stats().cellHits, 1u);
}

TEST(DaemonTest, WarmSessionServesFromCacheByteIdentically)
{
    auto daemon = memoryDaemon();
    const std::string payload =
        requestPayload("warm", "database", "{\"mode\":\"runahead\"}");

    const Session cold = runSession(*daemon, {payload});
    ASSERT_EQ(cold.responses.size(), 1u);
    EXPECT_EQ(daemon->stats().cellsComputed, 1u);

    const Session warm = runSession(*daemon, {payload});
    ASSERT_EQ(warm.responses.size(), 1u);
    EXPECT_EQ(warm.responses[0], cold.responses[0]);
    EXPECT_EQ(daemon->stats().cellsComputed, 1u); // nothing new ran
    EXPECT_EQ(daemon->stats().cellHits, 1u);

    // The warm request's planned event reports the hit.
    bool found = false;
    for (const JsonValue &event : warm.events) {
        if (event.find("event")->string() != "planned")
            continue;
        found = true;
        EXPECT_EQ(event.find("hits")->uinteger(), 1u);
        EXPECT_EQ(event.find("computed")->uinteger(), 0u);
    }
    EXPECT_TRUE(found);
}

TEST(DaemonTest, BadRequestsGetClassifiedErrorsNotAborts)
{
    auto daemon = memoryDaemon();
    const Session session = runSession(
        *daemon, {"this is not json",
                  requestPayload("ghost", "nonesuch", "{}"),
                  requestPayload("fine", "database", "{}")});
    ASSERT_TRUE(session.served.ok()) << session.served.toString();
    ASSERT_EQ(session.responses.size(), 3u);

    const JsonValue garbage =
        JsonValue::parse(session.responses[0]).orFatal();
    EXPECT_EQ(garbage.find("status")->string(), "error");
    EXPECT_EQ(garbage.find("error")->find("code")->string(),
              errorCodeName(ErrorCode::InvalidArgument));

    // The id survives even though the request was rejected, and the
    // error carries the PR 6 failure-class taxonomy.
    const JsonValue ghost =
        JsonValue::parse(session.responses[1]).orFatal();
    EXPECT_EQ(ghost.find("status")->string(), "error");
    EXPECT_EQ(ghost.find("id")->string(), "ghost");
    EXPECT_EQ(ghost.find("error")->find("code")->string(),
              errorCodeName(ErrorCode::NotFound));
    EXPECT_EQ(ghost.find("error")->find("class")->string(),
              failureClassName(failureClass(ErrorCode::NotFound)));

    // A bad neighbour never poisons the healthy request beside it.
    const JsonValue fine =
        JsonValue::parse(session.responses[2]).orFatal();
    EXPECT_EQ(fine.find("status")->string(), "ok");
    EXPECT_EQ(fine.find("id")->string(), "fine");
    EXPECT_EQ(daemon->stats().responsesError, 2u);
}

TEST(DaemonTest, ControlFramesPingAndShutdown)
{
    auto daemon = memoryDaemon();
    const Session session = runSession(
        *daemon,
        {"{\"schema\":\"mlpsim-sweep-control-v1\",\"command\":"
         "\"ping\"}",
         "{\"schema\":\"mlpsim-sweep-control-v1\",\"command\":"
         "\"shutdown\"}"});
    ASSERT_TRUE(session.served.ok()) << session.served.toString();
    EXPECT_TRUE(daemon->shutdownRequested());

    bool pong = false, bye = false;
    for (const JsonValue &event : session.events) {
        pong = pong || event.find("event")->string() == "pong";
        bye = bye || event.find("event")->string() == "bye";
    }
    EXPECT_TRUE(pong);
    EXPECT_TRUE(bye);
}

TEST(DaemonTest, StreamedDeadlineGovernsOnlyItsOwnRequest)
{
    // Streamed mode shares one stream generation among a batch's cells
    // over one trace. A's 1 ms deadline must fail A alone: B shares A's
    // trace, has no deadline, and must still compute even though A's
    // job runs first (jobs = 1). The budget keeps each engine run well
    // past 1 ms.
    DaemonConfig config;
    config.jobs = 1;
    config.streamChunk = 4096;
    auto daemon = Daemon::create(config);
    ASSERT_TRUE(daemon.ok()) << daemon.status().toString();

    constexpr uint64_t insts = 200000;
    const std::string with_deadline =
        "{\"deadline_ms\":1," +
        requestPayload("a", "database", "{}", insts).substr(1);
    const Session session = runSession(
        **daemon,
        {with_deadline,
         requestPayload("b", "database", "{\"window\":32}", insts)});
    ASSERT_TRUE(session.served.ok()) << session.served.toString();
    ASSERT_EQ(session.responses.size(), 2u);

    const JsonValue a = JsonValue::parse(session.responses[0]).orFatal();
    EXPECT_EQ(a.find("id")->string(), "a");
    EXPECT_EQ(a.find("status")->string(), "error");
    EXPECT_EQ(a.find("error")->find("code")->string(),
              errorCodeName(ErrorCode::DeadlineExceeded));

    const JsonValue b = JsonValue::parse(session.responses[1]).orFatal();
    EXPECT_EQ(b.find("id")->string(), "b");
    EXPECT_EQ(b.find("status")->string(), "ok")
        << session.responses[1];
}

TEST(DaemonTest, DeadlineBeyondTheClocksRangeMeansNone)
{
    // 1e300 ms does not fit the steady clock: it must read as no
    // deadline, not wrap into one already past — materialised, and
    // streamed, where the cell runs under its group's per-cell token.
    for (const uint32_t stream_chunk : {0u, 4096u}) {
        SCOPED_TRACE("stream chunk " + std::to_string(stream_chunk));
        DaemonConfig config;
        config.jobs = 2;
        config.streamChunk = stream_chunk;
        auto daemon = Daemon::create(config);
        ASSERT_TRUE(daemon.ok()) << daemon.status().toString();

        const std::string far_deadline =
            "{\"deadline_ms\":1e300," +
            requestPayload("far", "database", "{}").substr(1);
        const Session session = runSession(**daemon, {far_deadline});
        ASSERT_TRUE(session.served.ok()) << session.served.toString();
        ASSERT_EQ(session.responses.size(), 1u);
        const JsonValue doc =
            JsonValue::parse(session.responses[0]).orFatal();
        EXPECT_EQ(doc.find("status")->string(), "ok")
            << session.responses[0];
    }
}

TEST(DaemonTest, NoEventsModeEmitsOnlyResponses)
{
    DaemonConfig config;
    config.jobs = 2;
    config.emitEvents = false;
    auto daemon = Daemon::create(config);
    ASSERT_TRUE(daemon.ok()) << daemon.status().toString();

    const Session session = runSession(
        **daemon, {requestPayload("quiet", "database", "{}")});
    ASSERT_TRUE(session.served.ok()) << session.served.toString();
    EXPECT_EQ(session.responses.size(), 1u);
    EXPECT_TRUE(session.events.empty());
    EXPECT_EQ(session.frames.size(), session.responses.size());
}

TEST(DaemonTest, FailedPongWriteStillRunsTheBatchsDeferredCells)
{
    // A pong written into a closed pipe fails the stream. The request
    // frame before it had already deferred its cell; that cell must
    // run (and be recorded) in its own batch, not leak into the next
    // connection's.
    auto daemon = memoryDaemon();
    const auto old_handler = std::signal(SIGPIPE, SIG_IGN);
    int in[2], out[2];
    ASSERT_EQ(::pipe(in), 0);
    ASSERT_EQ(::pipe(out), 0);
    {
        FrameWriter writer(in[1]);
        ASSERT_TRUE(
            writer.write(requestPayload("lost", "database", "{}")).ok());
        ASSERT_TRUE(writer
                        .write("{\"schema\":\"mlpsim-sweep-control-v1\","
                               "\"command\":\"ping\"}")
                        .ok());
    }
    ::close(in[1]);
    ::close(out[0]); // nobody reads: every write is EPIPE
    const Status broken = daemon->serve(in[0], out[1]);
    ::close(in[0]);
    ::close(out[1]);
    std::signal(SIGPIPE, old_handler);
    EXPECT_FALSE(broken.ok());
    EXPECT_EQ(daemon->stats().cellsComputed, 1u);
    EXPECT_EQ(daemon->resultCache().size(), 1u);

    const Session next = runSession(
        *daemon, {requestPayload("next", "database", "{\"window\":32}")});
    ASSERT_TRUE(next.served.ok()) << next.served.toString();
    ASSERT_EQ(next.responses.size(), 1u);
    EXPECT_EQ(cellDoneCount(next), 1u);
    EXPECT_EQ(daemon->stats().cellsComputed, 2u);
}

TEST(DaemonTest, EachDaemonStreamsItsOwnCellDoneEvents)
{
    // Two daemons alive in one process: each streams the cell-done
    // events of its own cells to its own client, and destroying one
    // leaves the other's stream intact.
    auto older = memoryDaemon();
    auto newer = memoryDaemon();

    const Session first =
        runSession(*older, {requestPayload("older", "database", "{}")});
    ASSERT_TRUE(first.served.ok()) << first.served.toString();
    EXPECT_EQ(cellDoneCount(first), 1u);

    const Session other =
        runSession(*newer, {requestPayload("newer", "database", "{}")});
    ASSERT_TRUE(other.served.ok()) << other.served.toString();
    EXPECT_EQ(cellDoneCount(other), 1u);

    newer.reset();
    const Session after = runSession(
        *older, {requestPayload("after", "database", "{\"window\":32}")});
    ASSERT_TRUE(after.served.ok()) << after.served.toString();
    EXPECT_EQ(cellDoneCount(after), 1u);
}

TEST(DaemonTest, CacheDirHoldsOnlyTheResultLog)
{
    const std::string dir = test::tempPath("mlpsim_daemon_cache", "");
    std::remove((dir + "/results.rec").c_str());
    DaemonConfig config;
    config.jobs = 2;
    config.cacheDir = dir;
    auto daemon = Daemon::create(config);
    ASSERT_TRUE(daemon.ok()) << daemon.status().toString();

    const Session session = runSession(
        **daemon, {requestPayload("cold", "database", "{}")});
    ASSERT_TRUE(session.served.ok()) << session.served.toString();
    ASSERT_EQ(session.responses.size(), 1u);

    struct stat st = {};
    EXPECT_EQ(::stat((dir + "/results.rec").c_str(), &st), 0);
    EXPECT_NE(::stat((dir + "/traces").c_str(), &st), 0);
    EXPECT_EQ((*daemon)->traceStats().builds, 1u);
    std::remove((dir + "/results.rec").c_str());
}

} // namespace
} // namespace mlpsim::service
