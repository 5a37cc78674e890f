/**
 * @file
 * The serve workloads: a seeded request mix sent open-loop over
 * loopback TCP to an in-process harmoniad Server, plus the pieces the
 * traced run reuses (the generator, the live server handle, the
 * serial replay).
 *
 * The generator is one process with kConnections connections and one
 * thread, which sends every request at its due time and reads replies
 * while it waits for the next one. Latency runs
 * from when a request was due, not from when it was sent, so a stall
 * of the generator or the server counts against every request queued
 * behind it; how late the sender ran is reported on its own.
 */

#ifndef PERFBENCH_SERVE_LOAD_HH
#define PERFBENCH_SERVE_LOAD_HH

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "harmonia/serve/json.hh"
#include "harmonia/serve/server.hh"
#include "harmonia/serve/service.hh"

namespace perfbench
{

constexpr int kConnections = 4;

/** Offered rates of the traced serve phases, requests per second. */
constexpr double kLowRate = 1000.0;
constexpr double kHighRate = 8000.0;

/** Latency limit of the rate ladder (p99), milliseconds. */
constexpr double kLatencyLimitMs = 5.0;

enum class RequestClass : uint8_t
{
    EvaluateHit,  ///< Hot (kernel, iteration) key, fixed configs.
    EvaluateMiss, ///< Fresh iteration: never cached.
    Govern,
    Sweep,
    Ping,
};
constexpr int kRequestClasses = 5;

const char *className(RequestClass cls);

struct StreamRequest
{
    uint64_t id = 0;
    int64_t dueNs = 0; ///< Offset from the phase start.
    int conn = 0;      ///< Connection index in [0, kConnections).
    RequestClass cls = RequestClass::Ping;
    std::string line;  ///< NDJSON request, newline-terminated.
};

/**
 * Deterministic generator of the serve mix: about 60% evaluate with 8
 * configs over hd7970 and hbm-stacked (95% on a hot set of keys, 5% on
 * fresh iterations), 20% govern over 4 sessions pinned one per
 * connection (baseline and harmonia on hd7970), 10% sweep top-8 over
 * a hot set, 10% ping. The same (seed, epoch) gives a byte-identical
 * stream; the hot sets depend on the seed alone, so every epoch of a
 * run shares them.
 */
class MixGenerator
{
  public:
    MixGenerator(uint64_t seed, uint64_t epoch);

    /** Set-up requests: a ping, then the first step of a harmonia
     * session (which trains the predictors). All due at 0. */
    std::vector<StreamRequest> setup();

    /** @p seconds of Poisson arrivals at @p rate requests/second. */
    std::vector<StreamRequest> phase(double rate, double seconds);

  private:
    struct HotKey
    {
        std::string device;
        std::string kernel;
        int iteration = 0;
        std::string configs; ///< JSON array text.
    };

    StreamRequest next(RequestClass cls);
    std::string randomConfigs(const std::string &device, SeededRng &rng);
    std::string governLine(int session);

    SeededRng rng_;
    uint64_t nextId_;
    int nextFresh_ = 1000;
    std::vector<std::string> kernels_;
    std::vector<HotKey> hotEvaluate_;
    std::vector<HotKey> hotSweep_;
    std::vector<std::vector<std::string>> sessionKernels_;
    std::vector<int> sessionStep_;
};

/** What happened to one request on the wire. */
struct Outcome
{
    int64_t sentNs = 0;
    int64_t doneNs = 0;
    uint64_t responseHash = 0;
    bool replied = false;
    bool ok = false; ///< "ok":true with the request's id echoed.
};

/** Latency summary of one open-loop phase. */
struct PhaseResult
{
    std::vector<double> latencyMs; ///< Due to reply, replied requests.
    std::vector<double> dueS;      ///< Due offset of each, seconds.
    std::vector<double> lateMs;    ///< Due to send, replied requests.
    double spanS = 0.0;            ///< Last due offset.
    int64_t startNs = 0;           ///< Due times count from here.
    uint64_t errors = 0;    ///< Error replies and id mismatches.
    uint64_t transport = 0; ///< Requests without a reply.

    double p50() const { return percentile(latencyMs, 50.0); }

    /** Median over time slices of the per-slice p99. */
    double p99() const
    {
        return segmentedPercentile(latencyMs, dueS, spanS, 99.0);
    }

    /** Latency grew across the phase: the last slice's median is over
     * twice the first's and more than 1 ms above it. */
    bool backlogGrew() const
    {
        const std::vector<std::vector<double>> s =
            segments(latencyMs, dueS, spanS);
        if (s.size() < 2)
            return false;
        const double first = median(s.front()), last = median(s.back());
        return last > std::max(2.0 * first, first + 1.0);
    }

    /** Meets the ladder's limits: p99, no failures, no backlog. */
    bool meetsLimit() const
    {
        return errors == 0 && transport == 0 && !backlogGrew() &&
               p99() <= kLatencyLimitMs;
    }
};

/**
 * An in-process Server (Service jobs = 1, default batching, cache and
 * coalescing) on an ephemeral loopback TCP port with kConnections
 * client connections. The destructor shuts it down and joins it.
 */
class LiveServer
{
  public:
    LiveServer();
    ~LiveServer();
    LiveServer(const LiveServer &) = delete;
    LiveServer &operator=(const LiveServer &) = delete;

    /** Send each request and wait for its reply before the next. */
    void roundTrip(const std::vector<StreamRequest> &requests,
                   std::vector<Outcome> &outcomes);

    /**
     * Send @p requests open-loop from now on and collect every reply
     * (waiting at most a few seconds past the last due time).
     * outcomes[i] answers requests[i].
     */
    PhaseResult openLoop(const std::vector<StreamRequest> &requests,
                         std::vector<Outcome> &outcomes);

    /** The `stats` verb's reply. */
    harmonia::serve::JsonValue stats();

  private:
    std::string readLine(int conn);
    void shutdown();
    static PhaseResult finishPhase(const std::vector<StreamRequest> &requests,
                                   const std::vector<Outcome> &outcomes,
                                   PhaseResult &result);

    harmonia::serve::Service service_;
    std::unique_ptr<harmonia::serve::Server> server_;
    std::vector<int> fds_;
    std::vector<std::string> carry_;
    std::streambuf *cerrBuf_ = nullptr;
    std::stringbuf sink_;
    std::thread reactor_; ///< Declared last: joined first.
};

/** Id echoed in a response line, or -1. */
int64_t responseId(const std::string &line);

/**
 * Replay @p requests serially, one line at a time, through a fresh
 * Service with batching off. Returns the number of requests whose
 * response differs from the live one. With @p serviceUs, the time of
 * every processLine call is stored there.
 */
uint64_t replayMismatches(const std::vector<StreamRequest> &requests,
                          const std::vector<Outcome> &outcomes,
                          std::vector<double> *serviceUs = nullptr);

/** Count every request as one checked operation: it must have an ok
 * reply that echoes its id. */
void checkReplies(Report &report, const std::vector<StreamRequest> &requests,
                  const std::vector<Outcome> &outcomes);

/**
 * The rate ladder: open-loop rungs on a fixed geometric grid of ~5%
 * steps, each against a fresh server. Coarse steps of ~1.5x climb from
 * ~11,900 req/s to the first rung that misses the limits (stepping down
 * first if that one already does), then bisection on the grid finds
 * the highest rung that meets them: p99 at most kLatencyLimitMs, no
 * failed request, no growing backlog. One step() runs one rung, so the
 * caller can interleave rungs with other measurements.
 */
class RateLadder
{
  public:
    RateLadder(uint64_t seed, int maxRungs, Report &report);

    bool done() const;
    void step();

    /** Highest rate that met the limits (0 when none did). */
    double result() const;

    /** One line per rung run. */
    const std::vector<std::string> &log() const { return log_; }

  private:
    enum class State
    {
        Descend,
        Ascend,
        Bisect,
    };
    static constexpr int kFirstRung = 50; ///< ~11,900 req/s.
    static constexpr int kCoarseStep = 8; ///< Eight grid steps, ~1.49x.
    static constexpr int kNone = 1 << 20;

    bool runRung(int h);

    uint64_t seed_;
    int maxRungs_;
    Report &report_;
    State state_ = State::Descend;
    int lastPass_;
    int firstFail_ = kNone;
    std::vector<std::string> log_;
};

} // namespace perfbench

#endif // PERFBENCH_SERVE_LOAD_HH
