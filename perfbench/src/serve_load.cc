#include "serve_load.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cmath>
#include <cstring>
#include <ctime>
#include <iostream>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "harmonia/device.hh"
#include "harmonia/workloads/suite.hh"
#include "trace.hh"

namespace perfbench
{

using harmonia::serve::JsonValue;

namespace
{

const char *kSchema = "{\"schema\":\"harmonia.request/1\",\"id\":";
const char *kDevices[] = {"hd7970", "hbm-stacked"};

constexpr int kHotKeys = 48;
constexpr int kHotIterations = 16;
constexpr int kConfigsPerEvaluate = 8;
constexpr int kSessions = 4;

/** Seconds of unmeasured load before a measured phase. */
constexpr double kWarmupSeconds = 0.5;

/** Length of one ladder rung, seconds. */
constexpr double kRungSeconds = 1.5;

/** How long a phase waits for replies after its last due time. */
constexpr int64_t kDrainNs = 3'000'000'000;

std::string
configText(const harmonia::HardwareConfig &c)
{
    return "{\"cu\":" + std::to_string(c.cuCount) +
           ",\"compute_mhz\":" + std::to_string(c.computeFreqMhz) +
           ",\"mem_mhz\":" + std::to_string(c.memFreqMhz) + "}";
}

const std::vector<harmonia::HardwareConfig> &
lattice(const std::string &device)
{
    static const std::vector<harmonia::HardwareConfig> hd =
        harmonia::Device::make("hd7970").value().space().allConfigs();
    static const std::vector<harmonia::HardwareConfig> hbm =
        harmonia::Device::make("hbm-stacked").value().space().allConfigs();
    return device == "hd7970" ? hd : hbm;
}

bool
writeAll(int fd, const char *data, size_t size)
{
    size_t off = 0;
    while (off < size) {
        const ssize_t n = write(fd, data + off, size - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

bool
replyOk(const std::string &line, uint64_t id)
{
    return responseId(line) == static_cast<int64_t>(id) &&
           line.find("\"ok\":true") != std::string::npos;
}

} // namespace

const char *
className(RequestClass cls)
{
    switch (cls) {
      case RequestClass::EvaluateHit: return "evaluate_hit";
      case RequestClass::EvaluateMiss: return "evaluate_miss";
      case RequestClass::Govern: return "govern";
      case RequestClass::Sweep: return "sweep";
      case RequestClass::Ping: return "ping";
    }
    return "?";
}

MixGenerator::MixGenerator(uint64_t seed, uint64_t epoch)
    : rng_(seed * 0x9e3779b97f4a7c15ull + epoch + 1),
      nextId_(epoch * 100'000'000 + 1)
{
    for (const harmonia::Application &app : harmonia::standardSuite())
        for (const harmonia::KernelProfile &k : app.kernels)
            kernels_.push_back(k.id());

    // Hot sets and sessions depend on the seed alone.
    SeededRng hot(seed);
    for (int i = 0; i < kHotKeys; ++i) {
        const std::string device = kDevices[i % 2];
        HotKey key{device, kernels_[hot.below(kernels_.size())],
                   static_cast<int>(hot.below(kHotIterations)),
                   randomConfigs(device, hot)};
        hotEvaluate_.push_back(key);
    }
    for (int i = 0; i < kHotKeys; ++i) {
        hotSweep_.push_back(HotKey{kDevices[i % 2],
                                   kernels_[hot.below(kernels_.size())],
                                   static_cast<int>(
                                       hot.below(kHotIterations)),
                                   ""});
    }
    const std::vector<harmonia::Application> suite =
        harmonia::standardSuite();
    for (int s = 0; s < kSessions; ++s) {
        const harmonia::Application &app = suite[hot.below(suite.size())];
        std::vector<std::string> walk;
        for (const harmonia::KernelProfile &k : app.kernels)
            walk.push_back(k.id());
        sessionKernels_.push_back(walk);
    }
    sessionStep_.assign(kSessions, 0);
}

std::string
MixGenerator::randomConfigs(const std::string &device, SeededRng &rng)
{
    const std::vector<harmonia::HardwareConfig> &all = lattice(device);
    std::string out = "[";
    for (int i = 0; i < kConfigsPerEvaluate; ++i) {
        if (i)
            out += ',';
        out += configText(all[rng.below(all.size())]);
    }
    return out + "]";
}

std::string
MixGenerator::governLine(int session)
{
    const std::vector<std::string> &walk =
        sessionKernels_[static_cast<size_t>(session)];
    const int step = sessionStep_[static_cast<size_t>(session)]++;
    return ",\"verb\":\"govern\",\"session\":\"s" + std::to_string(session) +
           "\",\"governor\":\"" + (session % 2 ? "harmonia" : "baseline") +
           "\",\"kernel\":\"" + walk[step % walk.size()] +
           "\",\"iteration\":" +
           std::to_string(step / static_cast<int>(walk.size())) + "}\n";
}

StreamRequest
MixGenerator::next(RequestClass cls)
{
    StreamRequest r;
    r.id = nextId_++;
    r.cls = cls;
    r.conn = static_cast<int>(rng_.below(kConnections));
    std::string body;
    switch (cls) {
      case RequestClass::EvaluateHit: {
        const HotKey &k = hotEvaluate_[rng_.below(hotEvaluate_.size())];
        body = ",\"verb\":\"evaluate\",\"kernel\":\"" + k.kernel +
               "\",\"iteration\":" + std::to_string(k.iteration) +
               ",\"device\":\"" + k.device + "\",\"configs\":" + k.configs +
               "}\n";
        break;
      }
      case RequestClass::EvaluateMiss: {
        const std::string device = kDevices[rng_.below(2)];
        const std::string &kernel = kernels_[rng_.below(kernels_.size())];
        body = ",\"verb\":\"evaluate\",\"kernel\":\"" + kernel +
               "\",\"iteration\":" + std::to_string(nextFresh_++) +
               ",\"device\":\"" + device +
               "\",\"configs\":" + randomConfigs(device, rng_) + "}\n";
        break;
      }
      case RequestClass::Govern: {
        r.conn = static_cast<int>(rng_.below(kSessions));
        body = governLine(r.conn);
        break;
      }
      case RequestClass::Sweep: {
        const HotKey &k = hotSweep_[rng_.below(hotSweep_.size())];
        body = ",\"verb\":\"sweep\",\"kernel\":\"" + k.kernel +
               "\",\"iteration\":" + std::to_string(k.iteration) +
               ",\"device\":\"" + k.device + "\",\"top\":8}\n";
        break;
      }
      case RequestClass::Ping:
        body = ",\"verb\":\"ping\"}\n";
        break;
    }
    r.line = kSchema + std::to_string(r.id) + body;
    return r;
}

std::vector<StreamRequest>
MixGenerator::setup()
{
    std::vector<StreamRequest> out;
    StreamRequest ping = next(RequestClass::Ping);
    ping.conn = 0;
    out.push_back(ping);
    StreamRequest govern;
    govern.id = nextId_++;
    govern.cls = RequestClass::Govern;
    govern.conn = 1; // Session s1 runs the harmonia governor.
    govern.line = kSchema + std::to_string(govern.id) + governLine(1);
    out.push_back(govern);
    return out;
}

std::vector<StreamRequest>
MixGenerator::phase(double rate, double seconds)
{
    std::vector<StreamRequest> out;
    out.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
    double t = 0.0;
    while (true) {
        t += -std::log(1.0 - rng_.unit()) / rate;
        if (t >= seconds)
            break;
        const double u = rng_.unit();
        RequestClass cls = RequestClass::Ping;
        if (u >= 0.10 && u < 0.20)
            cls = RequestClass::Sweep;
        else if (u >= 0.20 && u < 0.40)
            cls = RequestClass::Govern;
        else if (u >= 0.40)
            cls = rng_.unit() < 0.05 ? RequestClass::EvaluateMiss
                                     : RequestClass::EvaluateHit;
        StreamRequest r = next(cls);
        r.dueNs = static_cast<int64_t>(t * 1e9);
        out.push_back(std::move(r));
    }
    return out;
}

int64_t
responseId(const std::string &line)
{
    const size_t at = line.find("\"id\":");
    if (at == std::string::npos)
        return -1;
    const char *p = line.c_str() + at + 5;
    if (*p < '0' || *p > '9')
        return -1;
    int64_t id = 0;
    while (*p >= '0' && *p <= '9')
        id = id * 10 + (*p++ - '0');
    return id;
}

LiveServer::LiveServer()
    : service_([] {
          harmonia::serve::ServiceOptions o;
          o.jobs = 1;
          return o;
      }())
{
    // The reactor narrates on stderr (listen line, drain snapshot);
    // keep it out of the benchmark's output while it lives.
    cerrBuf_ = std::cerr.rdbuf(&sink_);
    harmonia::serve::ServerOptions so;
    so.tcpBind = "127.0.0.1:0";
    so.maxConnections = 2 * kConnections;
    server_ = std::make_unique<harmonia::serve::Server>(service_, so);
    const harmonia::Status started = server_->start();
    if (!started.ok()) {
        std::cerr.rdbuf(cerrBuf_);
        throw std::runtime_error("server start: " + started.message());
    }
    reactor_ = std::thread([this] { server_->run(); });
    for (int c = 0; c < kConnections; ++c) {
        const int fd = socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<uint16_t>(server_->tcpPort()));
        inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (fd < 0 || connect(fd, reinterpret_cast<sockaddr *>(&addr),
                              sizeof addr) != 0) {
            if (fd >= 0)
                close(fd);
            break;
        }
        const int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        fds_.push_back(fd);
    }
    carry_.resize(fds_.size());
    if (fds_.size() != static_cast<size_t>(kConnections)) {
        shutdown();
        throw std::runtime_error("cannot connect to the in-process server");
    }
}

LiveServer::~LiveServer()
{
    shutdown();
}

void
LiveServer::shutdown()
{
    if (reactor_.joinable()) {
        const std::string bye = std::string(kSchema) +
                                "0,\"verb\":\"shutdown\"}\n";
        if (!fds_.empty() && writeAll(fds_[0], bye.data(), bye.size()))
            readLine(0);
        else
            kill(getpid(), SIGTERM); // The server's handler drains it.
        reactor_.join();
    }
    for (const int fd : fds_)
        close(fd);
    fds_.clear();
    if (cerrBuf_) {
        std::cerr.rdbuf(cerrBuf_);
        cerrBuf_ = nullptr;
    }
}

std::string
LiveServer::readLine(int conn)
{
    std::string &carry = carry_[static_cast<size_t>(conn)];
    while (true) {
        const size_t nl = carry.find('\n');
        if (nl != std::string::npos) {
            std::string line = carry.substr(0, nl);
            carry.erase(0, nl + 1);
            return line;
        }
        char buf[65536];
        const ssize_t n = read(fds_[static_cast<size_t>(conn)], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return "";
        carry.append(buf, static_cast<size_t>(n));
    }
}

void
LiveServer::roundTrip(const std::vector<StreamRequest> &requests,
                      std::vector<Outcome> &outcomes)
{
    outcomes.assign(requests.size(), Outcome{});
    for (size_t i = 0; i < requests.size(); ++i) {
        const StreamRequest &r = requests[i];
        Outcome &o = outcomes[i];
        o.sentNs = nowNs();
        if (!writeAll(fds_[static_cast<size_t>(r.conn)], r.line.data(),
                      r.line.size()))
            continue;
        const std::string reply = readLine(r.conn);
        o.doneNs = nowNs();
        o.replied = !reply.empty();
        o.ok = replyOk(reply, r.id);
        o.responseHash = fnv1a(reply);
    }
}

PhaseResult
LiveServer::openLoop(const std::vector<StreamRequest> &requests,
                     std::vector<Outcome> &outcomes)
{
    PhaseResult result;
    outcomes.assign(requests.size(), Outcome{});
    if (requests.empty())
        return result;
    const uint64_t firstId = requests.front().id;
    for (size_t i = 0; i < requests.size(); ++i)
        if (requests[i].id != firstId + i)
            throw std::logic_error("openLoop: request ids not contiguous");

    const int64_t start = nowNs() + 2'000'000;
    result.startNs = start;
    const int64_t deadline = start + requests.back().dueNs + kDrainNs;

    // One thread sends every request at its due time and, while it
    // waits for the next one, reads the replies that arrived.
    std::vector<pollfd> pfds;
    for (const int fd : fds_)
        pfds.push_back(pollfd{fd, POLLIN, 0});
    // Wake-up slack would otherwise count as generator lateness.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    size_t sent = 0, received = 0;
    while (received < requests.size()) {
        int64_t now = nowNs();
        while (sent < requests.size() &&
               start + requests[sent].dueNs <= now) {
            const StreamRequest &r = requests[sent];
            outcomes[sent].sentNs = now;
            if (!writeAll(fds_[static_cast<size_t>(r.conn)], r.line.data(),
                          r.line.size()))
                return finishPhase(requests, outcomes, result);
            ++sent;
            now = nowNs();
        }
        if (sent == requests.size() && now >= deadline)
            break;
        const int64_t waitNs =
            sent < requests.size()
                ? start + requests[sent].dueNs - now
                : std::min<int64_t>(deadline - now, 10'000'000);
        const timespec ts{static_cast<time_t>(waitNs / 1'000'000'000),
                          static_cast<long>(waitNs % 1'000'000'000)};
        if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0)
            continue;
        for (size_t c = 0; c < pfds.size(); ++c) {
            if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            char buf[65536];
            const ssize_t n = read(pfds[c].fd, buf, sizeof buf);
            if (n <= 0)
                continue;
            const int64_t at = nowNs();
            std::string &carry = carry_[c];
            carry.append(buf, static_cast<size_t>(n));
            size_t begin = 0, nl;
            while ((nl = carry.find('\n', begin)) != std::string::npos) {
                const std::string line = carry.substr(begin, nl - begin);
                begin = nl + 1;
                const int64_t id = responseId(line);
                if (id < static_cast<int64_t>(firstId) ||
                    id >= static_cast<int64_t>(firstId + requests.size()))
                    continue;
                Outcome &o = outcomes[static_cast<size_t>(id) - firstId];
                if (o.replied)
                    continue;
                o.doneNs = at;
                o.replied = true;
                o.ok = replyOk(line, static_cast<uint64_t>(id));
                o.responseHash = fnv1a(line);
                ++received;
            }
            carry.erase(0, begin);
        }
    }
    return finishPhase(requests, outcomes, result);
}

PhaseResult
LiveServer::finishPhase(const std::vector<StreamRequest> &requests,
                        const std::vector<Outcome> &outcomes,
                        PhaseResult &result)
{
    const int64_t start = result.startNs;
    result.spanS = requests.back().dueNs * 1e-9;
    for (size_t i = 0; i < requests.size(); ++i) {
        const Outcome &o = outcomes[i];
        const int64_t due = start + requests[i].dueNs;
        if (!o.replied) {
            ++result.transport;
            continue;
        }
        if (!o.ok)
            ++result.errors;
        result.latencyMs.push_back((o.doneNs - due) * 1e-6);
        result.dueS.push_back(requests[i].dueNs * 1e-9);
        result.lateMs.push_back((o.sentNs - due) * 1e-6);
    }
    return result;
}

JsonValue
LiveServer::stats()
{
    const std::string line = std::string(kSchema) +
                             "1,\"verb\":\"stats\"}\n";
    if (!writeAll(fds_[0], line.data(), line.size()))
        throw std::runtime_error("stats: send failed");
    harmonia::Result<JsonValue> doc =
        harmonia::serve::parseJson(readLine(0));
    if (!doc.ok() || !doc.value().find("result"))
        throw std::runtime_error("stats: bad reply");
    return *doc.value().find("result");
}

uint64_t
replayMismatches(const std::vector<StreamRequest> &requests,
                 const std::vector<Outcome> &outcomes,
                 std::vector<double> *serviceUs)
{
    harmonia::serve::ServiceOptions o;
    o.jobs = 1;
    o.batching = false;
    harmonia::serve::Service service(o);
    uint64_t mismatches = 0;
    if (serviceUs)
        serviceUs->assign(requests.size(), 0.0);
    for (size_t i = 0; i < requests.size(); ++i) {
        const std::string &line = requests[i].line;
        const std::string body = line.substr(0, line.size() - 1);
        const int64_t t0 = nowNs();
        const std::string response = service.processLine(body);
        if (serviceUs)
            (*serviceUs)[i] = (nowNs() - t0) * 1e-3;
        if (!outcomes[i].replied || fnv1a(response) != outcomes[i].responseHash)
            ++mismatches;
    }
    return mismatches;
}

void
checkReplies(Report &report, const std::vector<StreamRequest> &requests,
             const std::vector<Outcome> &outcomes)
{
    for (size_t i = 0; i < requests.size(); ++i) {
        const Outcome &o = outcomes[i];
        const std::string id = std::to_string(requests[i].id);
        report.check(!o.replied ? "request " + id + ": no reply"
                     : !o.ok    ? "request " + id + ": error reply or wrong id"
                                : "");
    }
}

namespace
{

/** The ladder's fixed geometric grid: 1000 * 2^(h/14), ~5.1% steps. */
double
rungRate(int h)
{
    return 1000.0 * std::exp2(h / 14.0);
}

} // namespace

RateLadder::RateLadder(uint64_t seed, int maxRungs, Report &report)
    : seed_(seed), maxRungs_(maxRungs), report_(report),
      lastPass_(kFirstRung)
{
}

bool
RateLadder::runRung(int h)
{
    MixGenerator gen(seed_, static_cast<uint64_t>(log_.size()) + 1);
    LiveServer live;
    std::vector<Outcome> out;
    const std::vector<StreamRequest> setup = gen.setup();
    live.roundTrip(setup, out);
    checkReplies(report_, setup, out);
    const std::vector<StreamRequest> warm =
        gen.phase(rungRate(h), kWarmupSeconds / 2);
    live.openLoop(warm, out);
    checkReplies(report_, warm, out);
    const std::vector<StreamRequest> reqs =
        gen.phase(rungRate(h), kRungSeconds);
    const PhaseResult res = live.openLoop(reqs, out);
    checkReplies(report_, reqs, out);
    const bool pass = res.meetsLimit();
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "rung %.0f req/s: p50 %.3f ms p99 %.3f ms%s -> %s",
                  rungRate(h), res.p50(), res.p99(),
                  res.backlogGrew() ? " backlog" : "", pass ? "pass" : "fail");
    log_.push_back(buf);
    return pass;
}

bool
RateLadder::done() const
{
    return static_cast<int>(log_.size()) >= maxRungs_ || lastPass_ < 0 ||
           (state_ == State::Bisect && firstFail_ - lastPass_ <= 1);
}

void
RateLadder::step()
{
    switch (state_) {
      case State::Descend:
        // Step down until a rung passes.
        if (runRung(lastPass_)) {
            state_ = firstFail_ == kNone ? State::Ascend : State::Bisect;
        } else {
            firstFail_ = lastPass_;
            lastPass_ -= kCoarseStep;
        }
        break;
      case State::Ascend:
        if (runRung(lastPass_ + kCoarseStep)) {
            lastPass_ += kCoarseStep;
        } else {
            firstFail_ = lastPass_ + kCoarseStep;
            state_ = State::Bisect;
        }
        break;
      case State::Bisect: {
        const int mid = lastPass_ + (firstFail_ - lastPass_) / 2;
        (runRung(mid) ? lastPass_ : firstFail_) = mid;
        break;
      }
    }
}

double
RateLadder::result() const
{
    return lastPass_ >= 0 && state_ != State::Descend ? rungRate(lastPass_)
                                                      : 0.0;
}

} // namespace perfbench
