#include "cluster/server.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "nn/serialization.hh"

namespace photofourier {
namespace cluster {

ProtocolServer::ProtocolServer(ServingBackend &backend,
                               ProtocolServerConfig config)
    : backend_(backend), config_(config)
{
}

ProtocolServer::~ProtocolServer()
{
    stop();
}

bool
ProtocolServer::start()
{
    pf_assert(!started_, "ProtocolServer::start() called twice");
    listener_ = net::TcpListener::listenOn(config_.port,
                                           config_.loopback_only);
    if (!listener_.valid()) {
        pf_warn("cannot listen on port ", config_.port);
        return false;
    }
    started_ = true;
    accept_thread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
ProtocolServer::reapFinished()
{
    std::vector<std::unique_ptr<Connection>> dead;
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        auto split = std::partition(
            connections_.begin(), connections_.end(),
            [](const std::unique_ptr<Connection> &connection) {
                return !connection->finished.load(
                    std::memory_order_acquire);
            });
        for (auto it = split; it != connections_.end(); ++it)
            dead.push_back(std::move(*it));
        connections_.erase(split, connections_.end());
    }
    for (auto &connection : dead) {
        connection->reader.join();
        connection->writer.join();
        connection->conn.close();
    }
}

void
ProtocolServer::acceptLoop()
{
    while (!stop_.load(std::memory_order_acquire)) {
        net::TcpConnection conn = listener_.accept(stop_);
        // Every wakeup (new connection or stop) is a chance to drop
        // state from clients that have since disconnected.
        reapFinished();
        if (!conn.valid())
            continue; // stop flag or transient accept failure
        auto connection = std::make_unique<Connection>();
        connection->conn = std::move(conn);
        Connection *raw = connection.get();
        {
            std::lock_guard<std::mutex> lock(connections_mutex_);
            connections_.push_back(std::move(connection));
        }
        raw->reader = std::thread([this, raw] { readerLoop(raw); });
        raw->writer = std::thread([this, raw] { writerLoop(raw); });
    }
}

void
ProtocolServer::readerLoop(Connection *connection)
{
    std::string frame;

    // Handshake first: pin magic and protocol version before touching
    // anything else, so a version-skewed peer fails loudly here.
    if (!connection->conn.recvFrame(&frame))
        goto done;
    {
        HelloMsg hello;
        if (!decodeHello(frame, &hello) || hello.magic != kMagic) {
            pf_warn(backend_.backendName(),
                    ": bad handshake frame; dropping connection");
            goto done;
        }
        if (hello.version != kProtocolVersion) {
            pf_warn(backend_.backendName(), ": peer '",
                    hello.client_name, "' speaks protocol v",
                    hello.version, ", expected v", kProtocolVersion,
                    "; dropping connection");
            goto done;
        }
        HelloAckMsg ack;
        ack.server_name = backend_.backendName();
        ack.models = backend_.models();
        std::lock_guard<std::mutex> lock(connection->send_mutex);
        if (!connection->conn.sendFrame(encodeHelloAck(ack)))
            goto done;
    }

    while (connection->conn.recvFrame(&frame)) {
        MsgType type;
        if (!peekType(frame, &type)) {
            pf_warn(backend_.backendName(),
                    ": unknown message tag; dropping connection");
            break;
        }
        if (type == MsgType::InferRequest) {
            InferRequestMsg request;
            if (!decodeInferRequest(frame, &request)) {
                pf_warn(backend_.backendName(),
                        ": malformed InferRequest; dropping "
                        "connection");
                break;
            }
            // Submit without waiting — the writer thread awaits the
            // completion, so later requests on this connection can
            // join the same micro-batch.
            serve::Completion completion = backend_.submit(
                request.model, request.toTensor(),
                serve::SubmitOptions{request.priority,
                                     request.trace_id});
            {
                std::lock_guard<std::mutex> lock(
                    connection->queue_mutex);
                connection->responses.emplace_back(
                    request.seq, std::move(completion));
            }
            connection->queue_cv.notify_one();
        } else if (type == MsgType::StatsQuery) {
            StatsQueryMsg query;
            if (!decodeStatsQuery(frame, &query))
                break;
            StatsReportMsg report = backend_.stats();
            report.seq = query.seq;
            std::lock_guard<std::mutex> lock(connection->send_mutex);
            if (!connection->conn.sendFrame(encodeStatsReport(report)))
                break;
        } else if (type == MsgType::RegisterModel) {
            RegisterModelMsg request;
            if (!decodeRegisterModel(frame, &request))
                break;
            RegisterAckMsg ack;
            ack.seq = request.seq;
            ack.ok = backend_.registerModel(request, &ack.version,
                                            &ack.error);
            std::lock_guard<std::mutex> lock(connection->send_mutex);
            if (!connection->conn.sendFrame(encodeRegisterAck(ack)))
                break;
        } else if (type == MsgType::MetricsQuery) {
            MetricsQueryMsg query;
            if (!decodeMetricsQuery(frame, &query))
                break;
            MetricsReportMsg report =
                backend_.metricsReport(query.include_traces);
            report.seq = query.seq;
            std::lock_guard<std::mutex> lock(connection->send_mutex);
            if (!connection->conn.sendFrame(
                    encodeMetricsReport(report)))
                break;
        } else if (type == MsgType::HealthQuery) {
            HealthQueryMsg query;
            if (!decodeHealthQuery(frame, &query))
                break;
            HealthReportMsg report = backend_.healthReport();
            report.seq = query.seq;
            std::lock_guard<std::mutex> lock(connection->send_mutex);
            if (!connection->conn.sendFrame(
                    encodeHealthReport(report)))
                break;
        } else if (type == MsgType::Ping) {
            PingMsg ping;
            if (!decodePing(frame, &ping))
                break;
            std::lock_guard<std::mutex> lock(connection->send_mutex);
            if (!connection->conn.sendFrame(
                    encodePing(ping, MsgType::Pong)))
                break;
        } else {
            pf_warn(backend_.backendName(),
                    ": unexpected message type ",
                    static_cast<int>(type), "; dropping connection");
            break;
        }
    }

done:
    {
        std::lock_guard<std::mutex> lock(connection->queue_mutex);
        connection->reader_done = true;
    }
    connection->queue_cv.notify_all();
}

void
ProtocolServer::writerLoop(Connection *connection)
{
    for (;;) {
        std::pair<uint64_t, serve::Completion> next;
        {
            std::unique_lock<std::mutex> lock(connection->queue_mutex);
            connection->queue_cv.wait(lock, [&] {
                return !connection->responses.empty() ||
                       connection->reader_done;
            });
            if (connection->responses.empty()) {
                // Reader done and everything delivered: the writer is
                // the connection's last user, so it sends the FIN a
                // waiting peer needs to observe the close and flags
                // the connection for the accept thread to reap.
                connection->conn.shutdownBoth();
                connection->finished.store(true,
                                           std::memory_order_release);
                return;
            }
            next = std::move(connection->responses.front());
            connection->responses.pop_front();
        }
        // Awaiting in arrival order delays no one: every queued
        // completion is already executing server-side, and responses
        // carry their seq so the client never depends on order.
        const serve::RequestStatus status = next.second.wait();
        InferResponseMsg response;
        response.seq = next.first;
        response.status = status;
        response.latency_us = next.second.latencyUs();
        if (status == serve::RequestStatus::Done)
            response.logits = next.second.logits();
        else
            response.error = next.second.error();
        std::lock_guard<std::mutex> lock(connection->send_mutex);
        // A send failure just means the client is gone; the reader
        // notices on its next recv and winds the connection down.
        (void)connection->conn.sendFrame(
            encodeInferResponse(response));
    }
}

void
ProtocolServer::sever()
{
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto &connection : connections_)
        connection->conn.shutdownBoth();
}

void
ProtocolServer::stop()
{
    if (!started_)
        return;
    if (stop_.exchange(true))
        return;
    if (accept_thread_.joinable())
        accept_thread_.join();
    listener_.close();

    std::vector<std::unique_ptr<Connection>> connections;
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        connections.swap(connections_);
    }
    for (auto &connection : connections)
        connection->conn.shutdownBoth(); // wakes blocked readers
    for (auto &connection : connections) {
        if (connection->reader.joinable())
            connection->reader.join();
        if (connection->writer.joinable())
            connection->writer.join();
        connection->conn.close();
    }
}

ShardServer::ShardServer(ShardServerConfig config)
    : config_(std::move(config)), server_(config_.serving),
      protocol_(*this, config_.listen),
      health_(obs::HealthMonitor::Config{
          config_.slo_rules, config_.health_recover_after})
{
}

ShardServer::~ShardServer()
{
    stop();
}

bool
ShardServer::start()
{
    return protocol_.start();
}

void
ShardServer::stop()
{
    {
        std::lock_guard<std::mutex> lock(lifecycle_mutex_);
        if (stopped_)
            return;
        stopped_ = true;
    }
    // Drain before severing: every accepted request is delivered and
    // its response reaches the client; only then do the protocol
    // writers (which block on those completions) get joined.
    server_.shutdown();
    protocol_.stop();
}

void
ShardServer::kill()
{
    {
        std::lock_guard<std::mutex> lock(lifecycle_mutex_);
        if (stopped_)
            return;
        stopped_ = true;
    }
    // Sever first: clients watch the connection die exactly as they
    // would for a crashed process. The local shutdown still fulfills
    // every accepted completion, which is what releases the protocol
    // writers so stop() can join them (their sends go nowhere).
    protocol_.sever();
    server_.shutdown();
    protocol_.stop();
}

std::vector<std::pair<std::string, uint64_t>>
ShardServer::models() const
{
    return server_.registry().namesWithVersions();
}

serve::Completion
ShardServer::submit(const std::string &model, nn::Tensor input,
                    serve::SubmitOptions options)
{
    return server_.submit(model, std::move(input), options);
}

bool
ShardServer::registerModel(const RegisterModelMsg &msg,
                           uint64_t *version, std::string *error)
{
    auto network = buildModelFromSpec(msg.spec);
    if (!network) {
        *error = "unknown model spec '" + msg.spec + "'";
        return false;
    }
    if (!msg.weights.empty()) {
        std::istringstream snapshot(msg.weights);
        if (!nn::loadNetwork(*network, snapshot)) {
            *error = "weight snapshot does not match spec '" +
                     msg.spec + "'";
            return false;
        }
    }
    if (msg.name.empty()) {
        *error = "empty model name";
        return false;
    }
    if (msg.engine_override)
        registry().add(msg.name, std::move(*network),
                       *msg.engine_override);
    else
        registry().add(msg.name, std::move(*network));
    *version = registry().version(msg.name);
    pf_inform("shard ", config_.name, ": registered '", msg.name,
              "' v", *version, " from ", msg.spec,
              msg.weights.empty() ? "" : " with weights",
              msg.engine_override ? " and engine override" : "");
    return true;
}

StatsReportMsg
ShardServer::stats() const
{
    return toWireStats(server_.report(), config_.name);
}

MetricsReportMsg
ShardServer::metricsReport(bool include_traces)
{
    MetricsReportMsg msg;
    msg.server_name = config_.name;
    msg.metrics = server_.metricsRegistry().snapshot();
    if (include_traces)
        msg.spans = server_.traceSink().snapshot();
    return msg;
}

HealthReportMsg
ShardServer::healthReport()
{
    const obs::HealthState before = health_.status().state;
    const obs::HealthStatus status =
        health_.evaluate(server_.metricsRegistry().snapshot());
    // Warn when the shard turns degraded or unhealthy, not on every
    // poll of a shard that stays so.
    if (status.state != before &&
        status.state != obs::HealthState::Healthy) {
        std::string rules;
        for (const obs::SloViolation &violation : status.violations)
            rules += (rules.empty() ? "" : ",") + violation.rule;
        pf_warn("shard ", config_.name, " health ",
                obs::healthStateName(status.state), ": ", rules);
    }
    HealthReportMsg msg;
    msg.server_name = config_.name;
    msg.state = status.state;
    msg.violations = status.violations;
    return msg;
}

StatsReportMsg
toWireStats(const serve::ServerReport &report,
            const std::string &server_name)
{
    StatsReportMsg msg;
    msg.server_name = server_name;
    msg.uptime_s = report.uptime_s;
    msg.unknown_model_failures = report.unknown_model_failures;
    msg.models.reserve(report.models.size());
    for (const auto &m : report.models) {
        WireModelStats w;
        w.model = m.model;
        w.accepted = m.accepted;
        w.rejected = m.rejected;
        w.completed = m.completed;
        w.failed = m.failed;
        w.batches = m.batches;
        w.mean_batch = m.mean_batch;
        w.latency = m.latency_hist.data();
        msg.models.push_back(std::move(w));
    }
    return msg;
}

} // namespace cluster
} // namespace photofourier
