#include "net/service.hpp"

#include <algorithm>
#include <cstdio>

#include "core/parallel.hpp"
#include "net/protocol.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace fp::net {

NetConfig net_config_of(const exp::ExperimentSpec& spec) {
  NetConfig cfg;
  cfg.host = spec.net_host;
  cfg.port = static_cast<int>(spec.net_port);
  cfg.workers = static_cast<std::size_t>(
      std::max<std::int64_t>(1, spec.net_workers));
  cfg.timeout_s = spec.net_timeout_s;
  cfg.retry_s = spec.net_retry_s;
  return cfg;
}

exp::RunResult serve_root(exp::ExperimentSpec spec,
                          const std::function<void(int)>& on_listening,
                          const std::string& label) {
  spec.net_role = "root";
  if (spec.fl.scheduler != fed::SchedulerKind::kSync)
    throw exp::SpecError(
        "net.role=root requires fl.scheduler=sync: the distributed runtime "
        "dispatches barrier waves, not event-driven single-client refills");

  // Build the setup and construct the method BEFORE accepting workers, so an
  // unsupported spec fails fast instead of stranding connected workers.
  exp::Setup setup = exp::build_setup(std::move(spec));
  const exp::MethodFactory& factory =
      exp::method_registry().resolve(setup.spec.method);
  exp::MethodRun run = factory(setup);
  if (!run.algo->net_capable())
    throw exp::SpecError(
        "method " + setup.spec.method +
        " does not implement the distributed-runtime hooks; net-capable "
        "methods: jFAT (FedAvg via adversarial=false) and FedProphet");

  RootServer server(net_config_of(setup.spec));
  if (on_listening) on_listening(server.port());

  // Workers rebuild the run from the root's FULLY-RESOLVED spec (every auto
  // field concrete, so both ends derive identical models, seeds, and scales)
  // with the role neutralized — a worker setup is a single-process setup.
  exp::ExperimentSpec shipped = setup.spec;
  shipped.net_role = "off";
  server.accept_workers(exp::spec_to_json(shipped));

  setup.env.remote = &server;
  exp::RunResult r;
  try {
    r = exp::run_built(setup, run, label);
  } catch (...) {
    setup.env.remote = nullptr;
    server.shutdown();
    throw;
  }
  setup.env.remote = nullptr;
  r.net_tx_bytes = server.tx_bytes();
  r.net_rx_bytes = server.rx_bytes();
  r.net_workers = server.num_workers();
  server.shutdown();
  return r;
}

void run_worker(const exp::ExperimentSpec& cli_spec) {
  const NetConfig cfg = net_config_of(cli_spec);
  TcpConn conn = TcpConn::connect_retry(cfg.host, cfg.port, cfg.retry_s);
  comm::FrameWriter hello;
  hello.u32(kProtocolVersion);
  conn.send_frame(kMsgHello, hello.take());

  // The worker waits for the root without a timeout everywhere: a dead root
  // surfaces as EOF (recv_frame throws), not as a hang.
  const Frame wf = conn.recv_frame(0.0);
  if (wf.type == kMsgError) {
    comm::FrameReader in(wf.body);
    throw NetError("root rejected worker: " + in.str());
  }
  if (wf.type != kMsgWelcome)
    throw NetError("expected welcome, got frame type " +
                   std::to_string(wf.type));
  comm::FrameReader win(wf.body);
  const std::uint32_t version = win.u32();
  if (version != kProtocolVersion)
    throw NetError("root speaks protocol version " + std::to_string(version) +
                   ", this build speaks " + std::to_string(kProtocolVersion));
  const std::uint32_t rank = win.u32();
  const std::uint32_t num_workers = win.u32();
  exp::ExperimentSpec spec = exp::spec_from_json(win.str());
  spec.net_role = "off";

  exp::Setup setup = exp::build_setup(std::move(spec));
  const exp::MethodFactory& factory =
      exp::method_registry().resolve(setup.spec.method);
  exp::MethodRun run = factory(setup);
  fed::RoundMethod& m = *run.algo;
  fed::RoundEngine& engine = run.algo->engine();
  if (!m.net_capable()) {
    comm::FrameWriter err;
    err.str("method " + setup.spec.method + " has no distributed hooks");
    conn.send_frame(kMsgError, err.take());
    throw NetError("root shipped a method without distributed hooks: " +
                   setup.spec.method);
  }
  // net.codec=auto ships the comm codec's encoded messages; identity ships
  // dense fp32 blobs. Both decode to the same values root-side.
  const bool dense_uplinks = setup.spec.net_codec == "identity";

  // Observability follows the root's resolved spec, so both ends agree on
  // whether kMsgTrace frames exist. A worker never writes its own trace
  // file: its spans ship to the root and land in the merged trace.
  obs::ObsSettings obs_settings;
  obs_settings.trace = setup.spec.obs_trace;
  obs_settings.sample_kernels = setup.spec.obs_sample_kernels;
  obs::configure(obs_settings);
  obs::set_thread_name("fp-net-worker");
  obs::logf(obs::LogLevel::kInfo, "[net] worker %u/%u serving %s for %s:%d",
            rank, num_workers, setup.spec.method.c_str(), cfg.host.c_str(),
            cfg.port);

  for (;;) {
    const Frame f = conn.recv_frame(0.0);
    if (f.type == kMsgShutdown) return;
    try {
      if (f.type == kMsgGroup) {
        {
          // Inner scope: the serve_group span closes BEFORE the trace drain
          // below, so each group's frame carries its own serving span.
          FP_TRACE_SCOPE("serve_group", "net");
          comm::FrameReader gin(f.body);
          const std::vector<std::uint8_t> state = gin.bytes();
          std::vector<nn::ParamBlob> broadcast;
          std::int64_t broadcast_bytes = 0;
          for (const comm::WireMessage& msg : read_tape(gin)) {
            broadcast_bytes += msg.wire_bytes();
            broadcast.push_back(engine.channel().decode(msg));
          }
          const std::uint32_t n = gin.u32();
          std::vector<fed::TaskSpec> tasks;
          tasks.reserve(n);
          for (std::uint32_t i = 0; i < n; ++i) tasks.push_back(read_task(gin));
          {
            comm::FrameReader sr(state);
            m.net_load_round(sr, tasks, std::move(broadcast), broadcast_bytes);
          }
          // Each client's uplinks are recorded as the channel encodes them;
          // the tape, not the decoded payload, is what goes back to the root.
          std::vector<fed::Upload> uploads(n);
          std::vector<comm::WireTape> tapes(n);
          const double t0 = obs::now_s();
          core::parallel_tasks(static_cast<std::int64_t>(n),
                               [&](std::int64_t ti) {
                                 const auto i = static_cast<std::size_t>(ti);
                                 tapes[i].record_decoded = dense_uplinks;
                                 comm::WireTape::Scope record(&tapes[i]);
                                 uploads[i] = engine.run_client(m, tasks[i]);
                               });
          const double compute_s = obs::now_s() - t0;
          m.net_end_group();
          comm::FrameWriter out;
          out.u32(n);
          out.f64(compute_s);
          for (std::uint32_t i = 0; i < n; ++i) {
            write_upload_base(uploads[i], out);
            write_tape(tapes[i].messages, out);
          }
          conn.send_frame(kMsgGroupResult, out.take());
        }
        if (obs::tracing_enabled()) {
          comm::FrameWriter tw;
          obs::serialize_new_events(tw);
          conn.send_frame(kMsgTrace, tw.take());
        }
      } else if (f.type == kMsgCustom) {
        comm::FrameReader cin(f.body);
        const std::uint32_t op = cin.u32();
        const std::vector<std::uint8_t> ctx = cin.bytes();
        const std::uint32_t n = cin.u32();
        comm::FrameWriter out;
        out.u32(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          const auto client = static_cast<std::size_t>(cin.u64());
          comm::FrameReader cr(ctx);
          comm::FrameWriter res;
          m.net_custom_op(op, cr, client, res);
          out.bytes(res.data());
        }
        conn.send_frame(kMsgCustomResult, out.take());
      } else {
        throw NetError("unexpected frame type " + std::to_string(f.type) +
                       " from root");
      }
    } catch (const std::exception& e) {
      // Report the failure to the root (it fails the round with this text),
      // then die: a worker with undefined state must not serve more groups.
      try {
        comm::FrameWriter err;
        err.str(e.what());
        conn.send_frame(kMsgError, err.take());
      } catch (const NetError&) {
      }
      throw;
    }
  }
}

}  // namespace fp::net
