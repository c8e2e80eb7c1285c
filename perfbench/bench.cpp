// perfbench: runs one workload of the repository benchmark through the
// library's public entry points and writes what it measured, unreduced, as
// JSON. perfbench/run.py builds this binary, runs it, and turns the raw
// record into the reported metrics; all statistics live there.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <raw.json>
//
// Every workload is the repository's time-to-result path: build a setup,
// train a global model, evaluate it (clean / PGD / AA-lite), then serve it
// over loopback HTTP with serve::InferenceServer under an open-loop load.
// Outputs are checked as they are produced: repeated trainings must agree
// exactly, the distributed root must reproduce the single-process run, and
// every served response must equal the offline reference forward byte for
// byte. A miss is recorded as a failed operation, never hidden.
//
// With --trace 1 it runs one repetition untraced, the same repetition with
// the obs tracer on at full kernel sampling, the per-atom / PGD /
// evaluate_prefix probes and the lo/hi serving windows (still traced), and
// the repetition untraced once more; the traced one is compared with the two
// untraced ones for the tracing overhead. The Chrome trace is written as
// <out>.trace.json. The benchmark's own spans (around its calls into each
// module) go into the raw record with an anchor span that places them on the
// trace's time base.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attack/attacks.hpp"
#include "attack/evaluate.hpp"
#include "cascade/trainer.hpp"
#include "core/parallel.hpp"
#include "exp/runner.hpp"
#include "fedprophet/fedprophet.hpp"
#include "net/http.hpp"
#include "net/service.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/model_host.hpp"
#include "serve/server.hpp"
#include "serve/wire_json.hpp"
#include "sysmodel/layer_spec.hpp"
#include "tensor/compute_mode.hpp"

namespace {

using fp::obs::now_ns;

double secs(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---- raw JSON record --------------------------------------------------------

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

template <class T, class F>
std::string jarr(const std::vector<T>& v, F fmt) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += fmt(v[i]);
  }
  return out + "]";
}

std::string jnums(const std::vector<double>& v) { return jarr(v, jnum); }

/// A JSON object built field by field; values are already-rendered JSON.
class JObj {
 public:
  JObj& add(const std::string& key, const std::string& raw) {
    body_ += body_.empty() ? "" : ",";
    body_ += jstr(key) + ":" + raw;
    return *this;
  }
  JObj& num(const std::string& key, double v) { return add(key, jnum(v)); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- the benchmark's own spans ----------------------------------------------

struct BenchSpan {
  std::string name;
  std::int64_t t0 = 0, t1 = 0;  ///< obs::now_ns() time base
};

std::vector<BenchSpan> g_spans;  // main thread only

/// Runs fn inside a benchmark span; returns its wall seconds.
template <class F>
double timed(const char* name, F&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  const std::int64_t t1 = now_ns();
  g_spans.push_back({name, t0, t1});
  return secs(t1 - t0);
}

// ---- workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  std::vector<std::string> keys;  ///< spec overrides on top of the defaults
  bool distributed = false;
  /// Share of --seconds spent on repeated train+evaluate before serving.
  double train_share = 0.6;
  int min_reps = 2;
  /// Open-loop serving plan: fixed rates lo/hi (req/s) with their request
  /// counts, and the ladder serve_max_qps is searched on, with the request
  /// count of each ladder step.
  double lo_rate = 0, hi_rate = 0;
  std::int64_t lo_requests = 0, hi_requests = 0, ladder_requests = 0;
  std::vector<double> ladder;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    // Rates in requests/s. Four keep-alive connections with the default
    // 2 ms batching window saturate near 1200/s at seed 1234; lo and hi sit
    // at about a quarter and a half of that, below the knee where p90 starts
    // to climb. The ladder rises 5% a step from 300/s; it runs on the
    // serving workload only.
    std::vector<double> ladder;
    for (double r = 300; r < 2500; r *= 1.05) ladder.push_back(std::round(r));
    std::vector<Workload> w;
    w.push_back({"fedprophet_cifar", {"method=FedProphet"}, false, 0.5, 2,
                 300, 600, 900, 1200, 0, {}});
    w.push_back({"jfat_cifar", {"method=jFAT"}, false, 0.5, 2, 300, 600, 900,
                 1200, 0, {}});
    w.push_back({"fedprophet_dist",
                 {"method=FedProphet", "net.role=root", "net.workers=2",
                  "net.host=127.0.0.1", "net.port=0", "net.codec=identity"},
                 true, 0.5, 2, 300, 600, 900, 1200, 0, {}});
    w.push_back({"serve_int8",
                 {"method=jFAT", "fl.rounds=3", "compute.precision=int8",
                  "compute.winograd=1"},
                 false, 0.0, 3, 300, 600, 1800, 2400, 1000, ladder});
    return w;
  }();
  return all;
}

fp::exp::ExperimentSpec make_spec(const Workload& w, std::uint64_t seed,
                                  bool mem_measure) {
  fp::exp::ExperimentSpec spec;
  for (const auto& kv : w.keys) fp::exp::apply_override(spec, kv);
  fp::exp::apply_override(spec, "fl.seed=" + std::to_string(seed));
  if (mem_measure) fp::exp::apply_override(spec, "mem.measure=1");
  return spec;
}

// ---- train + evaluate repetitions -------------------------------------------

/// A trained run kept alive for the probes and for serving.
struct Trained {
  std::unique_ptr<fp::exp::Setup> setup;
  fp::exp::MethodRun run;
};

struct Rep {
  double setup_s = 0, train_s = 0, eval_s = 0;
  std::int64_t clients = 0;
  fp::attack::RobustEvalResult acc;
  std::int64_t bytes_up = 0, bytes_down = 0, peak_mem = 0;
  std::int64_t validations = 0;
  double measured_comm_s = 0;
  std::int64_t tx = 0, rx = 0;
  std::string error;  ///< "" = the repetition ran to completion

  std::string json() const {
    return JObj()
        .num("setup_s", setup_s)
        .num("train_s", train_s)
        .num("eval_s", eval_s)
        .num("clients", static_cast<double>(clients))
        .num("clean_acc", acc.clean_acc)
        .num("pgd_acc", acc.pgd_acc)
        .num("aa_acc", acc.aa_acc)
        .num("bytes_up", static_cast<double>(bytes_up))
        .num("bytes_down", static_cast<double>(bytes_down))
        .num("peak_mem_bytes", static_cast<double>(peak_mem))
        .num("validations", static_cast<double>(validations))
        .num("measured_comm_s", measured_comm_s)
        .num("net_tx_bytes", static_cast<double>(tx))
        .num("net_rx_bytes", static_cast<double>(rx))
        .add("error", jstr(error))
        .str();
  }
};

std::int64_t clients_trained() {
  return fp::obs::counter("engine.clients_trained").value();
}

std::int64_t fedprophet_validations(fp::exp::MethodRun& run) {
  // FedProphet records one history entry per per-round evaluate_prefix.
  auto* fp = dynamic_cast<fp::fedprophet::FedProphet*>(run.algo.get());
  return fp ? static_cast<std::int64_t>(fp->history().size()) : 0;
}

/// build_setup + method construction: one set-up sample.
std::unique_ptr<Trained> set_up(const fp::exp::ExperimentSpec& spec,
                                double* seconds) {
  auto t = std::make_unique<Trained>();
  *seconds = timed("bench.setup", [&] {
    t->setup = std::make_unique<fp::exp::Setup>(fp::exp::build_setup(spec));
    t->run = fp::exp::method_registry().resolve(t->setup->spec.method)(
        *t->setup);
  });
  return t;
}

/// One single-process repetition: set-up, train, final evaluate.
Rep run_local(const fp::exp::ExperimentSpec& spec,
              std::unique_ptr<Trained>* keep) {
  Rep r;
  std::unique_ptr<Trained> t = set_up(spec, &r.setup_s);
  const std::int64_t c0 = clients_trained();
  r.train_s = timed("bench.train", [&] { t->run.train(); });
  r.eval_s = timed("bench.evaluate", [&] {
    r.acc = t->run.evaluate(fp::exp::eval_config(t->setup->spec));
  });
  r.clients = clients_trained() - c0;
  const fp::fed::RoundStats& st = t->run.algo->total_stats();
  r.bytes_up = st.bytes_up;
  r.bytes_down = st.bytes_down;
  r.peak_mem = st.peak_mem_bytes;
  r.validations = fedprophet_validations(t->run);
  if (keep) *keep = std::move(t);
  return r;
}

/// One distributed repetition: net::serve_root with two in-process loopback
/// workers (net::run_worker) on an ephemeral port.
Rep run_dist(const fp::exp::ExperimentSpec& spec) {
  Rep r;
  std::vector<std::thread> workers;
  std::mutex err_mu;
  std::string worker_error;
  auto join_all = [&] {
    for (auto& w : workers) w.join();
    workers.clear();
  };
  const std::int64_t c0 = clients_trained();
  const std::int64_t t0 = now_ns();
  fp::exp::RunResult res;
  try {
    res = fp::net::serve_root(spec, [&](int port) {
      for (int k = 0; k < 2; ++k)
        workers.emplace_back([&, port] {
          try {
            fp::exp::ExperimentSpec ws;
            fp::exp::apply_override(ws, "net.role=worker");
            fp::exp::apply_override(ws, "net.host=127.0.0.1");
            fp::exp::apply_override(ws, "net.port=" + std::to_string(port));
            fp::net::run_worker(ws);
          } catch (const std::exception& e) {
            std::lock_guard<std::mutex> lk(err_mu);
            worker_error = std::string("worker: ") + e.what();
          }
        });
    });
  } catch (const std::exception& e) {
    join_all();
    r.error = std::string("root: ") + e.what();
    return r;
  }
  join_all();
  const std::int64_t t_end = now_ns();
  r.error = worker_error;
  r.eval_s = res.phases.eval_s;
  r.train_s = res.wall_s - r.eval_s;
  r.setup_s = secs(t_end - t0) - res.wall_s;
  r.clients = clients_trained() - c0;
  r.acc = res.metrics;
  r.bytes_up = res.bytes_up;
  r.bytes_down = res.bytes_down;
  r.peak_mem = res.peak_mem_bytes;
  r.measured_comm_s = res.measured_comm_s;
  r.tx = res.net_tx_bytes;
  r.rx = res.net_rx_bytes;
  // FedProphet's history holds one entry per per-round evaluate_prefix.
  r.validations = spec.method == "FedProphet"
                      ? static_cast<std::int64_t>(res.history.size())
                      : 0;
  // serve_root runs train + evaluate inside exp::run_built, which opens an
  // "evaluate" span and measures wall_s from just after its obs::configure.
  // When tracing, that places the benchmark's own spans exactly.
  if (fp::obs::tracing_enabled()) {
    for (const auto& e : fp::obs::trace_snapshot()) {
      if (e.pid != 0 || e.name != "evaluate" || e.cat != "engine") continue;
      const std::int64_t run0 =
          e.t1_ns - static_cast<std::int64_t>(res.wall_s * 1e9);
      g_spans.push_back({"bench.setup", t0, run0});
      g_spans.push_back({"bench.train", run0, e.t0_ns});
      g_spans.push_back({"bench.evaluate", e.t0_ns, e.t1_ns});
    }
  }
  return r;
}

bool same_result(const Rep& a, const Rep& b) {
  return a.acc.clean_acc == b.acc.clean_acc && a.acc.pgd_acc == b.acc.pgd_acc &&
         a.acc.aa_acc == b.acc.aa_acc && a.bytes_up == b.bytes_up &&
         a.bytes_down == b.bytes_down;
}

// ---- probes (traced run) ----------------------------------------------------

template <class F>
std::vector<double> repeat_ms(int n, F&& fn) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    out.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  return out;
}

/// Per-atom forward/backward (fp32, training mode) and int8+Winograd
/// inference times at fl.batch_size, beside each atom's modelled MACs.
std::string probe_atoms(const fp::exp::ExperimentSpec& spec,
                        const fp::nn::ParamBlob& blob,
                        const fp::data::Dataset& test) {
  constexpr int kReps = 30;
  fp::serve::ServedModel pm = fp::serve::make_served_model(spec, blob);
  fp::models::BuiltModel& m = *pm.model;
  const std::int64_t batch = std::min(spec.fl.batch_size, test.size());
  std::vector<fp::Tensor> in = {test.images.slice_rows(0, batch)};
  for (std::size_t i = 0; i < m.num_atoms(); ++i)
    in.push_back(m.forward_range(i, i + 1, in[i], false));

  std::vector<std::string> rows;
  fp::sys::TensorShape shape = m.spec().input;
  fp::compute::ComputeConfig int8w;
  int8w.precision = fp::compute::Precision::kInt8;
  int8w.winograd = true;
  for (std::size_t i = 0; i < m.num_atoms(); ++i) {
    const fp::sys::AtomSpec& atom = m.spec().atoms[i];
    std::int64_t macs = 0;
    fp::sys::TensorShape s = shape;
    for (const auto& layer : atom.layers) {
      macs += fp::sys::layer_forward_macs(layer, s);
      s = fp::sys::out_shape(layer, s);
    }
    shape = fp::sys::atom_out_shape(atom, shape);
    std::vector<double> infer, fwd, bwd;
    timed("bench.probe_atom", [&] {
      infer = repeat_ms(kReps, [&] {
        fp::compute::InferenceScope scope(int8w);
        m.forward_range(i, i + 1, in[i], false);
      });
      for (int k = 0; k < kReps; ++k) {
        fp::Tensor out;
        fwd.push_back(repeat_ms(1, [&] {
          out = m.forward_range(i, i + 1, in[i], true);
        })[0]);
        const fp::Tensor grad = fp::Tensor::ones(out.shape());
        bwd.push_back(
            repeat_ms(1, [&] { m.backward_range(i, i + 1, grad); })[0]);
      }
    });
    rows.push_back(JObj()
                       .add("name", jstr(atom.name))
                       .num("batch", static_cast<double>(batch))
                       .num("macs_per_sample", static_cast<double>(macs))
                       .add("fwd_ms", jnums(fwd))
                       .add("bwd_ms", jnums(bwd))
                       .add("infer_ms", jnums(infer))
                       .str());
  }
  return jarr(rows, [](const std::string& s) { return s; });
}

/// attack::pgd on one training batch of the trained model.
std::string probe_pgd(const fp::exp::ExperimentSpec& spec,
                      const fp::nn::ParamBlob& blob,
                      const fp::data::Dataset& test, std::uint64_t seed) {
  fp::serve::ServedModel pm = fp::serve::make_served_model(spec, blob);
  const std::int64_t batch = std::min(spec.fl.batch_size, test.size());
  const fp::Tensor x = test.images.slice_rows(0, batch);
  const std::vector<std::int64_t> y(test.labels.begin(),
                                    test.labels.begin() + batch);
  fp::attack::PgdConfig cfg;
  cfg.epsilon = spec.fl.epsilon0;
  cfg.steps = static_cast<int>(spec.fl.pgd_steps);
  fp::Rng rng(seed);
  const auto loss = fp::attack::model_ce_lossgrad(*pm.model);
  std::vector<double> ms;
  timed("bench.probe_pgd", [&] {
    ms = repeat_ms(20, [&] { fp::attack::pgd(loss, x, y, cfg, rng); });
  });
  return JObj()
      .num("steps", cfg.steps)
      .add("call_ms", jnums(ms))
      .str();
}

/// cascade::evaluate_prefix for every module of a trained FedProphet, at the
/// method's own validation size.
std::vector<double> probe_prefix(Trained& t) {
  auto* fp = dynamic_cast<fp::fedprophet::FedProphet*>(t.run.algo.get());
  std::vector<double> ms;
  if (fp == nullptr) return ms;
  fp::cascade::PrefixEvalConfig cfg;
  cfg.epsilon0 = t.setup->spec.fl.epsilon0;
  cfg.max_samples = fp->config().val_samples;
  cfg.compute = t.setup->spec.fl.compute;
  timed("bench.probe_prefix", [&] {
    for (std::size_t m = 0; m < fp->cascade().num_modules(); ++m)
      ms.push_back(repeat_ms(1, [&] {
        fp::cascade::evaluate_prefix(fp->cascade(), m, t.setup->env.test, cfg);
      })[0]);
  });
  return ms;
}

// ---- serving ----------------------------------------------------------------

/// Requests drawn from a seeded pool of test samples; the expected response
/// of each is the offline reference forward, rendered the way the server
/// renders it (the serving plane's byte-exactness contract).
struct RequestPool {
  std::vector<std::string> bodies, expected;
};

RequestPool make_pool(const fp::exp::ExperimentSpec& spec,
                      const fp::nn::ParamBlob& blob,
                      const fp::data::Dataset& test, std::uint64_t seed) {
  constexpr std::int64_t kPool = 256;
  fp::serve::ServedModel ref = fp::serve::make_served_model(spec, blob);
  fp::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  RequestPool pool;
  for (std::int64_t j = 0; j < kPool; ++j) {
    const auto idx = static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(test.size())));
    const fp::Tensor x = test.images.slice_rows(idx, 1);
    pool.bodies.push_back(fp::serve::render_predict_request(x));
    pool.expected.push_back(fp::serve::render_predict_response(
        fp::serve::reference_forward(*ref.model, x, ref.compute)));
  }
  return pool;
}

/// One open-loop window: Poisson arrivals at `rate` over `conns` keep-alive
/// connections. Each request is timed from when it was due, so a stall
/// shows up in the latency of every request queued behind it.
struct Window {
  std::string phase;
  double rate = 0;
  std::vector<double> due_ms, sent_ms, done_ms;  ///< from window start
  std::vector<int> ok;                           ///< 200 + exact body

  std::string json() const {
    return JObj()
        .add("phase", jstr(phase))
        .num("rate", rate)
        .add("due_ms", jnums(due_ms))
        .add("sent_ms", jnums(sent_ms))
        .add("done_ms", jnums(done_ms))
        .add("ok", jarr(ok, [](int v) { return std::to_string(v); }))
        .str();
  }

  /// The go/no-go that steers the ladder search: nearest-rank p90 of the
  /// due-time latency within the limit (failures count as over it). run.py
  /// recomputes every reported figure from the raw arrays.
  bool meets(double limit_ms) const {
    std::int64_t over = 0;
    for (std::size_t i = 0; i < ok.size(); ++i)
      if (!ok[i] || done_ms[i] - due_ms[i] > limit_ms) ++over;
    return over * 10 <= static_cast<std::int64_t>(ok.size());
  }
};

Window open_loop(const std::string& host, int port, const RequestPool& pool,
                 const std::string& phase, double rate, std::int64_t n,
                 int conns, fp::Rng& rng) {
  Window w;
  w.phase = phase;
  w.rate = rate;
  const auto un = static_cast<std::size_t>(n);
  w.due_ms.resize(un);
  w.sent_ms.assign(un, 0.0);
  w.done_ms.assign(un, 0.0);
  w.ok.assign(un, 0);
  std::vector<std::size_t> pick(un);
  double t = 0;
  for (std::size_t i = 0; i < un; ++i) {
    t += -std::log(1.0 - rng.uniform()) / rate * 1e3;
    w.due_ms[i] = t;
    pick[i] = static_cast<std::size_t>(rng.uniform_int(pool.bodies.size()));
  }
  // Connect first, then start the clock, so the schedule excludes connects.
  std::vector<std::unique_ptr<fp::net::HttpConn>> http;
  for (int k = 0; k < conns; ++k)
    http.push_back(std::make_unique<fp::net::HttpConn>(
        fp::net::TcpConn::connect_retry(host, port, 5.0)));
  std::atomic<std::size_t> next{0};
  const std::int64_t start = now_ns() + 2'000'000;
  auto ms_since = [start](std::int64_t ns) {
    return static_cast<double>(ns - start) / 1e6;
  };
  std::vector<std::thread> threads;
  for (int k = 0; k < conns; ++k)
    threads.emplace_back([&, k] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= un) return;
        const auto due = std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(
                start + static_cast<std::int64_t>(w.due_ms[i] * 1e6)));
        std::this_thread::sleep_until(due);
        w.sent_ms[i] = ms_since(now_ns());
        try {
          if (!http[k])
            http[k] = std::make_unique<fp::net::HttpConn>(
                fp::net::TcpConn::connect_retry(host, port, 5.0));
          http[k]->send_request("POST", "/v1/predict", pool.bodies[pick[i]]);
          fp::net::HttpResponse resp;
          const bool got = http[k]->read_response(&resp, 30.0) ==
                           fp::net::HttpConn::Read::kRequest;
          w.ok[i] = got && resp.status == 200 &&
                    resp.body == pool.expected[pick[i]];
          if (!got) http[k].reset();
        } catch (const std::exception&) {
          http[k].reset();
        }
        w.done_ms[i] = ms_since(now_ns());
      }
    });
  for (auto& th : threads) th.join();
  return w;
}

struct ServeOut {
  std::vector<double> setup_s;
  std::vector<Window> windows;
  std::vector<std::pair<std::string, std::int64_t>> counters_before,
      counters_after;
};

/// Serves `blob` (the spec's compute config) and drives the open-loop plan.
/// Set-up is repeated three times for a steady median; the last server
/// takes the load. The ladder is searched by bisection for the highest rate
/// meeting p90 <= limit.
ServeOut serve(const fp::exp::ExperimentSpec& spec, const fp::nn::ParamBlob& blob,
               const fp::data::Dataset& test, const Workload& w,
               std::uint64_t seed, bool traced) {
  constexpr double kLimitMs = 10.0;  // metrics.LATENCY_LIMIT_MS
  ServeOut out;
  const RequestPool pool = make_pool(spec, blob, test, seed);
  fp::serve::ServeConfig cfg = fp::serve::serve_config_of(spec);
  cfg.host = "127.0.0.1";
  cfg.port = 0;
  const int conns = static_cast<int>(std::clamp<unsigned>(
      std::thread::hardware_concurrency(), 1u, 4u));

  std::unique_ptr<fp::serve::InferenceServer> server;
  for (int k = 0; k < 3; ++k) {
    if (server) server->stop();
    server.reset();
    out.setup_s.push_back(timed("bench.serve_setup", [&] {
      server = std::make_unique<fp::serve::InferenceServer>(
          fp::serve::make_served_model(spec, blob), cfg);
      server->start();
      fp::net::HttpConn http(
          fp::net::TcpConn::connect_retry(cfg.host, server->port(), 5.0));
      for (std::size_t j = 0; j < 32; ++j) {
        http.send_request("POST", "/v1/predict",
                          pool.bodies[j % pool.bodies.size()]);
        fp::net::HttpResponse resp;
        http.read_response(&resp, 30.0);
      }
    }));
  }

  fp::Rng rng(seed ^ 0x5e5e5e5eULL);
  out.counters_before = fp::obs::metrics_snapshot();
  timed("bench.serve_load", [&] {
    out.windows.push_back(open_loop(cfg.host, server->port(), pool, "lo",
                                    w.lo_rate, w.lo_requests, conns, rng));
    out.windows.push_back(open_loop(cfg.host, server->port(), pool, "hi",
                                    w.hi_rate, w.hi_requests, conns, rng));
  });
  out.counters_after = fp::obs::metrics_snapshot();
  if (!traced) {
    int lo = -1, hi = static_cast<int>(w.ladder.size());  // pass lo, fail hi
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      Window step = open_loop(cfg.host, server->port(), pool, "ladder",
                              w.ladder[static_cast<std::size_t>(mid)],
                              w.ladder_requests, conns, rng);
      (step.meets(kLimitMs) ? lo : hi) = mid;
      out.windows.push_back(std::move(step));
    }
  }
  server->stop();
  return out;
}

std::string counters_json(
    const std::vector<std::pair<std::string, std::int64_t>>& c) {
  JObj o;
  for (const auto& [k, v] : c) o.num(k, static_cast<double>(v));
  return o.str();
}

// ---- main -------------------------------------------------------------------

struct Args {
  std::string workload, out;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty() || a.out.empty())
    throw std::invalid_argument("--workload and --out are required");
  return a;
}

int run(const Args& a) {
  const Workload* wp = nullptr;
  for (const auto& w : workloads())
    if (a.workload == w.name) wp = &w;
  if (wp == nullptr) throw std::invalid_argument("unknown workload " + a.workload);
  const Workload& w = *wp;
  fp::obs::set_thread_name("perfbench");

  const fp::exp::ExperimentSpec spec = make_spec(w, a.seed, a.trace);
  // The single-process twin of a distributed spec: its reference run and
  // the source of the model that is probed and served.
  fp::exp::ExperimentSpec local = spec;
  if (w.distributed) fp::exp::apply_override(local, "net.role=off");

  JObj rec;
  rec.add("workload", jstr(w.name))
      .num("seed", static_cast<double>(a.seed))
      .num("threads", fp::core::num_threads());

  std::vector<Rep> reps;
  std::vector<double> extra_setups;
  std::unique_ptr<Trained> trained;
  // A distributed run is checked against the single-process run of the same
  // spec, made first so that it stays out of the timed and traced windows.
  Rep reference;
  if (w.distributed) reference = run_local(local, &trained);
  const std::int64_t t_start = now_ns();
  auto one_rep = [&] {
    return w.distributed ? run_dist(spec) : run_local(local, &trained);
  };

  double traced_run_s = 0;
  std::vector<double> untraced_run_s;
  std::int64_t anchor_t0 = 0, anchor_t1 = 0;
  std::vector<std::pair<std::string, std::int64_t>> trace_c0, trace_c1;
  if (a.trace) {
    // The same repetition untraced, traced, and (after the probes and the
    // traced serving) untraced again: the traced one is compared with the
    // median of the two around it.
    const Rep u = one_rep();
    untraced_run_s.push_back(u.train_s + u.eval_s);
    reps.push_back(u);
    fp::exp::ExperimentSpec traced = spec;
    for (const char* kv : {"obs.trace=1", "obs.sample_kernels=1",
                           "obs.metrics=1", "obs.trace_path=root.trace.json"})
      fp::exp::apply_override(traced, kv);
    fp::obs::ObsSettings obs;
    obs.trace = true;
    obs.metrics = true;
    obs.sample_kernels = 1;
    fp::obs::configure(obs);
    trace_c0 = fp::obs::metrics_snapshot();
    const Rep t = w.distributed ? run_dist(traced) : run_local(local, &trained);
    trace_c1 = fp::obs::metrics_snapshot();
    traced_run_s = t.train_s + t.eval_s;
    reps.push_back(t);
  } else {
    // Extra set-ups so set-up time is a median of at least five samples.
    if (!w.distributed)
      for (int k = 0; k < 3; ++k) {
        double s = 0;
        set_up(local, &s);
        extra_setups.push_back(s);
      }
    const double budget = w.train_share * a.seconds;
    do {
      reps.push_back(one_rep());
    } while (static_cast<int>(reps.size()) < w.min_reps ||
             secs(now_ns() - t_start) < budget);
  }

  // Output checks: every repetition reproduces the first; a distributed
  // run reproduces the single-process run of the same spec.
  std::vector<std::string> checks;
  std::vector<int> rep_ok;
  if (!w.distributed) reference = reps.front();
  auto check = [&](const Rep& r) {
    const bool ok = r.error.empty() && same_result(r, reference);
    rep_ok.push_back(ok);
    if (!r.error.empty()) checks.push_back(r.error);
    else if (!ok)
      checks.push_back(w.distributed
                           ? "distributed run differs from single-process run"
                           : "repetition differs from the first");
  };
  for (const Rep& r : reps) check(r);
  if (!trained) throw std::runtime_error("no trained model to serve");

  const fp::exp::Setup& s = *trained->setup;
  rec.num("batch_size", static_cast<double>(s.spec.fl.batch_size))
      .num("local_iters", static_cast<double>(s.spec.fl.local_iters))
      .num("eval_max_samples", static_cast<double>(s.spec.eval_max_samples));
  const fp::nn::ParamBlob blob = trained->run.algo->global_model().save_all();

  std::string probes;
  if (a.trace) {
    JObj p;
    p.add("atoms", probe_atoms(s.spec, blob, s.env.test))
        .add("pgd", probe_pgd(s.spec, blob, s.env.test, a.seed))
        .add("prefix_ms", jnums(probe_prefix(*trained)));
    probes = p.str();
  }

  const ServeOut so = serve(s.spec, blob, s.env.test, w, a.seed, a.trace);

  if (a.trace) {
    anchor_t0 = now_ns();
    { FP_TRACE_SCOPE("bench.anchor", "bench"); }
    anchor_t1 = now_ns();
    fp::obs::configure({});  // off; the traced spans stay for the flush
    const Rep u2 = w.distributed ? run_dist(spec) : run_local(local, nullptr);
    untraced_run_s.push_back(u2.train_s + u2.eval_s);
    reps.push_back(u2);
    check(u2);
    const std::string trace_path = a.out + ".trace.json";
    if (!fp::obs::write_trace_json(trace_path))
      throw std::runtime_error("cannot write " + trace_path);
    rec.add("trace", JObj()
                         .add("path", jstr(trace_path))
                         .num("anchor_t0", static_cast<double>(anchor_t0))
                         .num("anchor_t1", static_cast<double>(anchor_t1))
                         .add("untraced_run_s", jnums(untraced_run_s))
                         .num("traced_run_s", traced_run_s)
                         .num("dropped_events",
                              static_cast<double>(fp::obs::dropped_events()))
                         .add("counters_before", counters_json(trace_c0))
                         .add("counters_after", counters_json(trace_c1))
                         .add("probes", probes)
                         .str());
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  rec.add("reps", jarr(reps, [](const Rep& r) { return r.json(); }))
      .add("rep_ok", jarr(rep_ok, [](int v) { return std::to_string(v); }))
      .add("reference", reference.json())
      .add("extra_setup_s", jnums(extra_setups))
      .add("checks", jarr(checks, jstr))
      .add("serve",
           JObj()
               .add("setup_s", jnums(so.setup_s))
               .add("windows",
                    jarr(so.windows, [](const Window& x) { return x.json(); }))
               .add("counters_before", counters_json(so.counters_before))
               .add("counters_after", counters_json(so.counters_after))
               .str())
      .num("rss_peak_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
      .add("spans", jarr(g_spans, [](const BenchSpan& b) {
             return "[" + jstr(b.name) + "," + std::to_string(b.t0) + "," +
                    std::to_string(b.t1) + "]";
           }));

  std::ofstream f(a.out);
  f << rec.str() << "\n";
  f.close();
  if (!f) throw std::runtime_error("cannot write " + a.out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
