"""Arithmetic of the repository benchmark: percentiles, open-loop latency,
span self time, and the reduction of one raw perfbench record to metrics.

Everything here is a pure function of its inputs, so test_metrics.py checks
it on synthetic data.
"""
import json
import math
import statistics
from statistics import median

# Percentiles the tail rule may fall back to, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
MIN_BEYOND = 10
# The serving latency limit is set on p90, not p99: on a shared 4-core VM
# 10-30 ms scheduling stalls hit 1-3% of requests at random, so p99 of a
# window of a few thousand requests swings between ~5 and ~25 ms from run to
# run, while p90 stays put. p99 is still printed beside it. The limit is five
# 2 ms batching windows: near 5 ms p90 rises only ~0.5 ms per 100 req/s, so
# run-to-run noise moved the passing rate by +-15%; at 10 ms the crossing
# sits where latency climbs steeply towards saturation.
LIMIT_PERCENTILE = 90.0
LATENCY_LIMIT_MS = 10.0


def nearest_rank(sorted_values, p):
    """Nearest-rank p-th percentile of an ascending list."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(values, want=99.0):
    """The highest percentile <= want with at least MIN_BEYOND samples above
    its rank, as (percentile, value, sample_count); None when even the median
    has too few samples beyond it."""
    s = sorted(values)
    n = len(s)
    for p in TAIL_PERCENTILES:
        if p > want:
            continue
        if n - math.ceil(p / 100.0 * n) >= MIN_BEYOND:
            return p, nearest_rank(s, p), n
    return None


def spread(values):
    """Inter-quartile distance as a share of the median (the steadiness
    figure every end-to-end metric is judged by)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# ---- open-loop serving ------------------------------------------------------

def open_loop_latencies(window):
    """Per-request latency measured from the due time (so a stall charges
    every request queued behind it) with failed requests as +inf, and the
    generator lag (sent - due)."""
    lat = [
        (done - due) if ok else math.inf
        for due, done, ok in zip(window["due_ms"], window["done_ms"], window["ok"])
    ]
    lag = [sent - due for due, sent in zip(window["due_ms"], window["sent_ms"])]
    return lat, lag


def backlog_grew(lag, limit_ms=LATENCY_LIMIT_MS):
    """The generator fell behind its schedule during the window: mean lag of
    the last tenth exceeds that of the first tenth by more than the limit."""
    k = max(1, len(lag) // 10)
    return statistics.fmean(lag[-k:]) - statistics.fmean(lag[:k]) > limit_ms


def window_meets_limit(window, limit_ms=LATENCY_LIMIT_MS):
    lat, lag = open_loop_latencies(window)
    tail = tail_percentile(lat, LIMIT_PERCENTILE)
    return (tail is not None and tail[0] == LIMIT_PERCENTILE and tail[1] <= limit_ms
            and not backlog_grew(lag, limit_ms))


def max_qps(windows, limit_ms=LATENCY_LIMIT_MS):
    """Highest ladder rate meeting p90 <= limit with no growing backlog."""
    rates = [w["rate"] for w in windows
             if w["phase"] == "ladder" and window_meets_limit(w, limit_ms)]
    return max(rates, default=0.0)


# ---- spans ------------------------------------------------------------------

class Span:
    __slots__ = ("name", "cat", "ts", "dur", "pid", "tid", "arg")

    def __init__(self, name, cat, ts, dur, pid=0, tid=0, arg=None):
        self.name, self.cat, self.ts, self.dur = name, cat, ts, dur
        self.pid, self.tid, self.arg = pid, tid, arg

    @property
    def end(self):
        return self.ts + self.dur


def load_trace(path):
    """The complete ('X') events of an obs Chrome trace, times in µs."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    out = []
    for e in events:
        if e.get("ph") != "X":
            continue
        args = e.get("args") or {}
        arg = next(iter(args.values())) if args else None
        out.append(Span(e["name"], e.get("cat", ""), float(e["ts"]),
                        float(e["dur"]), e.get("pid", 0), e.get("tid", 0), arg))
    return out


def merge_bench_spans(events, bench_spans, anchor_t0, anchor_t1):
    """Places the benchmark's own spans ([name, t0_ns, t1_ns] on the steady
    clock) on the trace's time base and lane. The 'bench.anchor' event was
    emitted between anchor_t0 and anchor_t1, which fixes the trace epoch."""
    anchor = next(e for e in events if e.name == "bench.anchor")
    epoch_ns = (anchor_t0 + anchor_t1) / 2.0 - anchor.ts * 1e3
    merged = [e for e in events if e.name != "bench.anchor"]
    for name, t0, t1 in bench_spans:
        merged.append(Span(name, "bench", (t0 - epoch_ns) / 1e3,
                           (t1 - t0) / 1e3, anchor.pid, anchor.tid))
    return merged


def self_times(events):
    """Self time (µs) of each event: its duration minus the part of it that
    its direct children on the same thread cover. Returns {id(event): µs}."""
    lanes = {}
    for e in events:
        lanes.setdefault((e.pid, e.tid), []).append(e)
    out = {}
    for lane in lanes.values():
        lane.sort(key=lambda e: (e.ts, -e.dur))
        stack = []
        for e in lane:
            while stack and stack[-1].end <= e.ts:
                stack.pop()
            out[id(e)] = e.dur
            if stack:
                parent = stack[-1]
                out[id(parent)] -= min(e.end, parent.end) - e.ts
            stack.append(e)
    return out


def union_length(intervals, lo, hi):
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


# ---- reduction of a raw record ----------------------------------------------

def end_to_end(raw):
    """The end-to-end metrics of an untraced record, plus notes: the rank and
    sample count of each percentile, and the figures measured but not gated
    (p90 at the hi rate and serve_max_qps swing by up to 0.6 and 0.36 of
    their medians across runs on a shared 4-core VM, past any allowed
    bound)."""
    reps = raw["reps"]
    run_s = [r["train_s"] + r["eval_s"] for r in reps]
    per_client = raw["local_iters"] * raw["batch_size"]
    setups = [r["setup_s"] for r in reps] + raw["extra_setup_s"]
    windows = raw["serve"]["windows"]
    by_phase = {w["phase"]: w for w in windows if w["phase"] in ("lo", "hi")}
    m, notes = {}, {}
    m["setup_s"] = median(setups) + median(raw["serve"]["setup_s"])
    m["run_s"] = median(run_s)
    m["train_samples_per_s"] = median(
        [r["clients"] * per_client / r["train_s"] for r in reps])
    m["eval_samples_per_s"] = median(
        [raw["eval_max_samples"] / r["eval_s"] for r in reps])
    m["peak_rss_mb"] = raw["rss_peak_mb"]
    for phase, suffix in (("lo", ""), ("hi", "_hi")):
        w = by_phase[phase]
        lat, _ = open_loop_latencies(w)
        tail, p99 = tail_percentile(lat, LIMIT_PERCENTILE), tail_percentile(lat, 99.0)
        m["serve_p50_ms" + suffix] = nearest_rank(sorted(lat), 50.0)
        m["serve_p90_ms" + suffix] = tail[1] if tail else math.inf
        notes["serve_p90_ms" + suffix] = (
            f"p{tail[0]:g} of {tail[2]} requests at {w['rate']:g}/s; "
            f"p{p99[0]:g} {p99[1]:.3f} ms" if tail else "too few requests")
    notes["serve_p90_ms_hi"] = f"{m.pop('serve_p90_ms_hi'):.4g} ms, " + notes["serve_p90_ms_hi"]
    if any(w["phase"] == "ladder" for w in windows):
        notes["serve_max_qps"] = (f"{max_qps(windows):g} req/s: highest ladder rate with "
                                  f"p90 <= {LATENCY_LIMIT_MS:g} ms and no growing backlog")
    return m, notes


def operations(raw):
    """(attempted, failed): repetitions plus served requests."""
    attempted = len(raw["rep_ok"])
    failed = raw["rep_ok"].count(0)
    for w in raw["serve"]["windows"]:
        attempted += len(w["ok"])
        failed += w["ok"].count(0)
    return attempted, failed


def _delta(after, before, key):
    return after.get(key, 0) - before.get(key, 0)


def per_layer(raw, atom_count):
    """The per-layer metrics of a traced record and its Chrome trace."""
    tr = raw["trace"]
    events = merge_bench_spans(load_trace(tr["path"]), raw["spans"],
                               tr["anchor_t0"], tr["anchor_t1"])
    events = [e for e in events if e.pid == 0]  # loopback workers run in-process
    bench = sorted((e for e in events if e.cat == "bench"), key=lambda e: e.ts)

    def first(name, after):
        return next(e for e in bench if e.name == name and e.ts >= after)

    # The traced repetition is the first whose training ends after the trace
    # epoch (ts 0). Loopback workers share this process's tracer, and each
    # restarts the epoch when it finishes its own set-up, a few ms after the
    # root began training: the root's first round then starts before ts 0
    # and is not in the trace, so the window is clipped to the epoch.
    train = next(e for e in bench if e.name == "bench.train" and e.end > 0)
    setup = [e for e in bench if e.name == "bench.setup" and e.ts <= train.ts][-1]
    evaluate = first("bench.evaluate", train.ts)
    serve_load = first("bench.serve_load", evaluate.ts)
    run_lo, run_hi = max(train.ts, 0.0), evaluate.end
    lib = [e for e in events if e.cat != "bench"]

    def within(lo, hi, names):
        return [e for e in lib if lo <= e.ts < hi and e.name in names]

    def total_s(spans):
        return sum(e.dur for e in spans) / 1e6

    def mean_ms(spans):
        return statistics.fmean(e.dur for e in spans) / 1e3 if spans else 0.0

    rep = raw["reps"][1]  # untraced, traced, untraced
    threads = raw["threads"]
    m = {}
    # fed: engine spans of the traced repetition.
    rounds = within(run_lo, train.end, ("round",))
    clients = within(run_lo, run_hi, ("client",))
    waves = within(run_lo, run_hi, ("wave",))
    m["fed.round_s"] = median([e.dur for e in rounds]) / 1e6 if rounds else 0.0
    m["fed.client_s"] = total_s(clients)
    wave_s = total_s(waves)
    m["fed.wave_idle_frac"] = 1 - total_s(clients) / (threads * wave_s) if wave_s else 0.0
    m["fed.aggregate_s"] = total_s(within(run_lo, run_hi, ("aggregate",)))
    m["fed.clients"] = _delta(tr["counters_after"], tr["counters_before"],
                              "engine.clients_trained")
    # fedprophet: what train() does between rounds (validation, dz probe).
    main_rounds = [e for e in rounds if (e.pid, e.tid) == (train.pid, train.tid)]
    m["fedprophet.between_rounds_s"] = (train.end - run_lo
                                        - sum(e.dur for e in main_rounds)) / 1e6
    m["fedprophet.validations"] = rep["validations"]
    # cascade + attack probes and the final evaluation's spans.
    probes = tr["probes"]
    m["cascade.prefix_eval_ms"] = (statistics.fmean(probes["prefix_ms"])
                                   if probes["prefix_ms"] else 0.0)
    not_kernel = [e for e in events if e.cat != "kernel"]
    own = self_times(not_kernel)
    evals = [e for e in not_kernel if e.cat == "eval"
             and evaluate.ts <= e.ts < evaluate.end]
    for name, key in (("evaluate_clean", "attack.eval_clean_s"),
                      ("evaluate_pgd", "attack.eval_pgd_s"),
                      ("evaluate_robustness", "attack.eval_robust_s")):
        m[key] = sum(own[id(e)] for e in evals if e.name == name) / 1e6
    m["attack.pgd_step_ms"] = median(probes["pgd"]["call_ms"]) / probes["pgd"]["steps"]
    for key, acc in (("attack.clean_acc", "clean_acc"), ("attack.pgd_acc", "pgd_acc"),
                     ("attack.aa_acc", "aa_acc")):
        m[key] = 100.0 * rep[acc]
    # nn: per-atom probes against the modelled MACs.
    atoms = probes["atoms"]
    if len(atoms) != atom_count:
        raise ValueError(f"model has {len(atoms)} atoms, benchmark lists {atom_count}")
    for i, a in enumerate(atoms):
        fwd = median(a["fwd_ms"])
        m[f"nn.atom{i}.fwd_ms"] = fwd
        m[f"nn.atom{i}.bwd_ms"] = median(a["bwd_ms"])
        m[f"nn.atom{i}.gflops"] = 2 * a["macs_per_sample"] * a["batch"] / (fwd * 1e6)
        m[f"nn.atom{i}.infer_ms"] = median(a["infer_ms"])
    measured = [e for e in events if (min(setup.ts, run_lo) <= e.ts < run_hi)
                or (serve_load.ts <= e.ts < serve_load.end)]
    conv = [e for e in measured if e.name in ("conv2d_fwd", "conv2d_bwd")]
    conv_own = self_times(conv + [e for e in measured if e.name == "gemm"])
    conv_s = sum(e.dur for e in conv)
    m["nn.conv_nongemm_frac"] = (sum(conv_own[id(e)] for e in conv) / conv_s
                                 if conv_s else 0.0)
    # tensor kernels over the workload and its traced serving.
    gemm = [e for e in measured if e.name == "gemm"]
    m["tensor.gemm_s"] = total_s(gemm)
    m["tensor.gemm_gflops"] = (2 * sum(e.arg or 0 for e in gemm) / (total_s(gemm) * 1e9)
                               if gemm else 0.0)
    m["tensor.qgemm_s"] = total_s([e for e in measured if e.name == "qgemm_nt"])
    m["tensor.winograd_s"] = total_s([e for e in measured if e.name == "winograd_conv"])
    # comm / net: the traced repetition.
    run_spans = [e for e in measured if e.ts < run_hi]
    m["comm.encode_s"] = total_s([e for e in run_spans if e.name in ("encode_up", "encode_down")])
    m["comm.decode_s"] = total_s([e for e in run_spans if e.name == "decode"])
    m["comm.up_mb"] = rep["bytes_up"] / 1e6
    m["comm.down_mb"] = rep["bytes_down"] / 1e6
    m["net.measured_comm_s"] = rep["measured_comm_s"]
    m["net.tx_mb"] = rep["net_tx_bytes"] / 1e6
    m["net.rx_mb"] = rep["net_rx_bytes"] / 1e6
    m["net.worker_busy_s"] = total_s([e for e in run_spans if e.name == "serve_group"])
    # mem
    m["mem.plan_s"] = total_s([e for e in run_spans if e.name == "plan_module_memory"])
    m["mem.client_peak_mb"] = rep["peak_mem_bytes"] / 1e6
    m["mem.arena_peak_mb"] = tr["counters_after"].get("mem.arena_peak_bytes", 0) / 1e6
    # serve: the traced open-loop windows.
    sv = raw["serve"]
    windows = [w for w in sv["windows"] if w["phase"] in ("lo", "hi")]
    batches = _delta(sv["counters_after"], sv["counters_before"], "serve.batches")
    samples = _delta(sv["counters_after"], sv["counters_before"], "serve.samples")
    m["serve.batch_mean"] = samples / batches if batches else 0.0
    in_load = [e for e in lib if serve_load.ts <= e.ts < serve_load.end]
    m["serve.forward_ms"] = mean_ms([e for e in in_load if e.name == "serve.batch"])
    m["serve.request_ms"] = mean_ms([e for e in in_load if e.name == "serve.request"])
    client_ms = [d - s for w in windows for s, d in zip(w["sent_ms"], w["done_ms"])]
    m["serve.wire_ms"] = (statistics.fmean(client_ms) - m["serve.request_ms"]
                          if client_ms else 0.0)
    lags = [lg for w in windows for lg in open_loop_latencies(w)[1]]
    m["serve.gen_lag_ms"] = statistics.fmean(lags) if lags else 0.0
    # obs: the share of the traced train+evaluate wall on the engine thread
    # that some named (non-kernel) span covers, and the cost of tracing.
    engine = [(e.ts, e.end) for e in lib if e.cat != "kernel"
              and (e.pid, e.tid) == (train.pid, train.tid)]
    m["obs.attributed_frac"] = union_length(engine, run_lo, run_hi) / (run_hi - run_lo)
    m["obs.trace_overhead_frac"] = tr["traced_run_s"] / median(tr["untraced_run_s"]) - 1
    return m
