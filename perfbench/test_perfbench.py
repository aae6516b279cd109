#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py [accounting|sensitivity]

accounting  -- one traced run per workload: every call answered correctly,
               attempts == calls + retries at the outermost bearer, and the
               per-layer self times add up to the traced end-to-end time
               within the stated tolerance.  Also prints which thread class
               holds cpu_us_per_call on rpc_glue_tcp.
sensitivity -- a busy delay of about 20% of ping_shm's p50_us, injected only
               in the benchmark's servant wrapper, must (a) be flagged in the
               servant.dispatch row and in no other row of the traced run,
               and (b) move ping_shm's untraced p50_us past its bound in
               BENCHMARK.json.  The same comparison with the delay off must
               flag nothing.

Run from the repository root; builds the benchmark first (perfbench/run.py).
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = run.WORKLOADS
SELF_ROWS = ["orb.self_p50_ns", "wire.encode.self_p50_ns",
             "wire.decode.self_p50_ns", "proto.shm.self_p50_ns",
             "transport.self_p50_ns", "server.dispatch.self_p50_ns",
             "servant.dispatch.self_p50_ns"]


def bench(binary, workload, seed, seconds, trace, ab_delay_ns=0):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if ab_delay_ns:
        cmd += ["--ab-servant-delay-ns", str(ab_delay_ns)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, cwd=ROOT)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def check(cond, message, failures):
    print(("  ok    " if cond else "  FAIL  ") + message)
    if not cond:
        failures.append(message)


def accounting(binary):
    failures = []
    for w in WORKLOADS:
        r = bench(binary, w, 7, 6, 1)
        acc = r["detail"]["accounting"]
        print("%s: accounted %.1f%% (tolerance +-%g%%), layer shares %s"
              % (w, acc["accounted_pct"], acc["tolerance_pct"],
                 {k: round(v, 1) for k, v in acc["layer_share_pct"].items() if v}))
        print("  layers with no work: %s" % r["detail"]["layers_without_work"])
        check(r["correct"] and r["failed"] == 0,
              "%s: every reply verified, no failed call" % w, failures)
        check(r["detail"]["attempts_check"]["pass"],
              "%s: attempts == calls + retries %s" % (w, r["detail"]["attempts_check"]),
              failures)
        check(acc["pass"], "%s: self times account for the traced end-to-end time" % w,
              failures)
        if w == "ping_shm":
            idle = set(r["detail"]["layers_without_work"])
            check({"cap.process", "cap.unprocess"} <= idle,
                  "ping_shm: capability layers show no work", failures)
        if w == "rpc_glue_tcp":
            m = r["metrics"]
            print("  cpu_us_per_call is held by: %s" % r["detail"]["cpu_holder"])
            print("  per call: client %.1f us, handle_frame %.1f us, listener loop %.1f us,"
                  " other threads %.1f us" % (
                      m["cpu.client_us_per_call"]["value"],
                      m["cpu.handle_frame_us_per_call"]["value"],
                      m["cpu.listener_loop_us_per_call"]["value"],
                      m["cpu.other_threads_us_per_call"]["value"]))
            print("  listener 256 KiB zero-fill, replayed: %.1f us per recv"
                  % r["detail"]["listener_zero_fill_replay_us"])
    return failures


def flagged_rows(base, other, delay_ns, sign=1):
    """Rows whose self p50 rose (sign=-1: fell) by more than half the
    injected delay and by more than a fifth of the row's own size.  A
    slowdown is flagged where a row rose."""
    return sorted(k for k in SELF_ROWS
                  if sign * (other[k] - base[k]) > 0.5 * delay_ns
                  and sign * (other[k] - base[k]) > 0.2 * abs(base[k]))


def sensitivity(binary):
    failures = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bound = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}["p50_us"]
    # The fastest of three short runs: a run that lands in a slow window of
    # the shared machine would size the delay too large.
    base_p50 = min(bench(binary, "ping_shm", s, 3, 0)["metrics"]["p50_us"]["value"]
                   for s in (1, 2, 3))
    delay_ns = int(round(0.2 * base_p50 * 1000))
    print("ping_shm p50_us %.4f -> servant delay %d ns" % (base_p50, delay_ns))

    # A/B runs: the delay is on in every other round of one run, so drift
    # of the shared machine hits both arms alike; each arm is reported by
    # the benchmark's own statistic.  A run whose undelayed arm is so slow
    # that the delay is not 15-25% of its p50_us fell in a slow window of
    # the machine; it is printed and the seed is run again, up to three
    # times.
    moves = []
    for seed in (1, 2):
        for attempt in (1, 2, 3):
            r = bench(binary, "ping_shm", seed, 10, 0, ab_delay_ns=delay_ns)
            off = r["metrics"]["p50_us"]["value"]
            on = r["detail"]["ab_delayed_metrics"]["p50_us"]["value"]
            share = delay_ns / (off * 1000)
            print("untraced p50_us: off arm %.4f, on arm %.4f (%+.1f%%), delay %.0f%% of off"
                  % (off, on, 100 * (on / off - 1), 100 * share))
            if 0.15 <= share <= 0.25:
                break
        check(0.15 <= share <= 0.25, "delay is about 20%% of p50_us (%.0f%%)" % (100 * share),
              failures)
        moves.append(on / off - 1)
    moved = statistics.median(moves)
    print("median move %+.1f%% (bound %.0f%%)" % (100 * moved, 100 * bound))
    check(moved > bound, "delay moves ping_shm p50_us past its bound", failures)

    # Traced A/B run: the delay is on in every other traced round.  The
    # delay-free traced rounds, split into two interleaved halves, give the
    # pair the "nothing flagged" check compares.  40 s gives each half ten
    # traced rounds, so a slow window of the machine that covers a few
    # rounds of one half does not decide its best quarter.
    r = bench(binary, "ping_shm", 3, 40, 1, ab_delay_ns=delay_ns)
    rows = lambda metrics: {k: metrics[k]["value"] for k in SELF_ROWS}
    off_rows = rows(r["metrics"])
    on_rows = rows(r["detail"]["ab_delayed_metrics"])
    off_a = rows(r["detail"]["ab_half_a_metrics"])
    off_b = rows(r["detail"]["ab_half_b_metrics"])
    print("traced self p50 ns: off / on / off, half a / off, half b")
    for k in SELF_ROWS:
        print("  %-30s %8.0f %8.0f %8.0f %8.0f" % (k, off_rows[k], on_rows[k], off_a[k], off_b[k]))
    with_delay = flagged_rows(off_rows, on_rows, delay_ns)
    fell = flagged_rows(off_rows, on_rows, delay_ns, sign=-1)
    if fell:
        print("  rows that read lower with the delay on (not flagged): %s" % fell)
    without = sorted(set(flagged_rows(off_a, off_b, delay_ns)) |
                     set(flagged_rows(off_b, off_a, delay_ns)))
    check(with_delay == ["servant.dispatch.self_p50_ns"],
          "delay flagged in servant.dispatch only (flagged: %s)" % with_delay, failures)
    check(without == [], "no delay, nothing flagged (flagged: %s)" % without, failures)
    return failures


def main():
    which = sys.argv[1:] or ["accounting", "sensitivity"]
    binary = run.build()
    failures = []
    for name in which:
        print("== %s" % name)
        failures += {"accounting": accounting, "sensitivity": sensitivity}[name](binary)
    print("== %s" % ("PASS" if not failures else "FAIL: %d check(s)" % len(failures)))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
