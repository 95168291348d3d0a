"""rfom2 benchmark: recycled f(A)b sequences, end to end and layer by layer.

    python3 perfbench/run.py --workload stieltjes-seq --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/. Each run starts single-threaded client processes
(client.py) with OPENBLAS/OMP/MKL_NUM_THREADS=1 in their environment,
so BLAS is pinned before numpy loads:

- --trace 0: several set-up-only clients give setup_s; one client then
  runs untraced CLI and solve passes for --seconds and yields the other
  end-to-end metrics.
- --trace 1: one client runs a traced CLI pass and traced/untraced
  solve passes; a second client, at the BLAS library's default thread
  count, runs one traced solve pass (reported, not gated).

Earlier stdout lines hold the environment and the details behind each
metric; the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only when every output check passed.
"""

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up-only clients per --trace 0 run, besides the measuring client
SETUP_RUNS = 2
# share of --seconds the --trace 1 run gives the BLAS-default client
DEFAULT_THREADS_SHARE = 0.25
# every client of a run must have ended by then, seconds after the start
RUN_LIMIT_S = 170.0
ENGINES = ("arnoldi", "arnoldi_q", "v1", "v2", "v3")

END_TO_END = {
    "setup_s": "s", "run_s": "s", "problem_ms_p50": "ms", "problem_ms_tail": "ms",
    "accuracy_digits": "digits", "ok_frac": "1", "peak_rss_mb": "MB",
}
# the traced solve-pass metrics also reported at the BLAS default thread count
BLAS_DEFAULT_LAYERS = ("problem_ms", "arnoldi.ms", "quadrature.rule_ms", "recycling.update_ms") \
    + tuple(f"engines.{e}.ms" for e in ENGINES)
# SpeedProbe milliseconds on an idle core of the 2-vCPU Xeon VM the
# benchmark was tuned on; the scale of every reported time
REF_MS = 7.2
# metrics derived from sizes or by subtraction rather than timed directly
COMPUTED = ("arnoldi.matvec_bytes", "arnoldi.orth_ms", "cli.self_ms")


class BenchError(Exception):
    """A client did not produce a result."""


def spawn(mode, args, workdir, seconds=0.0, pinned=True):
    """Run one client to completion.

    Returns its result and (set-up seconds, reference-kernel ms right after set-up).
    """
    env = dict(os.environ)
    for var in BLAS_VARS:
        if pinned:
            env[var] = "1"
        else:
            env.pop(var, None)
    cmd = [sys.executable, os.path.join(HERE, "client.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--workdir", workdir]
    if args.tiny:
        cmd.append("--tiny")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(args.deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} client timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{mode} client exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} client printed no result")
    result = json.loads(lines[-1])
    return result, (result["ready"] - spawned, result["setup_probe_ms"])


def tail(samples):
    """The highest percentile that still has at least ten samples above it.

    That is the 11th-largest sample, at percentile 100 * (1 - 10/N).
    With ten samples or fewer no such percentile exists and the maximum
    is reported at percentile 100.
    """
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[-11], 100.0 * (1.0 - 10.0 / len(s))


def metric(value, unit):
    return {"value": value, "unit": unit}


def cli_checks(passes):
    """Failures across CLI passes, including run-to-run determinism of the CSV."""
    failures = []
    done = [p for p in passes if p is not None]
    for p in done:
        failures += p["check_failures"]
    if any(p["fingerprint"] != done[0]["fingerprint"] for p in done[1:]):
        failures.append("CLI passes on the same inputs wrote different CSV rows")
    return failures


def solve_vs_cli(solve, cli_pass):
    """A solve pass must hit the same engine failures as the CLI pass."""
    got = sorted((r["problem"], name, f"error:{exc}")
                 for r in solve for name, exc in r["errors"].items())
    reached = {r["problem"] for r in solve}
    want = sorted(tuple(e) for e in cli_pass["error_rows"]
                  if e[1] != "oracle" and e[0] in reached)
    if got != want:
        return [f"solve pass engine errors {got} differ from the CLI pass's {want}"]
    return []


def at_ref_speed(t, ref):
    """Rescale an interval of length t whose bracketing probes averaged `ref` ms.

    The host this benchmark was tuned on changes speed by up to 2x within
    seconds. Every timed interval is bracketed by runs of a fixed
    reference kernel (client.SpeedProbe). The interval is measured in
    units of that kernel and given back in the time it takes at the
    speed where the kernel takes REF_MS.
    """
    return t * REF_MS / ref


def rescaled_ms(segments):
    """Total of (ms, ref) segments, each rescaled by at_ref_speed."""
    return sum(at_ref_speed(ms, ref) for ms, ref in segments)


def cli_seconds(p):
    return rescaled_ms(p["segments"]) / 1000.0


def end_to_end(args):
    setup = []
    for i in range(SETUP_RUNS):
        setup.append(spawn("setup", args, os.path.join(args.workdir, f"setup{i}"))[1])
    res, s = spawn("measure", args, os.path.join(args.workdir, "measure"), args.seconds)
    setup.append(s)

    failures = [a.splitlines()[0] for a in res["aborts"]]
    for a in res["aborts"]:
        print(a, file=sys.stderr)
    n = res["n_problems"]
    cli_passes = res["cli_passes"]
    failures += cli_checks(cli_passes)
    attempted = n * len(cli_passes) + sum(n if sp is None else len(sp)
                                          for sp in res["solve_passes"])
    failed_problems = n * sum(p is None for p in cli_passes)
    failed_problems += sum(p["bad_problems"] for p in cli_passes if p is not None)
    samples, raw = [], []
    first_cli = next((p for p in cli_passes if p is not None), None)
    for sp in res["solve_passes"]:
        if sp is None:
            failed_problems += n
            continue
        if first_cli is not None:
            failures += solve_vs_cli(sp, first_cli)
        for r in sp:
            samples.append(rescaled_ms(r["segments"]))
            raw.append(r["ms"])
            if r["check_failures"] or r["rule_error"]:
                failed_problems += 1
                failures += [f"solve problem {r['problem']}: {f}" for f in r["check_failures"]]
    done = [p for p in cli_passes if p is not None]
    if not done or not samples:
        raise BenchError("no CLI or solve pass completed")

    rel_max = max(p["rel_error_max"] for p in done)
    rows = sum(p["rows"] for p in done)
    tail_ms, tail_pct = tail(samples)
    values = {
        "setup_s": statistics.median(at_ref_speed(sec, ref) for sec, ref in setup),
        "run_s": statistics.median(cli_seconds(p) for p in done),
        "problem_ms_p50": statistics.median(samples),
        "problem_ms_tail": tail_ms,
        "accuracy_digits": -math.log10(max(rel_max, 1e-300)),
        "ok_frac": sum(p["ok_rows"] for p in done) / rows,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    details = {
        "setup_s_samples": [at_ref_speed(sec, ref) for sec, ref in setup],
        "setup_s_raw_samples": [sec for sec, _ in setup],
        "run_s_samples": [cli_seconds(p) for p in done],
        "run_s_raw_samples": [p["seconds"] for p in done],
        "problem_samples": len(samples),
        "problem_ms_p50_raw": statistics.median(raw),
        "probe_ms_min": min(res["probe_ms"]),
        "probe_ms_median": statistics.median(res["probe_ms"]),
        "probe_count": len(res["probe_ms"]),
        "problem_ms_tail_percentile": tail_pct,
        "rel_error_max": rel_max,
        "rel_error_max_by_engine": done[0]["rel_error_max_by_engine"],
        "tolerance": WORKLOADS[args.workload].tolerance,
        "failed_frac": 1.0 - values["ok_frac"],
        "error_rows": done[0]["error_rows"],
        "gap_v1_max": max((r["gap_v1"] for sp in res["solve_passes"] if sp
                           for r in sp if r["gap_v1"] is not None), default=None),
    }
    metrics = {k: metric(values[k], unit) for k, unit in END_TO_END.items()}
    return metrics, details, res["environment"], attempted, failed_problems, failures


def speed_factor(tr):
    """One rescaling for all layer totals of a traced run (see at_ref_speed)."""
    return REF_MS / statistics.median(tr["probe_ms"])


def per_layer_solve(tr, wl):
    """Per-problem layer metrics of the traced solve passes.

    Layer times are rescaled by the run's speed_factor; problem_ms is
    rescaled problem by problem, like the end-to-end figures.
    """
    recs = [r for sp in tr["traced"] if sp for r in sp]
    if not recs:
        raise BenchError("no traced solve pass completed")
    P = len(recs)
    f = speed_factor(tr)
    ms, n = tr["ms"], tr["n"]

    def per_problem_ms(key):
        return f * ms.get(key, 0.0) / P

    out = {
        "problems.sequence_ms": (per_problem_ms("problems.sequence"), "ms"),
        "arnoldi.ms": (per_problem_ms("arnoldi"), "ms"),
        "arnoldi.matvec_ms": (per_problem_ms("arnoldi.matvec"), "ms"),
        "arnoldi.orth_ms": (per_problem_ms("arnoldi") - per_problem_ms("arnoldi.matvec"), "ms"),
        "arnoldi.matvecs": (n.get("arnoldi.matvecs", 0) / P, "count"),
        "arnoldi.matvec_bytes": (n.get("arnoldi.matvec_bytes", 0) / P, "B"),
        "arnoldi.breakdowns": (sum(r["breakdown"] for r in recs) / P, "count"),
        "quadrature.rule_ms": (per_problem_ms("quadrature.rule"), "ms"),
        "quadrature.nodes": (sum(r["n_quad"] for r in recs) / P, "count"),
        "quadrature.errors": (sum(bool(r["rule_error"]) for r in recs) / P, "count"),
        "recycling.update_ms": (per_problem_ms("recycling.update"), "ms"),
        "recycling.update_matvecs": (n.get("recycling.update.matvecs", 0) / P, "count"),
        "recycling.k_eff": (sum(r["k_eff"] for r in recs) / P, "count"),
    }
    nodes = sum(r["n_quad"] for r in recs)
    for e in ENGINES:
        # arnoldi_direct evaluates f(H) densely and has no nodes
        ran = e in wl.engines and e != "arnoldi" and nodes
        out[f"engines.{e}.ms"] = (per_problem_ms(f"engines.{e}"), "ms")
        out[f"engines.{e}.us_per_node"] = (
            1000.0 * per_problem_ms(f"engines.{e}") * P / nodes if ran else 0.0, "us")
        out[f"engines.{e}.errors"] = (sum(e in r["errors"] for r in recs) / P, "count")
    out["engines.v2.gap_v1_max"] = (max((r["gap_v1"] for r in recs if r["gap_v1"] is not None),
                                        default=0.0), "1")
    out["problem_ms"] = (statistics.median(rescaled_ms(r["segments"]) for r in recs),
                         "ms")
    return out


def per_layer(args):
    wl = WORKLOADS[args.workload]
    default_s = DEFAULT_THREADS_SHARE * args.seconds
    tr, _ = spawn("trace", args, os.path.join(args.workdir, "trace"),
                  args.seconds - default_s)
    dflt, _ = spawn("trace-solve", args, os.path.join(args.workdir, "default"),
                    default_s, pinned=False)
    failures = [a.splitlines()[0] for a in tr["aborts"] + dflt["aborts"]]
    cli = tr.get("cli")
    if cli is None:
        raise BenchError("traced CLI pass aborted")
    failures += cli["check_failures"]
    for sp in tr["traced"] + tr["plain"] + dflt["traced"]:
        for r in sp or []:
            failures += [f"solve problem {r['problem']}: {f}" for f in r["check_failures"]]

    out = per_layer_solve(tr, wl)
    dflt_out = per_layer_solve(dflt, wl)
    out.update({f"blas_default.{k}": dflt_out[k] for k in BLAS_DEFAULT_LAYERS})
    cms, cn, f = cli["ms"], cli["n"], speed_factor(tr)
    out.update({
        "problems.oracle_ms": (f * cms.get("problems.oracle", 0.0), "ms"),
        "problems.oracle_calls": (cn.get("problems.oracle", 0), "count"),
        "problems.input_ms": (f * tr["input_ms"], "ms"),
        "recycling.angle_ms": (f * cms.get("recycling.angle", 0.0), "ms"),
        "cli.self_ms": (f * (1000.0 * cli["seconds"] - cli["layer_ms"]), "ms"),
        "cli.rows": (cli["rows"], "count"),
        "cli.error_rows": (len(cli["error_rows"]), "count"),
        "cli.run_ms": (f * 1000.0 * cli["seconds"], "ms"),
    })
    def pass_ms(passes):
        return [sum(rescaled_ms(r["segments"]) for r in sp) for sp in passes if sp]

    traced_ms, plain_ms = pass_ms(tr["traced"]), pass_ms(tr["plain"])
    overhead = 100.0 * (statistics.median(traced_ms) / statistics.median(plain_ms) - 1.0) \
        if traced_ms and plain_ms else 0.0
    out["trace.overhead_pct"] = (overhead, "%")
    metrics = {k: metric(v, u) for k, (v, u) in sorted(out.items())}
    attempted = sum(len(sp or []) for sp in tr["traced"] + tr["plain"] + dflt["traced"]) \
        + tr["n_problems"]
    details = {
        "units": "solve-pass layers are per problem; problems.oracle_*, recycling.angle_ms "
                 "and cli.* are per traced CLI pass; blas_default.* ran at the BLAS "
                 "library's default thread count and is not gated; times are rescaled "
                 "to the speed at which the reference kernel takes REF_MS",
        "ref_ms": REF_MS,
        "speed_factor": f,
        "blas_default_speed_factor": speed_factor(dflt),
        "computed": list(COMPUTED),
        "traced_solve_passes": len(traced_ms),
        "plain_solve_passes": len(plain_ms),
        "blas_default_problems": sum(len(sp or []) for sp in dflt["traced"]),
        "blas_default_environment": dflt["environment"],
    }
    return metrics, details, tr["environment"], attempted, len(failures), failures


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes; the numbers mean nothing")
    args = p.parse_args(argv)
    args.deadline = time.monotonic() + RUN_LIMIT_S
    # on termination, unwind so running clients are killed and awaited
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "rfom2", "__init__.py")):
        print(f"run.py: no rfom2 sources under {ROOT}/src", file=sys.stderr)
        return 2

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    args.workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        run = per_layer if args.trace else end_to_end
        metrics, details, env, attempted, failed, failures = run(args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)

    wl = WORKLOADS[args.workload]
    env.update(seed=args.seed, workload=args.workload, seconds=args.seconds,
               trace=args.trace)
    print(json.dumps({"environment": env}))
    print(json.dumps({"workload": {"why": wl.why, "notes": list(wl.notes),
                                   "config": wl.config}}))
    print(json.dumps({"details": details, "check_failures": failures}))
    correct = not failures and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
