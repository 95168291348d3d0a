"""Benchmark client: one process that runs one workload and reports raw samples.

The parent (run.py) starts this script with the BLAS thread count set in
its environment, so it is fixed before numpy is imported. The client
imports rfom2 from the checkout's `src/` only, builds the workload's
inputs, and then runs passes over the workload's problem sequence:

- a CLI pass calls `rfom2.cli.run_experiment`, the code path of
  `rfom2 run`, dense oracle included;
- a solve pass drives the same sequence through the package's public
  functions, without the oracle: gen_perturbation_sequence -> arnoldi ->
  quadrature rule -> each engine -> harmonic_ritz_update. Problem i+1
  starts only once problem i has produced its recycle subspace.

Traced passes time the same public functions from the outside, through
wrappers; nothing inside the package is instrumented. The last line of
stdout is one JSON object with the samples; run.py turns them into
metrics.

    python3 perfbench/client.py --mode measure --workload contour-nodes \
        --seed 1 --seconds 30 --workdir .perfbench_work/x
"""

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_package():
    """Import rfom2 from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "rfom2", "__init__.py")):
        raise SystemExit(f"rfom2 sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import rfom2

    if not os.path.abspath(rfom2.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported rfom2 from {rfom2.__file__}, not from {SRC}")
    return rfom2


sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
rfom2 = import_package()

import numpy as np  # noqa: E402  (after the BLAS environment is fixed)
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402
import scipy.sparse  # noqa: E402

from rfom2 import (  # noqa: E402
    LinearOperator,
    ProblemSequence,
    RecycleSubspace,
    RFOMError,
    arnoldi,
    arnoldi_direct,
    arnoldi_quad,
    as_operator,
    function_catalog,
    gen_graded_hermitian,
    gen_perturbation_sequence,
    guarded_contour,
    harmonic_ritz_update,
    load_matrix_market,
    rfom_v1,
    rfom_v2,
    rfom_v3,
    stieltjes_invsqrt,
    trapezoid_contour,
)
from rfom2 import cli  # noqa: E402

from workloads import WORKLOADS, experiment_config, write_matrix_input  # noqa: E402

# the engines behind `rfom2 run`'s names, called through the public API
# (rfom2.cli.ENGINES is the CLI's own table, which traced CLI passes wrap)
ENGINE_CALLS = {
    "arnoldi": lambda dec, rec, fun, rule: arnoldi_direct(dec, fun),
    "arnoldi_q": lambda dec, rec, fun, rule: arnoldi_quad(dec, fun, rule),
    "v1": rfom_v1,
    "v2": rfom_v2,
    "v3": rfom_v3,
}
# shortest stretch of solve-pass work between two speed probes
PROBE_EVERY_S = 0.2


# ---------------------------------------------------------------------------
# Tracing: wall time and counts per layer, collected around public calls

class Tracer:
    """Accumulates milliseconds and call counts under layer names.

    Mat-vecs made through a counting operator are also charged to every
    wrapped call that is running when they happen, as `<name>.matvec*`.
    """

    def __init__(self):
        self.ms = defaultdict(float)
        self.n = defaultdict(int)
        self.layers = set()

    def layer_ms(self):
        """Total time inside wrapped calls (they never nest)."""
        return sum(self.ms[name] for name in self.layers)

    def wrap(self, name, fn):
        self.layers.add(name)

        def traced(*args, **kwargs):
            mv, mv_ms, mv_b = self.n["matvec"], self.ms["matvec"], self.n["matvec_bytes"]
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ms[name] += 1000.0 * (perf_counter() - start)
                self.n[name] += 1
                self.n[name + ".matvecs"] += self.n["matvec"] - mv
                self.ms[name + ".matvec"] += self.ms["matvec"] - mv_ms
                self.n[name + ".matvec_bytes"] += self.n["matvec_bytes"] - mv_b
        return traced

    def wrap_iter(self, name, gen_fn):
        """Time each step of a generator, which is where its work happens."""
        self.layers.add(name)

        def traced(*args, **kwargs):
            it = gen_fn(*args, **kwargs)
            while True:
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.ms[name] += 1000.0 * (perf_counter() - start)
                self.n[name] += 1
                yield item
        return traced

    def counting_operator(self, A):
        """LinearOperator over A that counts and times every mat-vec.

        Bytes per mat-vec are computed, not measured: the stored matrix
        (values, indices, row pointers) plus one input and one output
        vector. Cache behaviour is ignored.
        """
        n = A.shape[0]
        stored = sum(getattr(A, part).nbytes for part in ("data", "indices", "indptr")) \
            if hasattr(A, "indptr") else np.asarray(A).nbytes
        per_apply = stored + 2 * n * np.dtype(np.complex128).itemsize

        def apply(v):
            start = perf_counter()
            out = A @ v
            self.ms["matvec"] += 1000.0 * (perf_counter() - start)
            self.n["matvec"] += 1
            self.n["matvec_bytes"] += per_apply
            return out
        return LinearOperator(n, apply)


# ---------------------------------------------------------------------------
# Machine speed

class SpeedProbe:
    """A fixed reference kernel, timed between units of measured work.

    On a shared host the speed of this process's core can change by 2x
    within seconds, because other tenants compete for the physical core
    and its caches. Timing the same reference work right before and
    right after each measured interval gives the speed that interval ran
    at; run.py rescales every interval to the speed at which the kernel
    takes REF_MS. The kernel mixes what the package spends its time on: small
    complex LU solves, a complex CSR mat-vec with dense content and a
    complex matrix product. It is built from a fixed seed and uses numpy
    and scipy only, so no change to rfom2 can change it.
    """

    def __init__(self):
        rng = np.random.default_rng(20221)
        self.M = rng.standard_normal((70, 70)) + 1j * rng.standard_normal((70, 70))
        self.S = scipy.sparse.csr_matrix(rng.standard_normal((900, 900)).astype(np.complex128))
        self.G = rng.standard_normal((120, 120)) + 1j * rng.standard_normal((120, 120))
        self.v = self.S @ np.ones(900, dtype=np.complex128)
        self.samples = []

    def __call__(self):
        """Run the kernel once; return and record its milliseconds."""
        start = perf_counter()
        for z in (1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5):
            lu = scipy.linalg.lu_factor(z * np.eye(70) - self.M, check_finite=False)
            scipy.linalg.lu_solve(lu, self.M[:, 0], check_finite=False)
        for _ in range(2):
            self.S @ self.v
        self.G @ self.G
        ms = 1000.0 * (perf_counter() - start)
        self.samples.append(ms)
        return ms


class Stopwatch:
    """Times work in segments, with a speed probe between segments.

    Without a probe it is a plain timer. With one, `lap` closes the
    current segment once it is PROBE_EVERY_S long (or always, with
    force), runs the probe and opens the next segment. Each segment is
    kept as (ms, mean of the two probe times around it); probe time is
    never inside a segment.
    """

    def __init__(self, probe=None):
        self.probe = probe
        self.ref = probe() if probe else None
        self.restart()

    def restart(self):
        self.segments = []
        self.start = perf_counter()

    def lap(self, force=False):
        now = perf_counter()
        if self.probe is None or (not force and now - self.start < PROBE_EVERY_S):
            return
        ref = self.probe()
        self.segments.append((1000.0 * (now - self.start), (self.ref + ref) / 2.0))
        self.ref, self.start = ref, perf_counter()

    def stop(self):
        """Close the last segment; return (milliseconds, segments)."""
        if self.probe is None:
            return 1000.0 * (perf_counter() - self.start), []
        self.lap(force=True)
        return sum(ms for ms, _ in self.segments), self.segments


# ---------------------------------------------------------------------------
# Inputs

class Inputs:
    """Everything a pass needs, built once in set-up."""

    def __init__(self, wl, seed, workdir, tiny):
        start = perf_counter()
        self.wl = wl
        self.cfg_kw = experiment_config(wl, seed, workdir, tiny)
        self.cfg = cli.ExperimentConfig(**self.cfg_kw)
        cfg = self.cfg
        if wl.matrix is not None:
            write_matrix_input(wl, seed, cfg.matrix_file, tiny)
            self.base = load_matrix_market(cfg.matrix_file)
            self.hermitian = (self.base != self.base.conj().T).nnz == 0
        else:
            self.base = gen_graded_hermitian(
                cfg.n, cfg.small_count, (cfg.small_min, cfg.small_max),
                (cfg.bulk_min, cfg.bulk_max), seed=cfg.seed)
            self.hermitian = True
        self.input_ms = 1000.0 * (perf_counter() - start)


# ---------------------------------------------------------------------------
# Passes

def plain_api():
    """The package's public functions, called directly (tracing off)."""
    return dict(sequence=gen_perturbation_sequence, operator=as_operator,
                arnoldi=arnoldi, rule=build_rule, engines=dict(ENGINE_CALLS),
                update=harmonic_ritz_update)


def traced_api(tracer):
    """The same functions behind timing wrappers, with a counting operator."""
    api = plain_api()
    return dict(
        sequence=tracer.wrap_iter("problems.sequence", api["sequence"]),
        operator=tracer.counting_operator,
        arnoldi=tracer.wrap("arnoldi", api["arnoldi"]),
        rule=tracer.wrap("quadrature.rule", api["rule"]),
        engines={name: tracer.wrap(f"engines.{name}", fn)
                 for name, fn in api["engines"].items()},
        update=tracer.wrap("recycling.update", api["update"]),
    )


def build_rule(cfg, dec, fun):
    """The quadrature rule `rfom2 run` builds for one problem."""
    if cfg.quad_kind == "stieltjes":
        return stieltjes_invsqrt(cfg.n_quad)
    contour = guarded_contour(np.linalg.eigvals(dec.H), cfg.contour_margin,
                              singularity=fun.singularity)
    return trapezoid_contour(contour, cfg.n_quad)


def solve_pass(inp, api, stop_at=None, probe=None):
    """Drive one sequence through the public API; return per-problem records.

    With stop_at (a perf_counter time) the pass ends after the first
    problem that finishes past it. With a SpeedProbe, each problem is
    timed in segments of at least PROBE_EVERY_S between stages (see
    Stopwatch), kept in the record's `segments`. Output checks and
    probes run outside the timed region.
    """
    cfg, wl = inp.cfg, inp.wl
    fun = function_catalog(cfg.function)
    seq = ProblemSequence(base=inp.base, length=cfg.n_problems, eps=cfg.eps,
                          rhs_policy=cfg.rhs_policy, seed=cfg.seed,
                          hermitian=cfg.hermitian or inp.hermitian)
    rec = RecycleSubspace.empty(inp.base.shape[0])
    problems = api["sequence"](seq)
    records = []
    watch = Stopwatch(probe)
    for i in range(1, cfg.n_problems + 1):
        watch.restart()
        A, b = next(problems)
        op = api["operator"](A)
        dec = api["arnoldi"](op, b, cfg.j, reorth=True)
        watch.lap()
        outputs, errors, rule_error = {}, {}, None
        try:
            rule = api["rule"](cfg, dec, fun)
        except (ValueError, RFOMError) as exc:
            rule, rule_error = None, type(exc).__name__
        if rule is not None:
            for name in wl.engines:
                try:
                    outputs[name] = api["engines"][name](dec, rec, fun, rule)
                except RFOMError as exc:
                    errors[name] = type(exc).__name__
                watch.lap()
        if cfg.k > 0:
            rec = api["update"](dec, rec, op, cfg.k)
        ms, segments = watch.stop()
        records.append(dict(problem=i, ms=ms, segments=segments, errors=errors,
                            rule_error=rule_error,
                            breakdown=bool(dec.breakdown), k_eff=rec.k,
                            n_quad=rule.n_quad if rule is not None else 0,
                            **check_solve_outputs(wl, outputs)))
        if stop_at is not None and perf_counter() > stop_at:
            break
    return records


def check_solve_outputs(wl, outputs):
    """Checks on one solve-pass problem, which has no oracle.

    Every engine result must be finite and agree with the first engine's
    within twice the workload's oracle tolerance (both are within it of
    the same f(A)b). Where v1 and v2 both ran, v2's gap to v1 is recorded
    and held to the workload's bound.
    """
    problems = []
    names = [e for e in wl.engines if e in outputs]
    for name in names:
        if not np.all(np.isfinite(outputs[name])):
            problems.append(f"{name}: non-finite result")
    if names and not problems:
        ref = outputs[names[0]]
        refnorm = float(np.linalg.norm(ref))
        for name in names[1:]:
            gap = float(np.linalg.norm(outputs[name] - ref)) / refnorm if refnorm else math.inf
            if not gap <= 2.0 * wl.tolerance:
                problems.append(f"{name} differs from {names[0]} by {gap:.3g}")
    gap_v1 = None
    if "v1" in outputs and "v2" in outputs:
        x1 = outputs["v1"]
        gap_v1 = float(np.linalg.norm(outputs["v2"] - x1) / np.linalg.norm(x1))
        if wl.gap_v1_bound is not None and not gap_v1 <= wl.gap_v1_bound:
            problems.append(f"v2 gap to v1 {gap_v1:.3g} above {wl.gap_v1_bound:g}")
    return dict(check_failures=problems, gap_v1=gap_v1)


def cli_pass(inp, probe=None):
    """One `rfom2 run` experiment, timed; returns (seconds, rows, segments).

    With a SpeedProbe, the call is timed in segments (see Stopwatch),
    closed each time run_experiment asks its problem sequence for the
    next problem, around engine calls once PROBE_EVERY_S has passed, and
    once at the end; probe time is excluded.
    """
    cfg = cli.ExperimentConfig(**inp.cfg_kw)
    watch = Stopwatch(probe)
    sequence, engines = cli.gen_perturbation_sequence, dict(cli.ENGINES)

    def paced(seq):
        for item in sequence(seq):
            watch.lap(force=True)
            yield item
        watch.lap(force=True)

    def paced_engine(fn):
        # probes run inside the CLI's own per-engine timer, so the
        # report's wall_ms include them; the benchmark does not use it
        def call(*args):
            watch.lap()
            try:
                return fn(*args)
            finally:
                watch.lap()
        return call

    if probe is not None:
        cli.gen_perturbation_sequence = paced
        cli.ENGINES.update({name: paced_engine(fn) for name, fn in engines.items()})
    watch.restart()
    try:
        report = cli.run_experiment(cfg)
    finally:
        cli.gen_perturbation_sequence = sequence
        cli.ENGINES.update(engines)
    ms, segments = watch.stop()
    return ms / 1000.0, report.rows, segments


def summarize_cli_rows(wl, cfg, rows):
    """Output checks and accuracy figures of one CLI pass."""
    failures, bad = [], set()
    ok = [r for r in rows if r["status"] == "ok"]
    errors = sorted((r["problem_index"], r["engine"], r["status"])
                    for r in rows if r["status"] != "ok")
    seen = {(r["problem_index"], r["engine"]) for r in rows}
    for i in range(1, cfg.n_problems + 1):
        for name in wl.engines:
            if (i, name) not in seen:
                bad.add(i)
                failures.append(f"problem {i}: no row for {name}")
    rel_max = 0.0
    per_engine = {}
    for r in ok:
        rel = r["rel_error"]
        if not isinstance(rel, float) or not math.isfinite(rel) or rel > wl.tolerance:
            bad.add(r["problem_index"])
            failures.append(f"problem {r['problem_index']} {r['engine']}: "
                            f"rel_error {rel!r} (tolerance {wl.tolerance:g})")
            continue
        rel_max = max(rel_max, rel)
        per_engine[r["engine"]] = max(per_engine.get(r["engine"], 0.0), rel)
    # the CSV is deterministic except for wall_ms: keep a fingerprint
    fingerprint = [[r[c] for c in cli.CSV_COLUMNS if c != "wall_ms"] for r in rows]
    return dict(rows=len(rows), ok_rows=len(ok), error_rows=[list(e) for e in errors],
                rel_error_max=rel_max, rel_error_max_by_engine=per_engine,
                check_failures=failures, bad_problems=len(bad), fingerprint=fingerprint)


@contextlib.contextmanager
def traced_cli(tracer):
    """Time the public functions `rfom2.cli` calls, from the outside.

    The module-level names run_experiment looks up are swapped for timing
    wrappers and restored afterwards. The Hermitian oracle is an
    eigendecomposition cached per operator inside the CLI; it is timed
    through that cache's lookup, counting one call per new operator.
    """
    saved = []

    def swap(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    layers = {
        "gen_laplacian_2d": "problems.input", "gen_convection_diffusion_2d": "problems.input",
        "gen_graded_hermitian": "problems.input", "load_matrix_market": "problems.input",
        "arnoldi": "arnoldi", "guarded_contour": "quadrature.rule",
        "trapezoid_contour": "quadrature.rule", "stieltjes_invsqrt": "quadrature.rule",
        "harmonic_ritz_update": "recycling.update", "subspace_angle": "recycling.angle",
        "oracle_funm": "problems.oracle",
    }
    for attr, layer in layers.items():
        if hasattr(cli, attr):
            swap(cli, attr, tracer.wrap(layer, getattr(cli, attr)))
    swap(cli, "gen_perturbation_sequence",
         tracer.wrap_iter("problems.sequence", cli.gen_perturbation_sequence))
    engines = dict(cli.ENGINES)
    for name, fn in engines.items():
        cli.ENGINES[name] = tracer.wrap(f"engines.{name}", fn)
    cache = getattr(cli, "_OracleCache", None)
    if cache is not None and hasattr(cache, "eig_for"):
        eig_for, last = cache.eig_for, []

        def timed_eig_for(self, A):
            start = perf_counter()
            try:
                return eig_for(self, A)
            finally:
                tracer.ms["problems.oracle"] += 1000.0 * (perf_counter() - start)
                if not last or last[0] is not A:
                    tracer.n["problems.oracle"] += 1
                    last[:] = [A]
        swap(cache, "eig_for", timed_eig_for)
        tracer.layers.add("problems.oracle")
    try:
        yield
    finally:
        cli.ENGINES.update(engines)
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# Modes

def warm_up(wl, seed, workdir):
    """One tiny experiment, so lazy imports and first-call costs land in set-up."""
    tiny_dir = os.path.join(workdir, "warmup")
    os.makedirs(tiny_dir, exist_ok=True)
    kw = experiment_config(wl, seed, tiny_dir, tiny=True)
    kw.update(n_quad=min(kw["n_quad"], 32), n_problems=2)
    if wl.matrix is not None:
        write_matrix_input(wl, seed, kw["matrix_file"], tiny=True)
    cli.run_experiment(cli.ExperimentConfig(**kw))


def run_guarded(kind, fn, failures):
    """Run one pass at the boundary that must keep going; record aborts."""
    try:
        return fn()
    except Exception:  # noqa: BLE001 - an aborted pass is a reported failure
        failures.append(f"{kind} pass aborted:\n{traceback.format_exc()}")
        return None


def measure(inp, seconds, probe):
    """Untraced CLI and solve passes over a fixed schedule.

    The budget is cut into the workload's `cli_passes` equal segments.
    Each segment runs one CLI pass, then solve passes until the segment
    ends; the last solve pass stops after the problem that crosses the
    segment's end.
    The fixed pass count keeps the mix of cold and warm CLI passes the
    same in every run, and spreading both kinds over the whole budget
    exposes them to the same drift in machine speed.
    """
    start = perf_counter()
    cli_passes, solve_passes, aborts = [], [], []
    n_seg = inp.wl.cli_passes
    for seg in range(1, n_seg + 1):
        out = run_guarded("cli", lambda: cli_pass(inp, probe), aborts)
        cli_passes.append(None if out is None else dict(
            seconds=out[0], segments=out[2], **summarize_cli_rows(inp.wl, inp.cfg, out[1])))
        seg_end = start + seconds * seg / n_seg
        while True:
            records = run_guarded("solve", lambda: solve_pass(inp, plain_api(), seg_end, probe),
                                  aborts)
            solve_passes.append(records)
            if records is None or perf_counter() >= seg_end:
                break
    return dict(cli_passes=cli_passes, solve_passes=solve_passes, aborts=aborts,
                probe_ms=probe.samples)


def trace(inp, seconds, probe, with_cli=True):
    """Traced passes for the per-layer metrics.

    One traced CLI pass (when with_cli), then untraced and traced solve
    passes in turn until the budget is spent; the pair gives the
    tracing overhead. Without the CLI pass (the BLAS-default child) a
    single traced solve pass runs, cut after the problem that crosses
    the budget.
    """
    aborts = []
    out = dict(aborts=aborts)
    deadline = perf_counter() + seconds
    if with_cli:
        cli_tracer = Tracer()
        with traced_cli(cli_tracer):
            res = run_guarded("cli", lambda: cli_pass(inp, probe), aborts)
        if res is not None:
            out["cli"] = dict(seconds=res[0], segments=res[2], ms=dict(cli_tracer.ms),
                              n=dict(cli_tracer.n), layer_ms=cli_tracer.layer_ms(),
                              **summarize_cli_rows(inp.wl, inp.cfg, res[1]))
    tracer = Tracer()
    traced, plain = [], []
    if not with_cli:
        traced.append(run_guarded("solve", lambda: solve_pass(
            inp, traced_api(tracer), deadline, probe), aborts))
    else:
        while True:
            for runs, api in ((plain, plain_api), (traced, lambda: traced_api(tracer))):
                runs.append(run_guarded("solve", lambda: solve_pass(inp, api(), None, probe),
                                        aborts))
            last = sum(r["ms"] for r in traced[-1] or []) / 1000.0
            if perf_counter() + 2.0 * last > deadline:
                break
    out.update(traced=traced, plain=plain, ms=dict(tracer.ms), n=dict(tracer.n),
               probe_ms=probe.samples)
    return out


def environment():
    """Machine, library and threading facts recorded beside every result."""
    import platform

    info = dict(nproc=os.cpu_count(), python=platform.python_version(),
                numpy=np.__version__, scipy=scipy.__version__,
                blas_env={v: os.environ.get(v) for v in
                          ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                      if ln.startswith("model name")), None)
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    with contextlib.suppress(OSError):
        for idx in sorted(os.listdir(base)):
            with open(f"{base}/{idx}/level") as fl, open(f"{base}/{idx}/type") as ft, \
                    open(f"{base}/{idx}/size") as fs:
                if ft.read().strip() != "Instruction":
                    caches[f"L{fl.read().strip()}"] = fs.read().strip()
    info["caches"] = caches
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = dict(name=blas.get("name"), version=blas.get("version"))
    info["blas_threads"] = _openblas_threads()
    return info


def _openblas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes

    found = {}
    with contextlib.suppress(OSError):
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    found[os.path.basename(path)] = fn()
                    break
    return found


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "measure", "trace", "trace-solve"),
                   required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    inp = Inputs(wl, args.seed, args.workdir, args.tiny)
    warm_up(wl, args.seed, args.workdir)
    ready = time.monotonic()
    # the machine's speed right after set-up, which set-up time is rescaled by
    probe = SpeedProbe()
    setup_probe_ms = statistics.median(probe() for _ in range(5))
    result = dict(ready=ready, setup_probe_ms=setup_probe_ms, input_ms=inp.input_ms,
                  n_problems=inp.cfg.n_problems)
    if args.mode == "measure":
        result.update(measure(inp, args.seconds, probe))
    elif args.mode == "trace":
        result.update(trace(inp, args.seconds, probe))
    elif args.mode == "trace-solve":
        result.update(trace(inp, args.seconds, probe, with_cli=False))
    if args.mode != "setup":
        result["environment"] = environment()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
