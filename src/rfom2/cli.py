"""Batch experiment driver.

Reads a flat key = value config, runs a problem sequence through the
selected engines, tracks errors and subspace angles, and writes a CSV
report. A failure of the oracle, the recycle update, a rule or an engine
becomes a failure row instead of aborting the sequence, so events like
an eigenvalue drifting onto a function's singularity remain observable
in the output.
"""

import argparse
import csv
import os
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .arnoldi import arnoldi, as_operator
from .core import ParseError, RFOMError, UnknownFunction
from .engines import RecycleSubspace, arnoldi_direct, arnoldi_quad, rfom_v1, \
    rfom_v2, rfom_v3
from .problems import (
    ORACLE_GENERAL_MAX_N,
    ORACLE_MAX_N,
    ProblemSequence,
    function_catalog,
    gen_convection_diffusion_2d,
    gen_graded_hermitian,
    gen_laplacian_2d,
    gen_perturbation_sequence,
    load_matrix_market,
    oracle_apply,
    oracle_eig,
)
from .quadrature import CircleContour, guarded_contour, stieltjes_invsqrt, \
    trapezoid_contour
from .recycling import harmonic_ritz_update, subspace_angle

DATA_DIR_ENV = "RFOM2_DATA_DIR"
CSV_COLUMNS = ["problem_index", "engine", "j", "k", "n_quad", "rel_error",
               "imag_residue", "subspace_angle", "wall_ms", "status"]
ENGINES = {
    "arnoldi": lambda dec, rec, fun, rule: arnoldi_direct(dec, fun),
    "arnoldi_q": lambda dec, rec, fun, rule: arnoldi_quad(dec, fun, rule),
    "v1": rfom_v1,
    "v2": rfom_v2,
    "v3": rfom_v3,
}


@dataclass
class ExperimentConfig:
    problem: str = "laplacian2d"     # laplacian2d | convdiff2d | graded_hermitian | matrix_market
    m: int = 20
    convection: float = 0.0
    n: int = 400                     # graded_hermitian size
    small_count: int = 20
    small_min: float = 1.5
    small_max: float = 5.0
    bulk_min: float = 20.0
    bulk_max: float = 100.0
    matrix_file: str = ""
    function: str = "inverse"
    j: int = 30
    k: int = 0
    n_quad: int = 200
    quad_kind: str = "contour"       # contour | stieltjes
    contour_center: str = "auto"
    contour_radius: str = "auto"
    contour_margin: float = 0.1
    engines: str = "arnoldi,arnoldi_q"
    n_problems: int = 1
    eps: float = 0.0
    seed: int = 0
    rhs_policy: str = "random_each"
    hermitian: bool = False
    track_angle: bool = False
    oracle: bool = True
    output: str = "report.csv"

    def engine_list(self):
        names = [e.strip() for e in self.engines.split(",") if e.strip()]
        if not names:
            raise ParseError("config key 'engines': must be nonempty")
        for e in names:
            if e not in ENGINES:
                raise ParseError(f"config key 'engines': unknown engine {e!r}")
        return names


def parse_config(path, overrides=()):
    """Flat 'key = value' file; '#' and ';' start comments; later keys win.

    Raises ParseError, naming the line or the key, on a malformed line,
    an unknown key, a value of the wrong type or a value no run can use.
    """
    cfg = ExperimentConfig()
    valid = {f.name for f in fields(ExperimentConfig)}
    pairs = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].split(";", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (p.strip() for p in line.split("=", 1))
            pairs.append((key, value))
    for item in overrides:
        if "=" not in item:
            raise ParseError(f"override {item!r} must be key=value")
        key, value = (p.strip() for p in item.split("=", 1))
        pairs.append((key, value))
    for key, value in pairs:
        if key not in valid:
            raise ParseError(f"unknown config key {key!r}")
        setattr(cfg, key, _parse_value(key, value, type(getattr(cfg, key))))
    _check_values(cfg)
    return cfg


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _parse_value(key, value, kind):
    try:
        return _BOOLEANS[value.lower()] if kind is bool else kind(value)
    except (KeyError, ValueError) as exc:
        raise ParseError(f"config key {key!r}: {value!r} is not of type "
                         f"{kind.__name__}") from exc


_CHOICES = {
    "problem": ("laplacian2d", "convdiff2d", "graded_hermitian", "matrix_market"),
    "quad_kind": ("contour", "stieltjes"),
    "rhs_policy": ("random_each", "fixed"),
}


def _check_values(cfg):
    """Raise ParseError, naming the key, for a value that no run can use."""
    for key, choices in _CHOICES.items():
        value = getattr(cfg, key)
        if value not in choices:
            raise ParseError(f"config key {key!r}: {value!r} is not one of "
                             f"{', '.join(choices)}")
    try:
        function_catalog(cfg.function)
    except UnknownFunction as exc:
        raise ParseError(f"config key 'function': unknown function "
                         f"{cfg.function!r}") from exc
    if cfg.quad_kind == "stieltjes" and cfg.function != "invsqrt":
        raise ParseError("config key 'quad_kind': stieltjes quadrature needs "
                         "function = invsqrt")
    cfg.engine_list()
    _check_n_quad(cfg.quad_kind, cfg.n_quad, "config key 'n_quad'")
    for f in fields(cfg):
        if f.type is float and not np.isfinite(getattr(cfg, f.name)):
            raise ParseError(f"config key {f.name!r}: {getattr(cfg, f.name)} is not finite")
    for key, least in (("m", 1), ("n", 1), ("k", 0), ("n_problems", 1)):
        if getattr(cfg, key) < least:
            raise ParseError(f"config key {key!r}: {getattr(cfg, key)} is below {least}")
    if cfg.problem == "graded_hermitian" and not 0 <= cfg.small_count <= cfg.n:
        raise ParseError(f"config key 'small_count': {cfg.small_count} is not "
                         f"between 0 and n = {cfg.n}")
    if cfg.problem == "graded_hermitian" and not cfg.small_min * cfg.small_max > 0:
        # the small cluster is geometrically spaced from small_min to small_max
        key = "small_min" if cfg.small_min == 0 else "small_max"
        raise ParseError(f"config key {key!r}: small_min = {cfg.small_min} and "
                         f"small_max = {cfg.small_max} are not nonzero and of "
                         "one sign")
    if not 0.0 < cfg.contour_margin < np.inf:
        raise ParseError(f"config key 'contour_margin': {cfg.contour_margin} "
                         "is not a positive number")
    for key, kind, ok, what in (
            ("contour_center", complex, np.isfinite, "a complex number"),
            ("contour_radius", float, lambda r: 0.0 < r < np.inf, "a positive number")):
        value = getattr(cfg, key)
        if value == "auto":
            continue
        try:
            good = ok(kind(value))
        except ValueError:
            good = False
        if not good:
            raise ParseError(f"config key {key!r}: {value!r} is neither auto "
                             f"nor {what}")
    for key, other in (("contour_center", "contour_radius"),
                       ("contour_radius", "contour_center")):
        if getattr(cfg, key) != "auto" and getattr(cfg, other) == "auto":
            raise ParseError(f"config key {key!r}: set without {other!r}; a "
                             "fixed contour needs both")


_LEAST_NODES = {"contour": 2, "stieltjes": 1}


def _check_n_quad(quad_kind, n_quad, what):
    least = _LEAST_NODES[quad_kind]
    if n_quad < least:
        raise ParseError(f"{what}: {n_quad} is below {least}, the fewest "
                         f"nodes of a {quad_kind} rule")


@dataclass
class RunReport:
    rows: list = field(default_factory=list)
    path: str = ""

    @property
    def has_failures(self):
        return any(r["status"] != "ok" for r in self.rows)

    def add(self, **kw):
        row = {c: kw.get(c, "") for c in CSV_COLUMNS}
        self.rows.append(row)

    def write_csv(self, path=None):
        path = path or self.path
        if not path:
            return
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({c: _fmt(row[c]) for c in CSV_COLUMNS})

    def select(self, engine=None, problem_index=None):
        out = self.rows
        if engine is not None:
            out = [r for r in out if r["engine"] == engine]
        if problem_index is not None:
            out = [r for r in out if r["problem_index"] == problem_index]
        return out


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return v


def _base_matrix(cfg):
    if cfg.problem == "laplacian2d":
        return gen_laplacian_2d(cfg.m), True
    if cfg.problem == "convdiff2d":
        A = gen_convection_diffusion_2d(cfg.m, cfg.convection)
        return A, cfg.convection == 0.0
    if cfg.problem == "graded_hermitian":
        A = gen_graded_hermitian(cfg.n, cfg.small_count,
                                 (cfg.small_min, cfg.small_max),
                                 (cfg.bulk_min, cfg.bulk_max), seed=cfg.seed)
        return A, True
    if cfg.problem == "matrix_market":
        path = cfg.matrix_file
        if not os.path.isabs(path):
            path = os.path.join(os.environ.get(DATA_DIR_ENV, "."), path)
        A = load_matrix_market(path)
        if A.shape[0] != A.shape[1]:
            raise ParseError(f"config key 'matrix_file': {cfg.matrix_file} holds a "
                             f"{A.shape[0]} x {A.shape[1]} matrix, not a square one")
        herm = (A != A.conj().T).nnz == 0
        return A, herm
    raise ValueError(f"unknown problem kind {cfg.problem!r}")


def _make_rule(cfg, n_quad, dec, fun):
    if cfg.quad_kind == "stieltjes":
        return stieltjes_invsqrt(n_quad)
    if cfg.contour_center != "auto":  # _check_values: then the radius is set too
        contour = CircleContour(complex(cfg.contour_center),
                                float(cfg.contour_radius))
    else:
        # Ritz values of H_j only: the per-node augmented system is the
        # projected resolvent, so its poles track the spectrum of A
        estimates = np.linalg.eigvals(dec.H)
        contour = guarded_contour(estimates, cfg.contour_margin,
                                  singularity=fun.singularity)
    return trapezoid_contour(contour, n_quad)


class _OracleCache:
    """The oracle's eigendecomposition of the current operator in one run."""

    def __init__(self, hermitian):
        self.hermitian = hermitian
        self.A = None
        self.eig = None

    def eig_for(self, A):
        if A is not self.A:
            # drop the previous operator and decomposition before the next
            # is computed, so that two never coexist at the memory peak
            self.A = self.eig = None
            self.eig = oracle_eig(A, hermitian=self.hermitian)
            self.A = A
        return self.eig


def _setup(cfg, length, eps):
    """Engine names, function, problem sequence and oracle cache of a config.

    The cache is None when the oracle is off or the matrix is too large.
    Raises ParseError for the values `parse_config` rejects, for a j
    that is not below the matrix dimension and for hermitian = true on a
    matrix that is not Hermitian.
    """
    _check_values(cfg)
    engine_names = cfg.engine_list()
    fun = function_catalog(cfg.function)
    base, base_hermitian = _base_matrix(cfg)
    norm = scipy.sparse.linalg.norm
    # the tolerance of eig_dense's Hermitian check
    if cfg.hermitian and not base_hermitian \
            and norm(base - base.conj().T) > 1e-10 * norm(base):
        raise ParseError("config key 'hermitian': true, but the matrix is not "
                         "Hermitian to 1e-10 relative in the Frobenius norm")
    hermitian = cfg.hermitian or base_hermitian
    n = base.shape[0]
    if not 1 <= cfg.j < n:
        raise ParseError(f"config key 'j': {cfg.j} is not at least 1 and below "
                         f"the matrix dimension {n}")
    seq = ProblemSequence(base=base, length=length, eps=eps,
                          rhs_policy=cfg.rhs_policy, seed=cfg.seed,
                          hermitian=hermitian)
    oracle = cfg.oracle and n <= ORACLE_MAX_N \
        and (hermitian or n <= ORACLE_GENERAL_MAX_N)
    return engine_names, fun, seq, _OracleCache(hermitian) if oracle else None


def _status(exc):
    return f"error:{type(exc).__name__}"


def _norm(x):
    """BLAS nrm2, which scales as it sums: np.linalg.norm's sqrt(x.x)
    overflows once entries pass about 1e154."""
    return float(scipy.linalg.norm(x, check_finite=False))


# The failures a stage of a problem may raise: the package's own, and
# numpy's and scipy's, whose LinAlgError is a ValueError.
_FAILURES = (RFOMError, ValueError)


def _solve_problem(cfg, engine_names, fun, cache, report, index, A, op, b, rec,
                   n_list, update):
    """Add the rows of problem `index`; return the subspace for the next one.

    The stages: Arnoldi; the oracle; with update and k > 0, the harmonic
    Ritz update and, with track_angle on a Hermitian matrix, its angle to
    the oracle's first eigenvectors; then for each node count in n_list
    the rule, every engine on rec, and one ok row per engine that ran, its
    rel_error against the oracle's f(A)b or else the first engine's result.

    A stage that raises one of _FAILURES becomes an error row:
    - the oracle: an `oracle` row; on the Hermitian path its imag_residue
      holds the smallest eigenvalue, which shows how far the spectrum
      crossed the singularity;
    - the update or the angle: a `recycle` row. A failed update leaves the
      next problem an empty subspace; a failed angle leaves it blank;
    - the rule: one row per engine at that node count;
    - an engine: its own row.
    """
    row = dict(problem_index=index, j=cfg.j, k=rec.k, n_quad=cfg.n_quad)
    dec = arnoldi(op, b, cfg.j, reorth=True)
    eig = reference = None
    if cache is not None:
        try:
            eig = cache.eig_for(A)
            reference = oracle_apply(fun, eig, b, hermitian=cache.hermitian)
        except _FAILURES as exc:
            diag = float(eig[0][0]) if eig is not None and cache.hermitian else ""
            report.add(engine="oracle", imag_residue=diag, status=_status(exc), **row)
    angle, new = "", rec
    if update and cfg.k > 0:
        new = RecycleSubspace.empty(op.dim)
        try:
            new = harmonic_ritz_update(dec, rec, op, cfg.k)
            if cfg.track_angle and eig is not None and cache.hermitian and new.k:
                angle = subspace_angle(new.U, eig[1][:, : new.k])
        except _FAILURES as exc:
            report.add(engine="recycle", status=_status(exc), **row)
    for n_quad in n_list:
        row = dict(row, n_quad=n_quad)
        try:
            rule = _make_rule(cfg, n_quad, dec, fun)
        except _FAILURES as exc:
            for name in engine_names:
                report.add(engine=name, status=_status(exc), **row)
            continue
        outputs = {}
        for name in engine_names:
            start = time.perf_counter()
            try:
                x = ENGINES[name](dec, rec, fun, rule)
            except _FAILURES as exc:
                wall = 1000.0 * (time.perf_counter() - start)
                report.add(engine=name, wall_ms=wall, status=_status(exc), **row)
                continue
            outputs[name] = (x, 1000.0 * (time.perf_counter() - start))
        ref = reference
        if ref is None and outputs:
            ref = next(iter(outputs.values()))[0]
        refnorm = _norm(ref) if ref is not None else 0.0
        for name, (x, wall) in outputs.items():
            rel = _norm(x - ref) / refnorm if refnorm > 0 else ""
            xnorm = _norm(x)
            imag = _norm(x.imag) / xnorm if xnorm > 0 else 0.0
            report.add(engine=name, rel_error=rel, imag_residue=imag,
                       subspace_angle=angle, wall_ms=wall, status="ok", **row)
    return new


def run_experiment(cfg):
    """Run a sequence of f(A^(i)) b^(i) problems through selected engines.

    One operator wraps each matrix, so a fixed matrix keeps the update's
    C = A U as it stands, and on a new matrix the first engine or update
    that reads C recomputes it once (engines._current).
    """
    engine_names, fun, seq, cache = _setup(cfg, cfg.n_problems, cfg.eps)
    report = RunReport(path=cfg.output)
    rec = RecycleSubspace.empty(seq.base.shape[0])
    matrix = op = None
    for i, (A, b) in enumerate(gen_perturbation_sequence(seq), start=1):
        if A is not matrix:
            matrix, op = A, as_operator(A)
        rec = _solve_problem(cfg, engine_names, fun, cache, report, i, A, op, b,
                             rec, [cfg.n_quad], update=True)
    report.write_csv()
    return report


def sweep_quadrature(cfg, n_list):
    """Fixed first problem, one row per (n_quad, engine).

    With k > 0 the augmentation subspace is the k smallest oracle
    eigenvectors of the matrix (the single-problem augmentation setup);
    the sweep exposes where each engine's error stagnates.
    """
    engine_names, fun, seq, cache = _setup(cfg, 1, 0.0)
    if len(n_list) == 0:
        raise ParseError("--nquad: no node counts")
    for nq in n_list:
        _check_n_quad(cfg.quad_kind, nq, "--nquad")
    A, b = next(gen_perturbation_sequence(seq))
    op = as_operator(A)
    report = RunReport(path=cfg.output)
    rec = RecycleSubspace.empty(A.shape[0])
    if cfg.k > 0 and cache is not None and cache.hermitian:
        try:
            rec = RecycleSubspace.from_basis(op, cache.eig_for(A)[1][:, : cfg.k])
        except _FAILURES:
            pass  # _solve_problem reports the oracle's failure
    _solve_problem(cfg, engine_names, fun, cache, report, 1, A, op, b, rec,
                   [int(nq) for nq in n_list], update=False)
    report.write_csv()
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(prog="rfom2",
                                     description="recycled Krylov f(A)b experiment driver")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a problem sequence from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
    p_sweep = sub.add_parser("sweep", help="sweep n_quad on a fixed problem")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--nquad", required=True,
                         help="comma-separated list of node counts")
    p_sweep.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config, overrides=args.set)
        if args.command == "run":
            report = run_experiment(cfg)
        else:
            try:
                n_list = [int(s) for s in args.nquad.split(",") if s.strip()]
            except ValueError as exc:
                raise ParseError(f"--nquad: {args.nquad!r} is not a "
                                 "comma-separated list of integers") from exc
            report = sweep_quadrature(cfg, n_list)
    except ParseError as exc:
        print(f"rfom2: {exc}", file=sys.stderr)
        return 2
    failures = sum(1 for r in report.rows if r["status"] != "ok")
    print(f"wrote {cfg.output}: {len(report.rows)} rows, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
