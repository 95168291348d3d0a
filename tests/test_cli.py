"""Config parsing, the experiment driver, sweeps, and CSV reports."""

import csv
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import rfom2.blas
import rfom2.cli
import rfom2.engines
from rfom2.core import IllConditionedEigenbasis, ParseError, RankDeficient
from rfom2.cli import (
    CSV_COLUMNS,
    ExperimentConfig,
    RunReport,
    main,
    parse_config,
    run_experiment,
    sweep_quadrature,
)
from rfom2 import (
    CircleContour,
    arnoldi,
    arnoldi_direct,
    arnoldi_quad,
    gen_perturbation_sequence,
    trapezoid_contour,
)
from rfom2.problems import gen_convection_diffusion_2d, gen_laplacian_2d, \
    save_matrix_market


def write_config(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParseConfig:
    def test_basic(self, tmp_path):
        path = write_config(tmp_path, """
            problem = laplacian2d   # five-point stencil
            m = 8
            j = 12
            engines = arnoldi, v2
            eps = 1e-3
            track_angle = true
        """)
        cfg = parse_config(path)
        assert cfg.problem == "laplacian2d" and cfg.m == 8 and cfg.j == 12
        assert cfg.engine_list() == ["arnoldi", "v2"]
        assert cfg.eps == 1e-3 and cfg.track_angle is True

    def test_overrides_win(self, tmp_path):
        path = write_config(tmp_path, "m = 8\nj = 12\n")
        cfg = parse_config(path, overrides=["j=20"])
        assert cfg.j == 20 and cfg.m == 8

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, "frobnicate = 1\n")
        with pytest.raises(ValueError):
            parse_config(path)

    def test_bad_values_name_the_key(self, tmp_path, capsys):
        for line, key in (("hermitian = treu", "hermitian"), ("j = 3.5", "j"),
                          ("eps = small", "eps"), ("problem = torus", "problem"),
                          ("quad_kind = gauss", "quad_kind"),
                          ("rhs_policy = sometimes", "rhs_policy"),
                          ("function = cosh", "function"),
                          ("quad_kind = stieltjes\nfunction = inverse", "quad_kind"),
                          ("engines = arnoldi, gmres", "engines"),
                          ("engines = v2, v2", "engines"),
                          ("n_quad = 1", "n_quad"),
                          ("quad_kind = stieltjes\nfunction = invsqrt\nn_quad = 0",
                           "n_quad"),
                          ("k = -1", "k"), ("n_problems = 0", "n_problems"),
                          ("contour_margin = -1", "contour_margin"),
                          ("contour_margin = 0", "contour_margin"),
                          ("contour_center = abc\ncontour_radius = 2",
                           "contour_center"),
                          ("contour_center = 1+nanj", "contour_center"),
                          ("contour_center = 5\ncontour_radius = -2",
                           "contour_radius"),
                          ("contour_radius = wide", "contour_radius"),
                          ("contour_center = 5", "contour_center"),
                          ("contour_radius = 2", "contour_radius"),
                          ("eps = nan", "eps"), ("convection = nan", "convection"),
                          ("small_min = nan", "small_min"), ("m = 0", "m"),
                          ("problem = graded_hermitian\nn = 30\nsmall_count = 40",
                           "small_count"),
                          ("problem = graded_hermitian\nbulk_min = 20\nbulk_max = 5",
                           "bulk_max")):
            path = write_config(tmp_path, f"m = 8\n{line}\n")
            with pytest.raises(ParseError, match=repr(key)):
                parse_config(path)
        # hermitian = true is checked against the matrix when the run is set up
        path = write_config(tmp_path, "problem = convdiff2d\nm = 8\nconvection = 5\n"
                                      "hermitian = true\n")
        with pytest.raises(ParseError, match="'hermitian'"):
            run_experiment(parse_config(path))
        # j is checked against the matrix dimension (36 here) when the run
        # is set up; main shows a ParseError as one line and exits 2
        path = write_config(tmp_path, f"m = 6\nj = 40\noutput = {tmp_path / 'j.csv'}\n")
        with pytest.raises(ParseError, match="'j'"):
            run_experiment(parse_config(path))
        capsys.readouterr()
        for argv, key in ((["run", path], "j"), (["sweep", path, "--nquad", "8"], "j"),
                          (["run", path, "--set", "problem=torus"], "problem"),
                          (["run", path, "--set", "eps=nan", "--set", "j=10"], "eps"),
                          (["run", path, "--set", "problem=convdiff2d", "--set", "j=10",
                            "--set", "convection=5", "--set", "hermitian=true"],
                           "hermitian")):
            assert main(argv) == 2
            out = capsys.readouterr()
            assert out.out == "" and len(out.err.strip().splitlines()) == 1
            assert f"'{key}'" in out.err
        # sweep's node counts get the n_quad check
        path = write_config(tmp_path, f"m = 6\nj = 10\noutput = {tmp_path / 's.csv'}\n")
        for nquad in ("8,1", "8,x", ","):
            assert main(["sweep", path, "--nquad", nquad]) == 2
            err = capsys.readouterr().err
            assert "--nquad" in err and len(err.strip().splitlines()) == 1
        path = write_config(tmp_path, "m = 8\n")
        cfg = parse_config(path, overrides=["hermitian=OFF", "track_angle=on"])
        assert cfg.hermitian is False and cfg.track_angle is True

    def test_unknown_engine(self, tmp_path):
        path = write_config(tmp_path, "engines = arnoldi, gmres\n")
        with pytest.raises(ValueError):
            parse_config(path).engine_list()


class TestRunExperiment:
    def test_arnoldi_vs_quadrature_rows(self, tmp_path):
        cfg = ExperimentConfig(problem="laplacian2d", m=8, function="inverse",
                               j=25, k=0, n_quad=3000, n_problems=3,
                               engines="arnoldi,arnoldi_q",
                               output=str(tmp_path / "out.csv"))
        report = run_experiment(cfg)
        assert not report.has_failures
        for i in (1, 2, 3):
            ra = report.select(engine="arnoldi", problem_index=i)[0]
            rq = report.select(engine="arnoldi_q", problem_index=i)[0]
            assert abs(ra["rel_error"] - rq["rel_error"]) <= 1e-10

    def test_single_problem_row_count(self, tmp_path):
        cfg = ExperimentConfig(problem="laplacian2d", m=6, function="exp",
                               j=10, k=0, n_quad=64, n_problems=1,
                               engines="arnoldi,arnoldi_q,v2",
                               output=str(tmp_path / "out.csv"))
        report = run_experiment(cfg)
        assert len(report.rows) == 3
        assert {r["engine"] for r in report.rows} == {"arnoldi", "arnoldi_q", "v2"}

    def test_recycling_improves_error(self, tmp_path):
        cfg = ExperimentConfig(problem="graded_hermitian", n=150, small_count=8,
                               small_min=1.0, small_max=1.2, bulk_min=15.0,
                               bulk_max=60.0, function="invsqrt",
                               quad_kind="stieltjes", j=20, k=8, n_quad=40,
                               n_problems=4, engines="arnoldi_q,v2", seed=3,
                               output=str(tmp_path / "out.csv"))
        report = run_experiment(cfg)
        assert not report.has_failures
        # first problem runs with an empty subspace, later ones recycle
        assert report.select(engine="v2", problem_index=1)[0]["k"] == 0
        assert report.select(engine="v2", problem_index=2)[0]["k"] == 8
        e_plain = report.select(engine="arnoldi_q", problem_index=4)[0]["rel_error"]
        e_rec = report.select(engine="v2", problem_index=4)[0]["rel_error"]
        assert e_rec < e_plain

    def test_angle_to_the_smallest_magnitude_eigenvectors(self, tmp_path):
        # an indefinite matrix with six isolated eigenvalues +-0.1, +-0.3,
        # +-0.5 inside a bulk in +-[1, 4]: the update selects the smallest
        # |theta|, so its U converges to the eigenvectors of the six
        # smallest |lambda| (angles 0.045, 0.015, 0.0026 on problems 2-4),
        # while the six most negative eigenvalues' span stays at pi/2
        n = 120
        rng = np.random.default_rng(0)
        bulk = rng.uniform(1.0, 4.0, n - 6) * rng.choice([-1.0, 1.0], n - 6)
        lam = np.concatenate([[-0.5, -0.3, -0.1, 0.1, 0.3, 0.5], bulk])
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (Q * lam) @ Q.T
        mfile = tmp_path / "indefinite.mtx"
        save_matrix_market(mfile, 0.5 * (A + A.T))
        cfg = ExperimentConfig(problem="matrix_market", matrix_file=str(mfile),
                               function="exp", n_quad=64, j=40, k=6, n_problems=4,
                               seed=3, track_angle=True, engines="v2",
                               output=str(tmp_path / "out.csv"))
        angles = [r["subspace_angle"] for r in run_experiment(cfg).rows]
        assert max(angles[1:]) <= 0.1 and angles[-1] <= 1e-2, angles

    def test_single_ritz_value_inside_the_plain_circle(self, tmp_path):
        # j = 1 gives one Ritz value, and its plain circle holds inverse's
        # singularity at 0: the guarded contour must still separate them,
        # also on the README example's seed with subspace angles tracked
        for seed, track_angle in ((0, False), (11, True)):
            cfg = ExperimentConfig(problem="graded_hermitian", n=50, small_count=5,
                                   small_min=0.01, small_max=0.02, bulk_min=0.03,
                                   bulk_max=0.05, function="inverse", j=1, k=2,
                                   n_quad=200, n_problems=3, seed=seed,
                                   track_angle=track_angle,
                                   engines="arnoldi,arnoldi_q,v1,v2,v3",
                                   output=str(tmp_path / "out.csv"))
            report = run_experiment(cfg)
            assert len(report.rows) == 15
            assert {r["status"] for r in report.rows} == {"ok"}

    def test_huge_results_keep_finite_errors(self, tmp_path):
        # exp on a spectrum reaching 298 makes the quadrature engines'
        # results so large that sqrt(x.x) overflows; every ok row must
        # still read a finite rel_error, with no overflow warning
        cfg = ExperimentConfig(problem="graded_hermitian", n=21, small_count=13,
                               small_min=-4.76, small_max=-0.98, bulk_min=55.6,
                               bulk_max=298.0, function="exp", quad_kind="contour",
                               n_quad=17, contour_margin=1.0, j=7, k=2, seed=276793,
                               n_problems=3, track_angle=True,
                               engines="arnoldi,arnoldi_q,v1,v2,v3",
                               output=str(tmp_path / "out.csv"))
        report = run_experiment(cfg)
        assert len(report.rows) == 15
        assert {r["status"] for r in report.rows} == {"ok"}
        assert all(np.isfinite(r["rel_error"]) for r in report.rows)

    # the matrix below overflows the stages that square its entries; those
    # warnings are the failures under test, which must become rows
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_entries_past_sqrt_range_give_rows(self, tmp_path):
        # a Laplacian times 1e160: sqrt(x.x) overflows, and stages that
        # overflow raise numpy's ValueError (LinAlgError from the rule's
        # eigvals, before Arnoldi took BLAS norms) rather than an
        # RFOMError. Every (problem, engine) still gets a row, and
        # Arnoldi's rows match the same run at 1e150
        def run(scale):
            mfile = tmp_path / f"huge{scale:g}.mtx"
            save_matrix_market(mfile, gen_laplacian_2d(6) * scale)
            cfg = ExperimentConfig(problem="matrix_market", matrix_file=str(mfile),
                                   function="inverse", j=10, k=2, n_problems=2,
                                   engines="arnoldi,arnoldi_q,v1,v2,v3",
                                   output=str(tmp_path / "out.csv"))
            return run_experiment(cfg)

        report = run(1e160)
        rows = {(r["problem_index"], r["engine"]) for r in report.rows}
        assert rows >= {(i, e) for i in (1, 2) for e in ("arnoldi", "arnoldi_q",
                                                         "v1", "v2", "v3")}
        assert all(r["status"] == "ok" or r["status"].startswith("error:")
                   for r in report.rows)
        huge = report.select(engine="arnoldi")
        plain = run(1e150).select(engine="arnoldi")
        assert [r["status"] for r in huge] == ["ok", "ok"]
        for r, r_ref in zip(huge, plain):
            assert abs(r["rel_error"] - r_ref["rel_error"]) <= 1e-12 * r_ref["rel_error"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_entries_past_sqrt_range_keep_the_contour(self, tmp_path):
        # the same Laplacian times 1e160 at seed 0: the guarded circle's
        # need * avail overflows on problem 1, and the update's pencil
        # would overflow, were it not scaled, so that no harmonic Ritz value
        # were finite; it keeps the unscaled k = 2 instead. With eps > 0 the
        # perturbed matrices stay finite too, and every row is ok
        mfile = tmp_path / "huge.mtx"
        save_matrix_market(mfile, gen_laplacian_2d(6) * 1e160)
        cfg = ExperimentConfig(problem="matrix_market", matrix_file=str(mfile),
                               function="inverse", j=10, k=2, n_problems=2,
                               engines="arnoldi,arnoldi_q,v1,v2,v3",
                               output=str(tmp_path / "out.csv"))
        report = run_experiment(cfg)
        first = {r["engine"]: r["status"] for r in report.select(problem_index=1)}
        assert [first[e] for e in ("arnoldi_q", "v1", "v2", "v3")] == ["ok"] * 4
        assert report.select(engine="recycle") == []
        assert {r["k"] for r in report.select(problem_index=2)} == {2}
        report = run_experiment(dataclasses.replace(cfg, eps=1e-3, n_problems=3, seed=11,
                                                    track_angle=True))
        assert len(report.rows) == 15
        assert {r["status"] for r in report.rows} == {"ok"}

    def test_fixed_circle(self, tmp_path):
        # contour_center and contour_radius replace the guarded circle:
        # arnoldi_q's row is arnoldi_quad on that circle, against arnoldi
        cfg = ExperimentConfig(problem="laplacian2d", m=6, function="inverse", j=10,
                               n_quad=64, contour_center="4", contour_radius="3.9",
                               engines="arnoldi,arnoldi_q", oracle=False,
                               output=str(tmp_path / "out.csv"))
        _, fun, seq, _ = rfom2.cli._setup(cfg, 1, 0.0)
        A, b = next(gen_perturbation_sequence(seq))
        dec = arnoldi(A, b, 10)
        x = arnoldi_direct(dec, fun)
        rule = trapezoid_contour(CircleContour(4.0 + 0.0j, 3.9), 64)
        err = np.linalg.norm(arnoldi_quad(dec, fun, rule) - x) / np.linalg.norm(x)
        rows = run_experiment(cfg).select(engine="arnoldi_q")
        assert [r["status"] for r in rows] == ["ok"]
        assert rows[0]["rel_error"] == pytest.approx(err, rel=1e-12)
        auto = run_experiment(dataclasses.replace(cfg, contour_center="auto",
                                                  contour_radius="auto"))
        assert auto.select(engine="arnoldi_q")[0]["rel_error"] != rows[0]["rel_error"]

    def test_relative_matrix_file_in_data_dir(self, tmp_path, monkeypatch):
        # a relative matrix_file is read from RFOM2_DATA_DIR, not the cwd
        (tmp_path / "data").mkdir()
        (tmp_path / "work").mkdir()
        save_matrix_market(tmp_path / "data" / "lap.mtx", gen_laplacian_2d(6))
        cfg = ExperimentConfig(problem="matrix_market", matrix_file="lap.mtx",
                               function="inverse", j=10, engines="arnoldi,arnoldi_q",
                               output=str(tmp_path / "rel.csv"))
        monkeypatch.chdir(tmp_path / "work")
        monkeypatch.setenv(rfom2.cli.DATA_DIR_ENV, str(tmp_path / "data"))
        rel = run_experiment(cfg).rows
        absolute = run_experiment(dataclasses.replace(
            cfg, matrix_file=str(tmp_path / "data" / "lap.mtx"))).rows
        assert [r["status"] for r in rel] == ["ok", "ok"]
        for row in rel + absolute:
            row.pop("wall_ms")
        assert rel == absolute
        monkeypatch.delenv(rfom2.cli.DATA_DIR_ENV)
        with pytest.raises(ParseError, match="lap.mtx"):
            run_experiment(cfg)

    def test_csv_determinism(self, tmp_path):
        def run(name):
            cfg = ExperimentConfig(problem="laplacian2d", m=6, function="inverse",
                                   j=12, k=4, n_quad=200, n_problems=2,
                                   engines="arnoldi,v2", seed=7,
                                   output=str(tmp_path / name))
            run_experiment(cfg)
            with open(tmp_path / name) as fh:
                rows = list(csv.DictReader(fh))
            for r in rows:
                r.pop("wall_ms")
            return rows

        assert run("a.csv") == run("b.csv")

    def test_failure_isolation(self, tmp_path):
        # one eigenvalue below zero: the inverse square root is undefined,
        # the oracle and the direct engine fail, the quadrature engine and
        # the later problems still produce rows
        A = np.diag([-1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        mfile = tmp_path / "indef.mtx"
        save_matrix_market(mfile, A)
        cfg = ExperimentConfig(problem="matrix_market", matrix_file=str(mfile),
                               function="invsqrt", quad_kind="stieltjes",
                               j=6, k=0, n_quad=32, n_problems=2,
                               engines="arnoldi,arnoldi_q", seed=1,
                               output=str(tmp_path / "out.csv"))
        report = run_experiment(cfg)
        assert report.has_failures
        statuses = {(r["problem_index"], r["engine"]): r["status"]
                    for r in report.rows}
        assert statuses[(1, "oracle")].startswith("error:FunctionUndefined")
        assert statuses[(2, "oracle")].startswith("error:FunctionUndefined")
        assert (2, "arnoldi_q") in statuses  # sequence was not aborted

    def test_ill_conditioned_oracle_row(self, tmp_path):
        # an upper bidiagonal matrix with 30 close eigenvalues in [1, 2]:
        # its eigenvector condition, about 1.8e12, is past the oracle's
        # 1e8, so each problem gets an oracle row, while the engines, whose
        # H_j is far better conditioned, and the update still run
        n = 30
        A = scipy.sparse.diags([np.linspace(1.0, 2.0, n), 0.5 * np.ones(n - 1)], [0, 1])
        mfile = tmp_path / "bidiagonal.mtx"
        save_matrix_market(mfile, A)
        cfg = ExperimentConfig(problem="matrix_market", matrix_file=str(mfile),
                               function="log", j=8, k=2, n_quad=64, n_problems=2,
                               engines="arnoldi,arnoldi_q,v2",
                               output=str(tmp_path / "out.csv"))
        report = run_experiment(cfg)
        statuses = [(r["problem_index"], r["engine"], r["status"]) for r in report.rows]
        assert statuses == [(i, e, "error:IllConditionedEigenbasis" if e == "oracle" else "ok")
                            for i in (1, 2) for e in ("oracle", "arnoldi", "arnoldi_q", "v2")]
        assert report.select(engine="v2", problem_index=2)[0]["k"] > 0

    def test_recycle_failure_rows(self, tmp_path, monkeypatch):
        # the first harmonic Ritz update and the first subspace angle fail:
        # each gives a `recycle` row, problem 2 restarts from an empty
        # subspace, and problem 3 recycles again
        calls = {"update": 0, "angle": 0}
        update, angle = rfom2.cli.harmonic_ritz_update, rfom2.cli.subspace_angle

        def failing_update(*args):
            calls["update"] += 1
            if calls["update"] == 1:
                raise RankDeficient("injected")
            return update(*args)

        def failing_angle(*args):
            calls["angle"] += 1
            if calls["angle"] == 1:
                raise RankDeficient("injected")
            return angle(*args)

        monkeypatch.setattr(rfom2.cli, "harmonic_ritz_update", failing_update)
        monkeypatch.setattr(rfom2.cli, "subspace_angle", failing_angle)
        cfg = ExperimentConfig(problem="laplacian2d", m=8, function="inverse",
                               j=12, k=4, n_quad=200, n_problems=4,
                               engines="arnoldi,v2", track_angle=True, seed=5,
                               output=str(tmp_path / "out.csv"))
        report = run_experiment(cfg)
        recycle = [(r["problem_index"], r["status"])
                   for r in report.select(engine="recycle")]
        assert recycle == [(1, "error:RankDeficient"), (2, "error:RankDeficient")]
        v2 = report.select(engine="v2")
        assert [r["k"] for r in v2] == [0, 0, 4, 4]
        assert all(r["status"] == "ok" for r in v2)
        assert [r["subspace_angle"] == "" for r in v2] == [True, True, False, False]

    def test_engines_get_c_of_the_current_matrix(self, tmp_path, monkeypatch):
        # on a changing matrix the update's C = A^(i) U is recomputed as
        # A^(i+1) U before the engines of problem i+1 see the subspace
        sequence = rfom2.cli.gen_perturbation_sequence
        current, gaps = {}, []

        def recording_sequence(seq):
            for A, b in sequence(seq):
                current["A"] = A
                yield A, b

        def checking(engine):
            def call(dec, rec, fun, rule):
                if rec.k:
                    gaps.append(np.linalg.norm(current["A"] @ rec.U - rec.C)
                                / np.linalg.norm(rec.C))
                return engine(dec, rec, fun, rule)
            return call

        monkeypatch.setattr(rfom2.cli, "gen_perturbation_sequence", recording_sequence)
        for name, engine in list(rfom2.cli.ENGINES.items()):
            monkeypatch.setitem(rfom2.cli.ENGINES, name, checking(engine))
        cfg = ExperimentConfig(problem="graded_hermitian", n=150, small_count=8,
                               small_min=1.0, small_max=1.2, bulk_min=15.0,
                               bulk_max=60.0, function="invsqrt",
                               quad_kind="stieltjes", j=20, k=8, n_quad=40,
                               n_problems=4, eps=1e-3, engines="v1,v2,v3", seed=3,
                               output=str(tmp_path / "out.csv"))
        report = run_experiment(cfg)
        assert not report.has_failures
        assert len(gaps) == 3 * 3
        assert max(gaps) <= 1e-12

    @pytest.mark.parametrize("eps, oracle_calls, refreshes", [(0.0, 1, 0), (1e-3, 3, 2)])
    def test_fixed_matrix_reuses_oracle_and_c(self, tmp_path, monkeypatch, eps,
                                              oracle_calls, refreshes):
        # a fixed matrix is one object for the whole sequence: its oracle
        # eigendecomposition is computed once and the update's C = A U is
        # used as it stands; a changing matrix needs both every problem,
        # and C is refreshed once per problem
        calls = {"oracle": 0, "refresh": 0}
        oracle_eig, current = rfom2.cli.oracle_eig, rfom2.engines._current

        def counting_oracle(A, hermitian=False):
            calls["oracle"] += 1
            return oracle_eig(A, hermitian)

        def counting_current(dec, rec):
            C = rec.C
            rec = current(dec, rec)
            calls["refresh"] += rec.C is not C
            return rec

        monkeypatch.setattr(rfom2.cli, "oracle_eig", counting_oracle)
        monkeypatch.setattr(rfom2.engines, "_current", counting_current)
        cfg = ExperimentConfig(problem="graded_hermitian", n=120, small_count=8,
                               small_min=1.0, small_max=1.2, bulk_min=15.0,
                               bulk_max=60.0, function="inverse", j=20, k=6,
                               n_quad=200, n_problems=3, eps=eps, engines="v2",
                               seed=2, output=str(tmp_path / "out.csv"))
        report = run_experiment(cfg)
        assert not report.has_failures
        assert [r["k"] for r in report.rows] == [0, 6, 6]
        assert calls == {"oracle": oracle_calls, "refresh": refreshes}

    @pytest.mark.parametrize("eps, bound, oracle_calls", [(0.0, 5.25, 1), (1e-4, 6.25, 5)])
    def test_one_problem_of_arrays_at_a_time(self, monkeypatch, traced_peak, eps,
                                             bound, oracle_calls):
        # the traced peak, in n^2 doubles, is the oracle's transient of
        # about 3 n^2 beside the matrices alive: at eps = 0 the one matrix,
        # 4.24 in all; at eps > 0 the current matrix, 4.28. Holding the
        # base CSR all run read 4.74 and 5.79, and holding the previous
        # matrix, its oracle factors and E into the next problem as well
        # read 7.79. A fixed matrix is decomposed once, a changing one once
        # per problem
        calls = []
        oracle_eig = rfom2.cli.oracle_eig

        def counting_oracle(A, hermitian=False):
            calls.append(1)
            return oracle_eig(A, hermitian)

        monkeypatch.setattr(rfom2.cli, "oracle_eig", counting_oracle)
        n = 300
        cfg = ExperimentConfig(problem="graded_hermitian", n=n, function="invsqrt",
                               quad_kind="stieltjes", n_quad=30, j=40, k=10,
                               eps=eps, n_problems=5, engines="arnoldi_q,v2",
                               track_angle=True, seed=11, output="")
        reports = []
        peak = traced_peak(lambda: reports.append(run_experiment(cfg)))
        assert [r["status"] for r in reports[0].rows] == ["ok"] * 10
        assert peak <= bound * n * n * 8
        assert len(calls) == oracle_calls

    @pytest.mark.parametrize("eps", [0.0, 1e-4])
    def test_base_is_freed_after_problem_one(self, monkeypatch, eps):
        # a graded base runs dense and is problem 1's matrix. With eps != 0
        # the run lets go of it once problem 2's C = A U is made, before
        # problem 2's oracle; with eps = 0 it is every problem's matrix and
        # is freed when the run returns
        ref, alive = None, []
        sequence, oracle = rfom2.cli.gen_perturbation_sequence, rfom2.cli.oracle_eig

        def watched(seq):
            nonlocal ref
            ref = weakref.ref(seq.base)
            problems = sequence(seq)
            del seq
            for problem in problems:
                alive.append(("draw", ref() is not None))
                yield problem

        def watched_oracle(A, hermitian=False):
            alive.append(("oracle", ref() is not None))
            return oracle(A, hermitian)

        monkeypatch.setattr(rfom2.cli, "gen_perturbation_sequence", watched)
        monkeypatch.setattr(rfom2.cli, "oracle_eig", watched_oracle)
        cfg = ExperimentConfig(problem="graded_hermitian", n=100, function="invsqrt",
                               quad_kind="stieltjes", n_quad=30, j=20, k=4, eps=eps,
                               n_problems=3, engines="v2", seed=11, output="")
        report = run_experiment(cfg)
        assert [r["status"] for r in report.rows] == ["ok"] * 3
        if eps == 0.0:
            assert alive == [("draw", True), ("oracle", True), ("draw", True),
                             ("draw", True)]
        else:
            assert alive == [("draw", True), ("oracle", True), ("draw", True),
                             ("oracle", False), ("draw", False), ("oracle", False)]
        assert ref() is None

    def test_sign_via_invsqrt(self, tmp_path):
        cfg = ExperimentConfig(problem="laplacian2d", m=6, function="sign_via_invsqrt",
                               j=10, k=0, n_quad=200, n_problems=1,
                               engines="arnoldi,arnoldi_q",
                               output=str(tmp_path / "out.csv"))
        report = run_experiment(cfg)
        assert [r["status"] for r in report.rows] == ["ok", "ok"]
        # the Laplacian is positive definite, so sign(A) b = b
        assert report.select(engine="arnoldi")[0]["rel_error"] <= 1e-8

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "out.csv"
        cfg = ExperimentConfig(problem="laplacian2d", m=6, function="exp",
                               j=8, k=0, n_quad=64, n_problems=1,
                               engines="arnoldi", output=str(out))
        run_experiment(cfg)
        with open(out) as fh:
            header = fh.readline().strip().split(",")
        assert header == CSV_COLUMNS


class TestSweep:
    def test_stagnation_to_arnoldi(self, tmp_path):
        cfg = ExperimentConfig(problem="laplacian2d", m=8, function="exp",
                               j=20, k=0, engines="arnoldi,arnoldi_q",
                               output=str(tmp_path / "out.csv"))
        report = sweep_quadrature(cfg, [8, 16, 32, 64, 128, 256, 512, 1024])
        e_direct = report.select(engine="arnoldi")[0]["rel_error"]
        quad = [r["rel_error"] for r in report.select(engine="arnoldi_q")]
        # monotone-in-trend decrease until the floor, then stagnation at
        # the Arnoldi error
        assert abs(quad[-1] - e_direct) <= 1e-12
        drops = [a >= b or a <= 1e-13 for a, b in zip(quad, quad[1:])]
        assert all(drops)

    def test_v3_beats_v1_small_nodes(self, tmp_path):
        cfg = ExperimentConfig(problem="graded_hermitian", n=120, small_count=6,
                               small_min=1.0, small_max=1.2, bulk_min=15.0,
                               bulk_max=60.0, function="invsqrt",
                               quad_kind="stieltjes", j=10, k=6,
                               engines="v1,v3", seed=2,
                               output=str(tmp_path / "out.csv"))
        report = sweep_quadrature(cfg, [5])
        e1 = report.select(engine="v1")[0]["rel_error"]
        e3 = report.select(engine="v3")[0]["rel_error"]
        assert e3 < e1

    def test_oracle_failure_row(self, tmp_path):
        # test_failure_isolation's indefinite matrix: the oracle fails and
        # becomes a row, the sweep goes on
        A = np.diag([-1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        mfile = tmp_path / "indef.mtx"
        save_matrix_market(mfile, A)
        cfg = ExperimentConfig(problem="matrix_market", matrix_file=str(mfile),
                               function="invsqrt", quad_kind="stieltjes",
                               j=6, k=0, engines="arnoldi_q", seed=1,
                               output=str(tmp_path / "out.csv"))
        report = sweep_quadrature(cfg, [16, 32])
        oracle = report.select(engine="oracle")
        assert [r["status"] for r in oracle] == ["error:FunctionUndefined"]
        assert oracle[0]["imag_residue"] == -1.0
        quad = report.select(engine="arnoldi_q")
        assert [r["n_quad"] for r in quad] == [16, 32]
        assert all(r["status"] == "ok" for r in quad)

    def test_contour_failure_rows(self, tmp_path):
        # TestMain.test_contour_failure_rows' problem: no circle separates
        # its Ritz values from log's singularity, so every node count gives
        # one error row per engine
        cfg = ExperimentConfig(problem="convdiff2d", m=10, convection=30.0,
                               function="log", j=20, engines="arnoldi,arnoldi_q",
                               output=str(tmp_path / "out.csv"))
        report = sweep_quadrature(cfg, [16, 64, 256])
        assert [(r["n_quad"], r["engine"], r["status"]) for r in report.rows] == \
            [(nq, e, "error:NoSeparatingContour")
             for nq in (16, 64, 256) for e in ("arnoldi", "arnoldi_q")]


    @pytest.mark.parametrize("n_list", [[], [1], [64, 1]])
    def test_node_counts_are_checked_before_the_matrix(self, monkeypatch, n_list):
        # a graded contour config: a node count no rule takes is a config
        # error before the matrix is generated
        calls = []
        generate = rfom2.cli.gen_graded_hermitian
        monkeypatch.setattr(rfom2.cli, "gen_graded_hermitian",
                            lambda *a, **kw: calls.append(a) or generate(*a, **kw))
        cfg = ExperimentConfig(problem="graded_hermitian", n=60, function="exp",
                               j=10, engines="arnoldi_q", output="")
        with pytest.raises(ParseError, match="--nquad"):
            sweep_quadrature(cfg, n_list)
        assert calls == []
        sweep_quadrature(cfg, [64])
        assert len(calls) == 1


class TestLookAhead:
    """On the general oracle with a changing matrix, `run_experiment` runs
    problems in pairs: problem 2i's matrix is drawn before problem 2i-1 is
    solved, and one worker thread decomposes it while the main thread
    decomposes problem 2i-1's (`_in_pairs`)."""

    @staticmethod
    def config(tmp_path, kind):
        common = dict(function="log", j=20, k=4, n_quad=100, eps=1e-3, n_problems=5,
                      engines="arnoldi,arnoldi_q,v2", seed=4, output="")
        if kind == "real":
            return ExperimentConfig(problem="convdiff2d", m=10, convection=1.0, **common)
        path = tmp_path / "complex.mtx"
        save_matrix_market(path, stencil("complex", 10).tocsr())
        return ExperimentConfig(problem="matrix_market", matrix_file=str(path), **common)

    @staticmethod
    def run(monkeypatch, cfg, ahead, fail=()):
        """The report of cfg with the look-ahead on or off, and per oracle
        call the problem's index and the thread that ran it; the oracle
        raises IllConditionedEigenbasis on the problems in fail. On, the
        look-ahead does not depend on the machine having a second core."""
        sequence, oracle = rfom2.cli.gen_perturbation_sequence, rfom2.cli.oracle_eig
        drawn, calls = [], []

        def recording(seq):
            for A, b in sequence(seq):
                drawn.append(A)
                yield A, b

        def recording_oracle(A, hermitian=False):
            index = next(i for i, M in enumerate(drawn, 1) if M is A)
            calls.append((index, threading.current_thread()))
            if index in fail:
                raise IllConditionedEigenbasis("injected")
            return oracle(A, hermitian)

        with monkeypatch.context() as m:
            m.setattr(rfom2.cli, "gen_perturbation_sequence", recording)
            m.setattr(rfom2.cli, "oracle_eig", recording_oracle)
            if ahead:
                m.setattr(rfom2.cli, "_usable_cores", lambda: 2)
            else:
                m.setattr(rfom2.cli, "_look_ahead", lambda *args: False)
            report = run_experiment(cfg)
        return report, sorted((i, t is threading.main_thread()) for i, t in calls)

    @staticmethod
    def rows(report):
        return [[repr(r[c]) for c in CSV_COLUMNS if c != "wall_ms"] for r in report.rows]

    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_rows_equal_the_rows_without_look_ahead(self, tmp_path, monkeypatch, kind):
        # one decomposition per problem; problems 2 and 4 on the worker
        cfg = self.config(tmp_path, kind)
        on, on_calls = self.run(monkeypatch, cfg, ahead=True)
        off, off_calls = self.run(monkeypatch, cfg, ahead=False)
        assert [r["status"] for r in on.rows] == ["ok"] * 15
        assert self.rows(on) == self.rows(off)
        assert on_calls == [(1, True), (2, False), (3, True), (4, False), (5, True)]
        assert off_calls == [(i, True) for i in range(1, 6)]

    def test_oracle_failures_give_rows_in_place(self, tmp_path, monkeypatch):
        # problem 2's decomposition fails on the worker, problem 3's in line:
        # each gives its oracle row where a run without the look-ahead puts
        # it, and the sequence goes on
        cfg = self.config(tmp_path, "complex")
        on, on_calls = self.run(monkeypatch, cfg, ahead=True, fail=(2, 3))
        off, _ = self.run(monkeypatch, cfg, ahead=False, fail=(2, 3))
        assert (2, False) in on_calls and (3, True) in on_calls
        assert self.rows(on) == self.rows(off)
        assert [(r["problem_index"], r["status"]) for r in on.rows if r["status"] != "ok"] \
            == [(2, "error:IllConditionedEigenbasis"), (3, "error:IllConditionedEigenbasis")]
        assert [r["problem_index"] for r in on.select(engine="v2")] == [1, 2, 3, 4, 5]

    def test_no_thread_outlives_the_run(self, tmp_path, monkeypatch):
        # after a run that returns, and after one that an engine ends with
        # an exception outside _FAILURES on problem 3, while the worker
        # decomposes problem 4's matrix
        cfg = self.config(tmp_path, "complex")
        oracle, v2, workers = rfom2.cli.oracle_eig, rfom2.cli.ENGINES["v2"], []
        v2_calls = []

        def recording_oracle(A, hermitian=False):
            if threading.current_thread() is not threading.main_thread():
                workers.append(threading.current_thread())
            return oracle(A, hermitian)

        def failing_v2(*args):
            v2_calls.append(1)
            if len(v2_calls) == 3:
                raise RuntimeError("injected")
            return v2(*args)

        monkeypatch.setattr(rfom2.cli, "oracle_eig", recording_oracle)
        monkeypatch.setattr(rfom2.cli, "_usable_cores", lambda: 2)
        run_experiment(cfg)
        assert len(workers) == 2 and not any(t.is_alive() for t in workers)
        workers.clear()
        monkeypatch.setitem(rfom2.cli.ENGINES, "v2", failing_v2)
        with pytest.raises(RuntimeError, match="injected"):
            run_experiment(cfg)
        # problem 2's worker call at least; problem 4's may be cancelled
        assert workers and not any(t.is_alive() for t in workers)

    @pytest.mark.parametrize("kind", ["graded", "matrix_market"])
    def test_hermitian_run_starts_no_thread(self, tmp_path, monkeypatch, kind):
        started, start = [], threading.Thread.start

        def recording_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        monkeypatch.setattr(rfom2.cli, "_usable_cores", lambda: 2)
        common = dict(function="exp", n_quad=64, j=20, k=4, eps=1e-3, n_problems=3,
                      engines="v2", seed=11, output="")
        if kind == "graded":
            cfg = ExperimentConfig(problem="graded_hermitian", n=100, **common)
        else:
            path = tmp_path / "hermitian.mtx"
            save_matrix_market(path, stencil("hermitian", 10).tocsr())
            cfg = ExperimentConfig(problem="matrix_market", matrix_file=str(path), **common)
        report = run_experiment(cfg)
        assert [r["status"] for r in report.rows] == ["ok"] * 3
        assert started == []

    def test_one_more_decomposition_at_the_peak(self, tmp_path, monkeypatch, traced_peak):
        # the traced peak, in n^2 complex entries, over 5 problems at
        # n = 324: 5.2 without the look-ahead, the oracle's transient (A's
        # dense copy, eig's copy and V, the condition check's QR) beside
        # the current matrix. With it, 9.3 to 10.2: the worker's
        # decomposition of the next matrix runs beside the current one's,
        # and the bound allows for that one extra decomposition and no more
        oracle, workers = rfom2.cli.oracle_eig, []

        def recording_oracle(A, hermitian=False):
            workers.append(threading.current_thread() is not threading.main_thread())
            return oracle(A, hermitian)

        monkeypatch.setattr(rfom2.cli, "oracle_eig", recording_oracle)
        monkeypatch.setattr(rfom2.cli, "_usable_cores", lambda: 2)
        path = tmp_path / "complex.mtx"
        save_matrix_market(path, stencil("complex", 18).tocsr())
        cfg = ExperimentConfig(problem="matrix_market", matrix_file=str(path),
                               function="log", j=20, k=4, n_quad=100, eps=1e-3,
                               n_problems=5, engines="arnoldi,v2", seed=3, output="")
        reports = []
        peak = traced_peak(lambda: reports.append(run_experiment(cfg)))
        assert [r["status"] for r in reports[0].rows] == ["ok"] * 10
        assert workers.count(True) == 2
        n = 324
        assert peak <= 11.0 * n * n * 16


# a child interpreter's view of the OpenBLAS pools across run_experiment:
# every pool is first set to 2 threads, then it reports the counts inside
# the run, whether the run looked ahead, and the counts after the run
# returns and after a run that an engine ends with an exception
POOL_CHILD = """
import json, sys
from rfom2 import blas, cli
pools = blas.openblas_pools()
for _, set_ in pools:
    set_(2)
counts = lambda: [get() for get, _ in pools]
seen = {}
solve, look_ahead = cli._solve_problem, cli._look_ahead
def spy_solve(*args, **kw):
    seen["inside"] = counts()
    return solve(*args, **kw)
def spy_look_ahead(*args):
    seen["look_ahead"] = look_ahead(*args)
    return seen["look_ahead"]
def failing(*args):
    raise RuntimeError("injected")
cli._solve_problem, cli._look_ahead = spy_solve, spy_look_ahead
cli._usable_cores = lambda: 2
cfg = cli.ExperimentConfig(problem="convdiff2d", m=8, convection=1.0, function="log",
                           j=10, k=2, n_quad=50, eps=1e-3, n_problems=2,
                           engines="arnoldi,v2", output="")
cli.run_experiment(cfg)
seen["returned"] = counts()
cli.ENGINES["v2"] = failing
try:
    cli.run_experiment(cfg)
except RuntimeError:
    seen["raised"] = counts()
print(json.dumps(seen))
"""

# the rows of a graded config, which the generator's ?geqrf makes depend
# on the BLAS thread count of a run that does not pin it
GRADED_CHILD = """
import json
from rfom2 import cli
cfg = cli.ExperimentConfig(problem="graded_hermitian", n=400, function="invsqrt",
                           quad_kind="stieltjes", n_quad=30, j=30, k=4, eps=1e-4,
                           n_problems=2, engines="arnoldi_q,v2", track_angle=True,
                           seed=5, output="")
rows = cli.run_experiment(cfg).rows
print(json.dumps([[repr(r[c]) for c in cli.CSV_COLUMNS if c != "wall_ms"] for r in rows]))
"""


def run_child(code, **env):
    """The JSON that code prints last, run in a child interpreter with no
    BLAS thread variable set but those in env."""
    child_env = {k: v for k, v in os.environ.items()
                 if k not in (*rfom2.blas.THREAD_VARS, "MKL_NUM_THREADS")}
    src = str(pathlib.Path(rfom2.__file__).parents[1])
    child_env.update(env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", code], env=child_env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


class TestBlasPools:
    """`run_experiment` holds every loaded OpenBLAS pool at one thread and
    restores the counts when it returns or raises; a count set in the
    environment wins."""

    def test_one_thread_inside_the_run(self):
        seen = run_child(POOL_CHILD)
        pools = len(seen["inside"])
        assert pools >= 1
        assert seen == {"inside": [1] * pools, "look_ahead": True,
                        "returned": [2] * pools, "raised": [2] * pools}

    def test_a_count_in_the_environment_wins(self):
        # the counts are left alone, so the look-ahead stays off
        seen = run_child(POOL_CHILD, OPENBLAS_NUM_THREADS="2")
        pools = len(seen["inside"])
        assert pools >= 1
        assert seen == {"inside": [2] * pools, "look_ahead": False,
                        "returned": [2] * pools, "raised": [2] * pools}

    def test_graded_rows_do_not_depend_on_the_default_count(self):
        pinned = run_child(GRADED_CHILD, **dict.fromkeys(
            (*rfom2.blas.THREAD_VARS, "MKL_NUM_THREADS"), "1"))
        assert [r[-1] for r in pinned] == ["'ok'"] * 4
        assert run_child(GRADED_CHILD) == pinned


class TestMain:
    def test_run_exit_code_and_output(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        cfgfile = write_config(tmp_path, f"""
            problem = laplacian2d
            m = 6
            function = inverse
            j = 10
            n_quad = 200
            engines = arnoldi, arnoldi_q
            output = {out}
        """)
        assert main(["run", cfgfile]) == 0
        assert out.exists()
        assert "0 failures" in capsys.readouterr().out

    def test_sweep_subcommand(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfgfile = write_config(tmp_path, f"""
            problem = laplacian2d
            m = 6
            function = exp
            j = 10
            engines = arnoldi_q
            output = {out}
        """)
        assert main(["sweep", cfgfile, "--nquad", "8,16,32"]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["n_quad"] for r in rows] == ["8", "16", "32"]

    def test_failure_exit_code(self, tmp_path):
        A = np.diag([-1.0, 2.0, 3.0, 4.0])
        mfile = tmp_path / "indef.mtx"
        save_matrix_market(mfile, A)
        cfgfile = write_config(tmp_path, f"""
            problem = matrix_market
            matrix_file = {mfile}
            function = invsqrt
            quad_kind = stieltjes
            j = 3
            engines = arnoldi_q
            output = {tmp_path / "f.csv"}
        """)
        assert main(["run", cfgfile]) == 1

    def test_non_square_matrix_file_exits_2(self, tmp_path, capsys):
        # the loader reads any shape; a run needs a square operator
        mfile = tmp_path / "wide.mtx"
        mfile.write_text("%%MatrixMarket matrix coordinate real general\n"
                         "3 4 2\n1 1 1.0\n3 4 2.0\n")
        cfgfile = write_config(tmp_path, f"""
            problem = matrix_market
            matrix_file = {mfile}
            j = 2
            output = {tmp_path / "w.csv"}
        """)
        assert main(["run", cfgfile]) == 2
        err = capsys.readouterr().err
        assert "'matrix_file'" in err and "3 x 4" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("case", ["missing", "array", "binary", "nan"])
    def test_unusable_matrix_file_exits_2(self, tmp_path, capsys, case):
        # one stderr line naming the file, and the line of a bad entry
        mfile = tmp_path / f"{case}.mtx"
        if case == "array":
            mfile.write_text("%%MatrixMarket matrix array real general\n2 2\n"
                             "1.0\n0.0\n0.0\n1.0\n")
        elif case == "binary":
            mfile.write_bytes(np.random.default_rng(0).bytes(300))
        elif case == "nan":
            mfile.write_text("%%MatrixMarket matrix coordinate real general\n"
                             "2 2 2\n1 1 nan\n2 2 1.0\n")
        cfgfile = write_config(tmp_path, f"""
            problem = matrix_market
            matrix_file = {mfile}
            j = 1
            output = {tmp_path / "u.csv"}
        """)
        assert main(["run", cfgfile]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(mfile) in err[0]
        if case == "nan":
            assert f"{mfile}:3:" in err[0]

    def test_output_in_a_missing_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        # one stderr line naming the key, before any problem is computed;
        # an empty output writes no CSV and is valid
        monkeypatch.chdir(tmp_path)
        cfgfile = write_config(tmp_path, """
            problem = laplacian2d
            m = 6
            j = 10
            engines = arnoldi
        """)
        for output in (tmp_path / "no" / "such" / "r.csv", "no/r.csv"):
            assert main(["run", cfgfile, "--set", f"output={output}"]) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and "'output'" in err[0]
        assert not (tmp_path / "no").exists()
        assert main(["run", cfgfile, "--set", "output="]) == 0
        assert main(["run", cfgfile, "--set", "output=r.csv"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "r.csv"]

    @pytest.mark.parametrize("case", ["missing", "directory", "binary"])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, case):
        # one stderr line naming the config file, not a traceback
        path = tmp_path / f"{case}.cfg"
        if case == "directory":
            path.mkdir()
        elif case == "binary":
            path.write_bytes(np.random.default_rng(0).bytes(300))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(path) in err[0]

    def test_graded_cluster_bounds_exit_2(self, tmp_path, capsys):
        # the small cluster is geometrically spaced, so a zero bound or
        # bounds of opposite sign are a config error, not a crash in the run,
        # and so is a bulk whose bounds are reversed, even with no bulk left
        cfgfile = write_config(tmp_path, f"""
            problem = graded_hermitian
            n = 40
            small_count = 4
            j = 10
            output = {tmp_path / "g.csv"}
        """)
        for sets, key in ((["small_min=0"], "small_min"), (["small_max=0"], "small_max"),
                          (["small_min=-1"], "small_max"),
                          (["small_min=0", "small_max=0"], "small_min"),
                          (["bulk_min=20", "bulk_max=5", "small_count=40"], "bulk_max")):
            argv = ["run", cfgfile] + [a for s in sets for a in ("--set", s)]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"'{key}'" in err and len(err.strip().splitlines()) == 1
        assert main(["run", cfgfile, "--set", "small_min=2", "--set", "small_max=3"]) == 0

    def test_contour_failure_rows(self, tmp_path):
        # strong convection puts Ritz values on both sides of log's
        # singularity at 0: no circle separates them, every engine gets an
        # error row and the next problem still runs
        out = tmp_path / "c.csv"
        cfgfile = write_config(tmp_path, f"""
            problem = convdiff2d
            m = 10
            convection = 30
            function = log
            j = 20
            n_problems = 2
            engines = arnoldi, arnoldi_q
            output = {out}
        """)
        assert main(["run", cfgfile]) == 1
        with open(out) as fh:
            rows = [(r["problem_index"], r["engine"], r["status"])
                    for r in csv.DictReader(fh)]
        assert rows == [(i, e, "error:NoSeparatingContour")
                        for i in ("1", "2") for e in ("arnoldi", "arnoldi_q")]


class TestRunReport:
    def test_numpy_floats_are_written_as_floats(self, tmp_path):
        # a np.float64 is a float, and csv writes it as 0.1, not as numpy's
        # repr np.float64(0.1)
        report = RunReport(path=str(tmp_path / "r.csv"))
        report.add(problem_index=1, engine="v2", rel_error=np.float64(0.1),
                   wall_ms=0.25, status="ok")
        report.write_csv()
        with open(report.path, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["rel_error"], row["wall_ms"], row["k"]) == ("0.1", "0.25", "")


# the fuzzer's Matrix Market inputs: small stencils, each scaled by one of
# SCALES; 1e160 and 1e-160 put entries past the square-root range
SCALES = (1.0, 1e160, 1e-160)


def stencil(kind, m):
    """A real non-Hermitian, complex non-Hermitian or complex Hermitian
    stencil on an m x m grid."""
    if kind == "real":
        return gen_convection_diffusion_2d(m, 1.0)
    if kind == "complex":
        return gen_convection_diffusion_2d(m, 1.0) \
            + 1j * scipy.sparse.diags(np.linspace(0.0, 1.0, m * m))
    S = scipy.sparse.kron(scipy.sparse.identity(m),
                          scipy.sparse.diags([1.0], [1], shape=(m, m)))
    return gen_laplacian_2d(m) + 1j * (S - S.T)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for kind in ("real", "complex", "hermitian"):
        for m in (2, 4):
            for scale in SCALES:
                save_matrix_market(path / f"{kind}{m}_{scale:g}.mtx",
                                   (stencil(kind, m) * scale).tocsr())
    return path


@st.composite
def fuzz_configs(draw):
    """The lines of a config that parse_config accepts."""
    problem = draw(st.sampled_from(["laplacian2d", "convdiff2d", "graded_hermitian",
                                    "matrix_market"]))
    cfg = dict(problem=problem)
    if problem in ("laplacian2d", "convdiff2d"):
        cfg.update(m=draw(st.integers(1, 6)),
                   convection=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])))
    elif problem == "graded_hermitian":
        n = draw(st.integers(1, 40))
        ends = st.sampled_from([0.5, 1.5, 5.0, 20.0, 100.0])
        sign = draw(st.sampled_from([1.0, -1.0]))
        bulk = sorted(draw(st.sampled_from([-100.0, -5.0, 0.0, 1.5, 20.0, 100.0]))
                      for _ in range(2))
        cfg.update(n=n, small_count=draw(st.integers(0, n)),
                   small_min=sign * draw(ends), small_max=sign * draw(ends),
                   bulk_min=bulk[0], bulk_max=bulk[1])
    else:
        kind = draw(st.sampled_from(["real", "complex", "hermitian"]))
        cfg["matrix_file"] = f"{kind}{draw(st.sampled_from([2, 4]))}_" \
                             f"{draw(st.sampled_from(SCALES)):g}.mtx"
    quad_kind = draw(st.sampled_from(["contour", "stieltjes"]))
    function = "invsqrt" if quad_kind == "stieltjes" else draw(st.sampled_from(
        ["inverse", "invsqrt", "sqrt", "log", "exp", "sign_via_invsqrt"]))
    center, radius = draw(st.sampled_from([("auto", "auto"), ("0", "1"), ("10", "5"),
                                           ("1+1j", "0.5"), ("50", "100")]))
    cfg.update(
        function=function, quad_kind=quad_kind,
        n_quad=draw(st.integers(1 if quad_kind == "stieltjes" else 2, 64)),
        j=draw(st.integers(1, 5) | st.integers(1, 40)), k=draw(st.integers(0, 8)),
        eps=draw(st.sampled_from([0.0, 1e-3, 0.5])),
        contour_margin=draw(st.sampled_from([1e-3, 0.1, 2.0])),
        contour_center=center, contour_radius=radius,
        rhs_policy=draw(st.sampled_from(["random_each", "fixed"])),
        hermitian=draw(st.booleans()), track_angle=draw(st.booleans()),
        oracle=draw(st.booleans()), n_problems=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
        engines=",".join(draw(st.lists(st.sampled_from(list(rfom2.cli.ENGINES)),
                                       min_size=1, max_size=5, unique=True))))
    return cfg


class TestConfigFuzz:
    """Every config parse_config accepts runs to a report; the only
    exception a run may raise is ParseError, for a j that is not below the
    matrix dimension or hermitian = true on a non-Hermitian matrix."""

    @settings(max_examples=200, deadline=None)
    @given(cfg=fuzz_configs())
    def test_every_accepted_config_runs(self, fuzz_dir, cfg):
        path = fuzz_dir / "fuzz.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in cfg.items())
                        + f"output = {fuzz_dir / 'fuzz.csv'}\n")
        parsed = parse_config(str(path))
        if parsed.problem == "matrix_market":
            parsed.matrix_file = str(fuzz_dir / parsed.matrix_file)
        with warnings.catch_warnings():
            if parsed.problem == "matrix_market" \
                    and not parsed.matrix_file.endswith("_1.mtx"):
                # entries past 1e154 overflow the stages that square them;
                # those failures become rows (test_entries_past_sqrt_range_*)
                warnings.filterwarnings("ignore", "overflow", RuntimeWarning)
                warnings.filterwarnings("ignore", "invalid value", RuntimeWarning)
            try:
                report = run_experiment(parsed)
            except ParseError:
                return
        assert isinstance(report, RunReport) and report.rows
        assert all(r["status"] == "ok" or r["status"].startswith("error:")
                   for r in report.rows)
