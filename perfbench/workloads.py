"""The benchmark's workloads: what each one runs, why, and what it must get right.

Every workload is one recycled sequence f(A^(i)) b^(i) described by the
keys of an `rfom2 run` config. The benchmark's seed is the only source
of randomness: it becomes the config `seed` (matrix, perturbations and
right-hand sides) and, for `complex-nonherm`, also draws the matrix that
the benchmark writes as a Matrix Market file.
"""

import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    # largest rel_error an `ok` engine row may show against the dense oracle
    tolerance: float
    # largest ||x_v2 - x_v1|| / ||x_v1|| a solve-pass problem may show
    gap_v1_bound: float | None = None
    # config overrides for the benchmark's self-tests
    tiny: dict = field(default_factory=dict)
    # behaviour of the baseline that the workload deliberately keeps
    notes: tuple = ()
    # extra key for the benchmark-written input (complex-nonherm only)
    matrix: dict | None = None
    # CLI passes per measuring run; solve passes fill the rest of the budget
    cli_passes: int = 2

    @property
    def engines(self):
        return [e.strip() for e in self.config["engines"].split(",")]


WORKLOADS = {
    "stieltjes-seq": Workload(
        name="stieltjes-seq",
        why=("criterion 5's invsqrt sequence: few Stieltjes nodes, so the "
             "oracle, dense-content CSR mat-vecs and C = A U dominate; "
             "a node-kernel change should not move it"),
        config=dict(problem="graded_hermitian", n=900, function="invsqrt",
                    quad_kind="stieltjes", n_quad=30, j=50, k=20, eps=1e-4,
                    engines="arnoldi_q,v2", track_angle=True, n_problems=5),
        tolerance=1e-5,
        tiny=dict(n=100, j=50, k=8, n_problems=3),
        notes=(
            "eps > 0 changes the matrix every problem, so the Hermitian "
            "oracle runs a complex eigh of the full matrix per problem.",
        ),
    ),
    "contour-nodes": Workload(
        name="contour-nodes",
        why=("criterion 4's shape: fixed matrix, new right-hand side each "
             "problem, ~1000 contour nodes; the oracle is cached once and "
             "the per-node engine loops dominate"),
        config=dict(problem="graded_hermitian", n=900, function="inverse",
                    quad_kind="contour", n_quad=1000, j=50, k=20, eps=0.0,
                    engines="arnoldi_q,v1,v2,v3", n_problems=4),
        tolerance=1e-4,
        gap_v1_bound=1e-6,
        # problems take ~1.2 s; one CLI pass leaves room for the 21+ solve
        # samples the tail needs to sit at or above the median
        cli_passes=1,
        tiny=dict(n=100, j=50, k=8, n_problems=3),
        notes=(
            "v3 raises SingularSystem on every problem from 3 on: "
            "V_hat^* W_hat becomes singular once U lies in K_j. These rows "
            "stay in the workload and count against ok_frac.",
            "v2 matches v1 to ~3e-15 on problems 1-2 and only to 2e-9 to "
            "1.5e-8 from problem 3 on, so criterion 2's 1e-10 bound does "
            "not hold here; gap_v1_bound is 1e-6.",
        ),
    ),
    "complex-nonherm": Workload(
        name="complex-nonherm",
        why=("the only complex, sparse, non-normal input read from a file: "
             "general oracle path, complex perturbations, a contour rebuilt "
             "every problem; dtype or dense-operator changes must not slow it"),
        config=dict(problem="matrix_market", function="log",
                    quad_kind="contour", n_quad=400, j=40, k=10, eps=1e-3,
                    engines="arnoldi,arnoldi_q,v2", n_problems=20),
        # the quadrature-limited rows below reach ~1e-2 on unlucky seeds
        tolerance=5e-2,
        matrix=dict(m=20, convection=1.0),
        tiny=dict(j=15, k=4, n_quad=200, n_problems=3),
        notes=(
            "arnoldi_q and v2 are quadrature-limited at 400 nodes: some "
            "problems put both at 4e-4 to 1e-2 against the oracle while the "
            "direct arnoldi engine stays near 1e-7. 2 of 16 ten-problem "
            "sequences had no such problem, hence 20 problems: the worst "
            "error, and so accuracy_digits, then varies less from seed to "
            "seed. At 1600 nodes the worst case over 20 problems of seeds "
            "7, 14 and 26 drops to 1.4e-3 (seed 7: 9.8e-3 at 400).",
        ),
    ),
}


def experiment_config(wl, seed, workdir, tiny=False):
    """The `rfom2 run` config of one workload, as ExperimentConfig keywords."""
    kw = dict(wl.config)
    if tiny:
        kw.update(wl.tiny)
    kw["seed"] = seed
    kw["output"] = os.path.join(workdir, "report.csv")
    if wl.matrix is not None:
        kw["matrix_file"] = os.path.join(workdir, "input.mtx")
    return kw


def write_matrix_input(wl, seed, path, tiny=False):
    """Draw complex-nonherm's matrix from the seed and write it as Matrix Market.

    convdiff2d(m, convection) plus i * diag(u) with u uniform on [0, 1):
    complex, non-Hermitian, non-normal and on the 5-point stencil.
    """
    import numpy as np
    import scipy.sparse

    from rfom2 import gen_convection_diffusion_2d, save_matrix_market

    m = 8 if tiny else wl.matrix["m"]
    A = gen_convection_diffusion_2d(m, wl.matrix["convection"])
    rng = np.random.default_rng(seed)
    shift = scipy.sparse.diags(1j * rng.uniform(0.0, 1.0, A.shape[0]))
    save_matrix_market(path, (A + shift).tocsr())
