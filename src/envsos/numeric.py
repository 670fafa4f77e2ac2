"""Floating-point feasibility search by alternating projections.

The iteration bounces between the affine coefficient-matching subspace
(projector precomputed exactly, applied in floating point) and the PSD cone
(eigendecomposition clip of each n x n Hermitian block).  A decaying eigenvalue
floor nudges iterates toward the relative interior, which is what makes the
later rational rounding land.

When the gap between the two sets stalls at a positive value, the gap vector
yields a separating functional: y with S = -mat(A^T y) PSD and b . y > 0.  No
affine-feasible PSD point can then exist; this is reported as numeric evidence
with the normalized dual value -b.y / ||S||_W (W the Frobenius metric of the
variable coordinates), never as a proof.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import nonnegative_int


INFEAS_TOL = 1e-3  # normalized dual value below -INFEAS_TOL counts as evidence
PSD_FLOOR = 1e-4  # initial eigenvalue floor of the PSD projection, decays each step
STALL_WINDOW = 200  # iterations whose gaps must agree before a stall is declared
BLOCK_CAP = 60  # largest Gram block the dense eigendecompositions accept


class SolveOptions:
    """Settable values of the numeric search.

    The search itself is deterministic; `seed` drives only the random
    directions of the exact sign sampler (sos.sample_sign_information) that
    the commutative mode and the symbol check run before any solver work.
    A tol that is not a finite positive number, or a max_iters or seed that
    is not a nonnegative int, is a ValueError.
    """

    def __init__(self, tol: float = 1e-9, max_iters: int = 20000, seed: int = 0):
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
            raise ValueError(f"tol must be a finite positive number, not {tol!r}")
        self.tol = tol
        self.max_iters = nonnegative_int(max_iters, "max_iters")
        self.seed = nonnegative_int(seed, "seed")


class NumericOutcome:
    """status is one of 'candidate', 'infeasible-evidence', 'inconclusive'."""

    def __init__(self, status: str, g=None, residual=None, min_eig=None,
                 dual=None, iterations=0):
        self.status = status
        self.g = g
        self.residual = residual
        self.min_eig = min_eig
        self.dual = dual or {}
        self.iterations = iterations

    def report_dict(self):
        out = {"status": self.status, "iterations": self.iterations}
        if self.residual is not None:
            out["constraint_residual"] = float(self.residual)
        if self.min_eig is not None:
            out["min_eigenvalue"] = float(self.min_eig)
        if self.dual:
            out["dual"] = {
                k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                for k, v in self.dual.items()
            }
        return out


def check_block_cap(block_sizes):
    """ValueError when a Gram block is larger than BLOCK_CAP.

    Its one caller, gram._FacedProblem._restrict, runs it on the sizes of a
    Gram problem's (reduced) blocks before any row is composed or any exact
    affine operator built, so an oversized block is rejected before that work.
    """
    if block_sizes and max(block_sizes) > BLOCK_CAP:
        raise ValueError(f"a Gram block of size {max(block_sizes)} exceeds the cap {BLOCK_CAP}")


def _project_psd(mats, floor: float):
    """Clip each Hermitian block's eigenvalues at `floor`."""
    return [(Q * np.maximum(w, floor)) @ Q.conj().T for w, Q in map(np.linalg.eigh, mats)]


def _min_eigenvalue(mats) -> float:
    """The smallest eigenvalue over the Hermitian blocks, 0.0 when all are empty."""
    return min((float(np.linalg.eigvalsh(M)[0]) for M in mats if M.size), default=0.0)


def solve_feasibility(problem, opts: SolveOptions | None = None) -> NumericOutcome:
    """Search for a numeric PSD solution of the problem's affine system.

    `problem` provides .system (AffineSystem) and .layout (VariableLayout).
    """
    opts = opts or SolveOptions()
    system = problem.system
    layout = problem.layout

    # exact linear infeasibility needs no numerics at all
    if system.degenerate:
        y = system.exact_infeasibility_combination()
        return NumericOutcome(
            "infeasible-evidence",
            dual={
                "kind": "exact-linear",
                "dual_value": -1.0,
                "combination": [str(v) for v in y] if y is not None else None,
            },
        )

    if layout.nvars == 0:
        # no variables: feasible iff every rhs row is zero (checked above)
        return NumericOutcome("candidate", g=np.zeros(0), residual=0.0, min_eig=0.0)

    g = system.min_norm_point_float()

    floor = PSD_FLOOR
    gap_history = []
    g_psd = g
    it = 0
    stalled = False
    for it in range(1, opts.max_iters + 1):
        g_psd = layout.unembed_float(_project_psd(layout.embed_float(g), floor))
        g_aff = system.project_float(g_psd)
        gap = float(np.linalg.norm(g_aff - g_psd))
        gap_history.append(gap)
        g = g_aff
        floor = max(floor * 0.995, 0.0)
        if it % 10 == 0 or gap <= opts.tol:
            residual = system.residual_float(g_psd)
            min_eig = _min_eigenvalue(layout.embed_float(g_psd))
            if residual <= opts.tol and min_eig >= -opts.tol:
                return NumericOutcome("candidate", g=g_psd, residual=residual,
                                      min_eig=min_eig, iterations=it)
        # stall detection for infeasible instances
        if it > 2 * STALL_WINDOW and gap > 100 * opts.tol:
            recent = gap_history[-STALL_WINDOW:]
            if max(recent) - min(recent) < 1e-4 * max(gap, 1e-12):
                outcome = _dual_evidence(system, layout, g_aff, g_psd, it)
                if outcome is not None:
                    return outcome
                stalled = True
                break

    residual = system.residual_float(g_psd)
    min_eig = _min_eigenvalue(layout.embed_float(g_psd))
    if residual <= opts.tol and min_eig >= -opts.tol:
        return NumericOutcome("candidate", g=g_psd, residual=residual,
                              min_eig=min_eig, iterations=it)
    # a stall has already tried these vectors for dual evidence
    outcome = None if stalled else _dual_evidence(system, layout, g, g_psd, it)
    if outcome is not None:
        return outcome
    return NumericOutcome("inconclusive", g=g_psd, residual=residual,
                          min_eig=min_eig, iterations=it)


def _dual_evidence(system, layout, g_aff, g_psd, iterations):
    """Build the separating functional from the stalled gap vector."""
    A, b, N, winv = system.float_data()
    gap = g_aff - g_psd  # equals -W^-1 A^T y for the multiplier below
    y = N @ (A @ g_psd - b)
    s_vec = winv * (A.T @ y)  # variable-space coordinates of S = -embed(gap)
    norm = float(np.sqrt(np.sum(s_vec * s_vec / winv)))  # ||S||_W
    if norm < 1e-14:
        return None
    min_eig_S = _min_eigenvalue(layout.embed_float(s_vec))
    # every affine-feasible PSD point X would give 0 <= <S, X> = b.y < 0
    dual_value = float(b @ y) / norm
    if dual_value < -INFEAS_TOL and min_eig_S / norm >= -1e-7:
        return NumericOutcome(
            "infeasible-evidence",
            residual=float(np.linalg.norm(gap)),
            dual={
                "kind": "separating-functional",
                "dual_value": dual_value,
                "min_eigenvalue_S": min_eig_S / norm,
            },
            iterations=iterations,
        )
    return None
