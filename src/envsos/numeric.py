"""Floating-point feasibility search by alternating projections.

The iteration bounces between the affine coefficient-matching subspace
(projector precomputed exactly, applied in floating point) and the PSD cone
(eigendecomposition clip).  A decaying eigenvalue floor nudges iterates toward
the relative interior, which is what makes the later rational rounding land.

When the gap between the two sets stalls at a positive value, the gap vector
yields a separating functional: y with S = -mat(A^T y) PSD and b . y > 0.  No
affine-feasible PSD point can then exist; this is reported as numeric evidence
with the normalized dual value -b.y / ||S||_F, never as a proof.
"""

from __future__ import annotations

import numpy as np


class SolveOptions:
    """Knobs of the numeric search.

    The search itself is deterministic; `seed` drives only the random
    directions of the exact sign sampler (sos.sample_sign_information) that
    the commutative mode and the symbol check run before any solver work.
    """

    def __init__(self, tol: float = 1e-9, max_iters: int = 20000,
                 infeas_tol: float = 1e-3, seed: int = 0,
                 psd_floor: float = 1e-4, stall_window: int = 200,
                 block_cap: int = 60):
        self.tol = tol
        self.max_iters = max_iters
        self.infeas_tol = infeas_tol
        self.seed = seed
        self.psd_floor = psd_floor
        self.stall_window = stall_window
        self.block_cap = block_cap


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
                if k != "y"
            }
        return out


def _project_psd(mats, floor: float):
    """Clip each symmetric block's eigenvalues at `floor`; return min eigenvalue."""
    out = []
    min_eig = np.inf
    for M in mats:
        if M.size == 0:
            out.append(M)
            continue
        M = 0.5 * (M + M.T)
        w, Q = np.linalg.eigh(M)
        min_eig = min(min_eig, float(w[0]))
        w = np.maximum(w, floor)
        out.append((Q * w) @ Q.T)
    if min_eig is np.inf:
        min_eig = 0.0
    return out, min_eig


def solve_feasibility(problem, opts: SolveOptions | None = None) -> NumericOutcome:
    """Search for a numeric PSD solution of the problem's affine system.

    `problem` provides .system (AffineSystem) and .layout (VariableLayout).
    """
    opts = opts or SolveOptions()
    system = problem.system
    layout = problem.layout
    if layout.block_sizes and max(layout.block_sizes) > opts.block_cap:
        raise ValueError(
            f"a Gram block of size {max(layout.block_sizes)} exceeds the cap {opts.block_cap}"
        )

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

    floor = opts.psd_floor
    gap_history = []
    g_psd = g
    for it in range(1, opts.max_iters + 1):
        mats = layout.embed_float(g)
        mats_psd, _ = _project_psd(mats, floor)
        g_psd = layout.unembed_float(mats_psd)
        g_aff = system.project_float(g_psd)
        gap = float(np.linalg.norm(g_aff - g_psd))
        gap_history.append(gap)
        g = g_aff
        floor = max(floor * 0.995, 0.0)
        if it % 10 == 0 or gap <= opts.tol:
            residual = system.residual_float(g_psd)
            _, min_eig = _project_psd(layout.embed_float(g_psd), 0.0)
            if residual <= opts.tol and min_eig >= -opts.tol:
                return NumericOutcome("candidate", g=g_psd, residual=residual,
                                      min_eig=min_eig, iterations=it)
        # stall detection for infeasible instances
        w = opts.stall_window
        if it > 2 * w and gap > 100 * opts.tol:
            recent = gap_history[-w:]
            if max(recent) - min(recent) < 1e-4 * max(gap, 1e-12):
                outcome = _dual_evidence(system, layout, g_aff, g_psd, opts, it)
                if outcome is not None:
                    return outcome
                break

    residual = system.residual_float(g_psd)
    _, min_eig = _project_psd(layout.embed_float(g_psd), 0.0)
    if residual <= opts.tol and min_eig >= -opts.tol:
        return NumericOutcome("candidate", g=g_psd, residual=residual,
                              min_eig=min_eig, iterations=opts.max_iters)
    outcome = _dual_evidence(system, layout, g, g_psd, opts, opts.max_iters)
    if outcome is not None:
        return outcome
    return NumericOutcome("inconclusive", g=g_psd, residual=residual,
                          min_eig=min_eig, iterations=opts.max_iters)


def _dual_evidence(system, layout, g_aff, g_psd, opts, iterations):
    """Build the separating functional from the stalled gap vector."""
    A, b, N, winv = system.float_data()
    if A.shape[0] == 0:
        return None
    gap = g_aff - g_psd  # equals -W^-1 A^T y for the multiplier below
    y = N @ (A @ g_psd - b)
    s_vec = winv * (A.T @ y)  # variable-space coordinates of S = -embed(gap)
    S_blocks = layout.embed_float(s_vec)
    norm = np.sqrt(sum(float(np.sum(M * M)) for M in S_blocks))
    if norm < 1e-14:
        return None
    min_eig_S = min(
        (float(np.linalg.eigvalsh(0.5 * (M + M.T))[0]) for M in S_blocks if M.size),
        default=0.0,
    )
    # every affine-feasible PSD point X would give 0 <= <S, X> = b.y < 0
    dual_value = float(b @ y) / norm
    if dual_value < -opts.infeas_tol and min_eig_S / norm >= -1e-7:
        return NumericOutcome(
            "infeasible-evidence",
            residual=float(np.linalg.norm(gap)),
            dual={
                "kind": "separating-functional",
                "dual_value": dual_value,
                "min_eigenvalue_S": min_eig_S / norm,
                "y": y,
            },
            iterations=iterations,
        )
    return None
