"""In-memory spans around calls into the envsos modules, recorded from outside.

Tracing replaces a public function with a timing wrapper *where the calling
module imports it* (for example find_certificate as the driver sees it, and
ldl_hermitian as certs and reps see it), and wraps the constructors of the
classes that do a stage's work.  Nothing under src/ changes.  Each span keeps
its name, an optional tag (degree window, level), start, end, parent span and
the id of the benchmark operation it belongs to; spans are written out only
when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        # (id, name, tag, start, end, parent id, op id)
        self.spans: list[tuple] = []
        self.counts: dict = defaultdict(list)  # counter name -> observed values
        self._stack: list[int] = []
        self.run = 0          # pass number, part of every operation id
        self.op_id = None

    # -- recording ---------------------------------------------------------------

    def call(self, name, fn, args, kwargs, tag=None, count=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = _perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _perf()
            self._stack.pop()
            self.spans[sid] = (sid, name, tag, start, end, parent, self.op_id)
        if count is not None:
            for key, value in count(args, result).items():
                self.counts[key].append((sid, value))
        return result

    def op(self, index, label, fn):
        """Run one benchmark operation as a root span; its spans share its id."""
        self.op_id = f"pass{self.run}/op{index}"
        try:
            return self.call("op", fn, (), {}, tag=label)
        finally:
            self.op_id = None

    # -- patching ------------------------------------------------------------------

    def wrap_function(self, module, attr, name, tag=None, count=None):
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = tag(args, kwargs) if tag else None
            return self.call(name, fn, args, kwargs, label, count)

        setattr(module, attr, wrapper)

    def wrap_method(self, cls, attr, name, count=None):
        fn = getattr(cls, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, None, count)

        setattr(cls, attr, wrapper)

    # -- analysis ---------------------------------------------------------------

    def children(self):
        kids = defaultdict(list)
        for span in self.spans:
            if span[5] is not None:
                kids[span[5]].append(span)
        return kids

    def self_times(self):
        """{span id: duration minus the time its child spans cover}."""
        covered = defaultdict(float)
        for span in self.spans:
            if span[5] is not None:
                covered[span[5]] += span[4] - span[3]
        return {s[0]: (s[4] - s[3]) - covered[s[0]] for s in self.spans}

    def path(self, sid):
        parts = []
        while sid is not None:
            span = self.spans[sid]
            parts.append(span[1] + (f"[{span[2]}]" if span[2] else ""))
            sid = span[5]
        return " > ".join(reversed(parts))

    def write(self, path, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, name, tag, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "tag": tag, "start": start,
                                     "end": end, "parent": parent, "op": op_id}) + "\n")


def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else (args[index] if len(args) > index else None)


def install(tracer: Tracer):
    """Wrap every layer boundary the workloads cross."""
    from envsos import auditor, certs, driver, exactla, gram, lie, reps, sos

    degree_tag = lambda a, k: f"D={_arg(a, k, 2, 'degree')}"  # noqa: E731
    level_tag = lambda a, k: f"level={_arg(a, k, 1, 'level') or 0}"  # noqa: E731

    def solve_counts(args, outcome):
        return {"numeric.iterations": outcome.iterations}

    def skeleton_counts(args, _):
        sk = args[0]
        return {"gram.nvars": sk.layout.nvars, "gram.rows": len(sk.rows),
                "gram.block_max": max(sk.layout.block_sizes, default=0)}

    def affine_counts(args, _):
        return {"gram.independent_rows": len(args[0].system.independent)}

    def comm_counts(args, _):
        return {"gram.comm_block": len(args[0].basis_polys)}

    for module in (sos, driver):
        tracer.wrap_function(module, "find_certificate", "sos.find_certificate", tag=degree_tag)
        tracer.wrap_function(module, "commutative_sos", "sos.commutative_sos", tag=level_tag)
        tracer.wrap_function(module, "sample_sign_information", "sos.sample")
    tracer.wrap_function(sos, "solve_feasibility", "numeric.solve", count=solve_counts)
    tracer.wrap_function(sos, "round_and_verify", "certs.round")
    tracer.wrap_function(sos, "round_and_verify_commutative", "certs.round")
    tracer.wrap_method(gram.GramSkeleton, "__init__", "gram.skeleton", count=skeleton_counts)
    tracer.wrap_method(gram.SdpProblem, "__init__", "gram.affine", count=affine_counts)
    tracer.wrap_method(gram.CommGramProblem, "__init__", "gram.comm_problem", count=comm_counts)

    for module in (certs, reps):
        tracer.wrap_function(module, "ldl_hermitian", "exactla.ldl")
    tracer.wrap_function(certs, "verify_certificate", "certs.verify")
    tracer.wrap_function(certs, "verify_commutative_certificate", "certs.verify")
    tracer.wrap_function(certs, "verify_certificate_json", "certs.verify_json")
    tracer.wrap_function(certs, "certificate_from_json", "certs.load")
    tracer.wrap_function(certs, "parse", "exprs.parse")
    tracer.wrap_function(lie, "from_json_dict", "lie.from_json")

    tracer.wrap_function(driver, "search_certificate", "driver.search_certificate")
    tracer.wrap_function(driver, "check_assumption_ii", "driver.assumption_ii")
    tracer.wrap_function(driver, "check_assumption_i", "driver.assumption_i")
    tracer.wrap_function(driver, "scan_dual_window", "reps.scan")
    tracer.wrap_function(driver, "make_spin_rep", "reps.spin_rep")
    tracer.wrap_function(driver, "conjugate_by", "pbw.conjugate")

    tracer.wrap_function(auditor, "audit_cleared_commutator", "auditor.cleared")
    tracer.wrap_function(auditor, "audit_cleared_degree2", "auditor.cleared")
    tracer.wrap_function(auditor, "audit_r_relations", "auditor.r_relations")
    tracer.wrap_method(auditor.OperatorAlgebraContext, "__init__", "auditor.context")
    tracer.wrap_function(auditor, "cmat_inverse", "exactla.cmat_inverse")

    class TracedEchelon(exactla.EchelonAccumulator):
        """The accumulator as the auditor sees it; the affine layer keeps its own."""

        def insert(self, vec):
            return tracer.call("exactla.echelon", super().insert, (vec,), {})

        def contains(self, vec):
            return tracer.call("exactla.echelon", super().contains, (vec,), {})

    auditor.EchelonAccumulator = TracedEchelon


# Layers that get spans.  scalar and poly arithmetic is too fine-grained to
# wrap from outside, and no workload drives the cli module.
LAYERS = ("sos", "gram", "numeric", "certs", "exactla", "driver", "reps", "pbw",
          "auditor", "lie", "exprs")


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer figures per traced pass (times and call counts are means)."""
    def total(name):
        return sum(s[4] - s[3] for s in tracer.spans if s[1] == name) / passes

    def calls(name):
        return sum(1 for s in tracer.spans if s[1] == name) / passes

    def largest(key):
        return max((v for _, v in tracer.counts.get(key, [])), default=0)

    self_t = tracer.self_times()
    kids = tracer.children()
    search = 0.0
    for span in tracer.spans:
        if span[1] == "driver.search_certificate":
            checks = sum(k[4] - k[3] for k in kids[span[0]] if k[1].startswith("driver.assumption"))
            search += span[4] - span[3] - checks
    iterations = sum(v for _, v in tracer.counts.get("numeric.iterations", [])) / passes
    solve_s = total("numeric.solve")
    out = {
        "gram.skeleton_s": total("gram.skeleton"),
        "gram.nvars": largest("gram.nvars"),
        "gram.rows": largest("gram.rows"),
        "gram.block_max": largest("gram.block_max"),
        "gram.affine_s": total("gram.affine"),
        "gram.independent_rows": largest("gram.independent_rows"),
        "gram.comm_problem_s": total("gram.comm_problem"),
        "gram.comm_block": largest("gram.comm_block"),
        "numeric.solve_s": solve_s,
        "numeric.iterations": iterations,
        "numeric.iter_ms": 1000.0 * solve_s / iterations if iterations else 0.0,
        "certs.round_s": sum(self_t[s[0]] for s in tracer.spans if s[1] == "certs.round") / passes,
        "certs.verify_s": total("certs.verify_json"),
        "exactla.ldl_s": total("exactla.ldl"),
        "exactla.ldl_calls": calls("exactla.ldl"),
        "exactla.echelon_s": total("exactla.echelon"),
        "exactla.echelon_calls": calls("exactla.echelon"),
        "sos.sample_s": total("sos.sample"),
        "driver.assumption_ii_s": total("driver.assumption_ii"),
        "driver.assumption_i_s": total("driver.assumption_i"),
        "driver.search_s": search / passes,
        "reps.scan_s": total("reps.scan"),
        "pbw.conjugate_s": total("pbw.conjugate"),
        "auditor.cleared_s": total("auditor.cleared"),
        "auditor.r_relations_s": total("auditor.r_relations"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            self_t[s[0]] for s in tracer.spans if s[1].split(".")[0] == layer) / passes
    out["trace.spans"] = len(tracer.spans) / passes
    return out


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "bits" if name.endswith("_bits") else "count"


# ROADMAP's hand measurements: where a traced run should find the most self time
EXPECTED_DOMINANT = {
    "theorem-su2": lambda path: "driver.assumption_i" in path and path.endswith("numeric.solve"),
    "su2-ladder": lambda path: "[D=8]" in path and path.endswith("gram.affine"),
}


STAGES = ("gram.skeleton", "gram.affine", "gram.comm_problem", "numeric.solve", "certs.round",
          "sos.sample", "driver.assumption_ii", "driver.assumption_i", "auditor.context",
          "auditor.cleared", "auditor.r_relations", "certs.verify_json")
SEARCHES = ("sos.find_certificate", "sos.commutative_sos")


def op_breakdown(tracer: Tracer, run: int) -> list[str]:
    """Inclusive time per stage for each operation of the given pass.

    An operation that runs several searches (the ladder's four degrees) gets
    one line per search made directly by the operation, tagged with its
    degree or level.
    """
    def row_of(sid):
        below = None
        while tracer.spans[sid][1] != "op":
            below, sid = sid, tracer.spans[sid][5]
        if below is not None and tracer.spans[below][1] in SEARCHES:
            return below
        return sid

    prefix = f"pass{run}/"
    rows: dict = {}

    def row(sid):
        key = row_of(sid)
        if key not in rows:
            span, op = tracer.spans[key], tracer.spans[sid]
            while op[1] != "op":
                op = tracer.spans[op[5]]
            label = op[2] + (f" [{span[2]}]" if span[1] != "op" else "")
            rows[key] = {"label": label, "total": span[4] - span[3], "iterations": 0}
        return rows[key]

    for span in tracer.spans:
        if (span[6] or "").startswith(prefix) and span[1] in STAGES + ("op",) + SEARCHES:
            r = row(span[0])
            if span[1] in STAGES:
                r[span[1]] = r.get(span[1], 0.0) + span[4] - span[3]
    for sid, value in tracer.counts.get("numeric.iterations", []):
        if (tracer.spans[sid][6] or "").startswith(prefix):
            row(sid)["iterations"] += value
    lines = []
    for _, r in sorted(rows.items()):
        parts = [f"{stage} {r[stage]:.3f}s" for stage in STAGES if stage in r]
        if r["iterations"]:
            parts.append(f"{r['iterations']} iterations")
        lines.append(" | ".join([f"{r['label']}: {r['total']:.3f}s"] + parts))
    return lines


def dominant_stage(tracer: Tracer):
    """(path, seconds) of the span path with the largest summed self time."""
    self_t = tracer.self_times()
    by_path = defaultdict(float)
    for span in tracer.spans:
        if span[1] != "op":
            by_path[tracer.path(span[0])] += self_t[span[0]]
    if not by_path:
        return None, 0.0
    path = max(by_path, key=by_path.get)
    return path, by_path[path]
