"""The five workloads: inputs from a seed, one timed pass, independent checks.

A pass runs every operation of a workload once, from generated input data to
a verdict whose certificates have been emitted as JSON text (as the CLI
prints them) and re-verified from that text with verify_certificate_json.
Each operation builds its own objects from plain input data, so no state of
the package carries over from one pass to the next, and every pass attempts
the same operations.  Checks run after the timed section, on the first pass,
with the benchmark's own arithmetic (oracle.py); later passes must emit
byte-identical text.

Calls go through module attributes (sos.find_certificate, not a bound name),
so that a traced run sees them through the wrappers in spans.py.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

from envsos import auditor, certs, driver, reps, sos
from envsos.gram import GramSkeleton
from envsos.lie import builtin
from envsos.numeric import SolveOptions
from envsos.pbw import AlgebraElement
from envsos.poly import CommutativePoly
from envsos.scalar import Scalar

import oracle


def emit(payload) -> str:
    """The text the CLI writes for a JSON payload."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def element(algebra, terms: dict) -> AlgebraElement:
    return AlgebraElement(algebra, {m: Scalar(re, im) for m, (re, im) in terms.items()})


# FeasibilityReport statuses that decide the question; any other status is
# no verdict at all.  A missing verdict makes an operation fail; a definite
# verdict is always checked, and a wrong one is a check error.
VERDICTS = ("certificate", "not-positive")


class Op:
    """One operation of a pass: what it emitted and how it ended."""

    def __init__(self, failed: bool, certificates=(), texts=(), result=None):
        self.label = ""
        self.latency = 0.0              # seconds from input data to re-verified text
        self.failed = failed            # no verdict, where one is known to exist
        self.certificates = list(certificates)  # (label, certificate JSON text)
        self.verified = []              # verify_certificate_json verdict per certificate
        self.texts = list(texts)        # every emitted text, for the byte-identity check
        self.result = result            # what the checks read


def run_op(tracer, index: int, label: str, fn) -> Op:
    """Time fn() plus the re-verification of every certificate it emitted."""
    def body():
        op = fn()
        op.verified = [certs.verify_certificate_json(json.loads(text))
                       for _, text in op.certificates]
        return op

    start = time.perf_counter()
    op = tracer.op(index, label, body) if tracer else body()
    op.latency = time.perf_counter() - start
    op.label = label
    return op


class Workload:
    name = ""

    def generate(self, seed: int):
        raise NotImplementedError

    def run_pass(self, inputs, tracer=None) -> list[Op]:
        raise NotImplementedError

    def check(self, inputs, ops: list[Op]) -> list[tuple[str, str]]:
        """(label, reason) for every output of the first pass that is wrong."""
        raise NotImplementedError


def _report_op(label, report) -> Op:
    """A FeasibilityReport as an operation; result = (label, status, emitted JSON)."""
    if report.certificate is not None:
        text = emit(report.certificate.to_json_dict())
        certificates = [(label, text)]
    else:
        text, certificates = emit(report.to_json_dict()), []
    return Op(report.status not in VERDICTS, certificates, [text],
              [(label, report.status, json.loads(text))])


def _merge(op: Op, part: Op) -> None:
    op.failed |= part.failed
    op.certificates += part.certificates
    op.texts += part.texts
    op.result += part.result


def _wrong_verdicts(parts, expect) -> list:
    """An error for every definite verdict that is not the known one."""
    return [(label, f"{status} where {expect} is known")
            for label, status, _ in parts if status in VERDICTS and status != expect]


def _check_weighted(straightener, names, text, target, generators, where) -> list:
    reason = oracle.check_weighted_certificate(json.loads(text), straightener, names,
                                               target, generators)
    return [(where, reason)] if reason else []


# -- su2-ladder --------------------------------------------------------------------


class Su2Ladder(Workload):
    """One operation: a^1..a^4 at D=2k, each with a fresh algebra and skeleton.

    The four targets differ in cost by three orders of magnitude, so a median
    over them would time the D=6 target alone; the traced run splits them.
    """

    name = "su2-ladder"

    def generate(self, seed):
        st = oracle.Straightener("su2")
        a = oracle.canonical_a(3)
        powers, p = [], oracle.unit(3)
        for _ in range(4):
            p = st.mul(p, a)
            powers.append(p)
        return {"targets": powers, "seed": seed}

    def run_pass(self, inputs, tracer=None):
        def ladder():
            op = Op(False, result=[])
            for k, target in enumerate(inputs["targets"], start=1):
                su2 = builtin("su2")
                report = sos.find_certificate(element(su2, target), [AlgebraElement.unit(su2)],
                                              2 * k, opts=SolveOptions(seed=inputs["seed"]))
                _merge(op, _report_op(f"a^{k} D={2 * k}", report))
            return op

        return [run_op(tracer, 0, "a^1..a^4", ladder)]

    def check(self, inputs, ops):
        st = oracle.Straightener("su2")
        targets = {f"a^{k} D={2 * k}": t for k, t in enumerate(inputs["targets"], start=1)}
        errors = _wrong_verdicts(ops[0].result, "certificate")
        for label, text in ops[0].certificates:
            errors += _check_weighted(st, ["x1", "x2", "x3"], text, targets[label],
                                      [oracle.unit(3)], label)
        return errors


# -- planted-batch -----------------------------------------------------------------

PLANTED_TARGETS = 40


class PlantedBatch(Workload):
    name = "planted-batch"

    # generators 1 and 2 - H with H = -i x1, i.e. 2 + i x1
    generators = [oracle.unit(3), {(0, 0, 0): (Fraction(2), Fraction(0)),
                                   (1, 0, 0): (Fraction(0), Fraction(1))}]
    degree = 4

    def generate(self, seed):
        """Criterion 8's recipe: c = sum over blocks of len(basis) + 2 terms z^* f_l z."""
        rng = random.Random(seed)
        st = oracle.Straightener("su2")
        bases = [oracle.monomials_up_to(3, (self.degree - d) // 2) for d in (0, 1)]
        targets = []
        for _ in range(PLANTED_TARGETS):
            c: dict = {}
            for basis, gen in zip(bases, self.generators):
                # entries re, im = randint(-2, 2) / randint(1, 2); 2z is a Gaussian
                # integer vector and sum conj(2z_p) 2z_q = (A + iB) is 4 times the Gram
                zs = [[(2 * rng.randint(-2, 2) // rng.randint(1, 2),
                        2 * rng.randint(-2, 2) // rng.randint(1, 2)) for _ in basis]
                      for _ in range(len(basis) + 2)]
                n = len(basis)
                A = [[sum(z[p][0] * z[q][0] + z[p][1] * z[q][1] for z in zs)
                      for q in range(n)] for p in range(n)]
                B = [[sum(z[p][0] * z[q][1] - z[p][1] * z[q][0] for z in zs)
                      for q in range(n)] for p in range(n)]
                c = oracle.el_add(c, oracle.gram_expansion(st, basis, A, B, 4, gen))
            targets.append(c)
        return {"targets": targets}

    def run_pass(self, inputs, tracer=None):
        su2 = builtin("su2")
        f = [element(su2, g) for g in self.generators]
        skeleton = GramSkeleton(su2, f, self.degree)
        ops = []
        for k, target in enumerate(inputs["targets"]):
            def certify(target=target, k=k):
                report = sos.find_certificate(element(su2, target), f, self.degree,
                                              skeleton=skeleton, opts=SolveOptions(seed=k))
                return _report_op(f"planted {k}", report)

            ops.append(run_op(tracer, k, f"planted {k}", certify))
        return ops

    def check(self, inputs, ops):
        st = oracle.Straightener("su2")
        errors = []
        for op, target in zip(ops, inputs["targets"]):
            errors += _wrong_verdicts(op.result, "certificate")
            for label, text in op.certificates:
                errors += _check_weighted(st, ["x1", "x2", "x3"], text, target,
                                          self.generators, label)
        return errors


# -- theorem-su2 -------------------------------------------------------------------


class TheoremSu2(Workload):
    name = "theorem-su2"

    def generate(self, seed):
        st = oracle.Straightener("su2")
        a = oracle.canonical_a(3)
        target = st.mul(a, a)
        norm = oracle.squared_norm(3)
        return {"target": target, "symbol": oracle.poly_mul(norm, norm)}

    def run_pass(self, inputs, tracer=None):
        def theorem():
            su2 = builtin("su2")
            inst = driver.TheoremInstance(
                su2, element(su2, inputs["target"]), [AlgebraElement.unit(su2)], Fraction(1),
                n_max=2, d_max=8, window=Fraction(3), solver=SolveOptions(seed=12))
            transcript = driver.search_certificate(inst)
            text = emit(transcript.to_json_dict())
            cert = transcript.certificate
            # no verdict: the search ran out, or the symbol was left undecided
            failed = (transcript.status == "exhausted"
                      or (transcript.assumption_ii or {}).get("status") == "inconclusive")
            return Op(failed, [("theorem a^2", emit(cert.to_json_dict()))] if cert else [],
                      [text], json.loads(text))

        op = run_op(tracer, 0, "theorem a^2", theorem)
        # the margin hypothesis for a^2 - 1 should end in a direct proof; a
        # refutation ("failed") is a wrong verdict, which check() reports
        margin = Op(op.result.get("assumption_i", {}).get("label") not in ("proof", "failed"))
        margin.label = "margin proof a^2 - 1"
        margin.latency = None
        return [op, margin]

    def check(self, inputs, ops):
        data, label = ops[0].result, ops[0].label
        errors = []
        if data["status"] == "assumption-failed":
            errors.append((label, f"assumption-failed ({data.get('detail')}), but both "
                                  "hypotheses hold"))
        ii = data.get("assumption_ii", {})
        if ii.get("status") in ("counterexample", "not-strictly-positive"):
            errors.append((label, f"assumption_ii is {ii}, but the symbol is positive definite"))
        elif ii.get("status") == "certified-positive":
            if ii.get("level") != 0:
                errors.append((label, f"assumption_ii certified at level {ii.get('level')}, "
                                      "not at level 0"))
            if oracle.parse_form(ii["symbol"], 3) != inputs["symbol"]:
                errors.append((label, f"symbol {ii['symbol']} is not (t1^2+t2^2+t3^2)^2"))
        if data.get("assumption_i", {}).get("evidence") != "pass":
            errors.append((label, "window evidence refutes a^2 - 1 >= 0, which holds on every spin"))
        if data["status"] == "found":
            last = data["attempts"][-1]
            if last["n"] != 0 or last["status"] != "certificate":
                errors.append((label, f"search ended at n={last['n']} with {last['status']}, "
                                      "expected n=0"))
            if not ops[0].certificates:
                errors.append((label, "found without a certificate"))
        for cert_label, text in ops[0].certificates:
            errors += _check_weighted(oracle.Straightener("su2"), ["x1", "x2", "x3"], text,
                                      inputs["target"], [oracle.unit(3)], cert_label)
        return errors


# -- sphere-forms ------------------------------------------------------------------

PSD_NOT_SOS = {
    "motzkin": {(4, 2, 0): 1, (2, 4, 0): 1, (2, 2, 2): -3, (0, 0, 6): 1},
    "choi-lam-S": {(4, 2, 0): 1, (0, 4, 2): 1, (2, 0, 4): 1, (2, 2, 2): -3},
    "robinson": {(6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1, (4, 2, 0): -1, (2, 4, 0): -1,
                 (4, 0, 2): -1, (2, 0, 4): -1, (0, 4, 2): -1, (0, 2, 4): -1, (2, 2, 2): 3},
}
# negative at (1, 1, 0): 1 + 1 - 3 = -1
INDEFINITE = {(4, 0, 0): 1, (0, 4, 0): 1, (2, 2, 0): -3, (0, 0, 4): 1}
PLANTED_QUARTICS = 8


class SphereForms(Workload):
    """One operation per form: the multiplier hierarchy from level 0 up to level 1.

    The walk stops at the first definite verdict, a certificate or a negative
    point, as a user climbing the hierarchy would.
    """

    name = "sphere-forms"
    max_level = 1

    def generate(self, seed):
        """(label, nvars, form, level of the verdict, verdict) for every form."""
        rng = random.Random(seed)
        cases = [(name, 3, {m: Fraction(v) for m, v in coeffs.items()}, 1, "certificate")
                 for name, coeffs in PSD_NOT_SOS.items()]
        quadrics = oracle.monomials_up_to(4, 2)[5:]  # the ten degree-2 monomials
        for j in range(PLANTED_QUARTICS):
            form: dict = {}
            for _ in range(len(quadrics) + 2):
                q = {m: Fraction(rng.randint(-3, 3)) for m in quadrics}
                for m, v in oracle.poly_mul(q, q).items():
                    form[m] = form.get(m, 0) + v
            cases.append((f"quartic {j}", 4, {m: v for m, v in form.items() if v}, 0,
                          "certificate"))
        cases.append(("indefinite", 3, {m: Fraction(v) for m, v in INDEFINITE.items()}, 0,
                      "not-positive"))
        return {"cases": cases}

    def run_pass(self, inputs, tracer=None):
        ops = []
        for label, nvars, form, _, _ in inputs["cases"]:
            def decide(label=label, nvars=nvars, form=form):
                parts = []
                for level in range(self.max_level + 1):
                    report = sos.commutative_sos(CommutativePoly(nvars, form), level)
                    parts.append(_report_op(label, report))
                    if report.status in VERDICTS:
                        break
                op = parts[-1]
                op.texts = [text for part in parts for text in part.texts]
                op.result = (level, op.result[0])
                return op

            ops.append(run_op(tracer, len(ops), label, decide))
        return ops

    def check(self, inputs, ops):
        errors = []
        for op, (label, nvars, form, level, expect) in zip(ops, inputs["cases"]):
            reached, verdict = op.result
            _, status, data = verdict
            errors += _wrong_verdicts([verdict], expect)
            if status == "not-positive":
                point = [Fraction(v) for v in data.get("witness_point", [])]
                if len(point) != nvars or oracle.poly_eval(form, point) >= 0:
                    errors.append((label, f"witness point {point} is not negative"))
            elif status == "certificate":
                if reached < level:
                    errors.append((label, f"certificate at level {reached}, but the form "
                                          f"has none below level {level}"))
                if data.get("level") != reached:
                    errors.append((label, f"certificate states level {data.get('level')}"))
                target = form
                for _ in range(reached):
                    target = oracle.poly_mul(oracle.squared_norm(nvars), target)
                reason = oracle.check_commutative_certificate(data, target)
                if reason:
                    errors.append((label, reason))
        return errors


# -- audit-su2 ---------------------------------------------------------------------

AUDIT_ALGEBRAS = ("abelian(3)", "su2", "heisenberg3", "affine_line", "sl2r")
SPIN_CONTEXTS = ((Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(2)))
POINT_CONTEXTS = ((0, 0), (1, 2), (-1, 1), (2, 0), (Fraction(1, 2), Fraction(-3, 2)))


class AuditSu2(Workload):
    """One operation: the audits of criteria 6 and 7 plus canonical certificates.

    Most parts are short (5 to 20 ms for a builtin or a point, 2 s and 7 s for
    the spin contexts), too short or too few to time steadily one by one; the
    traced run splits them.
    """

    name = "audit-su2"

    def generate(self, seed):
        return {"algebras": AUDIT_ALGEBRAS, "spins": SPIN_CONTEXTS, "points": POINT_CONTEXTS}

    def run_pass(self, inputs, tracer=None):
        def audit():
            op = Op(False, result={"cleared": [], "canonical": [], "relations": []})
            for name in inputs["algebras"]:
                alg = builtin(name)
                commutator = auditor.audit_cleared_commutator(alg, name)
                texts = [emit(commutator.to_json_dict()),
                         emit(auditor.audit_cleared_degree2(alg, name).to_json_dict())]
                # a = 1 - sum x_k^2 = sum_{k=0}^d x_k^* x_k: identity Gram at D=2
                report = sos.find_certificate(element(alg, oracle.canonical_a(alg.dim)),
                                              [AlgebraElement.unit(alg)], 2)
                part = _report_op(f"canonical {name}", report)
                op.failed |= part.failed
                op.certificates += part.certificates
                op.texts += texts + part.texts
                op.result["canonical"] += part.result
                # the program's x_k a - a x_k, as plain data, for the re-derivation
                lhs = {k: {m: (v.re, v.im) for m, v in el.terms.items()}
                       for k, el in commutator.intermediates.items()}
                op.result["cleared"].append((name, [json.loads(t) for t in texts], lhs))
            contexts = [(f"spins {'+'.join(str(s) for s in pair)}",
                         reps.direct_sum(*(reps.make_spin_rep(s) for s in pair)))
                        for pair in inputs["spins"]]
            contexts += [(f"point {', '.join(str(v) for v in p)}",
                          reps.make_point_rep(builtin("abelian(2)"), p)) for p in inputs["points"]]
            for label, rep in contexts:
                text = emit(auditor.audit_r_relations(auditor.OperatorAlgebraContext(rep)))
                op.texts.append(text)
                op.result["relations"].append((label, json.loads(text)))
            return op

        return [run_op(tracer, 0, "audits", audit)]

    def check(self, inputs, ops):
        result = ops[0].result
        errors = _wrong_verdicts(result["canonical"], "certificate")
        for name, reports, lhs in result["cleared"]:
            for report in reports:
                nonzero = {k: v for k, v in report["residuals"].items() if v != "0"}
                if report["status"] != "pass" or nonzero:
                    errors.append((f"cleared {name}", f"status {report['status']}, "
                                                      f"nonzero residuals {nonzero}"))
            rhs = _cleared_rhs(name)
            if sorted(lhs) != list(range(1, len(rhs) + 1)):
                errors.append((f"cleared {name}", f"commutators reported for {sorted(lhs)}"))
            for k, expected in enumerate(rhs, start=1):
                if lhs.get(k) != expected:
                    errors.append((f"cleared {name}", f"x_{k} a - a x_{k} differs from "
                                                      "the benchmark's re-derivation"))
        for label, text in ops[0].certificates:
            name = label.split(" ", 1)[1]
            dim = oracle.BRACKETS[name][0]
            errors += _check_weighted(oracle.Straightener(name), [f"x{i + 1}" for i in range(dim)],
                                      text, oracle.canonical_a(dim), [oracle.unit(dim)], label)
        for label, report in result["relations"]:
            bad = {r: v["status"] for r, v in report.items() if v["status"] != "pass"}
            if bad:
                errors.append((f"r1-r8 {label}", f"relations not passing: {bad}"))
        return errors


def _cleared_rhs(name) -> list:
    """sum_{i,j} c^j_{ik} (x_i x_j + x_j x_i) for every k, by the benchmark's straightening.

    It equals x_k a - a x_k because [x_k, x_m^2] = [x_k, x_m] x_m + x_m [x_k, x_m].
    """
    st = oracle.Straightener(name)
    dim, table = oracle.BRACKETS[name]

    def bracket(i, k):  # [x_i, x_k] as {j: coeff}
        if i < k:
            return table.get((i, k), {})
        return {j: -v for j, v in table.get((k, i), {}).items()}

    out = []
    for k in range(dim):
        terms = []
        for i in range(dim):
            for j, coeff in bracket(i, k).items():
                c = (Fraction(coeff), Fraction(0))
                terms += [((i, j), c), ((j, i), c)]
        out.append(st.element(terms))
    return out


WORKLOADS = {w.name: w for w in (Su2Ladder(), PlantedBatch(), TheoremSu2(), SphereForms(),
                                 AuditSu2())}
