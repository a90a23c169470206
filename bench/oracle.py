"""Expected outputs for every benchmark op.

Each check returns a list of problems; an empty list means the output is
correct.  The expectations come from the instance family (inputs.Instance),
never from the program under test:

* groups, groupoids, the super line and their duals are Hopf: exit 0, both
  Galois maps invertible, the antipode found and equal to the known one
  (arrow to inverse arrow on groupoids);
* non-group monoids are not Hopf: exit 1, the linear solve reports
  ``no_solution``;
* a Hopf-module round trip holds every ``rt.*`` entry, and the coinvariants
  of K_omega(d) have dimension d times the base dimension.
"""

from __future__ import annotations

from fractions import Fraction


def _failed_entries(section):
    return [e["id"] for e in section if not e["holds"] and not e["informational"]]


def _antipode_problems(inst, entries, where):
    """entries are report rows [col, row, value] of the antipode matrix."""
    if inst.antipode is None:
        return []
    got = {(row, col): Fraction(v) for col, row, v in entries}
    want = {key: Fraction(v) for key, v in inst.antipode.items()}
    return [] if got == want else [f"{where} differs from the known antipode"]


def check_report(inst, command, code, report, d=None):
    """Problems with the exit code and --out report of one CLI command."""
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    verdicts = report.get("verdicts", {})
    dims = report.get("dims", {})
    expect(dims.get("n") == inst.n, f"dims.n {dims.get('n')} != {inst.n}")
    if command == "check":
        expect(code == 0, f"exit {code} != 0")
        expect(verdicts.get("axioms_pass") is True, "axioms_pass is not true")
        for name, section in report.get("sections", {}).items():
            failed = _failed_entries(section)
            expect(not failed, f"section {name} fails {failed}")
        return problems
    if command == "galois":
        expect(code == (0 if inst.hopf else 1), f"exit {code}")
        expect(dims.get("r") == inst.base_dim, f"base dim {dims.get('r')}")
        expect(verdicts.get("gamma_invertible") is inst.hopf,
               "gamma_invertible is wrong")
        expect(verdicts.get("gamma_prime_invertible") is inst.hopf,
               "gamma_prime_invertible is wrong")
        return problems
    if command == "antipode":
        expect(code == (0 if inst.hopf else 1), f"exit {code}")
        expect(dims.get("r") == inst.base_dim, f"base dim {dims.get('r')}")
        expect(verdicts.get("gamma_invertible") is inst.hopf,
               "gamma_invertible is wrong")
        status = verdicts.get("linear_status")
        if not inst.hopf:
            expect(status == "no_solution", f"linear_status {status}")
            expect("antipode" not in report, "antipode reported")
            return problems
        expect(status == "found", f"linear_status {status}")
        failed = _failed_entries(report.get("sections", {}).get("antipode", []))
        expect(not failed, f"antipode section fails {failed}")
        if "antipode" not in report:
            problems.append("no antipode reported")
            return problems
        problems += _antipode_problems(inst, report["antipode"]["entries"],
                                       "antipode")
        if "antipode_linear" in report:
            problems += _antipode_problems(
                inst, report["antipode_linear"]["entries"], "antipode_linear")
        return problems
    if command == "hopfmod":
        expect(code == 0, f"exit {code} != 0")
        for key in ("module_pass", "hopf", "roundtrip_pass"):
            expect(verdicts.get(key) is True, f"{key} is not true")
        expect(dims.get("r") == inst.base_dim, f"base dim {dims.get('r')}")
        expect(dims.get("carrier") == inst.n * d, "carrier dimension")
        expect(dims.get("coinvariants") == d * inst.base_dim,
               f"coinvariants {dims.get('coinvariants')} != "
               f"{d} * {inst.base_dim}")
        roundtrip = report.get("sections", {}).get("roundtrip", [])
        expect(any(e["id"].startswith("rt.") for e in roundtrip),
               "no rt.* entries")
        for name, section in report.get("sections", {}).items():
            failed = _failed_entries(section)
            expect(not failed, f"section {name} fails {failed}")
        return problems
    raise ValueError(f"unknown command {command}")


def check_verdict(inst, verdict):
    """Problems with a hopf.FundamentalVerdict for the instance."""
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    expect(verdict.hopf is inst.hopf, f"hopf {verdict.hopf}")
    expect(verdict.gamma_invertible is inst.hopf, "gamma_invertible is wrong")
    expect(verdict.gamma_prime_invertible is inst.hopf,
           "gamma_prime_invertible is wrong")
    if not inst.hopf:
        expect(verdict.linear_status == "no_solution",
               f"linear_status {verdict.linear_status}")
        expect(verdict.antipode is None, "antipode found")
        return problems
    expect(verdict.linear_status == "found",
           f"linear_status {verdict.linear_status}")
    if verdict.antipode is None:
        problems.append("no antipode")
        return problems
    mat = verdict.antipode.map.mat
    entries = [[col, row, v] for row in range(mat.rows)
               for col in range(mat.cols) if (v := mat.data[row][col]) != 0]
    problems += _antipode_problems(inst, entries, "antipode")
    expect(verdict.antipode_report is not None
           and verdict.antipode_report.passed, "antipode report fails")
    rt = verdict.roundtrip_report
    expect(rt is not None and rt.passed
           and any(e.axiom_id.startswith("rt.") for e in rt.entries),
           "round trip fails")
    return problems
