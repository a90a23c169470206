"""Command-line front end.

Exit codes: 0 success / verdict true, 1 checked failure (failing axiom,
missing antipode, singular Galois map), 2 input or schema error.

Text goes to stdout; ``--out FILE`` additionally writes the structured JSON
report.  Structured reports carry no timings so that identical inputs give
byte-identical files; elapsed time is printed to stderr instead.

``--float`` switches every comparison and rank computation to double
precision with threshold ``--tol`` (default 1e-9).  Exploratory use only;
the acceptance suite runs exact mode.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import baseobject, bimonad, entwining, exactmat, hopf, hopfmodules
from . import instances as inst
from .bimonad import WeakBraidedBimonad
from .errors import (
    ArityMismatch,
    DimensionMismatch,
    ExprSyntaxError,
    InvalidSpec,
    PrerequisiteAxiomFailed,
    SchemaError,
    WeakHopfError,
)
from .pipeline import Pipeline
from .tensorexpr import TensorMap, parse_expr


def _to_float(bim: WeakBraidedBimonad) -> WeakBraidedBimonad:
    def conv(f: TensorMap) -> TensorMap:
        mat = exactmat.Mat.from_entries(
            f.mat.rows, f.mat.cols,
            {(i, j): float(v) for i, j, v in f.mat.items()})
        return TensorMap(f.dom, f.cod, mat)

    return WeakBraidedBimonad(
        alg=bimonad.Algebra(bim.n, conv(bim.m), conv(bim.e)),
        coa=bimonad.Coalgebra(bim.n, conv(bim.delta), conv(bim.eps)),
        yb=bimonad.WeakYBPair(conv(bim.tau), conv(bim.tau_prime),
                              conv(bim.nabla)),
        name=bim.name, expected=bim.expected,
    )


def _load_pipeline(args) -> Pipeline:
    bim = inst.load(args.path, max_dim=args.max_dim)
    return Pipeline(_to_float(bim) if args.float else bim)


def _gated(cmd):
    """Run cmd(args, pipeline) on an instance that passes its axioms; on
    one that fails them, name the failures and exit 1."""
    @functools.wraps(cmd)
    def run(args):
        pipe = _load_pipeline(args)
        try:
            pipe.require()
        except PrerequisiteAxiomFailed as exc:
            sys.stdout.write(f"prerequisite axioms failed: {exc}\n")
            return 1
        return cmd(args, pipe)
    return run


def _sections_jsonable(sections):
    return {name: report.to_jsonable() for name, report in sections.items()}


def _render_text(doc) -> str:
    lines = [f"instance {doc.get('instance', '?')}  command {doc['command']}"]
    dims = doc.get("dims")
    if dims:
        lines.append("dims: " + " ".join(f"{k}={v}" for k, v in sorted(dims.items())))
    for name in sorted(doc.get("sections", {})):
        lines.append(f"section {name}")
        for entry in doc["sections"][name]:
            mark = "ok" if entry["holds"] else "FAIL"
            if entry.get("informational"):
                mark = "info:" + ("holds" if entry["holds"] else "fails")
            witness = ""
            if entry["witness"] is not None:
                witness = f"  witness={tuple(entry['witness'])}"
            lines.append(f"  [{mark}] {entry['id']}{witness}")
    verdicts = doc.get("verdicts")
    if verdicts:
        lines.append("verdicts: " + " ".join(
            f"{k}={str(v).lower()}" for k, v in sorted(verdicts.items())))
    for extra in doc.get("notes", []):
        lines.append(extra)
    return "\n".join(lines) + "\n"


def _emit(doc, args) -> None:
    sys.stdout.write(_render_text(doc))
    if args.out:
        Path(args.out).write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _expected_block(pipe: Pipeline) -> dict:
    """The values an instance file pins in its ``expected`` block."""
    return {"base_dim": pipe.base.r, "tensor_dim": pipe.galois.tensor_dim,
            "gamma_rank": pipe.galois.gamma_rank}


def cmd_check(args) -> int:
    pipe = _load_pipeline(args)
    bim, ent = pipe.bim, pipe.entwining_maps
    sections = dict(pipe.axioms)
    sections["entwining"] = entwining.check_weak_entwining(ent, bim)
    sections["derived"] = entwining.check_derived_identities(ent, bim)
    axioms_pass = all(r.passed for r in sections.values())
    doc = {
        "command": "check",
        "instance": bim.name,
        "dims": {"n": bim.n},
        "sections": _sections_jsonable(sections),
        "verdicts": {"axioms_pass": axioms_pass},
    }
    ok = axioms_pass
    if axioms_pass and bim.expected:
        got = _expected_block(pipe)
        expected_report = bimonad.AxiomReport()
        for key, want in sorted(bim.expected.items()):
            expected_report.add(bimonad.AxiomEntry(
                f"expected.{key}", got[key] == want,
                None if got[key] == want else (got[key], want)))
        doc["sections"]["expected"] = expected_report.to_jsonable()
        doc["verdicts"]["expected_pass"] = expected_report.passed
        ok = ok and expected_report.passed
    _emit(doc, args)
    return 0 if ok else 1


@_gated
def cmd_derive(args, pipe: Pipeline) -> int:
    bim, ent, base, acts = pipe.bim, pipe.entwining, pipe.base, pipe.actions
    sections = {
        "frobenius": baseobject.check_frobenius_separable(base),
        "actions": acts.report,
        "pi": baseobject.check_pi_splitting(bim, base),
    }
    ok = all(r.passed for r in sections.values())
    doc = {
        "command": "derive",
        "instance": bim.name,
        "dims": {"n": bim.n, "r": base.r,
                 "gbar": ent.gbar_dim, "tbar": ent.tbar_dim},
        "sections": _sections_jsonable(sections),
        "verdicts": {"frobenius_separable": sections["frobenius"].passed,
                     "pi_splitting": sections["pi"].passed},
    }
    _emit(doc, args)
    return 0 if ok else 1


def _literal(v) -> str:
    return repr(v) if isinstance(v, float) else str(Fraction(v))


def _sparse_endo_rows(f: TensorMap):
    rows = [[j, i, _literal(v)] for i, j, v in f.mat.items()]
    rows.sort(key=lambda row: row[:2])
    return rows


@_gated
def cmd_antipode(args, pipe: Pipeline) -> int:
    bim, ent = pipe.bim, pipe.entwining
    gal_data, linear = pipe.galois, pipe.linear
    doc = {
        "command": "antipode",
        "instance": bim.name,
        "dims": {"n": bim.n, "r": pipe.base.r},
        "sections": {},
        "verdicts": {
            "gamma_invertible": gal_data.gamma_invertible,
            "linear_status": linear.status,
        },
        "notes": [],
    }
    if gal_data.gamma_invertible:
        antipode = pipe.antipode
        doc["sections"]["antipode"] = \
            hopf.check_antipode(bim, ent, antipode.map).to_jsonable()
        doc["antipode"] = {"origin": antipode.origin,
                           "entries": _sparse_endo_rows(antipode.map)}
        if linear.antipode is not None:
            doc["antipode_linear"] = {
                "origin": linear.antipode.origin,
                "entries": _sparse_endo_rows(linear.antipode.map),
            }
        doc["notes"].append(f"antipode origin {antipode.origin}")
        _emit(doc, args)
        return 0
    reason = ("linear system inconsistent" if linear.status == "no_solution"
              else f"linear solve {linear.status}")
    doc["notes"].append(
        f"no weak antipode ({reason}); gamma rank "
        f"{gal_data.gamma_rank}/{gal_data.gamma.mat.rows}")
    _emit(doc, args)
    return 1


@_gated
def cmd_galois(args, pipe: Pipeline) -> int:
    bim, base, gal_data = pipe.bim, pipe.base, pipe.galois
    gm, gp = gal_data.gamma.mat, gal_data.gamma_prime.mat
    doc = {
        "command": "galois",
        "instance": bim.name,
        "dims": {"n": bim.n, "r": base.r, "t": gal_data.tensor_dim,
                 "c": gal_data.cotensor_dim, "gbar": gal_data.gbar_dim,
                 "tbar": gal_data.tbar_dim},
        "sections": {"galois": gal_data.report.to_jsonable()},
        "verdicts": {"gamma_invertible": gal_data.gamma_invertible,
                     "gamma_prime_invertible": gal_data.gamma_prime_invertible},
        "notes": [
            f"gamma: {gm.rows}x{gm.cols} rank {gal_data.gamma_rank} "
            + ("invertible" if gal_data.gamma_invertible else "not invertible"),
            f"gamma_prime: {gp.rows}x{gp.cols} rank {gal_data.gamma_prime_rank} "
            + ("invertible" if gal_data.gamma_prime_invertible
               else "not invertible"),
        ],
    }
    _emit(doc, args)
    return 0 if gal_data.gamma_invertible and gal_data.gamma_prime_invertible else 1


@_gated
def cmd_hopfmod(args, pipe: Pipeline) -> int:
    bim = pipe.bim
    module = inst.load_module(args.modulepath, bim)
    ent, base, gal_data = pipe.entwining, pipe.base, pipe.galois
    sections = {"module": hopfmodules.check_mixed_bimodule(bim, ent, module)}
    doc = {
        "command": "hopfmod",
        "instance": bim.name,
        "module": module.name,
        "dims": {"n": bim.n, "r": base.r, "carrier": module.dim},
        "sections": {},
        "verdicts": {"module_pass": sections["module"].passed,
                     "hopf": gal_data.gamma_invertible},
        "notes": [],
    }
    if not sections["module"].passed:
        doc["sections"] = _sections_jsonable(sections)
        _emit(doc, args)
        return 1
    antipode = pipe.antipode if gal_data.gamma_invertible else None
    doc["dims"]["coinvariants"] = \
        hopfmodules.coinvariants(bim, ent, antipode, module).dim
    ok = antipode is not None
    if ok:
        sections["roundtrip"] = pipe.roundtrip(module)
        ok = doc["verdicts"]["roundtrip_pass"] = sections["roundtrip"].passed
    else:
        doc["notes"].append("instance is not a weak Hopf monad; "
                            "coinvariants computed without a splitting")
    doc["sections"] = _sections_jsonable(sections)
    _emit(doc, args)
    return 0 if ok else 1


def cmd_eval(args) -> int:
    pipe = _load_pipeline(args)
    bim = pipe.bim
    env = {
        "m": bim.m, "e": bim.e, "delta": bim.delta, "eps": bim.eps,
        "tau": bim.tau, "tau_prime": bim.tau_prime, "nabla": bim.nabla,
    }
    if not pipe.failed_axioms:
        ent = pipe.entwining
        env.update({
            "omega": ent.omega, "omegabar": ent.omegabar,
            "sigma": ent.sigma, "sigmabar": ent.sigmabar,
            "xi": ent.xi, "xibar": ent.xibar,
            "chi": ent.chi, "chibar": ent.chibar,
            "kappa": ent.kappa, "kappa_prime": ent.kappa_prime,
        })
    result = parse_expr(args.expr, env, base_dim=bim.n)
    doc = {
        "command": "eval",
        "instance": bim.name,
        "expr": args.expr,
        "dom": list(result.dom),
        "cod": list(result.cod),
        "entries": [[i, j, _literal(v)] for i, j, v in result.mat.items()],
    }
    sys.stdout.write(f"map {result.dom} -> {result.cod}\n")
    sys.stdout.write(result.mat.pretty() + "\n")
    if args.out:
        Path(args.out).write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return 0


def _parse_arrows(text):
    arrows = []
    if not text:
        return tuple(arrows)
    for part in text.split(","):
        s, _, t = part.partition("-")
        arrows.append((int(s), int(t)))
    return tuple(arrows)


def _parse_table(text):
    return [[int(v) for v in row.split(",")] for row in text.split(";")]


def cmd_gen(args) -> int:
    # every branch checks the requested size before any map is built
    if args.kind == "groupoid":
        if args.objects is None:
            raise InvalidSpec("gen groupoid needs --objects")
        if args.full:
            spec = inst.full_groupoid(args.objects)
            name = args.name or f"G{args.objects}"
        elif args.arrows:
            spec = inst.GroupoidSpec(args.objects, _parse_arrows(args.arrows))
            name = args.name or f"groupoid{args.objects}"
        else:
            spec = inst.discrete_groupoid(args.objects)
            name = args.name or f"K{args.objects}"
        inst.check_max_dim(spec.dim(), args.max_dim)
        bim = inst.groupoid_algebra(spec, name=name)
    elif args.kind == "group":
        if args.cyclic is None and not args.table:
            raise InvalidSpec("gen group needs --cyclic N or --table")
        if args.cyclic is not None:
            inst.check_max_dim(args.cyclic, args.max_dim)
            table = inst.cyclic_group_table(args.cyclic)
        else:
            table = _parse_table(args.table)
            inst.check_max_dim(len(table), args.max_dim)
        name = args.name or (f"Z{args.cyclic}" if args.cyclic is not None
                             else f"group{len(table)}")
        bim = inst.group_algebra(table, name=name)
    elif args.kind == "monoid":
        if not args.table:
            raise InvalidSpec("gen monoid needs --table \"0,1;1,1\"")
        table = _parse_table(args.table)
        inst.check_max_dim(len(table), args.max_dim)
        bim = inst.monoid_algebra(table, name=args.name or f"monoid{len(table)}")
    elif args.kind == "superline":
        inst.check_max_dim(2, args.max_dim)
        bim = inst.super_line()
    elif args.kind == "dual":
        if not args.of:
            raise InvalidSpec("gen dual needs --of INSTANCE")
        bim = inst.dual_instance(inst.load(args.of, max_dim=args.max_dim))
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidSpec(f"unknown kind {args.kind}")

    pipe = Pipeline(bim)
    expected = None if pipe.failed_axioms else _expected_block(pipe)
    text = inst.to_json_text(bim, expected=expected)
    Path(args.outfile).write_text(text, encoding="utf-8")
    sys.stdout.write(f"wrote {args.outfile} ({bim.name}, dim {bim.n})\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="weakhopf",
        description="exact verification of weak braided bimonads and "
                    "weak Hopf monads")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the structured JSON report here")
    common.add_argument("--float", action="store_true",
                        help="double-precision mode (exploratory)")
    common.add_argument("--tol", type=float, default=1e-9,
                        help="zero threshold for --float (default 1e-9)")
    common.add_argument("--max-dim", type=int, default=12,
                        help="refuse instances larger than this (default 12)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="run all axiom and identity checks")
    p.add_argument("path")

    p = sub.add_parser("derive", parents=[common],
                       help="base object, Frobenius data, pi-splitting")
    p.add_argument("path")

    p = sub.add_parser("antipode", parents=[common],
                       help="construct or refute a weak antipode")
    p.add_argument("path")

    p = sub.add_parser("galois", parents=[common],
                       help="Galois maps and invertibility verdicts")
    p.add_argument("path")

    p = sub.add_parser("hopfmod", parents=[common],
                       help="check a module file and run the round trip")
    p.add_argument("path")
    p.add_argument("modulepath")

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate an expression over the instance maps")
    p.add_argument("path")
    p.add_argument("expr")

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("kind",
                   choices=["groupoid", "group", "monoid", "superline", "dual"])
    p.add_argument("--objects", type=int)
    p.add_argument("--full", action="store_true")
    p.add_argument("--arrows")
    p.add_argument("--cyclic", type=int)
    p.add_argument("--table")
    p.add_argument("--of")
    p.add_argument("--name")
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--max-dim", type=int, default=12)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, not stored in the parser that outlives this call
    command = globals()[f"cmd_{args.command}"]
    start = time.perf_counter()
    try:
        if getattr(args, "float", False):
            with exactmat.tolerance(args.tol):
                code = command(args)
        else:
            code = command(args)
    except (SchemaError, InvalidSpec, ExprSyntaxError, ArityMismatch,
            DimensionMismatch) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except PrerequisiteAxiomFailed as exc:
        sys.stderr.write(f"checked failure: {exc}\n")
        return 1
    except WeakHopfError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    sys.stderr.write(
        f"elapsed {1000 * (time.perf_counter() - start):.1f} ms\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
