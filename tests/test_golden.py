"""Byte-identity of ``--out`` reports against committed goldens.

The goldens pin the report contract across kernels: the same witnesses
(lexicographically first differing entry), the same first-pivot bases and
the same entry ordering.  ``exit_codes.json`` pins the exit code of every
case.  To write a fresh set from a source tree:

    PYTHONPATH=src python tests/test_golden.py tests/data/golden
"""

import json
import sys
from importlib import resources
from pathlib import Path

import pytest

from weakhopf import cli

GOLDEN = Path(__file__).parent / "data" / "golden"
INSTANCES = ("g2", "k2", "z2", "sl", "nz", "dz2")
EXPR = "kappa ∘ tau"


def _instance_path(name, golden):
    if name == "dz2":
        return golden / "dz2.instance"
    if name.startswith("g2_bad"):
        return GOLDEN / f"{name}.instance"
    return resources.files("weakhopf") / "data" / f"{name}.instance"


def cases():
    """(report name, argv with OUT as the --out placeholder)."""
    out = [("dz2.instance", ["gen", "dual", "--of", "@z2", "--out", "OUT"])]
    for name in INSTANCES:
        for command in ("check", "derive", "galois", "antipode"):
            out.append((f"{name}.{command}.json",
                        [command, f"@{name}", "--out", "OUT"]))
        out.append((f"{name}.eval.json",
                    ["eval", f"@{name}", EXPR, "--out", "OUT"]))
    # failing laws pin the witnesses
    for name in ("g2_bad_e", "g2_bad_eps", "g2_bad_m"):
        out.append((f"{name}.check.json", ["check", f"@{name}", "--out", "OUT"]))
    module = resources.files("weakhopf") / "data" / "g2_free.module"
    out.append(("g2.hopfmod.json",
                ["hopfmod", "@g2", str(module), "--out", "OUT"]))
    return out


def run_case(argv, out_path, golden=GOLDEN):
    argv = [str(_instance_path(a[1:], golden)) if a.startswith("@") else a
            for a in argv]
    argv = [str(out_path) if a == "OUT" else a for a in argv]
    return cli.main(argv)


def write_reports(outdir):
    """Run every case; dz2.instance comes first, so later cases read it."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    codes = {}
    for name, argv in cases():
        codes[name] = run_case(argv, outdir / name, outdir)
    (outdir / "exit_codes.json").write_text(
        json.dumps(codes, sort_keys=True, indent=2) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name,argv", cases(), ids=[c[0] for c in cases()])
def test_report_bytes_match_golden(name, argv, tmp_path, capsys):
    want_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    out_path = tmp_path / name
    code = run_case(argv, out_path)
    capsys.readouterr()
    assert code == want_codes[name]
    assert out_path.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    write_reports(sys.argv[1])
