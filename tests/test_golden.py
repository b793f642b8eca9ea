"""Byte-for-byte regression snapshots of CLI stdout.

Each file under ``tests/golden/`` is the stdout of one command as the CLI
printed it before its catalog engine and table writers were merged, or, for
``duality --n 30`` and ``--n 36``, before duality reports were shared per
invariant class; n = 36 has the self-dual divisor k = 6.  ``verify all``
was captured before the verifier counted its cells through one check, and
pins every table's cell count.  The two ``component`` lines for n = 6,
k = 1 were captured before the text line was built from the markdown
fields, which at k = 1 include one the line leaves out.  The ``betti``,
``ktheory`` and ``euler`` lines and help texts were captured while each
command had its own body.  They are
regression snapshots, not reference data: the transcribed ground truth lives
in ``src/extquot/data``.  Replace a snapshot only with a change that means to
alter that output.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from extquot.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"


def _golden_commands() -> dict[str, list[str]]:
    commands = {}
    for k in (1, 2, 3, 6):
        for form in ("complex", "real"):
            for fmt, ext in (("markdown", "md"), ("csv", "csv"), ("json", "json")):
                commands[f"decompose_n6_k{k}_{form}.{ext}"] = [
                    "decompose", "--n", "6", "--k", str(k), "--form", form, "--format", fmt,
                ]
    lookup = ["--n", "16", "--k", "8", "--partition", "2^4,4^2"]
    for form in ("complex", "real"):
        for fmt, ext in (("markdown", "md"), ("json", "json")):
            commands[f"decompose_n16_k8_2444_{form}.{ext}"] = [
                "decompose", *lookup, "--form", form, "--format", fmt,
            ]
        for fmt, ext in (("text", "txt"), ("json", "json")):
            commands[f"component_n16_k8_2444_w1_{form}.{ext}"] = [
                "component", *lookup, "--omega-exponent", "1", "--form", form, "--format", fmt,
            ]
        commands[f"component_n6_k1_1122_{form}.txt"] = [
            "component", "--n", "6", "--k", "1", "--partition", "1,1,2,2", "--form", form, "--format", "text",
        ]
    commands["table_betti_k1.md"] = ["table", "betti", "--max-n", "45", "--k", "1", "--format", "markdown"]
    commands["table_betti_k2_even.md"] = [
        "table", "betti", "--max-n", "60", "--k", "2", "--even-only", "--format", "markdown",
    ]
    commands["table_ktheory.md"] = ["table", "ktheory", "--max-n", "20", "--format", "markdown"]
    commands["duality_n12.txt"] = ["duality", "--n", "12"]
    commands["duality_n16.txt"] = ["duality", "--n", "16"]
    commands["duality_n30.json"] = ["duality", "--n", "30", "--format", "json"]
    commands["duality_n36.txt"] = ["duality", "--n", "36"]
    commands["verify_all.json"] = ["verify", "all", "--format", "json"]
    for command in ("betti", "ktheory", "euler"):
        for n, k in ((6, 1), (8, 2), (12, 4)):
            for fmt, ext in (("text", "txt"), ("json", "json")):
                commands[f"{command}_n{n}_k{k}.{ext}"] = [command, "--n", str(n), "--k", str(k), "--format", fmt]
        commands[f"{command}_help.txt"] = [command, "--help"]
    return commands


GOLDEN_COMMANDS = _golden_commands()


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_stdout_matches_golden(name):
    result = CliRunner().invoke(main, GOLDEN_COMMANDS[name])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (GOLDEN_DIR / name).read_bytes()


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(GOLDEN_COMMANDS)
