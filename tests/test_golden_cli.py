"""CLI output pinned byte for byte: exit code and stdout of every run in
tests/golden_cli.json.

The golden file holds the input files and, per argv, the exit code and the
stdout that the CLI produced when the file was written.  It is rewritten only
when an output change is intended:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from aggdom.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")


def _inputs() -> dict[str, str]:
    from conftest import MOD7, MOD9, MOD10, MOD11, MOD12, MOD13, MOD14, PHI_TEXT

    files = {f"phi{i}.ecnf": text for i, text in PHI_TEXT.items()}
    for k, rows in [(7, MOD7), (9, MOD9), (10, MOD10), (11, MOD11), (12, MOD12), (13, MOD13), (14, MOD14)]:
        files[f"mod{k}.dom"] = _domain_text(rows)
    # the DEGENERATE domains: mod14 with x4 fixed to 1 (affine projection),
    # mod12 with x1 fixed to 0 (Horn projection), and a single member
    files["mod14-x4.dom"] = _domain_text([row + (1,) for row in MOD14])
    files["x1-mod12.dom"] = _domain_text([(0,) + row for row in MOD12])
    files["single.dom"] = "d 3\n101\n"
    return files


DEGENERATE = ("mod14-x4.dom", "x1-mod12.dom", "single.dom")


def _domain_text(rows) -> str:
    return f"d {len(rows[0])}\n" + "".join("".join(map(str, row)) + "\n" for row in rows)


def _argvs(files) -> list[list[str]]:
    argvs = [["classify-formula", name, "--json"] for name in files if name.endswith(".ecnf")]
    for name in files:
        if not name.endswith(".dom"):
            continue
        degenerate = ["--permissive"] if name in DEGENERATE else []
        if name != "single.dom":  # all fixed: nothing to classify
            argvs.append(["classify-domain", name, "--json", "--witness", *degenerate])
        argvs.append(["synthesize", name, "--json", *degenerate])
        argvs.append(["synthesize", name, "--lpic", "--json", *degenerate])
    return argvs


def _run(argv, directory: Path) -> tuple[int, str]:
    resolved = [str(directory / a) if a.endswith((".ecnf", ".dom")) else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(resolved)
    return code, out.getvalue()


def _materialize(files, directory: Path):
    for name, text in files.items():
        (directory / name).write_text(text)


def test_cli_output_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    _materialize(golden["files"], tmp_path)
    for run in golden["runs"]:
        code, stdout = _run(run["argv"], tmp_path)
        assert (code, stdout) == (run["exit"], run["stdout"]), run["argv"]


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(Path(__file__).parent))
    files = _inputs()
    with tempfile.TemporaryDirectory() as tmp:
        _materialize(files, Path(tmp))
        runs = []
        for argv in _argvs(files):
            code, stdout = _run(argv, Path(tmp))
            runs.append({"argv": argv, "exit": code, "stdout": stdout})
    GOLDEN.write_text(json.dumps({"files": files, "runs": runs}, indent=1) + "\n")
    print(f"wrote {len(runs)} runs to {GOLDEN}")
