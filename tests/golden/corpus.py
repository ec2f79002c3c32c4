"""The golden corpus of CLI output, and the helper that writes and checks it.

Every command below runs as text, with --json and with --csv, through
quadratica.cli.main in-process and in an empty working directory. cli.json
stores, per argv, the exit code, stdout, stderr and every file the run wrote
(--out, --report). Wall times are masked first. An output longer than
INLINE_MAX characters is stored as its sha256 and length. argparse's own text
(--help, usage errors) wraps differently from one Python version to the next,
so it is stored only as its prefix, "usage:".

    python tests/golden/corpus.py --check   # exit 1 if any run differs from cli.json
    python tests/golden/corpus.py --write   # record cli.json from this checkout

The expected bytes come from a fixed earlier commit, not from the code under
change: a change that regenerates cli.json lists the entries it changed.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

CORPUS = Path(__file__).with_name("cli.json")
INLINE_MAX = 4096
FORMATS = ([], ["--json"], ["--csv"])
MASKS = (
    (re.compile(r"elapsed: \d+\.\d+s"), "elapsed: <masked>s"),
    (re.compile(r'"elapsed_seconds": [0-9.e+-]+'), '"elapsed_seconds": "<masked>"'),
    (re.compile(r"\[\d+\.\d+ s\]"), "[<masked> s]"),
    (re.compile(r'"elapsed": [0-9.e+-]+'), '"elapsed": "<masked>"'),
)

# `verify` runs at --scale quick, with its per-check times masked; CI also runs --scale full.
COMMANDS = """
solve 1 -1 -1
quad shift 1 3 -3 1
quad family 1 1
qfield op mul "1/2 + 1/2√5" "1/2 - 1/2√5"
fib reduce --case I --n 10
fib group --case III
metallic table --max-p 4
metallic ledger --n 20
cong solve 1 1 1 7
cong twosquares 13
perfect table --max-exp 13
perfect preimage 8128
perfect areas -1 -1/2
perfect plot --from -2 --to 1 --step 1/100
goldbach witness 24
goldbach witness 24 --all
goldbach verify --to 100000 --report report.csv
goldbach areas 17 7
pnum associate 120
geom platonic icosa --edge 1
geom trajectory 10 0.785398 9.8
errata
quad derivative 1 -3 2
quad derivative 1 0 1
quad ode 1 2 5
quad ode 1 2 1
qfield make 1/2 1/2 5
qfield op div "1 + √2" "1 - √2"
qfield op div 1 0
qfield conj "2 - 3√5"
qfield coords "1/2 + 1/2√5"
qfield sqrt 5
qfield sqrt -3
fib value 30
fib reduce --case II --n 7
fib sum --case I --n 10
fib sum --case II --n 10
fib sum --case III --n 10
fib sum --case IV --n 10
fib sum --case I --n 0
fib sum --case III --n -4
fib group --case IV
metallic classify 13
metallic classify 11
metallic classify 8
metallic creation 5
metallic trig
metallic table --max-p 0
metallic table --max-p 30
metallic ledger --n 2
metallic ledger --n 1
cong legendre 2 7
cong sqrt 2 7
cong sqrt 3 7
cong sqrt 2 9
cong solve 1 0 1 5
cong twosquares 7
perfect table --max-exp 1
perfect preimage 10
perfect plot --step 1/3 --precision 4
goldbach witness 4 --all
goldbach witness 100
goldbach witness 7
goldbach verify --to 2000
goldbach hypotenuse 2 1
goldbach hypotenuse 3 1 2
goldbach hypotenuse 2 2
goldbach hypotenuse 0 1
pnum root 987
pnum parabola 3 2
geom platonic cube --edge 2
geom goldencut 10
geom trajectory 10 0.785398 --samples 5 --precision 3
solve 0 1 1
solve 1 2 5
solve 1/2 -1/2 -1/2
solve 1 2 1
solve 1 -1 -1 --out out.txt
metallic table --max-p 4 --out out.txt
fib value 30000
fib value 20576
fib sum --case I --n 20574
fib sum --case II --n 20577
fib sum --case III --n 1000000
fib sum --case IV --n 1000000
metallic ledger --n 30000
perfect table --max-exp 2001
perfect plot --from 0 --to 100001/100 --step 1/100
geom trajectory 10 0.785398 --samples 0
geom platonic cube --edge 1e120
geom goldencut 1e400
perfect plot --step 0
perfect plot --from 1 --to 0
perfect plot --from 1e200 --to 1e200
perfect preimage 0
goldbach witness 5
goldbach witness 5 --all
goldbach witness 9999998
goldbach witness 10000002 --all
goldbach hypotenuse 2 1 0
goldbach verify --to 3
pnum associate 0
pnum root -1
pnum parabola 0 1
pnum parabola 1 0
solve x 1 1
solve 1/0 1 1
perfect areas x 1
qfield conj abc
qfield op add "1 + √x" 2
qfield op add 1e100000 2
qfield op pow 1 2
quad shift 1 3 -3 0.5
solve -1e5 1 1
perfect plot --from -1e1 --to -9 --step 1/2
--help
fib
fib group --case V
solve 1 -1
--precision 0 solve 1 -1 -1
verify --scale quick
geom platonic cube --edge 1e-200
geom goldencut 1e-400
perfect plot --from 1 --to 1.0000000000001 --step 0.000000000000001
perfect plot --step 1/3 --precision 1
geom trajectory 10 0.785398 --samples 1000 --precision 2
cong legendre 2 1044388881413152506691752710716624382579964249047383780384233483283953907971557456848826811934997558340890106714439262837987573438185793607263236087851365277945956976543709998340361590134383718314428070011855946226376318839397712745672334684344586617496807908705803704071284048740118609114467977783598029006686938976881787785946905630190260940599579453432823469303026696443059025015972399867714215541693835559885291486318237914434496734087811872639496475100189041349008417061675093668333850551032972088269550769983616369411933015213796825837188091833656751221318492846368125550225998300412344784862595674492194617023806505913245610825731835380087608622102834270197698202313169017678006675195485079921636419370285375124784014907159135459982790513399611551794271106831134090584272884279791554849782954323534517065223269061394905987693002122963395687782878948440616007412945674919823050571642377154816321380631045902916136926708342856440730447899971901781465763473223850267253059899795996090799469201774624817718449867455659250178329070473119433165550807568221846571746373296884912819520317457002440926616910874148385078411929804522981857338977648103126085903001302413467189726673216491511131602920781738033436090243804708340403154190337
goldbach areas 1044388881413152506691752710716624382579964249047383780384233483283953907971557456848826811934997558340890106714439262837987573438185793607263236087851365277945956976543709998340361590134383718314428070011855946226376318839397712745672334684344586617496807908705803704071284048740118609114467977783598029006686938976881787785946905630190260940599579453432823469303026696443059025015972399867714215541693835559885291486318237914434496734087811872639496475100189041349008417061675093668333850551032972088269550769983616369411933015213796825837188091833656751221318492846368125550225998300412344784862595674492194617023806505913245610825731835380087608622102834270197698202313169017678006675195485079921636419370285375124784014907159135459982790513399611551794271106831134090584272884279791554849782954323534517065223269061394905987693002122963395687782878948440616007412945674919823050571642377154816321380631045902916136926708342856440730447899971901781465763473223850267253059899795996090799469201774624817718449867455659250178329070473119433165550807568221846571746373296884912819520317457002440926616910874148385078411929804522981857338977648103126085903001302413467189726673216491511131602920781738033436090243804708340403154190337 3
"""


def cases() -> list[list[str]]:
    """Every corpus argv: each command in each output format."""
    return [shlex.split(line) + fmt for line in COMMANDS.strip().splitlines() for fmt in FORMATS]


def _stored(text: str):
    for pattern, replacement in MASKS:
        text = pattern.sub(replacement, text)
    if text.startswith("usage:"):
        return {"prefix": "usage:"}
    if len(text) > INLINE_MAX:
        return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "length": len(text)}
    return text


def record(argv: list[str], workdir: Path) -> dict:
    """Run argv in the empty directory workdir; return its entry as cli.json stores it."""
    from quadratica.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: --help or a usage error
                code = exc.code or 0
    finally:
        os.chdir(cwd)
    entry = {"exit": code, "stdout": _stored(out.getvalue()), "stderr": _stored(err.getvalue())}
    files = {path.name: _stored(path.read_bytes().decode()) for path in sorted(workdir.iterdir())}
    if files:
        entry["files"] = files
    return entry


def load() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def _record_fresh(argv: list[str]) -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        return record(argv, Path(workdir))


def _diff(expected, observed) -> str:
    lines = []
    for field in sorted(set(expected) | set(observed)):
        want, got = expected.get(field), observed.get(field)
        if want == got:
            continue
        if isinstance(want, str) and isinstance(got, str):
            diff = difflib.unified_diff(want.splitlines(), got.splitlines(), "expected", "observed", lineterm="")
            lines.append(f"  {field}:\n" + "\n".join("    " + line for line in diff))
        else:
            lines.append(f"  {field}: expected {want!r}, observed {got!r}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record cli.json from this checkout")
    mode.add_argument("--check", action="store_true", help="compare every run with cli.json")
    args = parser.parse_args(argv)
    if args.write:
        corpus = {shlex.join(case): _record_fresh(case) for case in cases()}
        CORPUS.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
        print(f"wrote {len(corpus)} entries to {CORPUS}")
        return 0
    expected = load()
    failed = 0
    for case in cases():
        key = shlex.join(case)
        observed = _record_fresh(case)
        if key not in expected:
            failed += 1
            print(f"MISSING {key}: not in {CORPUS.name}; run --write")
        elif observed != expected[key]:
            failed += 1
            print(f"DIFF {key}\n{_diff(expected[key], observed)}")
    print(f"{len(cases()) - failed}/{len(cases())} runs match {CORPUS.name} (Python {sys.version.split()[0]})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    sys.exit(main())
