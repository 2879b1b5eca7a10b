"""The README's examples run, every exported name exists, and the package's
settings do not grow unnoticed."""

import ast
import hashlib
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import gensel
from gensel import cli

README = Path(__file__).resolve().parent.parent / "README.md"
README_TEXT = README.read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README_TEXT, re.M | re.S)
SHELL_BLOCK = next(
    block
    for block in re.findall(r"^```sh\n(.*?)^```", README_TEXT, re.M | re.S)
    if "\ngensel " in block
)
MODULES = sorted(m.name for m in pkgutil.iter_modules(gensel.__path__))

# Every output of the README shell block, `report` run with --deterministic.
README_OUTPUT_SHA256 = {
    "select.csv": "e75d46f1d2c24bac52bddb7869916753788a25acb8d487c92bb7f0e3e1ecdbea",
    "data.csv": "a4557b4719946d240edf67a72e6593cd42cf3b3eab033d47cc0fc61de5c2dd51",
    "traces.csv": "4c2a3fa6b99c701eba28d15fedc56f5efb3b843b664b7cefa3ad82bcb8f8db38",
    "expr.csv": "bca3bdd17839275dd9fbd0b9145e49e5ceb740448ca4a1c4dd622838259d9fd3",
    "table1.csv": "12a891dce84d2c1a3b9343765aebd652d5c2d248971f73c41a7d920ee33e2ed1",
    "curves.svg": "29652efdb3146e39128f452476f4061ca904159efeecb477368d697c9b52d95a",
    "theory.csv": "38fa308b3bec30aecdbbcddeae0e8459e212af98ff1ba1449beabc31526b62f1",
}

# Parameters and class fields with a default in src/gensel.  A change that
# adds a setting raises this on purpose and says why in CHANGES.md.
MAX_SETTINGS = 42


def _shell_steps(block: str) -> tuple[dict[str, str], list[list[str]]]:
    """The files a block writes by heredoc, and the argv of each gensel line."""
    files, commands = {}, []
    lines = iter(block.replace("\\\n", " ").splitlines())
    for line in lines:
        heredoc = re.fullmatch(r"cat > (\S+) <<'(\w+)'", line.strip())
        if heredoc:
            name, end = heredoc.groups()
            body = []
            for body_line in lines:
                if body_line == end:
                    break
                body.append(body_line + "\n")
            files[name] = "".join(body)
            continue
        words = shlex.split(line, comments=True)
        if words and words[0] == "gensel":
            commands.append(words[1:])
    return files, commands


def test_readme_has_python_blocks():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    """Each fenced ``python`` block runs as written and prints its results."""
    code = compile(PYTHON_BLOCKS[index], f"README.md python block {index + 1}", "exec")
    exec(code, {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"gensel.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_readme_shell_block_outputs(tmp_path, monkeypatch, capsys):
    """The shell block runs as written and every output keeps its bytes."""
    files, commands = _shell_steps(SHELL_BLOCK)
    assert files == {"run.ini": "[spsa]\nlearning_rate = 0.005\n"}
    assert [argv[0] for argv in commands] == [
        "select", "gen-data", "train", "expressibility", "report", "verify-theory"
    ]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GENSEL_SEED", raising=False)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    for argv in commands:
        if argv[0] == "report":
            argv = [*argv, "--deterministic"]
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in README_OUTPUT_SHA256
    }
    assert digests == README_OUTPUT_SHA256


def _settings(module: str, tree: ast.Module) -> list[str]:
    """The module's parameters and class fields that have a default."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            given = positional[len(positional) - len(args.defaults) :]
            given += [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            where = f"{module}.{getattr(node, 'name', '<lambda>')}"
            names += [f"{where}({a.arg})" for a in given]
        elif isinstance(node, ast.ClassDef):
            names += [
                f"{module}.{node.name}.{field.target.id}"
                for field in node.body
                if isinstance(field, ast.AnnAssign) and field.value is not None
            ]
    return names


def test_settings_do_not_grow():
    """No parameter or class field with a default is added unnoticed."""
    names = []
    for path in sorted(Path(gensel.__file__).parent.glob("*.py")):
        names += _settings(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    assert len(names) <= MAX_SETTINGS, f"{len(names)} settings: {', '.join(names)}"


def _size_policy(tree: ast.Module) -> list[str]:
    """Module-level byte or qubit limits, and raised messages naming GiB."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                t.id for t in targets
                if isinstance(t, ast.Name)
                and (t.id.endswith("_BYTES") or re.fullmatch(r"_MAX_.*QUBITS.*", t.id))
            ]
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            texts = [c.value for c in ast.walk(node) if isinstance(c, ast.Constant)]
            found += [f"raise {t!r}" for t in texts if isinstance(t, str) and "GiB" in t]
    return found


def test_size_bounds_live_in_pauli():
    """Every size refusal goes through pauli.check_bytes: no other module
    keeps a byte or qubit limit of its own or words a GiB refusal."""
    found = {
        path.stem: _size_policy(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(Path(gensel.__file__).parent.glob("*.py"))
        if path.stem != "pauli"
    }
    assert {module: names for module, names in found.items() if names} == {}
