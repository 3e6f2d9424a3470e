"""README cites only what exists: every backticked dotted name resolves to a
package name, a config key or a file a run writes, every cited repository
file exists, and every `biasadapt` line of a bash block parses. Nothing the
README shows is run."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
import shlex
import typing
from pathlib import Path

import pytest

import biasadapt
from biasadapt.cli import _build_parser
from biasadapt.harness import ExperimentConfig, config_from_dict, run_train

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
FENCED = re.compile(r"```(\w*)\n(.*?)```", re.S)
PROSE = FENCED.sub("", README)
SPANS = re.findall(r"`([^`\n]+)`", PROSE)
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
REPO_PATH = re.compile(r"(?:configs|scripts|src|tests|perfbench)/[\w./-]+")
MODULES = {
    info.name: importlib.import_module(f"biasadapt.{info.name}")
    for info in pkgutil.iter_modules(biasadapt.__path__)
}


def _member(owner, name: str) -> bool:
    """name is an attribute of owner, a dataclass field of it, or an
    attribute its __init__ sets."""
    if hasattr(owner, name):
        return True
    if not inspect.isclass(owner):
        return False
    if dataclasses.is_dataclass(owner) and name in {f.name for f in dataclasses.fields(owner)}:
        return True
    try:
        source = inspect.getsource(owner.__init__)
    except (TypeError, OSError):
        return False
    return re.search(rf"\bself\.{name}\s*=", source) is not None


def _package_name(dotted: str) -> bool:
    head, *rest = dotted.split(".")
    if head in MODULES:
        owner = MODULES[head]
    else:
        owners = [getattr(m, head) for m in MODULES.values() if hasattr(m, head)]
        if not owners:
            return False
        owner = owners[0]
    for name in rest:
        if not _member(owner, name):
            return False
        owner = getattr(owner, name, None)
    return True


def _config_key(dotted: str) -> bool:
    """dotted is a key under the data, train or eval section."""
    if dotted.split(".")[0] not in ("data", "train", "eval"):
        return False
    section = ExperimentConfig
    for name in dotted.split("."):
        fields = typing.get_type_hints(section) if dataclasses.is_dataclass(section) else {}
        if name not in fields:
            return False
        section = fields[name]
    return True


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory) -> set[str]:
    """The names of the files one small training run writes."""
    out = tmp_path_factory.mktemp("run")
    run_train(config_from_dict({
        "data": {"dim": 2, "num_classes": 2, "test_per_class": 2,
                 "labeled_profile": {"n1": 4}, "unlabeled_profile": {"n1": 4}},
        "train": {"iters": 2, "batch_n": 2, "batch_m": 2, "balanced_n": 2,
                  "extractor_hidden": [2], "feature_dim": 2, "attractor_hidden": 2},
        "eval": {"interval": 1, "ckpt_interval": 2, "out_dir": str(out)},
    }))
    return {path.name for path in out.iterdir()}


def test_every_cited_dotted_name_resolves(artifacts):
    names = sorted({span for span in SPANS if DOTTED.fullmatch(span)})
    assert names, "README cites no dotted name"
    unresolved = [
        name for name in names
        if not (_package_name(name) or _config_key(name) or name in artifacts)
    ]
    assert not unresolved, f"README cites names that do not exist: {unresolved}"


def test_every_cited_repository_file_exists():
    paths = sorted({span for span in SPANS if REPO_PATH.fullmatch(span)})
    assert paths, "README cites no repository file"
    missing = [path for path in paths if not (ROOT / path).exists()]
    assert not missing, f"README cites files that do not exist: {missing}"


def test_every_biasadapt_command_parses():
    parser = _build_parser()
    lines = [
        line.strip()
        for lang, block in FENCED.findall(README) if lang == "bash"
        for line in block.replace("\\\n", " ").splitlines()
        if line.strip().startswith("biasadapt ")
    ]
    assert lines, "README shows no biasadapt command"
    refused = []
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            refused.append(line)
    assert not refused, f"README shows commands the CLI refuses: {refused}"
