import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_output_hashes_prints_one_row_per_combination():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_hashes.py"), "--iters", "3"],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    rows = [line.split(" | ") for line in out.splitlines()[2:]]
    assert len(rows) == 24
    assert len({tuple(r[:3]) for r in rows}) == 24
    for row in rows:
        digests = [cell.strip(" |") for cell in row[3:]]
        assert len(digests) == 3 and all(len(d) == 64 for d in digests)


def test_perfbench_patches_resolve():
    # perfbench traces functions by (module, name); a rename in the package
    # must not leave one of its patches pointing at nothing
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracer as tracer_mod
        import worker
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    import biasadapt.benchmark
    import biasadapt.bilevel
    import biasadapt.data
    import biasadapt.harness
    import biasadapt.metrics
    import biasadapt.model
    import biasadapt.numcore
    import biasadapt.pseudo

    pkg = biasadapt
    original = pkg.bilevel.forward_train
    tracer = tracer_mod.Tracer()
    try:
        worker.install_entry(tracer, pkg)
        worker.install_layers(tracer, pkg)
        assert len(tracer._saved) == 35
        for owner, attr, fn in tracer._saved:
            assert callable(fn) and getattr(owner, attr) is not fn, attr
    finally:
        tracer.restore()
    assert pkg.bilevel.forward_train is original
