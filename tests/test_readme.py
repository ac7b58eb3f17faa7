"""The README's Library example runs as printed."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs(monkeypatch, capsys):
    """One heart solve, from the repository root as the README's paths
    assume.

    Kernel-bound: E_cv 19.33% is heart's endpoint under OpenBLAS's SkylakeX
    (and Haswell) kernels.  Under the Prescott kernels the solve ends at
    C_raw 0.7634 and E_cv 18.67%, and the test fails.
    """
    text = (ROOT / "README.md").read_text()
    [example] = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    monkeypatch.chdir(ROOT)
    exec(compile(example, "README.md", "exec"), {})
    E_cv, E_te = map(float, capsys.readouterr().out.split())
    assert E_cv == pytest.approx(19.33, abs=5e-3)
    assert E_te == pytest.approx(17.50, abs=5e-3)
